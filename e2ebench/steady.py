"""Steadiness of the end-to-end benchmark: repeat one workload, report spreads.

Run from the repository root::

    python3 e2ebench/steady.py --workload stream-256 --runs 10 --seed0 100 --save a.json
    python3 e2ebench/steady.py --compare a.json b.json

The first form runs ``run.py`` once per seed (``seed0``, ``seed0 + 1``,
...) and prints, for every metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
spread as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  A spread under a third of the bound reads "steady",
one within the bound "within".  The spread of ``setup_s`` is shown but
not held to its bound; its median is, like every other metric's, in the
second form.  The share of failed operations must be the same in every
run.  The second form compares two saved sets of the same workload: each
metric's second median may be worse than the first by at most its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(workload: str, runs: int, seed0: int, seconds: float) -> list[dict]:
    results = []
    for seed in range(seed0, seed0 + runs):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            sys.exit(f"run with seed {seed} failed ({done.returncode}):\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - start
        result["log"] = [line for line in done.stderr.splitlines()
                         if line.startswith(("setup:", "round", "known fault"))]
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}, {result['wall_s']:.1f} s", file=sys.stderr)
    return results


def spread_table(results: list[dict]) -> list[str]:
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    lines = [f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict"]
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "NOISY")
            if name == "setup_s":
                verdict += " (spread not held to the bound)"
        lines.append(
            f"{name:<34} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.1%} "
            f"{'' if bound is None else format(bound, '.2f'):>6}  {verdict}"
        )
    shares = {r["failed"] / r["attempted"] for r in results}
    lines.append(f"failed share per run: {sorted(shares)} ({'equal' if len(shares) == 1 else 'DIFFERENT'})")
    lines.append(f"all correct: {all(r['correct'] for r in results)}")
    return lines


def compare(first: dict, second: dict) -> list[str]:
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    lines = [f"{'metric':<20} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'bound':>6}  verdict"]
    for name, metric in metrics.items():
        a = statistics.median(r["metrics"][name]["value"] for r in first["results"])
        b = statistics.median(r["metrics"][name]["value"] for r in second["results"])
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= metric["bound"] else "REGRESSED"
        lines.append(f"{name:<20} {a:>12.5g} {b:>12.5g} {worse:>9.1%} {metric['bound']:>6.2f}  {verdict}")
    share = [{r["failed"] / r["attempted"] for r in s["results"]} for s in (first, second)]
    lines.append(f"failed shares: {sorted(share[0])} vs {sorted(share[1])} "
                 f"({'equal' if share[0] == share[1] and len(share[0]) == 1 else 'DIFFERENT'})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--save", help="write the set of results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar="SET", help="compare two saved sets")
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        print("\n".join(compare(first, second)))
        return 0
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    results = run_set(args.workload, args.runs, args.seed0, seconds)
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "results": results}, indent=1))
    print(f"{args.workload}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
          f"{seconds:g} s each")
    print("\n".join(spread_table(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
