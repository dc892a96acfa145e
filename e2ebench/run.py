"""End-to-end benchmark of the TIV reproduction: one workload, one seed.

Usage, from the repository root of a checkout (no install, no network)::

    python3 e2ebench/run.py --workload figures-240 --seed 1 --seconds 50 --trace 0

It measures the set-up (fresh interpreters that import ``repro`` and
generate the workload's inputs, three times before the workload and twice
after it), runs the workload in a fresh process of its own
(``workload.py``) and prints one JSON object as the last line of standard
output::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, plus a Chrome
trace file under ``e2ebench/out/``.  Everything else the run writes lives
in a temporary directory under ``e2ebench/.work/``, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("figures-240", "stream-256")

#: Fresh interpreters timed before and after the workload; ``setup_s`` is
#: the median of all of them, so it rests on both ends of the run.
SETUP_REPEATS = (3, 2)

#: Wall-clock limit of the whole run, set-up and workload together.
RUN_TIMEOUT_S = 170

#: Thread pools pinned to one thread in every process the benchmark starts.
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def child_env(root: Path, workdir: Path) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    env["TMPDIR"] = str(workdir)
    env.pop("REPRO_NO_SHM", None)
    return env


def time_setup(args, env: dict, deadline: float, repeats: int) -> list[float]:
    """Fresh interpreter to inputs ready: ``import repro`` plus input generation."""
    code = (
        "import workload; "
        f"workload.make_inputs({args.workload!r}, {args.seed}, {args.size!r})"
    )
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - start)
    return times


def import_times(env: dict, deadline: float) -> dict[str, float]:
    """Cumulative import time of ``repro`` and ``scipy.optimize`` (``-X importtime``)."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=env, check=True, timeout=max(1.0, deadline - time.monotonic()),
        capture_output=True, text=True,
    )
    cumulative = {}
    for line in done.stderr.splitlines():
        match = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(.*)$", line)
        if match:
            cumulative[match.group(2).strip()] = int(match.group(1)) / 1e6
    return {
        "import.repro_s": cumulative.get("repro", 0.0),
        "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark (one workload, one seed).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: toy inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro package; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR / ".work"))
    try:
        env = child_env(root, workdir)
        setup = time_setup(args, env, deadline, SETUP_REPEATS[0])
        command = [
            sys.executable, str(BENCH_DIR / "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--workdir", str(workdir / "workload"),
        ]
        if args.trace:
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            command += ["--trace-file", str(trace_file)]
        done = subprocess.run(
            command, env=env, timeout=max(1.0, deadline - time.monotonic()),
            stdout=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            print(f"error: workload process exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        setup += time_setup(args, env, deadline, SETUP_REPEATS[1])
        print(f"setup: {', '.join(f'{x:.3f}' for x in setup)} s", file=sys.stderr)
        if args.trace:
            metrics = dict(import_times(env, deadline), **result["metrics"])
            print(f"trace file: {trace_file}", file=sys.stderr)
        else:
            metrics = dict(result["metrics"], setup_s=statistics.median(setup))
        declared = unit_table(per_layer=bool(args.trace))
        if set(metrics) != set(declared):
            print(f"error: metrics differ from BENCHMARK.json: missing "
                  f"{sorted(set(declared) - set(metrics))}, extra {sorted(set(metrics) - set(declared))}",
                  file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": declared[name]}
                for name, value in sorted(metrics.items())
            },
        }))
        return 0
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def unit_table(per_layer: bool) -> dict[str, str]:
    """Metric name to unit of one mode, as declared in BENCHMARK.json."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if per_layer else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
