"""The workloads of the end-to-end benchmark.

``run.py`` starts this file in a fresh interpreter (``PYTHONPATH=src``,
BLAS/OpenMP pools pinned to one thread) and reads the JSON object it
prints last.  Every workload runs the same round of operations on its own
inputs: the figure pipeline (a cold ``jobs=1`` run on an empty cache, a
warm rerun, a cold ``jobs=2`` run) and the online TIV-aware tier (a
defended durable replay cut at a fixed event, recovery from checkpoint and
WAL, then one closed-loop client querying the live state).  A workload
weights the two tiers differently; see ``SPECS``.

Each round is checked by :mod:`checks`.  An operation that raises counts
as failed; an output that fails its check makes the run incorrect, except
for the known program faults of ``KNOWN_FAULTS``, which are checked on
fixed inputs where they fail in every round and are counted as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.delayspace.matrix import DelayMatrix
from repro.experiments.cache import ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.engine import run_experiments
from repro.experiments.registry import list_experiments
from repro.experiments.tiv_figures import DATASET_PRESETS, dataset_sizes
from repro.meridian.overlay import MeridianOverlay
from repro.stream import (
    DefenseConfig,
    FaultSpec,
    StreamCoordinateService,
    StreamServiceConfig,
    recover,
    replay_trace,
    state_fingerprint,
    synthesize_trace,
)
from repro.tiv.severity import violating_triangle_fraction

import checks
from tracing import Tracer

#: Figures of the TIV-alert family: the offline counterpart of the live
#: ``tiv_alert`` queries, run on the stream workload's ground truth.
ALERT_FIGURES = ("fig19", "fig20", "fig21", "fig24", "fig25")

#: Query families the closed-loop client fires, in order.
FAMILIES = ("closest", "distance", "tiv_alert", "meridian_closest")

#: Queries per batched call.
BATCH = 64

#: Batches per family whose answers are compared with scalar answers.
CHECKED_BATCHES = 2

#: Known faults of the program, each checked once per round on a fixed
#: input that does not depend on ``--seed`` and on which it fails every
#: time, so its share of the operations is constant.  ``defense``: the
#: defense quarantines honest nodes.  ``recovery``: ``recover`` does not
#: return the bit-identical state it documents (a severity estimate
#: differs in its last bit).
KNOWN_FAULTS = ("defense", "recovery")
DEFENSE_TRACE = dict(preset="ds2_like", n_nodes=64, seed=0, duration=60.0, churn=0.2)
RECOVERY_TRACE = dict(preset="ds2_like", n_nodes=240, seed=305, duration=40.0, churn=0.2)
RECOVERY_CHECKPOINT_EVERY = 2048

#: Units in the last place a severity estimate recovered from the seeded
#: trace may differ by.  The ``recovery`` fault reorders a sum of at most
#: eight terms, each at least 1, which moves it by a few ulps at most (one
#: where it was seen); any real corruption is far beyond this.
SEVERITY_ULPS = 16


@dataclass(frozen=True)
class Spec:
    """Inputs of one workload; both tiers run in every round."""

    figures: tuple[str, ...] | None  # None: every registered figure
    fig_nodes: int
    stream_nodes: int
    duration: float          # simulated seconds of measurement traffic
    window: float            # replay scoring window
    checkpoint_every: int    # events between checkpoints
    recoveries: int          # recoveries per round (median is reported)
    warm_runs: int           # warm reruns per round (median is reported)
    converges: bool          # trace long enough that the embedding must improve
    batches: int             # batched calls per query family per round
    scalar: int              # timed scalar closest queries per round (>= 1000 per part)
    severity_edges: int      # edges per matrix checked by brute force
    bellman_pairs: int       # pairs checked against the Bellman equation


SPECS = {
    # The paper's figure pipeline at the harness default; the online tier
    # runs on the same 240-node ds2_like delay space (9.5k events).
    "figures-240": Spec(None, 240, 240, 40.0, 40.0 / 6, 2048, 5, 1, False, 128, 4000, 32, 64),
    # The online tier: ~74k events with churn, liars and the defense on;
    # the figure side is only the TIV-alert family at 256 nodes, whose
    # half-second warm rerun is repeated across the round.
    "stream-256": Spec(ALERT_FIGURES, 256, 256, 300.0, 10.0, 8192, 2, 3, True, 128, 6000, 64, 64),
}

#: Same code paths at toy sizes: the untimed warm-up pass and the fast tests.
TINY = {
    name: replace(spec, fig_nodes=48, stream_nodes=40, duration=20.0, window=5.0,
                  checkpoint_every=128, recoveries=1, converges=False,
                  batches=CHECKED_BATCHES, scalar=50,
                  severity_edges=8, bellman_pairs=8)
    for name, spec in SPECS.items()
}


@dataclass
class Inputs:
    spec: Spec
    seed: int
    config: ExperimentConfig
    trace: object
    cut: int
    defense_trace: object
    recovery_trace: object
    service_config: StreamServiceConfig


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """Generate a workload's inputs from its seed (the measured set-up)."""
    spec = (TINY if size == "tiny" else SPECS)[workload]
    trace = synthesize_trace(
        preset="ds2_like", n_nodes=spec.stream_nodes, seed=seed, duration=spec.duration,
        churn=0.2, faults=FaultSpec(liar_fraction=0.1, seed=seed),
    )
    defense_trace, recovery_trace = (
        synthesize_trace(**fixed, faults=FaultSpec(liar_fraction=0.1, seed=fixed["seed"]))
        for fixed in (DEFENSE_TRACE, RECOVERY_TRACE)
    )
    return Inputs(
        spec=spec,
        seed=seed,
        config=ExperimentConfig(n_nodes=spec.fig_nodes, seed=seed),
        trace=trace,
        # The crash lands inside the last tenth of the trace, between two
        # checkpoints, so recovery re-applies a WAL suffix.
        cut=crash_cut(trace),
        defense_trace=defense_trace,
        recovery_trace=recovery_trace,
        service_config=StreamServiceConfig(defense=DefenseConfig()),
    )


def crash_cut(trace) -> int:
    return trace.n_events - trace.n_events // 10


@dataclass
class Ledger:
    """Operations attempted and failed, plus check findings."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)

    def op(self) -> None:
        self.attempted += 1

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.mismatches.append(f"FAILED {what}: {type(exc).__name__}: {exc}")

    def check(self, found: list[str]) -> None:
        self.mismatches.extend(found)


@dataclass
class Reference:
    """Uninterrupted apply-only replays up to the crash cut: of the seeded
    trace, and of the fixed trace of the ``recovery`` fault."""

    state: dict
    fingerprint: str
    apply_eps: float
    first_error: float
    cut_error: float
    fixed_state: dict
    fixed_fingerprint: str


def reference_replay(inp: Inputs) -> Reference:
    """Replay ``events[:cut]`` by plain ``apply`` and score it with our own code."""
    fixed = StreamCoordinateService(inp.service_config, rng=RECOVERY_TRACE["seed"])
    for event in inp.recovery_trace.events[: crash_cut(inp.recovery_trace)]:
        fixed.apply(event)
    trace = inp.trace
    service = StreamCoordinateService(inp.service_config, rng=inp.seed)
    first_end = float(trace.events[0].t) + inp.spec.window
    first_error = None
    rng = np.random.default_rng([inp.seed, 0xACC])
    elapsed = 0.0
    for event in trace.events[: inp.cut]:
        if first_error is None and event.t >= first_end:
            first_error = checks.median_relative_error(
                service, trace.ground_truth, service.active_nodes(), 512, rng
            )
        start = time.perf_counter()
        service.apply(event)
        elapsed += time.perf_counter() - start
    cut_error = checks.median_relative_error(
        service, trace.ground_truth, service.active_nodes(), 512, rng
    )
    return Reference(
        state=service.state_dict(),
        fingerprint=state_fingerprint(service),
        apply_eps=inp.cut / elapsed,
        first_error=float("nan") if first_error is None else first_error,
        cut_error=cut_error,
        fixed_state=fixed.state_dict(),
        fixed_fingerprint=state_fingerprint(fixed),
    )


def make_queries(inp: Inputs, service, n_batches: int) -> dict[str, list[list]]:
    """The closed-loop client's deterministic query stream, per family."""
    rng = np.random.default_rng([inp.seed, 0x5E2F])
    active = np.asarray(service.active_nodes())
    edges = service.observed_edges()
    n = inp.trace.ground_truth.shape[0]
    queries: dict[str, list[list]] = {family: [] for family in FAMILIES}
    for _ in range(n_batches):
        queries["closest"].append([int(x) for x in rng.choice(active, BATCH)])
        pairs = rng.choice(active, (BATCH, 2))
        queries["distance"].append([(int(a), int(b)) for a, b in pairs])
        queries["tiv_alert"].append([edges[k] for k in rng.integers(0, len(edges), BATCH)])
        start = int(rng.integers(0, (n + 1) // 2)) * 2
        targets = rng.integers(0, n // 2, BATCH) * 2 + 1
        queries["meridian_closest"].append([(int(t), start) for t in targets])
    return queries


def answer_batch(service, overlay, family: str, batch: list):
    if family == "closest":
        return service.closest_batch(batch, 1)
    if family == "distance":
        return service.distance_batch(batch)
    if family == "tiv_alert":
        return service.tiv_alert_batch(batch)
    return overlay.closest_neighbor_query_batch(
        [t for t, _ in batch], start_nodes=[s for _, s in batch]
    )


def answer_one(service, overlay, family: str, query):
    if family == "closest":
        return service.closest(query, 1)
    if family == "distance":
        return service.distance(*query)
    if family == "tiv_alert":
        return service.tiv_alert(*query)
    target, start = query
    return overlay.closest_neighbor_query(target, start_node=start)


class _NoTracer:
    """Stand-in used by untraced rounds: spans cost nothing."""

    def span(self, name):
        return nullcontext()


NO_TRACER = _NoTracer()


@contextmanager
def measured(tracer, name: str, out: dict, key: str):
    """Time a section and append its seconds to the list ``out[key]``."""
    gc.collect()
    with tracer.span(name):
        start = time.perf_counter()
        yield
        out.setdefault(key, []).append(time.perf_counter() - start)


@contextmanager
def checking(out: dict):
    """Add the enclosed oracle work to ``out["check_s"]``: a round that runs
    the oracles is longer by that much, which the tracing overhead excludes."""
    start = time.perf_counter()
    try:
        yield
    finally:
        out["check_s"] = out.get("check_s", 0.0) + time.perf_counter() - start


def figure_round(
    inp: Inputs, workdir: Path, ledger: Ledger, tracer, out: dict, check: bool, before_each
) -> None:
    """Cold, warm and parallel figure runs, then ``warm_runs - 1`` more warm
    reruns; the oracles run when ``check``.

    ``before_each()`` runs ahead of each figure run.
    """
    spec = inp.spec
    only = list(spec.figures) if spec.figures else None
    wanted = only or list(list_experiments())
    cold_dir, par_dir = workdir / "cold", workdir / "parallel"
    runs = {}
    modes = [("cold", 1, cold_dir), ("warm", 1, cold_dir), ("parallel", 2, par_dir)]
    modes += [("warm", 1, cold_dir)] * (spec.warm_runs - 1)
    for label, jobs, cache_dir in modes:
        before_each()
        ledger.op()
        try:
            with measured(tracer, f"figures.{label}", out, f"{label}_s"):
                outcome = run_experiments(inp.config, only=only, jobs=jobs, cache_dir=cache_dir)
        except Exception as exc:  # the run continues; the failure is counted
            ledger.fail(f"figures.{label}", exc)
            continue
        if label in runs:  # a further warm rerun
            if "cold" in runs:
                ledger.check(checks.figure_mismatches(runs["cold"].results, outcome.results, "warm rerun"))
            if outcome.report.total_cache().misses:
                ledger.check(["warm rerun missed the cache"])
            continue
        runs[label] = outcome
        if label == "cold":
            out["cache_bytes"] = sum(p.stat().st_size for p in cold_dir.rglob("*") if p.is_file())
    out["reports"] = {label: outcome.report.as_dict() for label, outcome in runs.items()}
    if "cold" not in runs:
        return
    cold = runs["cold"].results
    ledger.check([f"cold run lacks {fid}" for fid in wanted if fid not in cold])
    for label in ("warm", "parallel"):
        if label in runs:
            ledger.check(checks.figure_mismatches(cold, runs[label].results, label))
    if "warm" in runs and runs["warm"].report.total_cache().misses:
        ledger.check(["warm run missed the cache it had just filled"])
    if not check:
        return

    with tracer.span("checks.figures"), checking(out):
        ctx = ExperimentContext(inp.config, cache=ArtifactCache(cold_dir))
        rng = np.random.default_rng([inp.seed, 0xC4EC])
        matrices = [("main", ctx.matrix, ctx.severity)]
        if "fig02" in wanted:
            sizes = dataset_sizes(inp.config)
            matrices = [
                (name, ctx.dataset_matrix(preset, sizes[name]), ctx.dataset_severity(preset, sizes[name]))
                for name, preset in DATASET_PRESETS.items()
            ]
            cap = _default_triangle_cap()
            reported = cold["fig02"].data["violating_triangle_fraction"]
            for name, matrix, _ in matrices:
                ledger.check([f"{name}: {m}" for m in checks.triangle_fraction_mismatches(
                    matrix.to_array(), float(reported[name]), cap)])
        for name, matrix, severity in matrices:
            delays = matrix.to_array()
            edges = checks.sample_edges(delays, spec.severity_edges, rng)
            ledger.check([f"{name}: {m}" for m in checks.severity_mismatches(
                delays, severity.severity, severity.violation_counts, edges)])
        if "fig08" in wanted:
            delays = ctx.matrix.to_array()
            n = delays.shape[0]
            pairs = [tuple(int(x) for x in rng.choice(n, 2, replace=False)) for _ in range(spec.bellman_pairs)]
            ledger.check(checks.bellman_mismatches(delays, np.asarray(ctx.shortest_paths), pairs))


def _default_triangle_cap():
    import inspect

    return inspect.signature(violating_triangle_fraction).parameters["max_triangles"].default


def live_state(
    inp: Inputs, ref: Reference, workdir: Path, ledger: Ledger, tracer, out: dict, check: bool
):
    """Durable replay to the crash cut and recovery; returns the live
    ``(service, overlay)`` the client queries, or ``None`` if either failed."""
    spec, trace = inp.spec, inp.trace
    stream_dir = workdir / "stream"
    stream_dir.mkdir(parents=True, exist_ok=True)
    ckpt, wal = stream_dir / "state.npz", stream_dir / "events.wal"

    ledger.op()
    try:
        with measured(tracer, "stream.replay", out, "replay_s"):
            report = replay_trace(
                trace, config=inp.service_config, rng=inp.seed, window_seconds=spec.window,
                checkpoint_path=ckpt, wal_path=wal, checkpoint_every=spec.checkpoint_every,
                stop_after_events=inp.cut,
            )
    except Exception as exc:
        ledger.fail("stream.replay", exc)
        return None
    out["wal_bytes"] = wal.stat().st_size
    out["defense"] = dict(report.defense)
    liars = set(trace.meta["fault_liars"])
    out["honest_quarantined"] = len(set(report.defense["quarantined"]) - liars)
    # The ``defense`` fault on this seed's trace: reported, not counted,
    # since how many honest nodes it hits depends on the seed.
    out["seeded_faults"] = [
        f"defense (seeded trace, at the cut): {m}"
        for m in checks.quarantine_mismatches(report.defense["quarantined"], liars)
    ]
    scored = [w.median_relative_error for w in report.windows if np.isfinite(w.median_relative_error)]
    if spec.converges and not (scored and scored[-1] < scored[0]):
        ledger.check([f"replay accuracy did not improve over the windows: {scored[:1]} -> {scored[-1:]}"])

    # Each recovery restores the same files; a short one is repeated so its
    # median rests on more than one timing.
    times, service = [], None
    with tracer.span("stream.recover"):
        for _ in range(spec.recoveries):
            ledger.op()
            start = time.perf_counter()
            try:
                service = recover(ckpt, wal)
            except Exception as exc:
                ledger.fail("stream.recover", exc)
                continue
            times.append(time.perf_counter() - start)
            if check:
                with checking(out):
                    # Exact but for the last bits of severity estimates: the
                    # ``recovery`` fault hits those on some seeds only.  The
                    # fixed input of ``recovery_fault_check`` compares exactly.
                    ledger.check(checks.recovery_mismatches(service.state_dict(), ref.state, SEVERITY_ULPS))
                    if state_fingerprint(service) != ref.fingerprint:
                        out["seeded_faults"].append(
                            "recovery (seeded trace): state_fingerprint differs from the "
                            f"uninterrupted replay; severity estimates within {SEVERITY_ULPS} ulps")
    if service is None:
        return None
    out["recover_s"] = times
    if report.totals["state_fingerprint"] != ref.fingerprint:
        ledger.check(["the durable replay's state differs from the uninterrupted replay"])

    with tracer.span("stream.finish"):
        for event in trace.events[inp.cut :]:
            service.apply(event)
        overlay = MeridianOverlay(
            DelayMatrix(trace.ground_truth), list(range(0, trace.ground_truth.shape[0], 2)),
            rng=inp.seed + 1,
        )
    return service, overlay


@contextmanager
def excluded(tracer, out: dict):
    """Leave the enclosed layer time and calls out of the per-layer metrics:
    the known-fault checks replay fixed traces, not the workload's."""
    totals, calls = getattr(tracer, "total_ns", {}), getattr(tracer, "calls", {})
    before = dict(totals), dict(calls)
    yield
    out["excluded_ns"] = {k: v - before[0].get(k, 0) for k, v in totals.items()}
    out["excluded_calls"] = {k: v - before[1].get(k, 0) for k, v in calls.items()}


def known_fault(ledger: Ledger, out: dict, name: str, found: list[str]) -> None:
    """A known fault seen on its fixed input: one failed operation."""
    if found:
        ledger.failed += 1
        out.setdefault("known_faults", {})[name] = found


def defense_check(inp: Inputs, ledger: Ledger, tracer, out: dict) -> None:
    """Replay the fixed trace; a quarantined honest node is the ``defense`` fault."""
    ledger.op()
    with tracer.span("stream.defense_check"):
        try:
            fixed = replay_trace(inp.defense_trace, config=inp.service_config, rng=DEFENSE_TRACE["seed"])
        except Exception as exc:
            ledger.fail("stream.defense_check", exc)
            return
    known_fault(ledger, out, "defense", checks.quarantine_mismatches(
        fixed.defense["quarantined"], inp.defense_trace.meta["fault_liars"]))


def recovery_fault_check(inp: Inputs, ref: Reference, workdir: Path, ledger: Ledger, tracer, out: dict) -> None:
    """Crash the fixed trace's durable replay, recover, and compare the
    state exactly with an uninterrupted replay: the ``recovery`` fault."""
    trace, seed = inp.recovery_trace, RECOVERY_TRACE["seed"]
    fixed_dir = workdir / "recovery-check"
    fixed_dir.mkdir(parents=True, exist_ok=True)
    ckpt, wal = fixed_dir / "state.npz", fixed_dir / "events.wal"
    ledger.op()
    with tracer.span("stream.recovery_check"):
        try:
            replay_trace(
                trace, config=inp.service_config, rng=seed, window_seconds=RECOVERY_TRACE["duration"],
                checkpoint_path=ckpt, wal_path=wal, checkpoint_every=RECOVERY_CHECKPOINT_EVERY,
                stop_after_events=crash_cut(trace),
            )
            service = recover(ckpt, wal)
        except Exception as exc:
            ledger.fail("stream.recovery_check", exc)
            return
        found = checks.recovery_mismatches(service.state_dict(), ref.fixed_state)
        if state_fingerprint(service) != ref.fixed_fingerprint:
            found.append("state_fingerprint differs from the uninterrupted replay")
    known_fault(ledger, out, "recovery", found)


class Client:
    """One closed-loop client: batched calls of every family and scalar
    ``closest`` calls, served in parts spread over the round.  Each part
    ends with a run of scalar calls whose p50 and p99 are taken apart, so
    the reported latencies are medians over every part of every round and
    a burst of machine noise moves one part, not the run."""

    def __init__(self, inp: Inputs, service, overlay, ledger: Ledger, tracer, out: dict, parts: int):
        self.inp, self.service, self.overlay = inp, service, overlay
        self.ledger, self.tracer, self.out = ledger, tracer, out
        self.queries = make_queries(inp, service, inp.spec.batches)
        rng = np.random.default_rng([inp.seed, 0xC105])
        self.nodes = [int(x) for x in rng.choice(service.active_nodes(), inp.spec.scalar)]
        self.parts, self.served = parts, 0
        self.family_seconds = dict.fromkeys(FAMILIES, 0.0)

    def serve(self, check: bool) -> None:
        """The next part: every ``parts``-th batch of each family, then
        every ``parts``-th scalar call."""
        part, parts = self.served, self.parts
        self.served += 1
        gc.collect()
        for index in range(part, self.inp.spec.batches, parts):
            for family in FAMILIES:
                self.batch(family, index, check)
        self.scalar(self.nodes[part::parts])

    def batch(self, family: str, index: int, check: bool) -> None:
        service, overlay, ledger = self.service, self.overlay, self.ledger
        batch = self.queries[family][index]
        ledger.op()
        with self.tracer.span(f"serve.{family}.batched"):
            start = time.perf_counter()
            try:
                answers = answer_batch(service, overlay, family, batch)
            except Exception as exc:
                ledger.fail(f"{family} batch {index}", exc)
                return
            self.family_seconds[family] += time.perf_counter() - start
        if check and index < CHECKED_BATCHES:
            with checking(self.out):
                scalar = [answer_one(service, overlay, family, q) for q in batch]
                ledger.check(checks.batched_mismatches(family, batch, answers, scalar))

    def scalar(self, nodes: list[int]) -> None:
        samples = []
        with self.tracer.span("serve.closest.scalar"):
            for node in nodes:
                self.ledger.op()
                start = time.perf_counter_ns()
                try:
                    self.service.closest(node, 1)
                except Exception as exc:
                    self.ledger.fail(f"closest({node})", exc)
                    continue
                samples.append(time.perf_counter_ns() - start)
        if samples:
            samples.sort()
            self.out.setdefault("closest_p50_us", []).append(_quantile(samples, 0.50) / 1000.0)
            self.out.setdefault("closest_p99_us", []).append(_quantile(samples, 0.99) / 1000.0)

    def report(self, check: bool) -> None:
        spec, out = self.inp.spec, self.out
        out["batched_qps"] = {f: spec.batches * BATCH / s for f, s in self.family_seconds.items()}
        out["queries_s"] = sum(self.family_seconds.values())
        out["queries"] = len(FAMILIES) * spec.batches * BATCH
        if check:
            with self.tracer.span("checks.closest"), checking(out):
                self.ledger.check(checks.closest_mismatches(
                    self.service, sorted(set(self.nodes))[:32], self.service.active_nodes()))


def run_round(
    inp: Inputs, ref: Reference, workdir: Path, tracer=NO_TRACER, check: bool = True
) -> tuple[Ledger, dict]:
    """One round: the same operations every time; the oracles run when ``check``.

    The live state is built first; the client then serves a part of its
    queries ahead of each figure run and a last part after them, before
    the two known-fault checks.
    """
    ledger, out = Ledger(), {}
    start = time.perf_counter()
    with tracer.span("round"):
        live = live_state(inp, ref, workdir, ledger, tracer, out, check)
        parts = inp.spec.warm_runs + 3  # one ahead of each figure run, one after
        client = Client(inp, *live, ledger, tracer, out, parts) if live is not None else None

        def serve_part() -> None:
            if client is not None:
                client.serve(check)

        figure_round(inp, workdir, ledger, tracer, out, check, serve_part)
        if client is not None:
            serve_part()
            client.report(check)
        with excluded(tracer, out):
            defense_check(inp, ledger, tracer, out)
            recovery_fault_check(inp, ref, workdir, ledger, tracer, out)
    out["round_s"] = time.perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    return ledger, out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _quantile(ordered: list[float], q: float) -> float:
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def end_to_end(rounds: list[dict], cut: int) -> dict[str, float]:
    """Medians over every timing of every round; the latency percentiles
    are taken per client part, then their median over all parts."""
    def med(key):
        values = [r[key] for r in rounds]
        if isinstance(values[0], list):
            values = [x for v in values for x in v]
        return statistics.median(values)

    return {
        "cold_s": med("cold_s"),
        "warm_s": med("warm_s"),
        "parallel_cold_s": med("parallel_s"),
        "peak_rss_mb": peak_rss_mb(),
        "ingest_eps": cut / med("replay_s"),
        "recover_s": med("recover_s"),
        "query_qps": rounds[0]["queries"] / med("queries_s"),
        "closest_p50_us": med("closest_p50_us"),
        "closest_p99_us": med("closest_p99_us"),
    }


def install_tracing(tracer: Tracer) -> None:
    """Wrap the package's public entry points of every measured layer."""
    fn = tracer.wrap_function
    fn("repro.delayspace.datasets", "load_dataset", "delayspace.load_dataset")
    fn("repro.delayspace.shortest_path", "shortest_path_matrix", "delayspace.shortest_path")
    fn("repro.tiv.severity", "compute_tiv_severity_rows", "tiv.severity",
       count=lambda matrix, start, stop, **_: {
           "tiv.severity_triples": (int(stop) - int(start)) * matrix.n_nodes ** 2})
    fn("repro.tiv.severity", "violating_triangle_fraction", "tiv.violating_triangle_fraction")
    fn("repro.meridian.analysis", "ring_misplacement_by_delay", "meridian.ring_misplacement")
    fn("repro.coords.gnp", "fit_gnp", "coords.gnp")
    fn("repro.coords.ides", "fit_ides", "coords.ides")
    fn("repro.coords.lat", "fit_lat", "coords.lat")
    fn("repro.artifacts.graph", "resolve_plan", "artifacts.plan")
    fn("repro.stream.synth", "synthesize_trace", "stream.synth")
    fn("repro.stream.replay", "_window_metrics", "stream.replay.scoring", aggregate=True)
    fn("repro.stream.durability", "save_checkpoint", "stream.durability.checkpoint")
    fn("repro.stream.durability", "load_checkpoint", "stream.durability.load_checkpoint")
    fn("repro.stream.durability", "read_wal", "stream.durability.read_wal")
    meth = tracer.wrap_method
    meth("repro.meridian.overlay", "MeridianOverlay", "__init__", "meridian.overlay_build")
    meth("repro.coords.vivaldi", "VivaldiSystem", "run", "coords.vivaldi")
    meth("repro.core.alert", "TIVAlert", "__init__", "core.alert")
    meth("repro.core.dynamic_vivaldi", "DynamicNeighborVivaldi", "run", "core.dynamic_vivaldi")
    meth("repro.stream.service", "StreamCoordinateService", "apply", "stream.service.apply", aggregate=True)
    meth("repro.stream.durability", "WalWriter", "log", "stream.durability.wal", aggregate=True)


#: Wrapped layers reported as ``<name>_s`` per round.
LAYER_SECONDS = (
    "delayspace.load_dataset", "delayspace.shortest_path", "tiv.severity",
    "tiv.violating_triangle_fraction", "meridian.overlay_build", "meridian.ring_misplacement",
    "coords.vivaldi", "coords.gnp", "coords.ides", "coords.lat", "core.alert",
    "core.dynamic_vivaldi", "artifacts.plan",
)

ARTIFACT_NODES = ("dataset", "severity", "clusters", "shortest", "vivaldi", "alert", "ides", "lat")


def per_layer(before: dict, after: dict, counters: dict, out: dict, ref: Reference) -> dict:
    """Per-layer metrics of one traced round."""
    def spent(name):
        return (after.get(name, 0) - before.get(name, 0) - out["excluded_ns"].get(name, 0)) / 1e9

    def calls(name):
        return (counters["calls_after"].get(name, 0) - counters["calls_before"].get(name, 0)
                - out["excluded_calls"].get(name, 0))

    metrics = {f"{name}_s": spent(name) for name in LAYER_SECONDS}
    triples = counters["triples"]
    metrics["tiv.severity_triples"] = triples
    metrics["tiv.severity_triples_per_s"] = triples / metrics["tiv.severity_s"] if triples else 0.0

    reports = out.get("reports", {})
    cold, warm, par = (reports.get(k, {}) for k in ("cold", "warm", "parallel"))
    for fid in list_experiments():
        metrics[f"experiments.{fid}_s"] = sum(
            e["wall_seconds"] for e in cold.get("experiments", []) if e["id"] == fid)
    if cold:
        figures = sum(e["wall_seconds"] for e in cold["experiments"])
        shared = (cold.get("shared_precompute") or {}).get("wall_seconds", 0.0)
        metrics["experiments.engine_overhead_s"] = cold["totals"]["wall_seconds"] - figures - shared
    for node in ARTIFACT_NODES:
        metrics[f"artifacts.{node}.compute_s"] = sum(
            a["compute_seconds"] for a in cold.get("artifacts", []) if a["node"] == node)
        metrics[f"artifacts.{node}.restore_s"] = sum(
            a["restore_seconds"] for a in warm.get("artifacts", []) if a["node"] == node)
    for key in ("hits", "misses", "stores"):
        metrics[f"experiments.cache.{key}"] = sum(
            r.get("totals", {}).get("cache", {}).get(key, 0) for r in (cold, warm))
    metrics["experiments.cache.bytes"] = out.get("cache_bytes", 0)
    if par:
        totals = par["totals"]
        metrics["experiments.parallel.speedup"] = statistics.median(out["cold_s"]) / statistics.median(out["parallel_s"])
        metrics["experiments.shm.attaches"] = totals["artifacts"]["shm"]["attaches"]
        metrics["experiments.shm.attach_bytes"] = totals["artifacts"]["shm"]["attach_bytes"]
        metrics["experiments.artifacts.restored"] = totals["artifacts"]["restored"]
        sup = totals["supervision"]
        metrics["experiments.supervision.retries"] = sup["artifact_retries"] + sup["figure_retries"]

    defense = out.get("defense", {})
    metrics["stream.service.apply_eps"] = ref.apply_eps
    metrics["stream.replay.scoring_s"] = spent("stream.replay.scoring")
    metrics["stream.defense.rejected"] = defense.get("rejected_measurements", 0)
    metrics["stream.defense.quarantined"] = defense.get("quarantined_nodes", 0)
    metrics["stream.defense.honest_quarantined"] = out.get("honest_quarantined", 0)
    metrics["stream.durability.wal_s"] = spent("stream.durability.wal")
    metrics["stream.durability.wal_bytes"] = out.get("wal_bytes", 0)
    metrics["stream.durability.checkpoint_s"] = spent("stream.durability.checkpoint")
    metrics["stream.durability.checkpoints"] = calls("stream.durability.checkpoint")
    load, read = spent("stream.durability.load_checkpoint"), spent("stream.durability.read_wal")
    # Recovery layers per recovery; a round may repeat it.
    recoveries = max(1, len(out.get("recover_s", [])))
    metrics["stream.durability.load_checkpoint_s"] = load / recoveries
    metrics["stream.durability.read_wal_s"] = read / recoveries
    metrics["stream.durability.reapply_s"] = (sum(out.get("recover_s", [])) - load - read) / recoveries
    for family in FAMILIES:
        metrics[f"serve.{family}.batched_qps"] = out.get("batched_qps", {}).get(family, 0.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)

    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    inp = make_inputs(args.workload, args.seed, args.size)
    synth_s = time.perf_counter() - start

    # Untimed warm-up: the same round at toy size loads every code path.
    warm_inp = make_inputs(args.workload, args.seed, "tiny")
    run_round(warm_inp, reference_replay(warm_inp), workdir / "warmup")
    ref = reference_replay(inp)

    ledger = Ledger()
    if inp.spec.converges and not ref.cut_error < ref.first_error:
        ledger.check([f"uninterrupted replay error did not fall: {ref.first_error} -> {ref.cut_error}"])
    # With --trace 1 the first round runs before the wrappers exist: the
    # tracing overhead is measured against it.
    rounds, traced, traced_outs = [], [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and bool(rounds)
        if trace_this and not traced:
            install_tracing(tracer)
        if trace_this:
            before, calls_before = dict(tracer.total_ns), dict(tracer.calls)
            triples_before = tracer.counters["tiv.severity_triples"]
        round_ledger, out = run_round(
            inp, ref, workdir / f"round-{len(rounds) + len(traced)}",
            tracer if trace_this else NO_TRACER, check=not rounds,
        )
        ledger.attempted += round_ledger.attempted
        ledger.failed += round_ledger.failed
        ledger.mismatches += round_ledger.mismatches
        if trace_this:
            counters = {
                "calls_before": calls_before, "calls_after": dict(tracer.calls),
                "triples": tracer.counters["tiv.severity_triples"] - triples_before,
            }
            layer = per_layer(before, dict(tracer.total_ns), counters, out, ref)
            untraced = rounds[0]["round_s"] - rounds[0].get("check_s", 0.0)
            layer["trace.overhead_pct"] = 100.0 * (out["round_s"] / untraced - 1.0)
            layer["round_s"] = out["round_s"]
            traced.append(layer)
            traced_outs.append(out)
        else:
            rounds.append(out)
        print(f"round {len(rounds) + len(traced)}: {out['round_s']:.2f} s" + "".join(
            f", {k} {statistics.median(out[k]) if isinstance(out[k], list) else out[k]:.4g}"
            for k in ("cold_s", "warm_s", "parallel_s", "replay_s", "recover_s", "queries_s",
                      "closest_p50_us", "closest_p99_us") if k in out), file=sys.stderr)
        # The first round also runs the oracles; later ones estimate better.
        elapsed = time.perf_counter() - start
        durations = [r["round_s"] for r in rounds[1:]] + [t["round_s"] for t in traced]
        estimate = statistics.median(durations or [rounds[0]["round_s"]])
        # A round may end up to 10% past --seconds rather than not run at all.
        if elapsed + estimate > 1.1 * args.seconds and (tracer is None or traced):
            break

    if tracer is None:
        metrics = end_to_end(rounds, inp.cut)
    else:
        metrics = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
        del metrics["round_s"]
        metrics["stream.synth_s"] = synth_s
        for line in tracer.missing:
            print(f"trace target not found: {line}", file=sys.stderr)
        print(tracer.self_time_table(), file=sys.stderr)
        print(f"tracing overhead: {metrics['trace.overhead_pct']:.1f}% of the untraced round, "
              f"its oracle time left out", file=sys.stderr)
        if args.trace_file:
            tracer.write_chrome_trace(args.trace_file, {"workload": args.workload, "seed": args.seed})
    for line in ledger.mismatches:
        print(line, file=sys.stderr)
    all_rounds = rounds + traced_outs
    for name in KNOWN_FAULTS:
        seen = [r["known_faults"][name] for r in all_rounds if name in r.get("known_faults", {})]
        if seen:
            print(f"known fault ({name}, fixed input) in {len(seen)} of {len(all_rounds)} rounds: "
                  f"{seen[0][0]}", file=sys.stderr)
    for line in sorted({m for r in all_rounds for m in r.get("seeded_faults", [])}):
        print(f"known fault, not counted: {line}", file=sys.stderr)
    incorrect = [m for m in ledger.mismatches if not m.startswith("FAILED")]
    print(json.dumps({
        "correct": not incorrect,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "rounds": len(rounds) + len(traced),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
