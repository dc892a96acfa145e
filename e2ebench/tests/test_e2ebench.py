"""Fast tests of the end-to-end benchmark.

Run from the repository root: ``python -m pytest e2ebench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

from repro.delayspace.matrix import DelayMatrix  # noqa: E402
from repro.delayspace.shortest_path import shortest_path_matrix  # noqa: E402
from repro.stream import (  # noqa: E402
    StreamCoordinateService,
    recover,
    replay_trace,
    synthesize_trace,
)
from repro.tiv.severity import compute_tiv_severity, violating_triangle_fraction  # noqa: E402


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["figures-240", "stream-256"])
def test_tiny_run_reports_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert set(result["metrics"]) == declared("per_layer" if trace else "end_to_end")
    # Each known fault fails exactly once per round, on its fixed input.
    for name in ("defense", "recovery"):
        assert f"known fault ({name}, fixed input)" in done.stderr
    assert result["failed"] >= 2 and result["failed"] % 2 == 0
    if trace:
        trace_file = BENCH / "out" / f"trace-{workload}-seed3.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert any(event.get("name") == "figures.cold" for event in events)
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns(".work", "out"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "figures-240", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- each check rejects a corrupted output --------------------------------------


@pytest.fixture(scope="module")
def delays():
    rng = np.random.default_rng(7)
    points = rng.uniform(0, 100, size=(40, 2))
    values = np.linalg.norm(points[:, None] - points[None], axis=-1) + 5.0
    values *= rng.uniform(0.6, 1.6, size=values.shape)  # break the metric
    values = (values + values.T) / 2
    values[3, 9] = values[9, 3] = np.nan  # one missing edge
    np.fill_diagonal(values, 0.0)
    return values


def test_severity_check_rejects_a_perturbed_entry(delays):
    result = compute_tiv_severity(DelayMatrix(delays))
    edges = checks.sample_edges(delays, 50, np.random.default_rng(0))
    assert checks.severity_mismatches(delays, result.severity, result.violation_counts, edges) == []
    a, c = next(edge for edge in edges if result.severity[edge] > 0)
    corrupted = result.severity.copy()
    corrupted[a, c] *= 1 + 1e-6
    assert checks.severity_mismatches(delays, corrupted, result.violation_counts, edges)


def test_triangle_check_is_exact_where_enumerated(delays):
    fraction = violating_triangle_fraction(DelayMatrix(delays))
    assert checks.triangle_fraction_mismatches(delays, fraction, 2_000_000) == []
    assert checks.triangle_fraction_mismatches(delays, fraction + 1e-12, 2_000_000)


def test_triangle_check_bounds_a_sampled_fraction(delays):
    sampled = violating_triangle_fraction(DelayMatrix(delays), max_triangles=2000, rng=1)
    assert checks.triangle_fraction_mismatches(delays, sampled, 2000) == []
    assert checks.triangle_fraction_mismatches(delays, sampled + 0.2, 2000)


def test_bellman_check_rejects_a_perturbed_path(delays):
    shortest = shortest_path_matrix(DelayMatrix(delays))
    pairs = [(0, 5), (3, 9), (12, 30), (39, 1)]
    assert checks.bellman_mismatches(delays, shortest, pairs) == []
    shortest[12, 30] += 1.0
    assert checks.bellman_mismatches(delays, shortest, pairs)


def test_figure_check_rejects_a_changed_result():
    class Result:
        def __init__(self, data):
            self.data = data

    cold = {"fig02": Result({"curve": np.array([0.1, np.nan]), "n": 3})}
    same = {"fig02": Result({"curve": np.array([0.1, np.nan]), "n": 3})}
    changed = {"fig02": Result({"curve": np.array([0.1, 0.2]), "n": 3})}
    assert checks.figure_mismatches(cold, same, "warm") == []
    assert checks.figure_mismatches(cold, changed, "warm")
    assert checks.figure_mismatches(cold, {}, "warm")


@pytest.fixture(scope="module")
def trace():
    return synthesize_trace(n_nodes=24, seed=5, duration=30.0)


@pytest.fixture(scope="module")
def service(trace):
    live = StreamCoordinateService(rng=5)
    for event in trace.events:
        live.apply(event)
    return live


def test_closest_check_rejects_a_swapped_answer(service):
    active = service.active_nodes()
    assert checks.closest_mismatches(service, active[:8], active) == []

    class Swapped:
        def distance_batch(self, pairs):
            return service.distance_batch(pairs)

        def closest(self, node, k=1):
            ranked = service.closest(node, 2)
            return ranked[1:] if node == active[0] else ranked[:1]

    assert checks.closest_mismatches(Swapped(), active[:8], active)


def test_batched_check_rejects_a_swapped_answer(service):
    nodes = service.active_nodes()[:6]
    batched = service.closest_batch(nodes, 1)
    scalar = [service.closest(node, 1) for node in nodes]
    assert checks.batched_mismatches("closest", nodes, batched, scalar) == []
    batched[0], batched[1] = batched[1], batched[0]
    assert checks.batched_mismatches("closest", nodes, batched, scalar)


def test_recovery_check_rejects_a_wal_with_a_missing_line(trace, tmp_path):
    cut = trace.n_events - 7
    ckpt, wal = tmp_path / "state.npz", tmp_path / "events.wal"
    replay_trace(trace, rng=5, checkpoint_path=ckpt, wal_path=wal,
                 checkpoint_every=64, stop_after_events=cut)
    reference = StreamCoordinateService(rng=5)
    for event in trace.events[:cut]:
        reference.apply(event)
    ref_state = reference.state_dict()

    good = recover(ckpt, wal)
    assert checks.recovery_mismatches(good.state_dict(), ref_state) == []

    lines = wal.read_text().splitlines(keepends=True)
    wal.write_text("".join(lines[:-1]))  # the last logged event is lost
    short = recover(ckpt, wal)
    assert checks.recovery_mismatches(short.state_dict(), ref_state)
    assert checks.recovery_mismatches(short.state_dict(), ref_state, severity_ulps=16)


def test_recovery_check_bounds_severity_estimates(service):
    state = service.state_dict()
    assert state["severity"]

    def with_severity(change):
        return dict(state, severity=[[a, b, change(value)] for a, b, value in state["severity"]])

    one_ulp = with_severity(lambda v: float(np.nextafter(v, np.inf)))
    assert checks.recovery_mismatches(one_ulp, state)  # exact by default
    assert checks.recovery_mismatches(one_ulp, state, severity_ulps=16) == []
    for corrupt in (lambda v: 0.0, lambda v: v * (1 + 1e-12)):
        assert checks.recovery_mismatches(with_severity(corrupt), state, severity_ulps=16)
    fewer = dict(state, severity=state["severity"][1:])
    assert checks.recovery_mismatches(fewer, state, severity_ulps=16)


def test_quarantine_check_rejects_an_honest_node():
    assert checks.quarantine_mismatches([2, 5], [1, 2, 5]) == []
    assert checks.quarantine_mismatches([2, 6], [1, 2, 5])
