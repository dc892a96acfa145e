"""Correctness oracles of the end-to-end benchmark.

Every check here is computed apart from the program: straight from the
paper's definitions (severity, triangle violations, shortest paths) or
from properties the method must have (bit-identical recovery, batched
answers equal scalar answers, a quarantine holds only liars).  Each
function returns a list of human-readable mismatch descriptions; an empty
list means the output passed.  Only numpy and the standard library are
used, so a fault in the package cannot leak into its own oracle.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

#: Relative tolerance of float comparisons whose summation order differs
#: between the oracle and the program (severity sums, path lengths).
REL_TOL = 1e-9

#: Standard deviations a sampled triangle fraction may sit from the exact
#: value (a false alarm at 5 sigma is rarer than one in a million runs).
SAMPLING_SIGMAS = 5.0


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# -- the delay space ----------------------------------------------------------


def sample_edges(delays: np.ndarray, count: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Up to ``count`` distinct measured off-diagonal edges ``(a, c)``."""
    measured = np.isfinite(delays)
    np.fill_diagonal(measured, False)
    rows, cols = np.nonzero(measured)
    chosen = rng.choice(rows.size, size=min(int(count), rows.size), replace=False)
    return [(int(rows[k]), int(cols[k])) for k in np.sort(chosen)]


def severity_mismatches(
    delays: np.ndarray,
    severity: np.ndarray,
    counts: np.ndarray,
    edges: Iterable[tuple[int, int]],
) -> list[str]:
    """Brute-force TIV severity (paper §2.1) of each edge against the program's.

    ``severity(A, C) = sum over witnesses B with d(A,B) + d(B,C) < d(A,C)
    of d(A,C) / (d(A,B) + d(B,C)), divided by N``; a witness needs both
    detour edges measured and differs from A and C.
    """
    n = delays.shape[0]
    d = delays.tolist()
    bad = []
    for a, c in edges:
        direct = d[a][c]
        total, witnesses = 0.0, 0
        for b in range(n):
            if b == a or b == c:
                continue
            detour = d[a][b] + d[b][c]
            if math.isfinite(detour) and detour < direct:
                total += direct / detour
                witnesses += 1
        expected = total / n
        got = float(severity[a, c])
        if not _close(expected, got) or witnesses != int(counts[a, c]):
            bad.append(
                f"severity({a},{c}): oracle {expected!r} over {witnesses} witnesses, "
                f"program {got!r} over {int(counts[a, c])}"
            )
    return bad


def exact_triangle_counts(delays: np.ndarray) -> tuple[int, int]:
    """``(violating, measured)`` counts over every unordered node triple.

    A triple (A, B, C), A < B < C, counts when all three edges are
    measured; it violates when one edge is longer than the other two
    together.
    """
    n = delays.shape[0]
    finite = np.isfinite(delays)
    violating = measured = 0
    for a in range(n - 2):
        ab = delays[a, a + 1 :][:, None]         # d(A, B) for B > A
        ca = delays[a + 1 :, a][None, :]         # d(C, A) for C > A
        bc = delays[a + 1 :, a + 1 :]            # d(B, C)
        upper = np.triu(np.ones(bc.shape, dtype=bool), k=1)
        ok = upper & finite[a, a + 1 :][:, None] & finite[a + 1 :, a][None, :] & np.isfinite(bc)
        with np.errstate(invalid="ignore"):
            bad = (ab + bc < ca) | (bc + ca < ab) | (ca + ab < bc)
        measured += int(np.count_nonzero(ok))
        violating += int(np.count_nonzero(bad & ok))
    return violating, measured


def triangle_fraction_mismatches(
    delays: np.ndarray, reported: float, max_triangles: int | None
) -> list[str]:
    """Check a reported violating-triangle fraction against the exact count.

    Where the program enumerates (at most ``max_triangles`` triples) the
    fraction must match exactly; where it samples ``max_triangles``
    ordered triples it must lie within :data:`SAMPLING_SIGMAS` binomial
    standard deviations of the exact fraction.
    """
    n = delays.shape[0]
    violating, measured = exact_triangle_counts(delays)
    exact = violating / measured if measured else 0.0
    triples = n * (n - 1) * (n - 2) // 6
    if max_triangles is None or triples <= max_triangles:
        if reported != exact:
            return [f"triangle fraction {reported!r} != exact {exact!r} ({violating}/{measured})"]
        return []
    # Sampled path: draws with a repeated node or an unmeasured edge are
    # discarded, so the effective sample is smaller than max_triangles.
    kept = max_triangles * (n - 1) * (n - 2) / (n * n) * (measured / triples)
    sigma = math.sqrt(max(exact * (1.0 - exact), 1e-12) / max(kept, 1.0))
    if abs(reported - exact) > SAMPLING_SIGMAS * sigma:
        return [
            f"sampled triangle fraction {reported!r} is {abs(reported - exact) / sigma:.1f} "
            f"sigma from exact {exact!r}"
        ]
    return []


def bellman_mismatches(
    delays: np.ndarray, shortest: np.ndarray, pairs: Iterable[tuple[int, int]]
) -> list[str]:
    """Check ``d_sp(a,b) = min_k d(a,k) + d_sp(k,b)`` (k != a) on sampled pairs."""
    bad = []
    for a, b in pairs:
        direct = delays[a].copy()
        direct[a] = np.inf
        direct[~np.isfinite(direct)] = np.inf
        expected = float(np.min(direct + shortest[:, b]))
        got = float(shortest[a, b])
        if not _close(expected, got):
            bad.append(f"shortest({a},{b}) = {got!r} but the Bellman minimum is {expected!r}")
    return bad


# -- results ------------------------------------------------------------------


def payload_equal(a: Any, b: Any) -> bool:
    """Deep equality of result payloads; NaN equals NaN."""
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return set(a) == set(b) and all(payload_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
            return False
        if a.dtype.kind in "fc":
            return bool(np.array_equal(a, b, equal_nan=True))
        if a.dtype.kind == "O":
            return all(payload_equal(x, y) for x, y in zip(a.ravel(), b.ravel()))
        return bool(np.array_equal(a, b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(payload_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return bool(a == b)


def figure_mismatches(reference: Mapping[str, Any], other: Mapping[str, Any], label: str) -> list[str]:
    """Figure ids whose result data differ between two runs of one config."""
    bad = [f"{label}: {fid} missing" for fid in reference if fid not in other]
    for fid, result in reference.items():
        if fid in other and not payload_equal(result.data, other[fid].data):
            bad.append(f"{label}: {fid} differs from the cold jobs=1 run")
    return bad


# -- the online tier ----------------------------------------------------------


def closest_mismatches(service, nodes: Sequence[int], active: Sequence[int]) -> list[str]:
    """``closest(node)`` must be an argmin of the predicted distance to all others."""
    bad = []
    active = [int(x) for x in active]
    for node in nodes:
        others = [x for x in active if x != node]
        if not others:
            continue
        dists = np.asarray(service.distance_batch([(node, x) for x in others]), dtype=float)
        best = float(dists.min())
        winners = {others[k] for k in np.flatnonzero(dists == best)}
        answer = service.closest(node, 1)
        if not answer or answer[0][0] not in winners or not _close(float(answer[0][1]), best):
            bad.append(f"closest({node}) = {answer[:1]} but the argmin is {sorted(winners)[:3]} at {best!r}")
    return bad


def batched_mismatches(family: str, queries: Sequence, batched: Sequence, scalar: Sequence) -> list[str]:
    """Positions where a batched answer differs from the scalar answer."""
    bad = []
    for index, (query, x, y) in enumerate(zip(queries, batched, scalar)):
        if family == "meridian_closest":
            x = (x.selected, x.selected_delay, x.probes, list(x.hops))
            y = (y.selected, y.selected_delay, y.probes, list(y.hops))
        elif family == "distance":
            x, y = float(x), float(y)
        if not payload_equal(x, y):
            bad.append(f"{family}[{index}] {query!r}: batched {x!r} != scalar {y!r}")
    if len(batched) != len(queries) or len(scalar) != len(queries):
        bad.append(f"{family}: {len(batched)} batched / {len(scalar)} scalar answers for {len(queries)} queries")
    return bad


#: Embedding arrays compared bit for bit after recovery.
EMBEDDING_ARRAYS = ("coords", "heights", "errors")


def _order_free(value: Any) -> Any:
    """Lists of records compare as multisets: their order is incidental."""
    if isinstance(value, list):
        return sorted(json.dumps(item, sort_keys=True) for item in value)
    return value


def _ulps_apart(x: float, y: float) -> float:
    """Distance of two floats in units in the last place of the larger."""
    if x == y:
        return 0.0
    return abs(x - y) / float(np.spacing(max(abs(x), abs(y))))


def recovery_mismatches(
    recovered_state: Mapping, reference_state: Mapping, severity_ulps: int = 0
) -> list[str]:
    """A recovered service must equal one that never stopped.

    Every field of ``state_dict()`` is compared exactly; the embedding
    arrays bit for bit.  With ``severity_ulps > 0`` the values of the
    rolling severity estimates may differ by that many units in the last
    place (their edge set must still match exactly): recovery reorders a
    float sum on some inputs, a known fault that an exact comparison on a
    fixed input keeps counting.
    """
    bad = []
    for key in EMBEDDING_ARRAYS:
        x = np.asarray(recovered_state["embedding"][key])
        y = np.asarray(reference_state["embedding"][key])
        if x.shape != y.shape or not np.array_equal(x, y, equal_nan=True):
            bad.append(f"recovered embedding {key} differs from the uninterrupted replay")
    for key in sorted(set(recovered_state) | set(reference_state)):
        x, y = recovered_state.get(key), reference_state.get(key)
        if key == "embedding":
            x = {k: v for k, v in x.items() if k not in EMBEDDING_ARRAYS}
            y = {k: v for k, v in y.items() if k not in EMBEDDING_ARRAYS}
        elif key == "severity" and severity_ulps > 0:
            got = {(a, b): value for a, b, value in x}
            want = {(a, b): value for a, b, value in y}
            if set(got) != set(want):
                bad.append("recovered severity estimates cover other edges than the uninterrupted replay")
                continue
            far = [e for e in want if not _ulps_apart(got[e], want[e]) <= severity_ulps]
            if far:
                e = far[0]
                bad.append(
                    f"{len(far)} recovered severity estimates differ by more than {severity_ulps} ulps, "
                    f"e.g. edge {e}: {got[e]!r} against {want[e]!r}"
                )
            continue
        if not payload_equal(_order_free(x), _order_free(y)):
            bad.append(f"recovered state field {key!r} differs from the uninterrupted replay")
    return bad


def quarantine_mismatches(quarantined: Iterable[int], liars: Iterable[int]) -> list[str]:
    """Every quarantined node must be an injected liar."""
    honest = sorted(set(int(x) for x in quarantined) - set(int(x) for x in liars))
    return [f"honest nodes quarantined: {honest}"] if honest else []


def median_relative_error(
    service, truth: np.ndarray, active: Sequence[int], limit: int, rng: np.random.Generator
) -> float:
    """Median |predicted - true| / true over sampled measured edges of active nodes."""
    nodes = np.asarray(sorted(int(x) for x in active))
    sub = truth[np.ix_(nodes, nodes)]
    rows, cols = np.nonzero(np.triu(np.isfinite(sub) & (sub > 0), k=1))
    if rows.size > limit:
        keep = rng.choice(rows.size, size=limit, replace=False)
        rows, cols = rows[keep], cols[keep]
    pairs = [(int(nodes[r]), int(nodes[c])) for r, c in zip(rows, cols)]
    predicted = np.asarray(service.distance_batch(pairs), dtype=float)
    actual = sub[rows, cols]
    return float(np.median(np.abs(predicted - actual) / actual))
