"""Stopping-set detection, verification, and per-node sensitivity counts.

A variable-node set is a stopping set when every check adjacent to the set
sees it on at least two edges; erasure-like uncertainty confined to such a
set cannot be resolved by message passing, so membership frequency is a
useful proxy for how exposed each variable is.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gf2 import TannerGraph

__all__ = [
    "SensitivityHistogram",
    "is_stopping_set",
    "detect_from",
    "sensitivity_histogram",
    "select_sensitive",
    "save_histogram",
]


@dataclass(frozen=True)
class SensitivityHistogram:
    counts: tuple[int, ...]
    runs: int

    def __post_init__(self):
        if any(c < 0 or c > self.runs for c in self.counts):
            raise ValueError("counts must lie in 0..runs")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)


def is_stopping_set(graph: TannerGraph, members) -> bool:
    """True iff every check adjacent to the set has >= 2 edges into it."""
    members = set(int(v) for v in members)
    if not members:
        raise ValueError("a stopping set must be nonempty")
    if any(v < 0 or v >= graph.n_vars for v in members):
        raise ValueError("variable index out of range")
    touched = np.zeros(graph.n_checks, dtype=np.int64)
    for v in members:
        for c in graph.var_to_checks[v]:
            touched[c] += 1
    return not np.any(touched == 1)


def detect_from(graph: TannerGraph, start: int) -> frozenset[int]:
    """Greedy expansion of a stopping set containing ``start``.

    While some check sees the set exactly once, take the lowest-index such
    deficient check and add its outside neighbor that creates the fewest
    newly deficient checks (ties to the lowest variable index).  Expansion
    halts when no check is deficient, or when a deficient check has no
    neighbor left to add; in that last case (a degree-1 check) no proper
    superset works and the accumulated set is returned as is, so callers
    should verify with :func:`is_stopping_set` when the graph may have
    degree-1 checks.

    The result is deterministic and generally not minimal.
    """
    n = graph.n_vars
    if not 0 <= start < n:
        raise ValueError(f"start variable {start} out of range")

    v2c = graph.var_to_checks
    c2v = graph.check_to_vars
    counts = np.zeros(graph.n_checks, dtype=np.int64)
    members = {start}
    for c in v2c[start]:
        counts[c] += 1

    while True:
        deficient = np.flatnonzero(counts == 1)
        if len(deficient) == 0:
            break
        target = int(deficient[0])
        candidates = [u for u in c2v[target] if u not in members]
        if not candidates:
            break  # degree-1 check: no superset can ever cover it twice
        best = min(
            candidates,
            key=lambda u: (sum(1 for c in v2c[u] if counts[c] == 0), u),
        )
        members.add(best)
        for c in v2c[best]:
            counts[c] += 1

    return frozenset(members)


def sensitivity_histogram(graph: TannerGraph) -> SensitivityHistogram:
    """Run detection from every variable and count set memberships.

    One deterministic detection run per start node; counts[u] is the number
    of start nodes whose detected set contains u, bounded by runs = n_vars.
    """
    acc = np.zeros(graph.n_vars, dtype=np.int64)
    for start in range(graph.n_vars):
        for u in detect_from(graph, start):
            acc[u] += 1
    return SensitivityHistogram(counts=tuple(int(c) for c in acc), runs=graph.n_vars)


def select_sensitive(
    hist: SensitivityHistogram, t: int, restrict_below: int | None = None
) -> list[int]:
    """The t highest-count indices, ties to the lower index, optionally
    restricted to indices < restrict_below.  Ordered by that same rule."""
    if t < 0:
        raise ValueError("t must be >= 0")
    indices = range(len(hist.counts) if restrict_below is None else min(restrict_below, len(hist.counts)))
    ranked = sorted(indices, key=lambda i: (-hist.counts[i], i))
    return ranked[:t]


def save_histogram(hist: SensitivityHistogram, path: str | Path) -> None:
    """Write the counts as an index,count CSV."""
    lines = ["index,count"]
    lines.extend(f"{i},{c}" for i, c in enumerate(hist.counts))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

