"""Stopping-set detection, verification, and per-node sensitivity counts.

A variable-node set is a stopping set when every check adjacent to the set
sees it on at least two edges; erasure-like uncertainty confined to such a
set cannot be resolved by message passing, so membership frequency is a
useful proxy for how exposed each variable is.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .gf2 import SparseBinaryMatrix

__all__ = [
    "is_stopping_set",
    "detect_from",
    "sensitivity_histogram",
    "select_sensitive",
    "save_histogram",
]


def is_stopping_set(h: SparseBinaryMatrix, members) -> bool:
    """True iff every check adjacent to the set has >= 2 edges into it."""
    members = set(int(v) for v in members)
    if not members:
        raise ValueError("a stopping set must be nonempty")
    if any(v < 0 or v >= h.n_cols for v in members):
        raise ValueError("variable index out of range")
    touched = np.zeros(h.n_rows, dtype=np.int64)
    for v in members:
        for c in h.col_support[v]:
            touched[c] += 1
    return not np.any(touched == 1)


def detect_from(h: SparseBinaryMatrix, start: int) -> frozenset[int]:
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
    if not 0 <= start < h.n_cols:
        raise ValueError(f"start variable {start} out of range")

    v2c = h.col_support
    c2v = h.row_support
    counts = np.zeros(h.n_rows, dtype=np.int64)
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


def sensitivity_histogram(h: SparseBinaryMatrix) -> np.ndarray:
    """Run detection from every variable and count set memberships.

    One deterministic detection run per start node; counts[u] is the number
    of start nodes whose detected set contains u, bounded by the n_cols runs.
    """
    counts = np.zeros(h.n_cols, dtype=np.int64)
    for start in range(h.n_cols):
        for u in detect_from(h, start):
            counts[u] += 1
    return counts


def select_sensitive(counts, t: int) -> list[int]:
    """The t highest-count indices, ties to the lower index, ordered by that
    same rule."""
    if t < 0:
        raise ValueError("t must be >= 0")
    ranked = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
    return ranked[:t]


def save_histogram(counts, path: str | Path) -> None:
    """Write the counts as an index,count CSV."""
    lines = ["index,count"]
    lines.extend(f"{i},{c}" for i, c in enumerate(counts))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
