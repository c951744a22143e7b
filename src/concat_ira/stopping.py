"""Stopping-set detection and per-node sensitivity counts.

A variable-node set is a stopping set when every check adjacent to the set
sees it on at least two edges; erasure-like uncertainty confined to such a
set cannot be resolved by message passing, so membership frequency is a
useful proxy for how exposed each variable is.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .gf2 import SparseBinaryMatrix

__all__ = ["sensitivity_histogram", "select_sensitive", "save_histogram"]


def _check_masks(h: SparseBinaryMatrix) -> list[int]:
    """Per variable, its checks as a bitmask (bit c set for check c)."""
    return [sum(1 << c for c in checks) for checks in h.col_support]


def _detect(h: SparseBinaryMatrix, masks: list[int], start: int) -> frozenset[int]:
    """Greedy expansion of a stopping set containing ``start``, on the
    check masks of ``_check_masks``.

    While some check sees the set exactly once, take the lowest-index such
    deficient check and add its outside neighbor that creates the fewest
    newly deficient checks (ties to the lowest variable index).  Expansion
    halts when no check is deficient, or when a deficient check has no
    neighbor left to add; in that last case (a degree-1 check) no proper
    superset works and the accumulated set is returned as is, which is then
    no stopping set.  The result is deterministic and generally not minimal.

    ``zero`` holds the checks the set touches zero times and ``one`` those
    it touches exactly once; a check leaves ``zero`` for ``one`` on its
    first edge and leaves ``one`` on its second, so one mask update per
    added variable keeps both exact.
    """
    c2v = h.row_support
    zero = ((1 << h.n_rows) - 1) & ~masks[start]
    one = masks[start]
    members = {start}
    while one:
        target = (one & -one).bit_length() - 1  # lowest deficient check
        best, best_score = -1, h.n_rows + 1
        for u in c2v[target]:  # ascending, so a strict < keeps the lowest
            if u in members:
                continue
            score = (masks[u] & zero).bit_count()
            if score < best_score:
                best, best_score = u, score
                if not score:
                    break
        if best < 0:
            break  # degree-1 check: no superset can ever cover it twice
        members.add(best)
        mask = masks[best]
        one = (one & ~mask) | (mask & zero)
        zero &= ~mask
    return frozenset(members)


def sensitivity_histogram(h: SparseBinaryMatrix) -> np.ndarray:
    """Run detection from every variable and count set memberships.

    One deterministic detection run per start node; counts[u] is the number
    of start nodes whose detected set contains u, bounded by the n_cols runs.
    """
    masks = _check_masks(h)
    counts = [0] * h.n_cols
    for start in range(h.n_cols):
        for u in _detect(h, masks, start):
            counts[u] += 1
    return np.array(counts, dtype=np.int64)


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
