"""Sparse GF(2) matrices and alist text I/O.

Rows are parity checks, columns are variable nodes.  All in-memory indices
are 0-based; the 1-based convention of alist text is confined to
:func:`load_alist` / :func:`save_alist`, and text is read only in the one
form :func:`save_alist` writes.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "AlistError",
    "SparseBinaryMatrix",
    "load_alist",
    "save_alist",
]


class AlistError(ValueError):
    """Alist text that is not in the form ``save_alist`` writes."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.line = line


def _canonical_support(
    entries: Iterable[Iterable[int]], count: int, bound: int, kind: str
) -> tuple[tuple[int, ...], ...]:
    """Sort, deduplicate-check and range-check one side of an incidence list."""
    lists = list(entries)
    if len(lists) != count:
        raise ValueError(f"expected {count} {kind} supports, got {len(lists)}")
    out = []
    for i, raw in enumerate(lists):
        idx = tuple(sorted(map(int, raw)))
        if len(set(idx)) < len(idx):
            duplicate = next(a for a, b in zip(idx, idx[1:]) if a == b)
            raise ValueError(f"{kind} {i}: duplicate index {duplicate}")
        if idx and (idx[0] < 0 or idx[-1] >= bound):
            raise ValueError(f"{kind} {i}: index out of range 0..{bound - 1}")
        out.append(idx)
    return tuple(out)


def _transpose_support(
    support: Sequence[Sequence[int]], n_to: int
) -> tuple[tuple[int, ...], ...]:
    out: list[list[int]] = [[] for _ in range(n_to)]
    for i, sup in enumerate(support):
        for j in sup:
            out[j].append(i)
    # visiting i in ascending order leaves every list sorted
    return tuple(tuple(x) for x in out)


@dataclass(frozen=True)
class SparseBinaryMatrix:
    """Immutable sparse binary matrix stored as its column supports, each
    sorted and checked at construction; the row supports are derived from
    them once, on first use."""

    n_rows: int
    n_cols: int
    col_support: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("matrix must have at least one row and column")
        cols = _canonical_support(self.col_support, self.n_cols, self.n_rows, "column")
        object.__setattr__(self, "col_support", cols)

    @classmethod
    def from_rows(
        cls, n_rows: int, n_cols: int, rows: Iterable[Iterable[int]]
    ) -> "SparseBinaryMatrix":
        row_support = _canonical_support(rows, n_rows, n_cols, "row")
        return cls(n_rows, n_cols, _transpose_support(row_support, n_cols))

    @cached_property
    def row_support(self) -> tuple[tuple[int, ...], ...]:
        return _transpose_support(self.col_support, self.n_rows)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # once per instance: decoders look their compiled graph up by matrix
        # on every call, and hashing the supports costs microseconds
        return hash((self.n_rows, self.n_cols, self.col_support))


# --- alist text ------------------------------------------------------------------
#
# line 1: "N M"                 (columns, rows)
# line 2: "max_col_deg max_row_deg"
# line 3: N column degrees
# line 4: M row degrees
# then N per-column lines of 1-based row indices, zero-padded to max_col_deg,
# then M per-row lines of 1-based column indices, zero-padded to max_row_deg.


def _differing_lines(text: str, saved: str) -> list[int]:
    """The numbers, from 1, of the lines of text that are not the line of
    saved at their place, line breaks included."""
    pairs = zip_longest(text.splitlines(True), saved.splitlines(True))
    return [i for i, (a, b) in enumerate(pairs, start=1) if a != b]


def _read(lines: list[str], n_cols: int, n_rows: int, by_rows: bool) -> SparseBinaryMatrix:
    """The matrix that the column lines, or the row lines, of alist text
    split at LFs hold for the given dimensions; ValueError or OverflowError
    if they hold none."""
    if min(n_cols, n_rows) < 1 or n_cols + n_rows > len(lines) - 4:
        raise ValueError("the text has no lines for these dimensions")
    count = n_rows if by_rows else n_cols
    start = 4 + n_cols if by_rows else 4
    tokens = " ".join(lines[start:start + count]).split()
    width = len(tokens) // count
    if width * count != len(tokens):
        raise ValueError("lines of unequal length")
    entries = np.array(tokens, dtype=np.int64).reshape(count, width)
    supports = [[i - 1 for i in line if i] for line in entries.tolist()]
    if by_rows:
        return SparseBinaryMatrix.from_rows(n_rows, n_cols, supports)
    return SparseBinaryMatrix(n_rows, n_cols, supports)


def load_alist(text: str, path=None) -> SparseBinaryMatrix:
    """The matrix of alist text in the one form ``save_alist`` writes: read
    from line 1's dimensions and the column lines, and accepted when
    ``save_alist`` writes it back unchanged.  Otherwise AlistError names the
    first line that differs from the saved form of the reading closest to
    the text, among the column or the row lines read with the dimensions of
    line 1 or of the degree lines; every line is implied by the others, so
    with one line of a saved text altered, that is the altered line.  The
    refusal names ``path``, the text's file, if given."""
    lines = text.split("\n")
    dimensions = [(len(lines[2].split()), len(lines[3].split()))] if len(lines) > 3 else []
    with suppress(ValueError):
        n_cols, n_rows = map(int, lines[0].split())
        dimensions.insert(0, (n_cols, n_rows))
    best: list[int] = []
    for dims in dimensions:
        for by_rows in (False, True):
            try:
                m = _read(lines, *dims, by_rows)
            except (ValueError, OverflowError):
                continue
            saved = save_alist(m)
            if saved == text:
                return m
            differ = _differing_lines(text, saved)
            if not best or len(differ) < len(best):
                best = differ
    raise AlistError("not as save_alist writes the matrix", best[0] if best else 1, path)


def save_alist(m: SparseBinaryMatrix) -> str:
    """Canonical alist text: sorted indices, single spaces, zero padding, LF."""
    col_deg = [len(c) for c in m.col_support]
    row_deg = [len(r) for r in m.row_support]
    max_col = max(col_deg, default=0)
    max_row = max(row_deg, default=0)
    names = [str(i) for i in range(max(m.n_rows, m.n_cols) + 1)]

    def entry_lines(supports, width: int) -> list[str]:
        return [" ".join([names[i + 1] for i in sup] + ["0"] * (width - len(sup)))
                for sup in supports]

    parts = [
        f"{m.n_cols} {m.n_rows}",
        f"{max_col} {max_row}",
        " ".join(names[d] for d in col_deg),
        " ".join(names[d] for d in row_deg),
        *entry_lines(m.col_support, max_col),
        *entry_lines(m.row_support, max_row),
    ]
    return "\n".join(parts) + "\n"
