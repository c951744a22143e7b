"""Sparse GF(2) matrices and alist text I/O.

Rows are parity checks, columns are variable nodes.  All in-memory indices
are 0-based; the 1-based convention of the alist interchange format is
confined to :func:`load_alist` / :func:`save_alist`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "AlistError",
    "SparseBinaryMatrix",
    "load_alist",
    "save_alist",
]


class AlistError(ValueError):
    """Alist text that fails to parse or contradicts itself."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
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
        idx = sorted(int(j) for j in raw)
        for a, b in zip(idx, idx[1:]):
            if a == b:
                raise ValueError(f"{kind} {i}: duplicate index {a}")
        if idx and (idx[0] < 0 or idx[-1] >= bound):
            raise ValueError(f"{kind} {i}: index out of range 0..{bound - 1}")
        out.append(tuple(idx))
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

    @classmethod
    def from_cols(
        cls, n_rows: int, n_cols: int, cols: Iterable[Iterable[int]]
    ) -> "SparseBinaryMatrix":
        return cls(n_rows, n_cols, cols)

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

    @property
    def n_edges(self) -> int:
        return sum(len(c) for c in self.col_support)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        for c, sup in enumerate(self.col_support):
            dense[list(sup), c] = 1
        return dense


# --- alist interchange format -------------------------------------------------
#
# line 1: "N M"                 (columns, rows)
# line 2: "max_col_deg max_row_deg"
# line 3: N column degrees
# line 4: M row degrees
# then N per-column lines of 1-based row indices, zero-padded to max_col_deg,
# then M per-row lines of 1-based column indices, zero-padded to max_row_deg.


def _parse_ints(raw: str, line_no: int) -> list[int]:
    try:
        return [int(tok) for tok in raw.split()]
    except ValueError as exc:
        raise AlistError(f"non-integer token in {raw!r}", line_no) from exc


def _parse_entry_line(
    raw: str, line_no: int, degree: int, max_degree: int, bound: int, kind: str
) -> tuple[int, ...]:
    toks = _parse_ints(raw, line_no)
    if len(toks) > max_degree:
        raise AlistError(
            f"{kind} entry line has {len(toks)} tokens, more than max degree {max_degree}",
            line_no,
        )
    vals = [t for t in toks if t != 0]
    if toks[: len(vals)] != vals:
        raise AlistError(f"{kind} entry line has zero padding before entries", line_no)
    if len(vals) != degree:
        raise AlistError(
            f"{kind} entry line has {len(vals)} entries but declared degree {degree}",
            line_no,
        )
    for t in vals:
        if not 1 <= t <= bound:
            raise AlistError(f"{kind} index {t} out of range 1..{bound}", line_no)
    if len(set(vals)) != len(vals):
        raise AlistError(f"duplicate {kind} index", line_no)
    return tuple(v - 1 for v in vals)


def load_alist(text: str) -> SparseBinaryMatrix:
    """Parse alist text, validating degrees and row/column cross-consistency."""
    # splitlines drops only the final newline, so degree-0 entry lines (which
    # serialize as empty strings) survive at end of file
    lines = text.splitlines()
    if len(lines) < 4:
        raise AlistError("truncated header: need at least 4 lines")

    dims = _parse_ints(lines[0], 1)
    if len(dims) != 2 or dims[0] < 1 or dims[1] < 1:
        raise AlistError("expected 'N M' with positive dimensions", 1)
    n_cols, n_rows = dims

    maxes = _parse_ints(lines[1], 2)
    if len(maxes) != 2 or maxes[0] < 0 or maxes[1] < 0:
        raise AlistError("expected 'max_col_deg max_row_deg'", 2)
    max_col, max_row = maxes

    col_deg = _parse_ints(lines[2], 3)
    if len(col_deg) != n_cols:
        raise AlistError(f"expected {n_cols} column degrees, got {len(col_deg)}", 3)
    if any(d < 0 or d > max_col for d in col_deg):
        raise AlistError("column degree outside 0..max_col_deg", 3)

    row_deg = _parse_ints(lines[3], 4)
    if len(row_deg) != n_rows:
        raise AlistError(f"expected {n_rows} row degrees, got {len(row_deg)}", 4)
    if any(d < 0 or d > max_row for d in row_deg):
        raise AlistError("row degree outside 0..max_row_deg", 4)
    if sum(col_deg) != sum(row_deg):
        raise AlistError(
            f"degree sums disagree: columns {sum(col_deg)} vs rows {sum(row_deg)}", 4
        )

    expected = 4 + n_cols + n_rows
    if len(lines) != expected:
        raise AlistError(f"expected {expected} lines, found {len(lines)}")

    cols = []
    for i in range(n_cols):
        line_no = 5 + i
        cols.append(
            _parse_entry_line(lines[4 + i], line_no, col_deg[i], max_col, n_rows, "row")
        )
    rows = []
    for j in range(n_rows):
        line_no = 5 + n_cols + j
        rows.append(
            _parse_entry_line(
                lines[4 + n_cols + j], line_no, row_deg[j], max_row, n_cols, "column"
            )
        )

    m = SparseBinaryMatrix.from_cols(n_rows, n_cols, cols)
    for j, (listed, derived) in enumerate(zip(rows, m.row_support)):
        if tuple(sorted(listed)) != derived:
            raise AlistError(
                "row list disagrees with the column lists for this row", 5 + n_cols + j
            )
    return m


def save_alist(m: SparseBinaryMatrix) -> str:
    """Canonical alist text: sorted indices, single spaces, zero padding, LF."""
    col_deg = [len(c) for c in m.col_support]
    row_deg = [len(r) for r in m.row_support]
    max_col = max(col_deg, default=0)
    max_row = max(row_deg, default=0)

    def entry_line(sup: tuple[int, ...], width: int) -> str:
        padded = [str(i + 1) for i in sup] + ["0"] * (width - len(sup))
        return " ".join(padded)

    parts = [
        f"{m.n_cols} {m.n_rows}",
        f"{max_col} {max_row}",
        " ".join(str(d) for d in col_deg),
        " ".join(str(d) for d in row_deg),
    ]
    parts.extend(entry_line(c, max_col) for c in m.col_support)
    parts.extend(entry_line(r, max_row) for r in m.row_support)
    return "\n".join(parts) + "\n"
