"""K x N block permutations and sensitivity-aware constraint repair.

The permutation is oriented in the encoder direction: position (r, c) of the
row-coded block maps to position (r', c') of the block entering the column
encoder.  A "bad mapping" is a source position sitting in a sensitive column
of its row codeword that lands in a sensitive systematic row of its column
codeword; repair swaps images until no bad mapping remains, never touching a
swap partner that could itself become one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .stopping import select_sensitive

__all__ = [
    "InterleaverInfeasible",
    "PermutationFileError",
    "SensitiveSets",
    "BlockPermutation",
    "BadMappings",
    "random_permutation",
    "count_bad_mappings",
    "escalate_design",
    "save_permutation",
    "load_permutation",
]


class InterleaverInfeasible(RuntimeError):
    """No constraint-satisfying permutation is reachable; reason says why."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason  # "counting_bound"


class PermutationFileError(ValueError):
    """Permutation file text that fails to parse or encode a bijection."""


@dataclass(frozen=True)
class SensitiveSets:
    """Sensitive positions of the two component codes.

    row_code_nodes are column indices in 0..N-1 (positions within a row
    codeword); col_code_nodes are row indices in 0..K-1 (systematic positions
    of a column codeword - parity positions never pass through the block).
    """

    row_code_nodes: frozenset[int]
    col_code_nodes: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "row_code_nodes", frozenset(int(i) for i in self.row_code_nodes))
        object.__setattr__(self, "col_code_nodes", frozenset(int(j) for j in self.col_code_nodes))

    def validate_for(self, k: int, n: int) -> None:
        if any(not 0 <= c < n for c in self.row_code_nodes):
            raise ValueError("row-code sensitive column index out of range")
        if any(not 0 <= r < k for r in self.col_code_nodes):
            raise ValueError("column-code sensitive row index not in systematic range")


@dataclass(frozen=True, eq=False)
class BlockPermutation:
    """Bijection on the K*N flat positions (flat index = r*N + c)."""

    K: int
    N: int
    forward: np.ndarray
    seed: int
    design_t: int = 0
    repairs: int = 0
    sets: SensitiveSets | None = None

    def __post_init__(self):
        if self.K < 1 or self.N < 1:
            raise ValueError("block shape must be positive")
        fwd = np.asarray(self.forward, dtype=np.int64)
        size = self.K * self.N
        if fwd.shape != (size,) or not np.array_equal(np.sort(fwd), np.arange(size)):
            raise ValueError("forward map is not a bijection on 0..K*N-1")
        fwd = fwd.copy()
        fwd.setflags(write=False)
        object.__setattr__(self, "forward", fwd)

    def apply(self, block: np.ndarray) -> np.ndarray:
        """Move element (r, c) to its image position; shape is preserved."""
        block = np.asarray(block)
        if block.shape != (self.K, self.N):
            raise ValueError(f"expected block of shape ({self.K}, {self.N})")
        # out must be C-contiguous so the flat scatter below is a view of it
        out = np.empty((self.K, self.N), dtype=block.dtype)
        out.reshape(-1)[self.forward] = block.ravel(order="C")
        return out


def random_permutation(k: int, n: int, seed: int) -> BlockPermutation:
    """Uniform random bijection from an unbiased shuffle, deterministic in seed."""
    forward = np.random.default_rng(seed).permutation(k * n)
    return BlockPermutation(K=k, N=n, forward=forward, seed=seed)


class BadMappings(NamedTuple):
    count: int
    positions: list[tuple[int, int]]  # offending source positions (r, c)


def _sensitivity_tables(sets: SensitiveSets, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per flat position: its column is row-code sensitive; per row: it is column-code sensitive."""
    col_sensitive = np.zeros(n, dtype=bool)
    col_sensitive[list(sets.row_code_nodes)] = True
    row_sensitive = np.zeros(k, dtype=bool)
    row_sensitive[list(sets.col_code_nodes)] = True
    return np.tile(col_sensitive, k), row_sensitive


def count_bad_mappings(perm: BlockPermutation, sets: SensitiveSets) -> BadMappings:
    """Source positions in a sensitive row-code column whose image lands in a
    sensitive column-code row."""
    sets.validate_for(perm.K, perm.N)
    src_sensitive, row_sensitive = _sensitivity_tables(sets, perm.K, perm.N)
    bad = np.flatnonzero(src_sensitive & row_sensitive[perm.forward // perm.N])
    rows, cols = np.divmod(bad, perm.N)
    return BadMappings(len(bad), list(zip(rows.tolist(), cols.tolist())))


def _landing_table(perm0: BlockPermutation) -> np.ndarray:
    """(N, K) counts: entry (c, r) is the number of source positions in
    column c whose image lies in row r."""
    k, n = perm0.K, perm0.N
    key = np.tile(np.arange(n) * k, k) + perm0.forward // n
    return np.bincount(key, minlength=n * k).reshape(n, k)


class _Repair(NamedTuple):
    """One level's repair, planned but not applied: its sets and the pool
    index of every partner."""

    sets: SensitiveSets
    draws: np.ndarray


def _plan_repair(
    table: np.ndarray,
    sets: SensitiveSets,
    rng: np.random.Generator,
) -> _Repair:
    """Decide one level's repair from the permutation's landing table: the
    counting bound, then the level's one draw call.  Raises
    InterleaverInfeasible, with the generator untouched, when the bound
    fails; once it holds, the partner pool starts with
    supply - demand + offenders >= offenders positions, so every offender
    gets one.

    Offenders sit in a sensitive column and land in a sensitive row; the
    pool is every position outside both, K*N - K*|C| - N*|R| + offenders
    by inclusion-exclusion.
    """
    n, k = table.shape
    sets.validate_for(k, n)
    cols, rows = sets.row_code_nodes, sets.col_code_nodes

    demand = k * len(cols)
    supply = (k - len(rows)) * n
    if demand > supply:
        raise InterleaverInfeasible(
            "counting_bound",
            f"{demand} sensitive-column positions cannot all avoid "
            f"{len(rows)} sensitive rows ({supply} safe slots)",
        )

    offenders = int(table[list(cols)][:, list(rows)].sum())
    pool = k * n - demand - n * len(rows) + offenders
    # descending bounds draw what one scalar call per swap would
    draws = rng.integers(0, np.arange(pool, pool - offenders, -1))
    return _Repair(sets, draws)


def _apply_repair(perm0: BlockPermutation, repair: _Repair, design_t: int) -> BlockPermutation:
    """Repair a permutation to zero bad mappings as planned: offenders in
    ascending flat order, each partner popped from the ascending pool of
    positions whose own source column is not row-code sensitive and whose
    image row is not column-code sensitive, so a swap removes exactly one
    offender and can never mint a new one.  A swap only takes its partner
    out of the pool (the offender's column is sensitive), so the disjoint
    swaps of all pairs apply at once."""
    sets, draws = repair
    src_sensitive, row_sensitive = _sensitivity_tables(sets, perm0.K, perm0.N)
    lands_sensitive = row_sensitive[perm0.forward // perm0.N]
    fwd = np.array(perm0.forward)
    offenders = np.flatnonzero(src_sensitive & lands_sensitive)
    legal = np.flatnonzero(~(src_sensitive | lands_sensitive)).tolist()
    partners = [legal.pop(d) for d in draws.tolist()]
    fwd[offenders], fwd[partners] = fwd[partners], fwd[offenders]
    return BlockPermutation(
        K=perm0.K, N=perm0.N, forward=fwd, seed=perm0.seed,
        design_t=design_t, repairs=len(offenders), sets=sets,
    )


def escalate_design(
    hist_row: np.ndarray,
    hist_col: np.ndarray,
    perm0: BlockPermutation,
    rng: np.random.Generator,
) -> BlockPermutation:
    """Grow the sensitive sets level by level until repair becomes infeasible.

    Level t takes the top-t nodes of each histogram (column-code nodes
    restricted to the systematic range) and repairs the original permutation
    against them; the last feasible level's result is returned with t in its
    metadata, falling back to ``perm0`` when the first level already fails.
    Each level repairs ``perm0`` and feasibility is settled before its draw,
    so every level is planned from one landing table, making the same
    generator calls in the same order as a full repair at each level would,
    and only the last plan is applied.  Both histograms must have one entry
    per column of the block.
    """
    k, n = perm0.K, perm0.N
    for name, hist in (("row-code", hist_row), ("column-code", hist_col)):
        if len(hist) != n:
            raise ValueError(
                f"{name} histogram has {len(hist)} entries; the {k} x {n} "
                f"permutation needs {n}"
            )
    row_ranked = select_sensitive(hist_row, len(hist_row))
    col_ranked = select_sensitive(hist_col[:k], k)
    table = _landing_table(perm0)
    best, best_t = None, 0
    for t in range(1, max(n, k) + 1):
        sets = SensitiveSets(
            row_code_nodes=frozenset(row_ranked[:t]),
            col_code_nodes=frozenset(col_ranked[:t]),
        )
        try:
            best, best_t = _plan_repair(table, sets, rng), t
        except InterleaverInfeasible:
            break
    return perm0 if best is None else _apply_repair(perm0, best, best_t)


# --- permutation file: "K N seed t" header then one "src dst" pair per line ----


def save_permutation(perm: BlockPermutation, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{perm.K} {perm.N} {perm.seed} {perm.design_t}"]
    lines.extend(f"{src} {dst}" for src, dst in enumerate(perm.forward.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# The header as save_permutation writes it: four integers in the form str()
# gives them, one space apart.  Their values are checked once it matches.
_SAVED_HEADER = re.compile(rb" ".join([rb"(0|-?[1-9][0-9]*)"] * 4))

# An LF not followed by a mapping line exactly as save_permutation writes it:
# ASCII digits without leading zeros, one space, LF.  At most 18 digits, so
# every index is an int64.  A search for it keeps no state from line to line,
# where a repeated group over all lines would keep some for each.
_LF_BEFORE_UNSAVED_LINE = re.compile(rb"\n(?!(?:0|[1-9][0-9]{0,17}) (?:0|[1-9][0-9]{0,17})\n)")


def load_permutation(path: str | Path) -> BlockPermutation:
    """Read a file exactly as save_permutation writes it.  A header or a
    mapping line in any other form, a source out of order or a destination
    out of range is refused at the first line that has one."""
    path = Path(path)
    data = path.read_bytes()
    if not data:
        raise PermutationFileError(f"{path}: empty file")
    header_line, _, body = data.partition(b"\n")
    header = _SAVED_HEADER.fullmatch(header_line)
    if header is None:
        raise PermutationFileError(
            f"{path}: line 1: expected header 'K N seed t' as saved: integers, single spaces, LF"
        )
    k, n, seed, t = (int(x) for x in header.groups())
    if k < 1 or n < 1:
        raise PermutationFileError(f"{path}: block shape must be positive")
    for name, value in (("seed", seed), ("t", t)):
        if value < 0:
            raise PermutationFileError(f"{path}: negative header field {name}")
    size = k * n
    found = body.count(b"\n")
    if found != size:
        raise PermutationFileError(f"{path}: expected {size} mapping lines, found {found}")
    # the search starts at the header's LF and always stops, at the body's
    # last LF if not before; the lines before the one it finds are parsed
    end = _LF_BEFORE_UNSAVED_LINE.search(data, len(header_line)).start() - len(header_line)
    pairs = np.fromstring(body[:end], dtype=np.int64, sep=" ")
    src, dst = pairs.reshape(-1, 2).T
    bad = np.flatnonzero((src != np.arange(len(src))) | (dst >= size))
    if bad.size or end < len(body):
        i = int(bad[0]) if bad.size else len(src)
        what = (
            "expected 'src dst' as saved: digits, one space, LF" if i == len(src)
            else f"expected source {i}, found {src[i]}" if src[i] != i
            else f"destination {dst[i]} out of range 0..{size - 1}"
        )
        raise PermutationFileError(f"{path}: line {i + 2}: {what}")
    try:
        return BlockPermutation(K=k, N=n, forward=dst, seed=seed, design_t=t)
    except ValueError as exc:
        raise PermutationFileError(f"{path}: {exc}") from exc
