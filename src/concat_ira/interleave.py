"""K x N block permutations and sensitivity-aware constraint repair.

The permutation is oriented in the encoder direction: position (r, c) of the
row-coded block maps to position (r', c') of the block entering the column
encoder.  A "bad mapping" is a source position sitting in a sensitive column
of its row codeword that lands in a sensitive systematic row of its column
codeword; repair swaps images until no bad mapping remains, never touching a
swap partner that could itself become one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    "design",
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


def _check_block_shape(k: int, n: int) -> None:
    if k < 1 or n < 1:
        raise ValueError("block shape must be positive")


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
        _check_block_shape(self.K, self.N)
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

    def invert(self) -> "BlockPermutation":
        inv = np.empty_like(self.forward)
        inv[self.forward] = np.arange(self.K * self.N)
        return BlockPermutation(
            K=self.K, N=self.N, forward=inv, seed=self.seed,
            design_t=self.design_t, repairs=self.repairs, sets=self.sets,
        )


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


def design(
    perm0: BlockPermutation,
    sets: SensitiveSets,
    rng: np.random.Generator,
) -> BlockPermutation:
    """Repair a permutation until it has zero bad mappings.

    Offenders are fixed in ascending flat order.  Each swap partner is drawn
    uniformly among positions whose own source column is not row-code
    sensitive and whose current image row is not column-code sensitive, so a
    swap removes exactly one offender and can never mint a new one.  A swap
    only takes its partner out of the ascending partner pool (the offender's
    column is sensitive), so one call draws every partner and the disjoint
    swaps apply at once.  Raises InterleaverInfeasible when the counting bound
    fails; once it holds, the pool starts with supply - demand + offenders >=
    offenders partners, so every offender gets one.
    """
    k, n = perm0.K, perm0.N
    sets.validate_for(k, n)

    demand = k * len(sets.row_code_nodes)
    supply = (k - len(sets.col_code_nodes)) * n
    if demand > supply:
        raise InterleaverInfeasible(
            "counting_bound",
            f"{demand} sensitive-column positions cannot all avoid "
            f"{len(sets.col_code_nodes)} sensitive rows ({supply} safe slots)",
        )

    fwd = np.array(perm0.forward)
    src_sensitive, row_sensitive = _sensitivity_tables(sets, k, n)
    lands_sensitive = row_sensitive[fwd // n]
    offenders = np.flatnonzero(src_sensitive & lands_sensitive)
    legal = np.flatnonzero(~(src_sensitive | lands_sensitive)).tolist()
    # descending bounds draw what one scalar call per swap would
    draws = rng.integers(0, np.arange(len(legal), len(legal) - len(offenders), -1))
    partners = [legal.pop(d) for d in draws.tolist()]
    fwd[offenders], fwd[partners] = fwd[partners], fwd[offenders]
    return BlockPermutation(
        K=k, N=n, forward=fwd, seed=perm0.seed,
        design_t=perm0.design_t, repairs=len(offenders), sets=sets,
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
    Each histogram is ranked once, and t is stamped on the result once.
    """
    k, n = perm0.K, perm0.N
    row_ranked = select_sensitive(hist_row, len(hist_row))
    col_ranked = select_sensitive(hist_col[:k], k)
    best, best_t = perm0, 0
    for t in range(1, max(n, k) + 1):
        sets = SensitiveSets(
            row_code_nodes=frozenset(row_ranked[:t]),
            col_code_nodes=frozenset(col_ranked[:t]),
        )
        try:
            best, best_t = design(perm0, sets, rng), t
        except InterleaverInfeasible:
            break
    return best if best is perm0 else replace(best, design_t=best_t)


# --- permutation file: "K N seed t" header then one "src dst" pair per line ----


def save_permutation(perm: BlockPermutation, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{perm.K} {perm.N} {perm.seed} {perm.design_t}"]
    lines.extend(f"{src} {dst}" for src, dst in enumerate(perm.forward.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_permutation(path: str | Path) -> BlockPermutation:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise PermutationFileError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 4:
        raise PermutationFileError(f"{path}: header must be 'K N seed t'")
    try:
        k, n, seed, t = (int(x) for x in header)
    except ValueError as exc:
        raise PermutationFileError(f"{path}: non-integer header field") from exc
    try:
        _check_block_shape(k, n)
    except ValueError as exc:
        raise PermutationFileError(f"{path}: {exc}") from exc
    size = k * n
    if len(lines) != 1 + size:
        raise PermutationFileError(
            f"{path}: expected {size} mapping lines, found {len(lines) - 1}"
        )
    forward = np.empty(size, dtype=np.int64)
    seen = np.zeros(size, dtype=bool)
    for line_no, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise PermutationFileError(f"{path}: line {line_no}: expected 'src dst'")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise PermutationFileError(f"{path}: line {line_no}: non-integer") from exc
        if not 0 <= src < size or not 0 <= dst < size:
            raise PermutationFileError(f"{path}: line {line_no}: index out of range")
        if seen[src]:
            raise PermutationFileError(f"{path}: line {line_no}: duplicate source {src}")
        seen[src] = True
        forward[src] = dst
    try:
        return BlockPermutation(K=k, N=n, forward=forward, seed=seed, design_t=t)
    except ValueError as exc:
        raise PermutationFileError(f"{path}: {exc}") from exc
