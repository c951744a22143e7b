"""Systematic IRA code construction and accumulator encoding.

A code here is an [N, K] systematic code whose parity-check matrix splits as
H = [H1 | H2]: H1 is an irregular M x K section over the systematic bits and
H2 is the fixed M x M dual-diagonal accumulator section.  Parity bits are
produced by a running XOR, so encoding is linear-time and never needs a
generator matrix.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from math import comb
from pathlib import Path
from typing import Sequence

import numpy as np

from .gf2 import SparseBinaryMatrix, load_alist, save_alist

__all__ = [
    "ConstructionError",
    "SidecarError",
    "DegreeSpec",
    "AceParams",
    "IraCode",
    "build_h2",
    "default_degree_spec",
    "build_h1",
    "build_code",
    "encode",
    "encode_batch",
    "validate_code",
    "save_code",
    "load_code",
]

DEFAULT_CHECK_DEGREE = 10


class ConstructionError(RuntimeError):
    """Code construction could not satisfy its structural or ACE constraints."""


class SidecarError(ValueError):
    """Sidecar metadata text that fails to parse or disagrees with the matrix."""


@dataclass(frozen=True)
class DegreeSpec:
    """Per-column degrees of the systematic section plus the uniform check degree."""

    h1_column_degrees: tuple[int, ...]
    check_degree_target: int

    def __post_init__(self):
        object.__setattr__(
            self, "h1_column_degrees", tuple(int(d) for d in self.h1_column_degrees)
        )
        if any(d < 3 for d in self.h1_column_degrees):
            raise ValueError("systematic column degrees must all be >= 3")
        if self.check_degree_target < 1:
            raise ValueError("check degree must be positive")

    def validate_edge_budget(self, k: int, m: int) -> None:
        """Degrees must account for exactly the check edges H2 leaves over."""
        if len(self.h1_column_degrees) != k:
            raise ValueError(
                f"degree spec has {len(self.h1_column_degrees)} entries, expected {k}"
            )
        budget = m * self.check_degree_target - (2 * m - 1)
        total = sum(self.h1_column_degrees)
        if total != budget:
            raise ValueError(
                f"H1 degrees sum to {total} but the row budget requires {budget}"
            )
        if max(self.h1_column_degrees, default=0) > m:
            raise ValueError(f"a column degree exceeds the {m} available rows")


@dataclass(frozen=True)
class AceParams:
    """Cycle-conditioning knobs: inspect cycles up to length 2*d_ace, demand
    every one reach an externally-connected mass of at least eta.

    The default (d_ace=2, eta=5) is unreachable by any 4-cycle over degree
    <= 4 variables, so it bans 4-cycles outright (girth >= 6).  That is the
    strongest level constructible for the [181, 128] degree-3/4 mix at check
    degree 10, and it matters: permitting 4-cycles lets two systematic
    columns share an identical support, which is a weight-2 codeword and an
    undetected-error floor that dwarfs anything stopping sets do.
    """

    d_ace: int = 2
    eta: int = 5
    max_resample: int = 200

    def __post_init__(self):
        if self.d_ace < 2:
            raise ValueError("d_ace must be >= 2")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.max_resample < 1:
            raise ValueError("max_resample must be >= 1")


def build_h2(m: int) -> SparseBinaryMatrix:
    """Dual-diagonal M x M accumulator section.

    Column j connects checks {j, j+1}; the final column is the single
    weight-1 column {M-1}.  Row 0 therefore has weight 1 and all other rows
    weight 2, for 2M-1 edges total.
    """
    if m < 1:
        raise ValueError("M must be >= 1")
    cols = [(j, j + 1) for j in range(m - 1)] + [(m - 1,)]
    return SparseBinaryMatrix.from_cols(m, m, cols)


def default_degree_spec(k: int, m: int, check_degree: int = DEFAULT_CHECK_DEGREE) -> DegreeSpec:
    """Degree-3/4 mix that exactly consumes the H1 edge budget.

    The budget is M*check_degree - (2M - 1); u = budget - 3K columns get
    degree 4 (placed at the low indices) and the rest degree 3.  Callers with
    an externally optimized distribution should build a DegreeSpec directly.
    """
    budget = m * check_degree - (2 * m - 1)
    u = budget - 3 * k
    if u < 0:
        raise ConstructionError(
            f"edge budget {budget} cannot give {k} columns degree >= 3"
        )
    if u > k:
        raise ConstructionError(
            f"edge budget {budget} exceeds what K={k} columns of degree <= 4 absorb"
        )
    degrees = (4,) * u + (3,) * (k - u)
    return DegreeSpec(degrees, check_degree)


def _ace_passes(
    v2c: Sequence[Sequence[int]], c2v: Sequence[Sequence[int]], v: int, d_ace: int, eta: int
) -> bool:
    """Decision-equivalent fast path for the exhaustive ACE check in
    ``tests/oracles.py`` (``ace_check(...).passed``).

    A cycle through v carries at least deg(v)-2, so the test passes outright
    once that base reaches eta.  Otherwise a violating cycle must keep its
    running degree-sum below eta at every variable along the way (the terms
    are nonnegative), which lets the search prune aggressively and stop at
    the first violation instead of enumerating everything.  At the last
    depth a path can only close back to v, so that level is one set
    intersection with v's checks.  ``v2c`` lists each variable's checks and
    ``c2v`` each check's variables.
    """
    base = len(v2c[v]) - 2
    if base >= eta:
        return True
    v_checks = frozenset(v2c[v])

    def ok(u: int, partial: int, used_checks: frozenset, used_vars: frozenset) -> bool:
        closed_len = 2 * (len(used_checks) + 1)
        if closed_len + 2 > 2 * d_ace:
            # closed_len >= 4 here: any unused check shared with v closes a cycle
            return v_checks.intersection(v2c[u]) <= used_checks
        for c in v2c[u]:
            if c in used_checks:
                continue
            for w in c2v[c]:
                if w == u:
                    continue
                if w == v:
                    if closed_len >= 4:
                        return False  # cycle closed with total ACE == partial < eta
                elif w not in used_vars:
                    p = partial + len(v2c[w]) - 2
                    if p < eta and not ok(w, p, used_checks | {c}, used_vars | {w}):
                        return False
        return True

    return ok(v, base, frozenset(), frozenset((v,)))


def _h1_row_budgets(m: int, check_degree: int) -> list[int]:
    # H2 gives row 0 weight 1 and every later row weight 2.
    budgets = [check_degree - 2] * m
    budgets[0] = check_degree - 1
    if any(b < 0 for b in budgets):
        raise ConstructionError(f"check degree {check_degree} below the H2 row weight")
    return budgets


# On resample exhaustion, enumerate every remaining row combination instead of
# giving up, provided the combination count stays below this cap.  Late in a
# construction the budget-bearing rows are few, so the cap always admits the
# endgame columns where random proposals are most likely to miss.
_ENUMERATION_CAP = 20000


class _LowWeightScreen:
    """Incremental form, for construction, of the batch weight <= 4 test
    ``has_codeword_of_weight_le4`` in ``tests/oracles.py``.

    Tracks placed column supports and their pairwise sums; a candidate support
    is rejected when accepting it would create a weight <= 4 codeword.  Pair
    sums that collide between overlapping pairs imply a duplicate support, so
    keeping one flat set of sums is enough.  A support is a bitmask of its
    rows (bit r set for row r), so a support sum is one integer XOR.
    """

    def __init__(self, initial: Sequence[int]):
        self.supports: set[int] = set()
        self.placed: list[int] = []
        self.pair_sums: set[int] = set()
        for s in initial:
            self.register(s)

    def clashes(self, cand: int) -> bool:
        if cand in self.supports or cand in self.pair_sums:
            return True  # weight 2 or 3
        for s in self.placed:
            d = cand ^ s
            if d in self.supports or d in self.pair_sums:
                return True  # weight 3 or 4
        return False

    def register(self, cand: int) -> None:
        for s in self.placed:
            self.pair_sums.add(cand ^ s)
        self.placed.append(cand)
        self.supports.add(cand)


def _row_mask(rows) -> int:
    mask = 0
    for r in rows:
        mask |= 1 << int(r)
    return mask


def _weighted_sample(
    rng: np.random.Generator, avail: list[int], weights: list[int], size: int
) -> list[int]:
    """``rng.choice(avail, size, replace=False, p=w / w.sum())`` without its
    per-call overhead: the same values, leaving the same generator state.

    As numpy does, draw one uniform per missing index, bisect each into the
    cumulative probabilities (already drawn indices zeroed, scaled by the
    last entry), keep first sightings in draw order and repeat until size
    distinct indices are found.  Integer weights sum exactly, so w / total
    is numpy's p to the bit.
    """
    total = sum(weights)
    p = [w / total for w in weights]
    found: list[int] = []
    while len(found) < size:
        for i in found:
            p[i] = 0.0
        cdf = list(accumulate(p))
        last = cdf[-1]
        cdf = [c / last for c in cdf]
        for x in rng.random(size - len(found)).tolist():
            i = bisect_right(cdf, x)
            if i not in found:
                found.append(i)
    return [avail[i] for i in found]


def build_h1(
    k: int,
    m: int,
    spec: DegreeSpec,
    ace: AceParams,
    seed: int,
    max_restarts: int = 256,
    screen_low_weight: bool = True,
) -> SparseBinaryMatrix:
    """Place the irregular systematic columns one at a time, highest degree
    first, resampling any placement whose short-cycle ACE falls below eta or
    (by default) whose support would complete a codeword of weight <= 4.

    Rows are drawn without replacement with probability proportional to
    remaining budget, which keeps consumption even so the final columns are
    not forced into conflicting rows; every row of [H1|H2] ends at exactly
    the target check degree.  A column that exhausts its resample budget
    falls back to enumerating all remaining row combinations before being
    declared stuck, and is stuck at once when every row set has failed; a
    stuck column restarts the whole construction with the next derived
    seed.  Running out of restarts raises with the constraint
    that bound.

    The low-weight screen guarantees minimum distance >= 5, which matters
    for floor studies: without it, undetected few-bit errors drown out the
    non-convergence events that stopping-set analysis targets.  Dense tiny
    codes cannot satisfy it; pass screen_low_weight=False there.
    """
    if max_restarts < 1:
        raise ValueError(f"max_restarts must be >= 1, got {max_restarts}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    spec.validate_edge_budget(k, m)
    order = sorted(range(k), key=lambda j: (-spec.h1_column_degrees[j], j))
    h2_cols = [[j, j + 1] for j in range(m - 1)] + [[m - 1]]

    last_blocker = "ACE resample budget exhausted"
    for restart in range(max_restarts):
        rng = np.random.default_rng(seed + restart)
        budgets = _h1_row_budgets(m, spec.check_degree_target)
        h1_cols: list[list[int]] = [[] for _ in range(k)]
        rows_work: list[list[int]] = [[] for _ in range(m)]
        for r, sup in enumerate(h2_cols):
            for c in sup:
                rows_work[c].append(k + r)
        cols_work = h1_cols + h2_cols
        screen = (
            _LowWeightScreen([_row_mask(s) for s in h2_cols])
            if screen_low_weight
            else None
        )

        # cols_work aliases the per-column lists, so mutate them in place;
        # ACE runs first because it rejects far more candidates than the screen,
        # and a row set in the current column's failed set would fail again
        def attempt(j: int, rows) -> bool:
            cand = _row_mask(rows)
            if cand in failed:
                return False
            h1_cols[j][:] = sorted(rows)
            for r in h1_cols[j]:
                rows_work[r].append(j)
            if _ace_passes(cols_work, rows_work, j, ace.d_ace, ace.eta) and (
                screen is None or not screen.clashes(cand)
            ):
                for r in h1_cols[j]:
                    budgets[r] -= 1
                if screen is not None:
                    screen.register(cand)
                return True
            for r in h1_cols[j]:
                rows_work[r].remove(j)
            h1_cols[j].clear()
            failed.add(cand)
            return False

        for j in order:
            degree = spec.h1_column_degrees[j]
            # budgets change only on acceptance, so while this column resamples
            # its rows with capacity are fixed and a row set that failed fails again
            avail = [r for r, b in enumerate(budgets) if b > 0]
            if len(avail) < degree:
                last_blocker = (
                    f"only {len(avail)} rows with remaining budget for a "
                    f"degree-{degree} column"
                )
                break
            weights = [budgets[r] for r in avail]
            n_sets = comb(len(avail), degree)
            failed: set[int] = set()  # row masks that attempt() rejected
            accepted = False
            for _ in range(ace.max_resample):
                if attempt(j, _weighted_sample(rng, avail, weights, degree)):
                    accepted = True
                    break
                if len(failed) == n_sets:
                    break  # no row set is left to try
            if not accepted and len(failed) < n_sets <= _ENUMERATION_CAP:
                combos = list(combinations(avail, degree))
                rng.shuffle(combos)
                accepted = any(attempt(j, rows) for rows in combos)
            if not accepted:
                # this generator dies with the restart, so skipped draws change nothing
                last_blocker = "ACE resample budget exhausted"
                break
        else:
            assert all(b == 0 for b in budgets)
            return SparseBinaryMatrix.from_cols(m, k, h1_cols)

    screen_note = ", low-weight screen on" if screen_low_weight else ""
    raise ConstructionError(
        f"no placement satisfied ACE(d_ace={ace.d_ace}, eta={ace.eta}){screen_note} "
        f"within {max_restarts} restarts: {last_blocker}"
    )


@dataclass(frozen=True, eq=False)
class IraCode:
    """A constructed systematic [N, K] code with its construction record."""

    K: int
    N: int
    M: int
    H: SparseBinaryMatrix
    degree_spec: DegreeSpec
    ace: AceParams
    seed: int

    @property
    def graph(self) -> SparseBinaryMatrix:
        # kept for perfbench/run.py, which passes it to sensitivity_histogram
        return self.H

    @property
    def rate(self) -> float:
        return self.K / self.N

    @cached_property
    def _h1_index(self) -> np.ndarray:
        """(w, M): the k-th systematic position of every check, padded with K,
        the index of a zero row appended to the source bits."""
        rows = [[j for j in row if j < self.K] for row in self.H.row_support]
        index = np.full((max(map(len, rows)), self.M), self.K, dtype=np.intp)
        for check, row in enumerate(rows):
            index[: len(row), check] = row
        return index


def build_code(
    k: int,
    n: int,
    check_degree: int = DEFAULT_CHECK_DEGREE,
    spec: DegreeSpec | None = None,
    ace: AceParams = AceParams(),
    seed: int = 0,
    max_restarts: int = 256,
    screen_low_weight: bool = True,
) -> IraCode:
    """Construct an [N, K] code: fixed accumulator section plus ACE-conditioned
    irregular section, then assemble and audit the full matrix."""
    if n <= k:
        raise ValueError("N must exceed K")
    m = n - k
    if spec is None:
        spec = default_degree_spec(k, m, check_degree)
    elif spec.check_degree_target != check_degree:
        raise ValueError("degree spec disagrees with requested check degree")
    h1 = build_h1(
        k, m, spec, ace, seed,
        max_restarts=max_restarts, screen_low_weight=screen_low_weight,
    )
    h2 = build_h2(m)
    cols = list(h1.col_support) + list(h2.col_support)
    h = SparseBinaryMatrix.from_cols(m, n, cols)
    code = IraCode(K=k, N=n, M=m, H=h, degree_spec=spec, ace=ace, seed=seed)
    validate_code(code)
    return code


def validate_code(code: IraCode) -> None:
    """Structural audit of every IraCode invariant, from the matrix alone."""
    h = code.H
    m, k, n = code.M, code.K, code.N
    if (h.n_rows, h.n_cols) != (m, n) or n != k + m:
        raise ConstructionError("matrix shape disagrees with (K, N, M)")
    for j in range(m - 1):
        if h.col_support[k + j] != (j, j + 1):
            raise ConstructionError(f"parity column {j} is not dual-diagonal")
    if h.col_support[k + m - 1] != (m - 1,):
        raise ConstructionError("final parity column is not the weight-1 column")
    for j in range(k):
        if len(h.col_support[j]) < 3:
            raise ConstructionError(f"systematic column {j} has weight < 3")
        if len(h.col_support[j]) != code.degree_spec.h1_column_degrees[j]:
            raise ConstructionError(f"systematic column {j} disagrees with degree spec")
    target = code.degree_spec.check_degree_target
    for r in range(m):
        if len(h.row_support[r]) != target:
            raise ConstructionError(f"row {r} has weight {len(h.row_support[r])} != {target}")
    code.degree_spec.validate_edge_budget(k, m)


def encode(code: IraCode, s) -> np.ndarray:
    """Systematic encode: parity m is the running XOR of <H1 row, s> terms.

    The output always satisfies H·output = 0 over GF(2).
    """
    s = np.asarray(s)
    if s.shape != (code.K,):
        raise ValueError(f"expected {code.K} source bits, got shape {s.shape}")
    return encode_batch(code, s[np.newaxis, :])[0]


def encode_batch(code: IraCode, sources) -> np.ndarray:
    """Encode a (B, K) block of source rows into (B, N) codewords."""
    sources = np.asarray(sources)
    if sources.ndim != 2 or sources.shape[1] != code.K:
        raise ValueError(f"expected (B, {code.K}) source block, got {sources.shape}")
    # batch-last: each parity term is the XOR of its check's source bits, and
    # the parities are the running XOR of the terms
    bits = np.zeros((code.K + 1, sources.shape[0]), dtype=np.uint8)
    bits[: code.K] = sources.T
    terms = np.bitwise_xor.reduce(bits[code._h1_index], axis=0)
    out = np.empty((sources.shape[0], code.N), dtype=np.uint8)
    out[:, : code.K] = sources
    out[:, code.K :] = np.bitwise_xor.accumulate(terms, axis=0).T
    return out


# --- code files: canonical alist next to a key-value sidecar -------------------

_SIDECAR_VERSION = 1


def save_code(code: IraCode, prefix: str | Path) -> tuple[Path, Path]:
    """Write <prefix>.alist and <prefix>.sidecar; both byte-deterministic."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    alist_path = prefix.with_suffix(".alist")
    sidecar_path = prefix.with_suffix(".sidecar")
    alist_path.write_text(save_alist(code.H), encoding="utf-8")
    lines = [
        f"format ira-code {_SIDECAR_VERSION}",
        f"K {code.K}",
        f"N {code.N}",
        f"check_degree {code.degree_spec.check_degree_target}",
        f"seed {code.seed}",
        f"d_ace {code.ace.d_ace}",
        f"eta {code.ace.eta}",
        f"max_resample {code.ace.max_resample}",
        "h1_column_degrees " + " ".join(str(d) for d in code.degree_spec.h1_column_degrees),
    ]
    sidecar_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return alist_path, sidecar_path


def load_code(prefix: str | Path) -> IraCode:
    """Read the <prefix>.alist / <prefix>.sidecar pair back into a validated code."""
    prefix = Path(prefix)
    alist_path = prefix.with_suffix(".alist")
    sidecar_path = prefix.with_suffix(".sidecar")
    fields: dict[str, str] = {}
    for line_no, raw in enumerate(
        sidecar_path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not raw.strip():
            continue
        key, _, value = raw.partition(" ")
        if not value:
            raise SidecarError(f"line {line_no}: expected 'key value', got {raw!r}")
        fields[key] = value.strip()
    if fields.get("format") != f"ira-code {_SIDECAR_VERSION}":
        raise SidecarError(f"unsupported sidecar format {fields.get('format')!r}")
    try:
        k = int(fields["K"])
        n = int(fields["N"])
        spec = DegreeSpec(
            tuple(int(d) for d in fields["h1_column_degrees"].split()),
            int(fields["check_degree"]),
        )
        ace = AceParams(
            d_ace=int(fields["d_ace"]),
            eta=int(fields["eta"]),
            max_resample=int(fields["max_resample"]),
        )
        seed = int(fields["seed"])
    except KeyError as exc:
        raise SidecarError(f"missing sidecar key {exc.args[0]!r}") from exc
    h = load_alist(alist_path.read_text(encoding="utf-8"))
    code = IraCode(K=k, N=n, M=n - k, H=h, degree_spec=spec, ace=ace, seed=seed)
    validate_code(code)
    return code
