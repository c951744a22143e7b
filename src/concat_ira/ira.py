"""Systematic IRA code construction and accumulator encoding.

A code here is an [N, K] systematic code whose parity-check matrix splits as
H = [H1 | H2]: H1 is an irregular M x K section over the systematic bits and
H2 is the fixed M x M dual-diagonal accumulator section.  Parity bits are
produced by a running XOR, so encoding is linear-time and never needs a
generator matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .gf2 import SparseBinaryMatrix, _differing_lines, load_alist, save_alist
from .spa import _kernel, _seed_words

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
_MAX_RESTARTS = 256  # build_h1's restarts, each from the next seed


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
    ``build_code`` builds at the default only; a code keeps it as provenance.
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
    return SparseBinaryMatrix(m, m, cols)


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


def build_h1(k: int, m: int, seed: int) -> SparseBinaryMatrix:
    """Place the systematic columns of ``default_degree_spec(k, m)`` one at a
    time, highest degree first, resampling any placement that closes a
    4-cycle (ACE below the default AceParams) or whose support would complete
    a codeword of weight <= 4.

    Rows are drawn without replacement with probability proportional to
    remaining budget, which keeps consumption even so the final columns are
    not forced into conflicting rows; every row of [H1|H2] ends at exactly
    the target check degree.  A column is stuck after max_resample draws,
    or at once when every row set has failed; a stuck column restarts the
    whole construction with the next derived seed.  Running out of restarts
    raises with the constraint that bound.  The restarts run in C
    (``_trial_kernel.c``), restart r drawing what
    ``np.random.default_rng(seed + r)`` would draw.

    The low-weight screen guarantees minimum distance >= 5, which matters
    for floor studies: without it, undetected few-bit errors drown out the
    non-convergence events that stopping-set analysis targets.  Dense tiny
    codes cannot satisfy it; the tests build theirs with
    ``tests/oracles.reference_build_h1``.
    """
    spec = default_degree_spec(k, m)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if max(spec.h1_column_degrees) > m:
        raise ValueError(f"a column degree exceeds the {m} available rows")
    ace = AceParams()
    words = _seed_words(seed)
    degrees = np.array(spec.h1_column_degrees, dtype=np.int64)
    rows = np.empty(int(degrees.sum()), dtype=np.int64)
    blocker = np.empty(2, dtype=np.int64)
    status = _kernel().ira_build_h1(
        words.ctypes.data, len(words), k, m, spec.check_degree_target, degrees.ctypes.data,
        ace.max_resample, _MAX_RESTARTS, rows.ctypes.data, blocker.ctypes.data,
    )
    if status < 0:
        raise MemoryError(f"building a [{k + m}, {k}] code ran out of memory")
    if status == 0:
        return SparseBinaryMatrix(m, k, np.split(rows, np.cumsum(degrees)[:-1]))
    avail, degree = blocker.tolist()
    last_blocker = (
        f"only {avail} rows with remaining budget for a degree-{degree} column"
        if avail >= 0 else "ACE resample budget exhausted"
    )
    raise ConstructionError(
        f"no placement satisfied ACE(d_ace={ace.d_ace}, eta={ace.eta}), low-weight screen on "
        f"within {_MAX_RESTARTS} restarts: {last_blocker}"
    )


@dataclass(frozen=True, eq=False)
class IraCode:
    """A systematic [N, K] code: its matrix H = [H1 | H2] and how it was built."""

    H: SparseBinaryMatrix
    ace: AceParams
    seed: int

    def __post_init__(self):
        if self.seed < 0:  # no construction records one
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def N(self) -> int:
        return self.H.n_cols

    @property
    def M(self) -> int:
        return self.H.n_rows

    @property
    def K(self) -> int:
        return self.N - self.M

    @cached_property
    def degree_spec(self) -> DegreeSpec:
        """The systematic column weights and row 0's weight, every row's in a valid code."""
        columns = [len(c) for c in self.H.col_support[: self.K]]
        return DegreeSpec(columns, len(self.H.row_support[0]))

    @property
    def graph(self) -> SparseBinaryMatrix:
        # kept for perfbench/run.py, which passes it to sensitivity_histogram
        return self.H

    @property
    def rate(self) -> float:
        return self.K / self.N

    @cached_property
    def _h1_masks(self) -> np.ndarray:
        """uint64 (M, ceil(K / 64)): bit b of word w of row c is set when
        source bit 64 w + b takes part in check c."""
        words = -(-self.K // 64)
        rows = [0] * self.M
        for j, col in enumerate(self.H.col_support[: self.K]):
            for r in col:
                rows[r] |= 1 << j
        data = b"".join(r.to_bytes(8 * words, "little") for r in rows)
        return np.frombuffer(data, dtype="<u8").reshape(self.M, words).astype(np.uint64)


def build_code(k: int, n: int, seed: int = 0) -> IraCode:
    """Construct an [N, K] code: fixed accumulator section plus ACE-conditioned
    irregular section, then assemble and audit the full matrix."""
    if n <= k:
        raise ValueError("N must exceed K")
    m = n - k
    h1 = build_h1(k, m, seed)
    cols = list(h1.col_support) + list(build_h2(m).col_support)
    code = IraCode(H=SparseBinaryMatrix(m, n, cols), ace=AceParams(), seed=seed)
    validate_code(code)
    return code


def validate_code(code: IraCode) -> None:
    """Structural audit of every IraCode invariant, from the matrix alone."""
    h, k, m = code.H, code.K, code.M
    if k < 1:
        raise ConstructionError(f"{h.n_cols} columns over {m} rows leave no systematic column")
    for j in range(m - 1):
        if h.col_support[k + j] != (j, j + 1):
            raise ConstructionError(f"parity column {j} is not dual-diagonal")
    if h.col_support[k + m - 1] != (m - 1,):
        raise ConstructionError("final parity column is not the weight-1 column")
    for j in range(k):
        if len(h.col_support[j]) < 3:
            raise ConstructionError(f"systematic column {j} has weight < 3")
    target = len(h.row_support[0])
    for r in range(m):
        if len(h.row_support[r]) != target:
            raise ConstructionError(f"row {r} has weight {len(h.row_support[r])} != {target}")


def encode(code: IraCode, s) -> np.ndarray:
    """Systematic encode: parity m is the running XOR of <H1 row, s> terms.

    The output always satisfies H·output = 0 over GF(2).
    """
    s = np.asarray(s)
    if s.shape != (code.K,):
        raise ValueError(f"expected {code.K} source bits, got shape {s.shape}")
    return encode_batch(code, s[np.newaxis, :])[0]


def encode_batch(code: IraCode, sources) -> np.ndarray:
    """Encode a (B, K) block of source rows into (B, N) codewords in one C
    call (``_trial_kernel.c``); sources are taken as uint8, and a parity
    term counts each by its low bit."""
    sources = np.asarray(sources)
    if sources.ndim != 2 or sources.shape[1] != code.K:
        raise ValueError(f"expected (B, {code.K}) source block, got {sources.shape}")
    sources = np.ascontiguousarray(sources, dtype=np.uint8)
    out = np.empty((len(sources), code.N), dtype=np.uint8)
    _kernel().ira_encode(code._h1_masks.ctypes.data, code.M, code.K, len(sources),
                         sources.ctypes.data, out.ctypes.data)
    return out


# --- code files: canonical alist next to a key-value sidecar -------------------

_SIDECAR_FORMAT = "ira-code 1"
_SIDECAR_KEYS = (
    "format", "K", "N", "check_degree", "seed", "d_ace", "eta", "max_resample",
    "h1_column_degrees",
)


def _sidecar_text(code: IraCode) -> str:
    values = (
        _SIDECAR_FORMAT, code.K, code.N, code.degree_spec.check_degree_target,
        code.seed, code.ace.d_ace, code.ace.eta, code.ace.max_resample,
        " ".join(map(str, code.degree_spec.h1_column_degrees)),
    )
    return "".join(f"{key} {value}\n" for key, value in zip(_SIDECAR_KEYS, values))


def save_code(code: IraCode, prefix: str | Path) -> tuple[Path, Path]:
    """Write <prefix>.alist and <prefix>.sidecar; both byte-deterministic."""
    alist_path, sidecar_path = Path(f"{prefix}.alist"), Path(f"{prefix}.sidecar")
    alist_path.parent.mkdir(parents=True, exist_ok=True)
    alist_path.write_text(save_alist(code.H), encoding="utf-8")
    sidecar_path.write_text(_sidecar_text(code), encoding="utf-8")
    return alist_path, sidecar_path


def load_code(prefix: str | Path) -> IraCode:
    """Read the <prefix>.alist / <prefix>.sidecar pair, each only in the form
    ``save_code`` writes, back into a validated code; of the sidecar, only
    the lines H does not fix are parsed.  Every refusal names its file:
    AlistError or SidecarError the first line that does not parse, holds a
    negative seed or differs from the saved form of what was read (a byte
    that is not UTF-8 reads as U+FFFD, which none holds); ValueError ACE
    parameters out of range, and ConstructionError a matrix that is not an
    IRA code."""
    sidecar_path, alist_path = Path(f"{prefix}.sidecar"), Path(f"{prefix}.alist")
    text = sidecar_path.read_bytes().decode("utf-8", "replace")
    lines = text.split("\n") + [""] * len(_SIDECAR_KEYS)  # a missing line reads as empty
    if lines[0] != f"format {_SIDECAR_FORMAT}":
        raise SidecarError(f"{sidecar_path}: line 1: expected 'format {_SIDECAR_FORMAT}'")
    values = []
    for key in ("seed", "d_ace", "eta", "max_resample"):
        line_no = _SIDECAR_KEYS.index(key) + 1
        try:
            values.append(int(lines[line_no - 1].partition(" ")[2]))
        except ValueError:
            raise SidecarError(f"{sidecar_path}: line {line_no}: expected '{key} <value>'") from None
    seed, d_ace, eta, max_resample = values
    try:
        ace = AceParams(d_ace=d_ace, eta=eta, max_resample=max_resample)
    except ValueError as exc:
        raise ValueError(f"{sidecar_path}: {exc}") from exc
    h = load_alist(alist_path.read_bytes().decode("utf-8", "replace"), alist_path)
    try:
        code = IraCode(H=h, ace=ace, seed=seed)
    except ValueError as exc:
        raise SidecarError(f"{sidecar_path}: line {_SIDECAR_KEYS.index('seed') + 1}: {exc}") from exc
    try:
        validate_code(code)
    except ConstructionError as exc:
        raise ConstructionError(f"{alist_path}: {exc}") from exc
    saved = _sidecar_text(code)
    if saved != text:
        line_no = _differing_lines(text, saved)[0]
        raise SidecarError(f"{sidecar_path}: line {line_no}: not as save_code writes this code")
    return code
