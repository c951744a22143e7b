"""BPSK over AWGN: modulation, noise, channel LLRs, and Eb/N0 bookkeeping.

Bit 0 maps to +1.0, so a positive LLR favors 0 throughout the package.
Source bits and noise are drawn from per-trial counter-derived streams,
which keeps Monte Carlo results independent of worker count and scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "RngStream",
    "trial_generators",
    "random_bits",
    "ebno_sigma",
    "modulate",
    "awgn",
    "channel_llr",
]


def ebno_sigma(ebno_db: float, rate: float) -> float:
    """Noise standard deviation per real dimension for BPSK at a given rate.

    Raises ValueError for an Eb/N0 whose LLR scale 2/sigma^2 is not a finite
    positive number: NaN, infinities, and magnitudes past about +-3080 dB.
    """
    if rate <= 0 or rate > 1:
        raise ValueError("rate must lie in (0, 1]")
    try:
        sigma = math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebno_db / 10.0)))
        llr_scale = 2.0 / (sigma * sigma)
    except (OverflowError, ZeroDivisionError):
        llr_scale = math.nan
    if not 0.0 < llr_scale < math.inf:
        raise ValueError(f"Eb/N0 of {ebno_db} dB gives no usable noise level")
    return sigma


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init, init * mult, init * mult^2, ... mod 2^32: the running hash
    constant before and after each of count hashes, shaped to broadcast over
    trials."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each word row k against consts[k] and
    consts[k + 1]; uint32 arithmetic wraps as the C code's does."""
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


class _TrialSeed(ISeedSequence):
    """One trial's PCG64 seed words, handed to PCG64 as its seed sequence.
    PCG64 asks only for generate_state(4, np.uint64)."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def trial_generators(master_seed: int, lo: int, hi: int) -> list[np.random.Generator]:
    """The generators of trials lo..hi-1.  Trial i's is PCG64 seeded as
    ``SeedSequence(entropy=(master_seed, i))`` would seed it: SeedSequence's
    entropy mixing and generate_state(4, np.uint64), ported to run over all
    the trials at once, one array operation per step of the hash.

    Raises ValueError for a negative seed or index, and for an index of
    2^32 or more, which SeedSequence would hash as two entropy words.
    """
    master_seed, lo, hi = int(master_seed), int(lo), int(hi)
    if master_seed < 0 or lo < 0:
        raise ValueError(f"master_seed and trial indices must be >= 0, not {master_seed}, {lo}")
    if hi > 2**32:
        raise ValueError(f"trial indices must be below 2**32, not {hi - 1}")
    # entropy words: master_seed as little-endian 32-bit words, then i; the
    # pool's first words take the entropy, zeros when it is shorter
    words = [master_seed & _MASK32]
    while master_seed > _MASK32:
        master_seed >>= 32
        words.append(master_seed & _MASK32)
    entropy = np.zeros((max(len(words) + 1, _POOL), hi - lo), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(lo, hi, dtype=np.uint32)
    extra = len(entropy) - _POOL
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    pool = _hash(entropy[:_POOL], consts[: _POOL + 1])
    k = _POOL
    for src in range(_POOL):  # each pool word cross-mixed into the others
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts[k : k + _POOL]))
        k += _POOL - 1
    for word in entropy[_POOL:]:  # entropy past the pool, mixed into every word
        pool = _mix(pool, _hash(word, consts[k : k + _POOL + 1]))
        k += _POOL
    # generate_state(4, np.uint64): 8 words hashed from the pool in turn,
    # paired into 64-bit words little-endian
    state = _hash(np.tile(pool, (2, 1)), _hash_consts(_INIT_B, _MULT_B, 2 * _POOL))
    seeds = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_TrialSeed(row))) for row in seeds]


def random_bits(gens, size: int) -> np.ndarray:
    """Uniform bits as uint8, one row of size bits per generator, each row
    the values ``gen.integers(0, 2, size=size, dtype=np.uint8)`` would
    return: the top bit of each byte of ceil(size / 8) raw 64-bit outputs,
    bytes in little-endian order.  Later draws read the same stream either
    way."""
    words = -(-size // 8)
    raw = np.concatenate([gen.bit_generator.random_raw(words) for gen in gens])
    octets = raw.astype("<u8", copy=False).view(np.uint8).reshape(len(gens), 8 * words)
    return octets[:, :size] >> 7


@dataclass(frozen=True)
class RngStream:
    """One independent, reproducible random stream per Monte Carlo trial."""

    master_seed: int
    stream_index: int

    def generator(self) -> np.random.Generator:
        """PCG64 seeded by SeedSequence((master_seed, stream_index)), as
        trial_generators seeds trial stream_index, built by NumPy itself,
        which is cheaper for one generator than the vectorised port."""
        seed = np.random.SeedSequence((self.master_seed, self.stream_index))
        return np.random.Generator(np.random.PCG64(seed))


def modulate(bits) -> np.ndarray:
    """BPSK map: 0 -> +1.0, 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def awgn(symbols, sigma: float, rng) -> np.ndarray:
    """symbols + sigma * z for standard normal z, drawn from one generator,
    or from a sequence of generators, one per row of a 2-D symbols array,
    each drawing its row as it would draw the row alone."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    symbols = np.asarray(symbols, dtype=np.float64)
    if isinstance(rng, np.random.Generator):
        z = rng.standard_normal(symbols.shape)
    else:
        if symbols.ndim != 2 or len(rng) != len(symbols):
            raise ValueError("need one generator per row of a 2-D symbols array")
        z = np.empty(symbols.shape)
        for row, gen in zip(z, rng):
            gen.standard_normal(out=row)
    return symbols + sigma * z


def channel_llr(y, sigma: float) -> np.ndarray:
    """LLR of a BPSK observation on the AWGN channel: 2y / sigma^2."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return 2.0 * np.asarray(y, dtype=np.float64) / (sigma * sigma)
