"""BPSK over AWGN: modulation, noise, channel LLRs, and Eb/N0 bookkeeping.

Bit 0 maps to +1.0, so a positive LLR favors 0 throughout the package.
Every trial of both systems draws its source bits and noise from its own
counter-derived stream (``TrialStreams``), which keeps Monte Carlo results
independent of worker count and scheduling.  ``RngStream``, ``modulate``,
``awgn`` and ``channel_llr`` are the same channel in NumPy, which no trial
calls; they stay because the benchmark's tracer patches them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spa import _kernel

__all__ = [
    "RngStream",
    "TrialStreams",
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


class TrialStreams:
    """The random streams of trials lo..hi-1: trial i draws what
    ``Generator(PCG64(SeedSequence((master_seed, i))))`` draws in NumPy
    2.4.6.  ``_trial_kernel.c`` ports SeedSequence's hash, PCG64 and NumPy's
    ziggurat with its tables, so the stream is the repository's own, and a
    task's trials, single-code or concatenated, draw in one C call each,
    with no generator objects; the tests compare it with the installed
    NumPy's.  ``states`` holds each trial's PCG64 state as (state high,
    state low, increment high, increment low).

    Raises ValueError for a negative seed or index, and for an index of
    2^32 or more, which SeedSequence would hash as two entropy words.
    """

    def __init__(self, master_seed: int, lo: int, hi: int):
        master_seed, lo, hi = int(master_seed), int(lo), int(hi)
        if master_seed < 0 or lo < 0:
            raise ValueError(f"master_seed and trial indices must be >= 0, not {master_seed}, {lo}")
        if hi > 2**32:
            raise ValueError(f"trial indices must be below 2**32, not {hi - 1}")
        # SeedSequence's entropy: master_seed as little-endian 32-bit words, then i
        words = [master_seed & 0xFFFFFFFF]
        while master_seed > 0xFFFFFFFF:
            master_seed >>= 32
            words.append(master_seed & 0xFFFFFFFF)
        words = np.array(words, dtype=np.uint32)
        self.states = np.empty((max(hi - lo, 0), 4), dtype=np.uint64)
        _kernel().trial_seed(
            words.ctypes.data, len(words), lo, len(self.states), self.states.ctypes.data
        )

    def bits(self, size: int) -> np.ndarray:
        """size uniform bits per trial as a (trials, size) uint8 array, each row
        what ``integers(0, 2, size=size, dtype=np.uint8)`` would return."""
        out = np.empty((len(self.states), size), dtype=np.uint8)
        _kernel().trial_bits(self.states.ctypes.data, len(out), size, out.ctypes.data)
        return out

    def llrs(self, codewords, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
        """Channel LLRs of one codeword per trial, bit-identical to
        ``channel_llr(awgn(modulate(codeword), sigma, generator), sigma)``,
        in ``out`` (C-contiguous float64 of the codewords' shape) or a new array."""
        _check_sigma(sigma)
        codewords = np.ascontiguousarray(codewords, dtype=np.uint8)
        if codewords.ndim != 2 or len(codewords) != len(self.states):
            raise ValueError(f"need one codeword row per trial stream, not shape {codewords.shape}")
        if out is None:
            out = np.empty(codewords.shape)
        elif out.shape != codewords.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float64 array of shape {codewords.shape}")
        _kernel().trial_llrs(self.states.ctypes.data, len(out), codewords.shape[1],
                             codewords.ctypes.data, float(sigma), out.ctypes.data)
        return out


@dataclass(frozen=True)
class RngStream:
    """One trial's stream as a NumPy Generator, which TrialStreams draws in C."""

    master_seed: int
    stream_index: int

    def generator(self) -> np.random.Generator:
        """PCG64 seeded by SeedSequence((master_seed, stream_index)): the
        stream of trial stream_index in TrialStreams."""
        seed = np.random.SeedSequence((self.master_seed, self.stream_index))
        return np.random.Generator(np.random.PCG64(seed))


def modulate(bits) -> np.ndarray:
    """BPSK map: 0 -> +1.0, 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, not {sigma!r}")


def awgn(symbols, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """symbols + sigma * z for standard normal z drawn from rng."""
    _check_sigma(sigma)
    symbols = np.asarray(symbols, dtype=np.float64)
    return symbols + sigma * rng.standard_normal(symbols.shape)


def channel_llr(y, sigma: float) -> np.ndarray:
    """LLR of a BPSK observation on the AWGN channel: 2y / sigma^2."""
    _check_sigma(sigma)
    return 2.0 * np.asarray(y, dtype=np.float64) / (sigma * sigma)
