"""Log-domain sum-product decoding with a-priori input and extrinsic output.

LLR sign convention: positive favors bit 0.  The flooding schedule updates
all checks, then all variables, once per iteration; decoding stops at the
first iteration whose hard decision satisfies every check.  The extrinsic
output for a variable is the sum of its final check-to-variable messages,
excluding both the channel and the prior term, so the value can be handed
to another decoder that holds its own copy of the channel observation.

Inside the loop every LLR is at half scale: channel + prior is halved on
entry, a check output is the ``arctanh`` of its product without the factor
2, and the extrinsic output is doubled on exit.  A power-of-two scale
commutes with rounding, so outputs are bit-identical to full-scale
``2 * arctanh(prod tanh(L/2))`` unless ``|channel + prior| < 2**-1021``.
There is no clamp before ``tanh``: NumPy's float64 ``tanh`` is exactly +-1.0
for |x| >= 19.1 and at +-inf, so a +-50 clamp (+-25 at half scale) changes
no output.

The iteration is batch-first: each codeword's values are one lane of a
tile of four codewords, its edges numbered check by check.  NumPy computes
every ``tanh`` and ``arctanh``, elementwise over the working tiles;
``_spa_kernel.c``, loaded with ctypes, does the rest: it reads each
codeword's channel and prior through an index table into the tiles, makes
two calls per iteration (the check products, then the variable update with
the syndromes and the row stops), and writes a stopped row's outputs
through the same table.  The first iteration's messages are copies of the
variables' inputs, so NumPy takes their ``tanh`` once per variable and the
kernel gathers it by edge.  The working tiles start on cache-line
boundaries, so no vector the kernel loads or stores straddles two lines.
``decode_indexed`` so decodes the rows of a block held in any layout:
the concatenated decoder's passes through their pass tables, single-code
tasks through an identity table, one codeword per array row.  The C code
rounds each operation once per lane in the order of the NumPy kernel it
replaced, so outputs are bit-identical to it.
It is built once per source, flags, compiler and host CPU by the system C
compiler, into ``__pycache__`` next to this module, as one library with
``_trial_kernel.c`` (``channel.TrialStreams``, which every trial of both
systems draws through, and ``ira.encode_batch``), from these two sources and
libm alone; a build that fails makes every decode, trial stream and encoding
raise RuntimeError.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .gf2 import SparseBinaryMatrix

__all__ = ["DecodeResult", "PassResult", "decode", "decode_indexed"]

_SOURCES = (Path(__file__).with_name("_spa_kernel.c"), Path(__file__).with_name("_trial_kernel.c"))
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_CC = "cc"
# -ffp-contract=off: no fused multiply-add, so each operation rounds as NumPy's does
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")


@dataclass(frozen=True)
class DecodeResult:
    hard_bits: np.ndarray
    posterior: np.ndarray
    extrinsic: np.ndarray
    iterations_used: int
    valid: bool


class PassResult(NamedTuple):
    """Per call row of ``decode_indexed``: iterations run, and whether the
    last hard decision satisfied every check."""

    iterations_used: np.ndarray  # (b,) int64
    valid: np.ndarray  # (b,) bool


def _host_cpu() -> str:
    """The first processor's vendor, model and feature flags, which decide
    what -march=native builds."""
    try:
        first = Path("/proc/cpuinfo").read_text().split("\n\n", 1)[0]
    except OSError:
        return platform.machine() + platform.processor()
    return "\n".join(
        line for line in first.splitlines() if line.startswith(("vendor_id", "model name", "flags"))
    )


def _command(compiler: str, output: str) -> list[str]:
    """The one compiler invocation that builds the kernel library."""
    return [compiler, *_CFLAGS, "-o", output, *map(str, _SOURCES), "-lm"]


def _build() -> Path:
    """The kernel library for these sources, flags, compiler and host CPU:
    the cached file, or a new build renamed into the cache once complete, so
    concurrent builds never load a partial file."""
    compiler = shutil.which(_CC)
    if compiler is None:
        raise RuntimeError(f"cannot build the SPA kernel: C compiler {_CC!r} not found")
    stat = os.stat(compiler)
    key = hashlib.sha256(repr((
        [source.read_bytes() for source in _SOURCES], _CFLAGS, os.path.realpath(compiler),
        stat.st_size, stat.st_mtime_ns, _host_cpu(),
    )).encode()).hexdigest()[:16]
    target = _CACHE_DIR / f"_spa_kernel.{key}.so"
    if target.exists():
        return target
    _CACHE_DIR.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(prefix="_spa_kernel.", suffix=".so.tmp", dir=_CACHE_DIR)
    os.close(fd)
    command = _command(compiler, partial)
    try:
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode:
            lines = done.stderr.strip().splitlines() or [f"exit status {done.returncode}"]
            first = next((line for line in lines if "error" in line), lines[0])
            raise RuntimeError(f"building the SPA kernel failed: {shlex.join(command)}: {first}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    return target


class _GraphArgs(ctypes.Structure):
    """spa_graph of _spa_kernel.c: the graph's index arrays, the working
    rows and one call's block, as raw pointers and lengths."""

    _fields_ = [
        ("n_checks", ctypes.c_int64),
        ("n_vars", ctypes.c_int64),
        ("n_edges", ctypes.c_int64),
        ("var_deg", ctypes.c_int64),
        *((name, ctypes.c_void_p) for name in (
            "check_ptr", "edge_var", "var_ptr", "var_edge", "lam", "msg", "cv", "ext", "post",
            "active", "stopped", "at", "ids", "channel", "prior", "extrinsic", "posterior",
            "iterations", "valid",
        )),
        *((name, ctypes.c_int64) for name in ("at_rows", "channel_len", "prior_len", "out_len")),
    ]


_ARGS = ctypes.POINTER(_GraphArgs)
_LIB: ctypes.CDLL | str | None = None  # the loaded kernel, or why it could not be built


def _kernel() -> ctypes.CDLL:
    """The kernel library, built on first use.  A failed build raises
    RuntimeError then and on every later use, without building again."""
    global _LIB
    if _LIB is None:
        try:
            lib = ctypes.CDLL(str(_build()))
        except RuntimeError as exc:
            _LIB = str(exc)
        except OSError as exc:
            _LIB = f"cannot build or load the SPA kernel: {exc}"
        else:
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            for name, argtypes, restype in (
                ("spa_start", [_ARGS, i64], i64),
                ("spa_gather", [_ARGS, i64], None),
                ("spa_checks", [_ARGS, i64], None),
                ("spa_variables", [_ARGS, i64, i64, ctypes.c_int, ctypes.c_int], i64),
                ("trial_seed", [ptr, i64, i64, i64, ptr], None),
                ("trial_bits", [ptr, i64, i64, ptr], None),
                ("trial_llrs", [ptr, i64, i64, ptr, ctypes.c_double, ptr], None),
                ("ira_encode", [ptr, i64, i64, i64, ptr, ptr], None),
            ):
                fn = getattr(lib, name)
                fn.argtypes = argtypes
                fn.restype = restype
            _LIB = lib
    if isinstance(_LIB, str):
        raise RuntimeError(_LIB)
    return _LIB


_LANES = 4  # rows per tile: LANES of _spa_kernel.c
_LINE = 64  # bytes per cache line


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of ``shape`` whose data
    starts on a cache-line boundary, so no 32-byte tile row of it straddles
    two lines (NumPy itself aligns to 16 bytes)."""
    size = int(np.prod(shape)) * 8
    raw = np.empty(size + _LINE, dtype=np.uint8)
    start = -raw.ctypes.data % _LINE
    return raw[start:start + size].view(np.float64).reshape(shape)


class _CompiledGraph:
    """A parity-check matrix numbered for the kernel, with grow-only working
    rows.

    Edges are numbered check by check, each check's in row-support order;
    ``var_edge`` lists each variable's edges in check order.  Working rows
    come in tiles of ``_LANES``: ``lam`` is ``(tiles, n_vars, _LANES)``,
    ``msg`` and ``cv`` are ``(tiles, n_edges, _LANES)``, and row r is lane
    ``r % _LANES`` of tile ``r // _LANES``.  ``cv_bytes`` is the buffer
    that starts with ``cv``; it also holds the first iteration's
    ``(tiles, n_vars, _LANES)`` ``tanh(lam)``, for which it is sized when
    there are fewer edges than variables.  Every float64 array starts on a
    cache-line boundary.  A call of width b works in the first
    ``ceil(b / _LANES)`` tiles, which stay the first as rows stop.
    The rows are reused by every call in this process and sized for the
    largest batch seen, so it is not safe to decode on one graph from two
    threads at once.
    """

    def __init__(self, matrix: SparseBinaryMatrix):
        self.n_checks, self.n_vars = matrix.n_rows, matrix.n_cols
        degrees = [len(row) for row in matrix.row_support]
        self.check_ptr = np.concatenate([[0], np.cumsum(degrees, dtype=np.int64)])
        self.edge_var = np.fromiter(
            (v for row in matrix.row_support for v in row), np.int64, int(self.check_ptr[-1])
        )
        self.n_edges = self.edge_var.size
        self.var_edge = np.argsort(self.edge_var, kind="stable")
        var_degrees = np.bincount(self.edge_var, minlength=self.n_vars)
        self.var_ptr = np.concatenate([[0], np.cumsum(var_degrees, dtype=np.int64)])
        self.ext = _aligned((self.n_vars, _LANES))
        self.post = _aligned((self.n_vars, _LANES))
        self.tiles = 0
        self.args = _GraphArgs(self.n_checks, self.n_vars, self.n_edges,
                               max(int(var_degrees.max(initial=0)), 1))
        for name in ("check_ptr", "edge_var", "var_ptr", "var_edge", "ext", "post"):
            setattr(self.args, name, getattr(self, name).ctypes.data)
        self.ref = ctypes.byref(self.args)
        self.reserve(1)

    def reserve(self, batch: int) -> None:
        tiles = -(-batch // _LANES)
        if tiles > self.tiles:
            self.tiles = tiles
            self.lam = _aligned((tiles, self.n_vars, _LANES))
            self.msg = _aligned((tiles, self.n_edges, _LANES))
            cv = _aligned((tiles * max(self.n_edges, self.n_vars) * _LANES,))
            self.cv = cv[:tiles * self.n_edges * _LANES].reshape(tiles, self.n_edges, _LANES)
            self.cv_bytes = cv.view(np.uint8)
            self.active = np.empty(tiles * _LANES, dtype=np.int64)
            self.stopped = np.empty(tiles * _LANES, dtype=np.uint8)
            for name in ("lam", "msg", "cv", "active", "stopped"):
                setattr(self.args, name, getattr(self, name).ctypes.data)


@lru_cache(maxsize=64)
def _compile(matrix: SparseBinaryMatrix) -> _CompiledGraph:
    return _CompiledGraph(matrix)


_NO_BYTES = ctypes.c_char * 0


def _address(a: np.ndarray, dtype, name: str, write: bool = False) -> int:
    """The data pointer of an array the kernel may read (or write) whole."""
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} array")
    if a.flags.writeable:  # from_buffer takes half the time of a.ctypes.data
        return ctypes.addressof(_NO_BYTES.from_buffer(a))
    if write:
        raise ValueError(f"{name} must be writable")
    return a.ctypes.data


def decode_indexed(
    matrix: SparseBinaryMatrix,
    at: np.ndarray,
    ids: np.ndarray,
    channel: np.ndarray,
    prior: np.ndarray | None,
    extrinsic: np.ndarray,
    posterior: np.ndarray,
    max_iter: int,
    early_stop: bool = True,
) -> PassResult:
    """Decode the codewords that an index table picks out of a block.

    Call row i decodes table row ``ids[i]``: its variable v sits at flat
    index ``at[ids[i], v]`` of the float64 block arrays.  The decoder
    starts from ``channel + prior`` there, a variable whose index is past
    the end of ``prior`` (or every variable, when ``prior`` is None) adding
    +0.0.  A row stops at the first iteration whose hard decision satisfies
    every check, or with ``early_stop`` False after all ``max_iter``
    iterations, which is what an exactness comparison against true
    marginals wants.
    When the row stops, its extrinsic and its posterior, ``channel + prior
    + extrinsic``, are both written at the indices that lie inside
    ``extrinsic``, which ``posterior`` must match in size; nothing is
    written elsewhere.  A row's values do not depend on the other rows of
    the call, and outputs must not overlap the inputs.  ``at`` is int32
    of shape (rows, n_vars), ``ids`` int64; every array is C-contiguous.
    Raises ValueError on a table of another width, on an id outside the
    table or an index outside ``channel``, and RuntimeError when the kernel
    library could not be built; nothing is written then.
    """
    g = _compile(matrix)
    if at.ndim != 2 or at.shape[1] != g.n_vars:
        raise ValueError(f"need an index table with rows of length {g.n_vars}")
    lib = _kernel()
    if posterior.size != extrinsic.size:
        raise ValueError("posterior size must match extrinsic size")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    batch = len(ids)
    g.reserve(batch)
    iterations = np.empty(batch, dtype=np.int64)
    valid = np.empty(batch, dtype=bool)
    args = g.args
    args.at, args.at_rows = _address(at, np.int32, "at"), len(at)
    args.ids = _address(ids, np.int64, "ids")
    args.channel, args.channel_len = _address(channel, np.float64, "channel"), channel.size
    if prior is None:
        args.prior, args.prior_len = None, 0
    else:
        args.prior, args.prior_len = _address(prior, np.float64, "prior"), prior.size
    args.extrinsic = _address(extrinsic, np.float64, "extrinsic", write=True)
    args.out_len = extrinsic.size
    args.posterior = _address(posterior, np.float64, "posterior", write=True)
    args.iterations = _address(iterations, np.int64, "iterations")
    args.valid = _address(valid, np.bool_, "valid")
    if lib.spa_start(g.ref, batch):
        raise ValueError("an id lies outside the index table or an index outside the channel")

    # the first messages are lam gathered by edge: tanh once per variable
    tiles = -(-batch // _LANES)
    np.tanh(g.lam[:tiles], out=np.ndarray((tiles, g.n_vars, _LANES), np.float64, g.cv_bytes))
    lib.spa_gather(g.ref, batch)
    b, early_stop = batch, bool(early_stop)  # ctypes takes no NumPy booleans
    for it in range(1, max_iter + 1):
        lib.spa_checks(g.ref, b)
        cv = g.cv[:tiles]
        np.arctanh(cv, out=cv)
        b = lib.spa_variables(g.ref, b, it, bool(it == max_iter), early_stop)
        if not b:
            break
        tiles = -(-b // _LANES)
        msg = g.msg[:tiles]
        np.tanh(msg, out=msg)
    return PassResult(iterations, valid)


try:  # build or load the kernel now; a failure is raised by the first decode
    _kernel()
except RuntimeError:
    pass


# perfbench/layers.py patches spa.decode by name, so it stays until that
# tracer wraps decode_indexed, which every product path calls
def decode(
    code_or_matrix,
    channel,
    prior=None,
    max_iter: int = 100,
    early_stop: bool = True,
) -> DecodeResult:
    """Decode one LLR vector: ``decode_indexed`` of one row through an
    identity table, into new arrays."""
    channel = np.ascontiguousarray(channel, dtype=np.float64)
    if channel.ndim != 1:
        raise ValueError("decode expects a flat LLR vector")
    if prior is not None:
        prior = np.ascontiguousarray(prior, dtype=np.float64)
        if prior.shape != channel.shape:
            raise ValueError("prior shape must match channel shape")
    extrinsic, posterior = np.empty(channel.size), np.empty(channel.size)
    at = np.arange(channel.size, dtype=np.int32)[np.newaxis]
    res = decode_indexed(getattr(code_or_matrix, "H", code_or_matrix), at, np.zeros(1, np.int64),
                         channel, prior, extrinsic, posterior, max_iter, early_stop)
    return DecodeResult((posterior < 0.0).view(np.uint8), posterior, extrinsic,
                        int(res.iterations_used[0]), bool(res.valid[0]))
