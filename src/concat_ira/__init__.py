"""Workbench for serially concatenated systematic IRA codes on the AWGN channel.

Construction, stopping-set sensitivity analysis, constraint-repaired
interleaver design, iterative decoding, and a reproducible Monte Carlo
BER/FER harness.
"""

from .gf2 import AlistError, SparseBinaryMatrix, load_alist, save_alist
from .ira import (
    AceParams,
    ConstructionError,
    DegreeSpec,
    IraCode,
    build_code,
    build_h1,
    build_h2,
    default_degree_spec,
    encode,
    encode_batch,
    load_code,
    save_code,
    validate_code,
)
from .spa import DecodeResult, decode, decode_batch
from .stopping import detect_from, is_stopping_set, select_sensitive, sensitivity_histogram
from .interleave import (
    BlockPermutation,
    InterleaverInfeasible,
    SensitiveSets,
    count_bad_mappings,
    design,
    escalate_design,
    load_permutation,
    random_permutation,
    save_permutation,
)
from .channel import (
    RngStream,
    TrialStreams,
    awgn,
    channel_llr,
    ebno_sigma,
    modulate,
    random_bits,
)
from .concat import ConcatCode, ConcatDecodeResult, Schedule, concat_decode, concat_encode
from .bench import CurvePoint, SimConfig, StopRule, gaussian_q, run_curve

__version__ = "0.1.0"

FORMAT_VERSIONS = {"alist": 1, "sidecar": 1, "permutation": 1, "curve-csv": 1}
