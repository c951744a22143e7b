"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its runtime (run with -s to see them inline).

Criterion 8 carries the slow marker: it is a directional Monte Carlo
comparison at a mid-waterfall operating point that takes about 90 s on a
2-vCPU VM; everything else completes in seconds.  It runs alone with
`pytest -m slow -s -k criterion_8`.  Its random arm is the seed-802
permutation and its design generator is seeded by 80.
scripts/directional_check.py runs the same comparison through the CLI, where
--perm-seed seeds both, so it does not replay criterion 8's design draw.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import concat_ira as ci
from concat_ira.bench import (
    ConcatSystem,
    StopRule,
    SimConfig,
    measure_point,
    run_curve,
    two_proportion_z,
)
from concat_ira.cli import main as cli_main

from oracles import all_bit_patterns, dense_codewords, exact_bit_marginals, to_dense

# Pinned from the measured waterfall of the seed-1/seed-2 code pair (see
# scripts/directional_check.py): FER of a random interleaver is a few percent
# here, low enough for stopping-set failures to matter and high enough to
# collect 100 block errors per arm in finite time.
DIRECTIONAL_EBNO_DB = 3.5
DIRECTIONAL_MIN_BLOCK_ERRORS = 100
DIRECTIONAL_MAX_BLOCKS = 60_000


class _Timer:
    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        dt = time.perf_counter() - self.t0
        print(f"ACCEPTANCE {self.number} ({self.name}): {status} [{dt:.1f}s]")
        return False


def test_criterion_1_structural_fidelity(paper_outer):
    with _Timer(1, "structural fidelity"):
        code = paper_outer
        assert (code.K, code.N, code.M) == (128, 181, 53)
        ci.validate_code(code)  # dual diagonal, weight-1 column, degrees, rows
        h = code.H
        for j in range(52):
            assert h.col_support[128 + j] == (j, j + 1)
        assert h.col_support[180] == (52,)
        assert all(len(h.col_support[j]) >= 3 for j in range(128))
        assert all(len(r) == 10 for r in h.row_support)
        h1_row_weights = [sum(1 for c in r if c < 128) for r in h.row_support]
        assert sum(h1_row_weights) == 425
        assert h1_row_weights[0] == 9 and all(w == 8 for w in h1_row_weights[1:])


def test_criterion_2_encoder_soundness(paper_outer):
    with _Timer(2, "encoder soundness"):
        rng = np.random.default_rng(20)
        sources = rng.integers(0, 2, (10_000, 128), dtype=np.uint8)
        words = ci.encode_batch(paper_outer, sources)
        dense = to_dense(paper_outer.H).astype(np.int64)
        assert not ((words @ dense.T) % 2).any()

        a = rng.integers(0, 2, (1000, 128), dtype=np.uint8)
        b = rng.integers(0, 2, (1000, 128), dtype=np.uint8)
        assert np.array_equal(
            ci.encode_batch(paper_outer, a ^ b),
            ci.encode_batch(paper_outer, a) ^ ci.encode_batch(paper_outer, b),
        )


def test_criterion_3_spa_exactness_on_tree(tree_matrix):
    with _Timer(3, "SPA exactness vs exhaustive marginals"):
        codewords = dense_codewords(to_dense(tree_matrix))
        rng = np.random.default_rng(30)
        worst = 0.0
        for _ in range(100):
            llr = rng.uniform(-3.0, 3.0, size=12)
            res = ci.decode(tree_matrix, llr, max_iter=16, early_stop=False)
            exact = exact_bit_marginals(codewords, llr)
            worst = max(worst, float(np.abs(res.posterior - exact).max()))
        assert worst < 1e-6


def test_criterion_4_stopping_set_machinery(toy_outer, paper_outer):
    with _Timer(4, "stopping-set machinery"):
        # verifier vs exhaustive definition over all 2^12 - 1 subsets
        dense = to_dense(toy_outer.H).astype(np.int64)
        patterns = all_bit_patterns(12)[1:]
        expect = ~((patterns @ dense.T) == 1).any(axis=1)
        got = np.fromiter(
            (ci.is_stopping_set(toy_outer.H, np.flatnonzero(p)) for p in patterns),
            dtype=bool, count=len(patterns),
        )
        assert np.array_equal(got, expect)

        # every detection on the paper-scale code verifies and stays bounded
        pg = paper_outer.H
        for start in range(181):
            found = ci.detect_from(pg, start)
            assert start in found
            assert ci.is_stopping_set(pg, found)
        hist = ci.sensitivity_histogram(pg)
        assert len(hist) == 181
        assert hist.max() <= 181


def test_criterion_5_interleaver_design_contract(paper_codes_with_histograms):
    with _Timer(5, "interleaver design contract"):
        _, _, hist_row, hist_col = paper_codes_with_histograms
        perm0 = ci.random_permutation(128, 181, 7)
        designed = ci.escalate_design(hist_row, hist_col, perm0, np.random.default_rng(50))
        assert np.array_equal(np.sort(designed.forward), np.arange(128 * 181))
        assert designed.design_t >= 1 and designed.sets is not None
        assert ci.count_bad_mappings(designed, designed.sets).count == 0

        # counting-bound rejection on the 4x4 shape
        perm44 = ci.random_permutation(4, 4, 0)
        sets44 = ci.SensitiveSets(frozenset({0, 1, 2, 3}), frozenset({1, 2, 3}))
        with pytest.raises(ci.InterleaverInfeasible) as exc:
            ci.design(perm44, sets44, np.random.default_rng(0))
        assert exc.value.reason == "counting_bound"


def test_criterion_6_concatenated_round_trip(toy_cc, paper_outer, paper_inner):
    with _Timer(6, "concatenated round trip and rate"):
        rng = np.random.default_rng(60)
        sched = ci.Schedule(10, 10)
        for _ in range(1000):
            source = rng.integers(0, 2, (8, 8), dtype=np.uint8)
            llrs = 20.0 * (1.0 - 2.0 * ci.concat_encode(toy_cc, source))
            res = ci.concat_decode(toy_cc, llrs, sched)
            assert res.converged
            assert np.array_equal(res.source_bits, source)

        cc = ci.ConcatCode(paper_outer, paper_inner, ci.random_permutation(128, 181, 7))
        assert Fraction(cc.K**2, cc.N**2) == Fraction(16384, 32761)
        assert abs(cc.rate - 0.50011) < 5e-6
        for _ in range(10):
            source = rng.integers(0, 2, (128, 128), dtype=np.uint8)
            llrs = 20.0 * (1.0 - 2.0 * ci.concat_encode(cc, source))
            res = ci.concat_decode(cc, llrs, sched)
            assert res.converged
            assert np.array_equal(res.source_bits, source)


def test_criterion_7_channel_calibration():
    with _Timer(7, "channel calibration"):
        n = 1_000_000
        for i, ebno_db in enumerate((0.0, 2.0, 4.0)):
            sigma = ci.ebno_sigma(ebno_db, 1.0)
            gen = ci.RngStream(70 + i, 0).generator()
            y = ci.awgn(np.ones(n), sigma, gen)
            ber = float((y < 0).mean())
            p = ci.gaussian_q(math.sqrt(2.0 * 10.0 ** (ebno_db / 10.0)))
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(ber - p) < 3 * se

        gen = ci.RngStream(75, 0).generator()
        sigma = 0.85
        llr = ci.channel_llr(ci.awgn(np.ones(n), sigma, gen), sigma)
        assert abs(llr.var() - 2.0 * llr.mean()) < 0.02 * llr.var()


@pytest.mark.slow
def test_criterion_8_directional_monte_carlo(paper_codes_with_histograms):
    """Designed interleaver FER <= random-start FER with 95% one-sided
    confidence, at least 100 block errors per arm."""
    with _Timer(8, "directional Monte Carlo, designed vs random interleaver"):
        outer, inner, hist_row, hist_col = paper_codes_with_histograms
        sched = ci.Schedule(10, 10)

        pi0 = ci.random_permutation(128, 181, 802)
        designed = ci.escalate_design(hist_row, hist_col, pi0, np.random.default_rng(80))
        assert designed.design_t >= 1

        stop = StopRule(DIRECTIONAL_MIN_BLOCK_ERRORS, DIRECTIONAL_MAX_BLOCKS)
        results = {}
        for name, perm in (("random", pi0), ("designed", designed)):
            system = ConcatSystem(ci.ConcatCode(outer, inner, perm), sched)
            point = measure_point(system, DIRECTIONAL_EBNO_DB, stop, master_seed=801)
            results[name] = point
            print(
                f"  {name}: fer {point.fer:.5f} "
                f"({point.block_errors}/{point.blocks_run} blocks, "
                f"{point.wall_seconds:.0f}s)"
            )

        rand, des = results["random"], results["designed"]
        assert rand.block_errors >= DIRECTIONAL_MIN_BLOCK_ERRORS
        assert des.block_errors >= DIRECTIONAL_MIN_BLOCK_ERRORS
        z, p_value = two_proportion_z(
            des.block_errors, des.blocks_run, rand.block_errors, rand.blocks_run
        )
        print(f"  one-sided z = {z:.2f}, p = {p_value:.4f}")
        assert des.fer <= rand.fer
        assert p_value < 0.05


def test_criterion_9_simulate_determinism(toy_outer, toy_inner, tmp_path):
    with _Timer(9, "simulate determinism across worker counts"):
        ci.save_code(toy_outer, tmp_path / "outer")
        ci.save_code(toy_inner, tmp_path / "inner")
        ci.save_permutation(ci.random_permutation(8, 12, 5), tmp_path / "pi.perm")
        base = {
            "system": "concat",
            "outer_code": str(tmp_path / "outer"),
            "inner_code": str(tmp_path / "inner"),
            "interleaver": str(tmp_path / "pi.perm"),
            "schedule": {"outer_iters": 4, "inner_iters": 4},
            "ebno_db": [2.5, 3.5],
            "min_block_errors": 8,
            "max_blocks": 150,
            "master_seed": 90,
        }
        outputs = []
        for run, workers in (("a", 1), ("b", 3), ("c", 1)):
            config = dict(base, workers=workers, output=str(tmp_path / f"{run}.csv"))
            config_path = tmp_path / f"{run}.json"
            config_path.write_text(json.dumps(config))
            assert cli_main(["simulate", "--config", str(config_path)]) == 0
            outputs.append((tmp_path / f"{run}.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
