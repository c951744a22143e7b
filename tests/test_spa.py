import hashlib
import importlib.resources
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import concat_ira as ci
from concat_ira import spa
from concat_ira.spa import _compile, decode_indexed

from oracles import (
    _REF_LLR_CLAMP,
    check_update,
    decode_rows,
    dense_codewords,
    dense_syndrome,
    exact_bit_marginals,
    peel,
    reference_decode_batch,
    to_dense,
    variable_update,
)

RESULT_FIELDS = ("hard_bits", "posterior", "extrinsic", "iterations_used", "valid")


def assert_results_identical(a, b):
    """Equal dtypes, shapes and values.  Not bytes: the reference sums a
    variable's messages from +0.0, so where the kernel's extrinsic is -0.0
    the reference's is +0.0."""
    for name in RESULT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name


def noisy_codewords(code, batch, ebno_db, rng):
    """Channel LLRs of random codewords at one Eb/N0 for the code's rate."""
    sources = rng.integers(0, 2, size=(batch, code.K), dtype=np.uint8)
    sigma = ci.ebno_sigma(ebno_db, code.rate)
    y = ci.awgn(ci.modulate(ci.encode_batch(code, sources)), sigma, rng)
    return ci.channel_llr(y, sigma)


class TestCheckUpdate:
    def test_degree_two_swaps(self):
        out = check_update([1.5, -0.75])
        assert out[0] == pytest.approx(-0.75, abs=1e-9)
        assert out[1] == pytest.approx(1.5, abs=1e-9)

    def test_zero_input_erases_other_edges(self):
        out = check_update([0.0, 2.0, -3.0])
        assert out[1] == 0.0 and out[2] == 0.0
        assert out[0] != 0.0

    def test_clamped_input_acts_as_identity(self):
        # degree 2: the edge carrying the clamp outputs its partner's value
        out = check_update([_REF_LLR_CLAMP, 2.5])
        assert out[0] == pytest.approx(2.5, abs=1e-9)
        # degree 3: box-plus with a clamped input reduces to the other value
        out = check_update([_REF_LLR_CLAMP, 2.5, -1.25])
        assert out[1] == pytest.approx(-1.25, abs=1e-6)
        assert out[2] == pytest.approx(2.5, abs=1e-6)

    def test_outputs_bounded_after_guard(self):
        out = check_update([_REF_LLR_CLAMP, _REF_LLR_CLAMP])
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) < 30)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_update([])


class TestVariableUpdate:
    def test_no_incoming(self):
        msgs, post = variable_update(1.0, -0.5, [])
        assert msgs.size == 0
        assert post == 0.5

    def test_symmetric_incoming_cancels(self):
        _, post = variable_update(2.0, 1.0, [0.7, -0.7])
        assert post == pytest.approx(3.0)

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        ch, pr = rng.normal(size=2)
        inc = rng.normal(size=int(rng.integers(1, 6)))
        msgs, post = variable_update(ch, pr, inc)
        assert post == pytest.approx(ch + pr + inc.sum(), rel=1e-12)
        for i in range(len(inc)):
            others = ch + pr + inc.sum() - inc[i]
            assert msgs[i] == pytest.approx(others, rel=1e-9, abs=1e-12)


class TestDecode:
    def test_noiseless_converges_first_iteration(self, toy_outer):
        rng = np.random.default_rng(0)
        s = rng.integers(0, 2, 8, dtype=np.uint8)
        cw = ci.encode(toy_outer, s)
        res = ci.decode(toy_outer, 20.0 * (1.0 - 2.0 * cw))
        assert res.valid and res.iterations_used == 1
        assert np.array_equal(res.hard_bits, cw)

    def test_all_zero_inputs_decode_to_all_zero(self, toy_outer):
        res = ci.decode(toy_outer, np.zeros(12))
        assert res.valid
        assert not res.hard_bits.any()
        assert not res.posterior.any() and not res.extrinsic.any()

    def test_posterior_decomposition_exact(self, toy_outer):
        rng = np.random.default_rng(1)
        ch = rng.normal(scale=2.0, size=12)
        pr = rng.normal(scale=0.5, size=12)
        res = ci.decode(toy_outer, ch, pr, max_iter=5)
        assert np.array_equal(res.posterior, (ch + pr) + res.extrinsic)

    def test_valid_iff_zero_syndrome(self, toy_outer):
        rng = np.random.default_rng(2)
        for trial in range(20):
            ch = rng.normal(scale=1.5, size=12)
            res = ci.decode(toy_outer, ch, max_iter=3)
            assert res.valid == (not dense_syndrome(to_dense(toy_outer.H), res.hard_bits).any())

    def test_monotone_termination(self, toy_outer):
        rng = np.random.default_rng(3)
        sigma = 0.8
        for trial in range(30):
            cw = ci.encode(toy_outer, rng.integers(0, 2, 8, dtype=np.uint8))
            y = ci.awgn(ci.modulate(cw), sigma, rng)
            full = ci.decode(toy_outer, ci.channel_llr(y, sigma), max_iter=50)
            assert full.iterations_used <= 50
            if full.valid and full.iterations_used < 50:
                # decoding again with the budget cut at the termination point
                # reproduces the same result: no extra iteration ever ran
                cut = ci.decode(
                    toy_outer, ci.channel_llr(y, sigma), max_iter=full.iterations_used
                )
                assert cut.valid
                assert np.array_equal(cut.hard_bits, full.hard_bits)
                assert np.array_equal(cut.posterior, full.posterior)

    def test_tie_breaks_to_zero(self, tree_matrix):
        res = ci.decode(tree_matrix, np.zeros(12))
        assert not res.hard_bits.any()

    def test_prior_defaults_to_zero(self, toy_outer):
        ch = np.linspace(-2, 2, 12)
        a = ci.decode(toy_outer, ch)
        b = ci.decode(toy_outer, ch, np.zeros(12))
        assert np.array_equal(a.posterior, b.posterior)


class TestTreeExactness:
    def test_posteriors_match_exhaustive_marginals(self, tree_matrix):
        codewords = dense_codewords(to_dense(tree_matrix))
        assert len(codewords) == 2 ** (12 - 5)
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(100):
            llr = rng.uniform(-3.0, 3.0, size=12)
            res = ci.decode(tree_matrix, llr, max_iter=16, early_stop=False)
            exact = exact_bit_marginals(codewords, llr)
            worst = max(worst, float(np.abs(res.posterior - exact).max()))
        assert worst < 1e-6

    def test_prior_adds_to_channel(self, tree_matrix):
        codewords = dense_codewords(to_dense(tree_matrix))
        rng = np.random.default_rng(7)
        ch = rng.uniform(-2, 2, size=12)
        pr = rng.uniform(-1, 1, size=12)
        res = ci.decode(tree_matrix, ch, pr, max_iter=16, early_stop=False)
        exact = exact_bit_marginals(codewords, ch + pr)
        assert np.abs(res.posterior - exact).max() < 1e-6


class TestErasurePeeling:
    """On erasures (LLR 0.0 for an erased bit, +-20 for a known one) belief
    propagation leaves unresolved exactly the largest stopping set inside the
    erased set, and a check with two erased neighbours sends tanh(0) = 0.0,
    so the unresolved bits are those whose posterior is exactly 0.0.  Early
    stop is off: a 0.0 posterior decides 0, so a decode could stop valid
    with bits it would still resolve."""

    @pytest.mark.parametrize("which, max_iter", [("toy_outer", 20), ("paper_outer", 60)])
    def test_zero_posteriors_are_the_peeling_residual(self, which, max_iter, request):
        code = request.getfixturevalue(which)
        rng = np.random.default_rng(17)
        words = ci.encode_batch(code, rng.integers(0, 2, (200, code.K), dtype=np.uint8))
        erased = rng.random(words.shape) < rng.uniform(0.2, 0.5, (200, 1))
        llr = np.where(erased, 0.0, 20.0 - 40.0 * words)
        res = decode_rows(code.H, llr, max_iter=max_iter, early_stop=False)
        residuals = np.array([peel(code.H, e) for e in erased])
        assert np.array_equal(res.posterior == 0.0, residuals)
        assert 0 < residuals.any(axis=1).sum() < len(residuals)  # some patterns peel, some stop


class TestBatchDecode:
    def test_batch_matches_single(self, toy_outer):
        rng = np.random.default_rng(4)
        chans = rng.normal(scale=1.2, size=(9, 12))
        priors = rng.normal(scale=0.3, size=(9, 12))
        batch = decode_rows(toy_outer, chans, priors, max_iter=8)
        for i in range(9):
            single = ci.decode(toy_outer, chans[i], priors[i], max_iter=8)
            assert np.array_equal(batch.posterior[i], single.posterior)
            assert np.array_equal(batch.hard_bits[i], single.hard_bits)
            assert batch.iterations_used[i] == single.iterations_used
            assert batch.valid[i] == single.valid

    def test_subset_invariance(self, toy_outer):
        # decoding rows as part of a larger batch changes nothing
        rng = np.random.default_rng(5)
        chans = rng.normal(scale=1.2, size=(6, 12))
        full = decode_rows(toy_outer, chans, max_iter=6)
        half = decode_rows(toy_outer, chans[::2], max_iter=6)
        assert np.array_equal(full.posterior[::2], half.posterior)


class TestCodewordSymmetry:
    def test_error_patterns_match_all_zero_reference(self, toy_outer):
        """Decoding (codeword + noise) and (all-zero + sign-flipped noise)
        gives bit-identical error patterns, trial by trial."""
        rng = np.random.default_rng(8)
        sigma = 1.0
        mismatches = 0
        for trial in range(100):
            cw = ci.encode(toy_outer, rng.integers(0, 2, 8, dtype=np.uint8))
            noise = sigma * rng.standard_normal(12)
            sign = ci.modulate(cw)
            y_cw = sign + noise
            y_zero = 1.0 + sign * noise
            res_cw = ci.decode(toy_outer, ci.channel_llr(y_cw, sigma), max_iter=30)
            res_zero = ci.decode(toy_outer, ci.channel_llr(y_zero, sigma), max_iter=30)
            assert res_cw.iterations_used == res_zero.iterations_used
            assert res_cw.valid == res_zero.valid
            if not np.array_equal(res_cw.hard_bits ^ cw, res_zero.hard_bits):
                mismatches += 1
        assert mismatches == 0


def test_tanh_saturates_exactly_past_19_1():
    """The decoder takes tanh of its half-scale messages without a clamp.
    That equals the reference's tanh of the message clamped to +-50 and
    halved only because NumPy's float64 tanh is exactly +-1.0 for every
    |x| >= 19.1, infinities included.  Lengths 1-40, contiguous, strided and
    in place, reach the SIMD body and tail loops."""
    rng = np.random.default_rng(19)
    mags = np.concatenate([
        [19.1, 25.0, 50.0, np.finfo(np.float64).max, np.inf],
        np.linspace(19.1, 60.0, 2000),
        np.geomspace(19.1, 1e308, 2000),
    ])
    x = mags * rng.choice([-1.0, 1.0], size=mags.size)
    for length in range(1, 41):
        for start in range(0, x.size, length):
            chunk = x[start:start + length]
            strided = np.zeros(2 * chunk.size)
            strided[::2] = chunk
            in_place = chunk.copy()
            for out in (np.tanh(chunk), np.tanh(strided[::2]), np.tanh(in_place, out=in_place)):
                assert np.array_equal(out, np.copysign(1.0, chunk)), (length, start)


EDGE_CASES = ["8dB", "llr-x100", "exact-zeros", "prior-one-iteration"]


class TestReferenceKernel:
    """The kernel is pinned bit for bit to the padded-plane kernel kept in
    oracles.reference_decode_batch."""

    @pytest.mark.parametrize("max_iter", [1, 10, 100])
    @pytest.mark.parametrize("batch", [1, 7, 72, 128])
    def test_paper_code_matches_reference(self, paper_outer, batch, max_iter):
        # 2.5 dB on one [181,128] code: rows stop at many different
        # iterations and some never converge within 100
        rng = np.random.default_rng(1000 * batch + max_iter)
        channel = noisy_codewords(paper_outer, batch, 2.5, rng)
        prior = rng.normal(scale=0.5, size=channel.shape)
        for pr in (None, prior):
            for early_stop in (True, False):
                assert_results_identical(
                    decode_rows(paper_outer, channel, pr, max_iter, early_stop),
                    reference_decode_batch(paper_outer, channel, pr, max_iter, early_stop),
                )

    @pytest.mark.parametrize("max_iter", [1, 10, 100])
    @pytest.mark.parametrize("batch", [1, 7, 72, 128])
    def test_non_uniform_check_degrees_match_reference(self, tree_matrix, batch, max_iter):
        rng = np.random.default_rng(batch + max_iter)
        channel = rng.normal(loc=1.0, scale=1.5, size=(batch, 12))
        prior = rng.normal(scale=0.5, size=channel.shape)
        for pr in (None, prior):
            for early_stop in (True, False):
                assert_results_identical(
                    decode_rows(tree_matrix, channel, pr, max_iter, early_stop),
                    reference_decode_batch(tree_matrix, channel, pr, max_iter, early_stop),
                )

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_inputs_past_the_old_clamp_and_at_the_edges_match_reference(self, paper_outer, case):
        # the kernel has no +-50 clamp, works at half scale and forms its
        # posterior once per call; these inputs are where any of the three
        # could show: messages far past +-50, exact zeros of either sign, a
        # prior that dominates a single iteration
        rng = np.random.default_rng(EDGE_CASES.index(case))
        channel = noisy_codewords(paper_outer, 24, 8.0 if case == "8dB" else 2.5, rng)
        prior = rng.normal(scale=0.5, size=channel.shape)
        max_iters = (1, 10, 100)
        if case == "8dB":
            saturated = reference_decode_batch(paper_outer, channel, None, 10, False)
            assert np.abs(saturated.posterior).max() > 100
        elif case == "llr-x100":
            channel *= 100.0
        elif case == "exact-zeros":
            for a in (channel, prior):
                a[rng.random(a.shape) < 0.1] = 0.0
                a[rng.random(a.shape) < 0.1] = -0.0
        else:
            prior = rng.normal(scale=4.0, size=channel.shape)
            max_iters = (1,)
        for max_iter in max_iters:
            for pr in (None, prior):
                for early_stop in (True, False):
                    assert_results_identical(
                        decode_rows(paper_outer, channel, pr, max_iter, early_stop),
                        reference_decode_batch(paper_outer, channel, pr, max_iter, early_stop),
                    )

    def test_some_rows_stop_early_and_some_never(self, paper_outer):
        # the [128-100] corpus case exercises both row exits of the batch
        rng = np.random.default_rng(1000 * 128 + 100)
        res = decode_rows(paper_outer, noisy_codewords(paper_outer, 128, 2.5, rng), None, 100)
        assert res.valid.any() and not res.valid.all()
        assert len(np.unique(res.iterations_used)) > 5


@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 6),
    ebno_db=st.sampled_from([1.5, 2.5, 3.5]),
    with_prior=st.booleans(),
    max_iter=st.integers(1, 25),
    early_stop=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_batch_rows_equal_single_decodes(
    paper_outer, seed, batch, ebno_db, with_prior, max_iter, early_stop
):
    """Row i of decode_rows(stack) is bit-identical to decode(row i): the
    harness decodes trials in batches of any size on this guarantee."""
    rng = np.random.default_rng(seed)
    channel = noisy_codewords(paper_outer, batch, ebno_db, rng)
    prior = rng.normal(scale=0.5, size=channel.shape) if with_prior else None
    res = decode_rows(paper_outer, channel, prior, max_iter, early_stop)
    for i in range(batch):
        one = ci.decode(
            paper_outer, channel[i], None if prior is None else prior[i], max_iter, early_stop
        )
        assert np.array_equal(res.hard_bits[i], one.hard_bits)
        assert np.array_equal(res.posterior[i], one.posterior)
        assert np.array_equal(res.extrinsic[i], one.extrinsic)
        assert res.iterations_used[i] == one.iterations_used
        assert res.valid[i] == one.valid


class TestWorkspaceReuse:
    """The decoder keeps grow-only working rows per graph; no call may see
    what an earlier call left in them."""

    def test_sequence_of_widths_and_graphs_matches_reference(self, paper_outer, paper_inner):
        rng = np.random.default_rng(11)
        for code, batch in ((paper_outer, 128), (paper_outer, 3), (paper_inner, 40),
                            (paper_outer, 181), (paper_inner, 181), (paper_outer, 128)):
            channel = noisy_codewords(code, batch, 2.5, rng)
            prior = rng.normal(scale=0.5, size=channel.shape)
            assert_results_identical(
                decode_rows(code, channel, prior, 20),
                reference_decode_batch(code, channel, prior, 20),
            )

    def test_footprint_is_lam_two_edge_arrays_and_two_scratch_tiles(self, paper_outer):
        g = _compile(paper_outer.H)
        decode_rows(paper_outer, noisy_codewords(paper_outer, 3, 2.5, np.random.default_rng(16)))
        floats = [a for a in vars(g).values() if isinstance(a, np.ndarray) and a.dtype == np.float64]
        lanes, n, n_edges = spa._LANES, g.n_vars, g.n_edges
        assert lanes == 4 and g.tiles >= 1
        assert sum(a.size for a in floats) == (n + 2 * n_edges) * lanes * g.tiles + 2 * n * lanes
        assert sum(a.size for a in floats) == 4964 * g.tiles + 1448
        assert g.lam.shape == (g.tiles, n, lanes)
        for a in (g.msg, g.cv):
            assert a.flags.c_contiguous and a.shape == (g.tiles, n_edges, lanes)

    def test_rows_stopping_on_two_graphs_in_turn_match_reference(self, paper_outer):
        # each call compacts its working rows as they stop, at several
        # iterations; calls on two graphs in turn, growing and shrinking
        # the width, must not see each other's rows.  The other graph is
        # the code's mirror image less one edge, so one check is of lower
        # degree; its rows are noisy all-zero words
        h = paper_outer.H
        rows = [sorted(h.n_cols - 1 - v for v in row) for row in h.row_support]
        rows[0] = rows[0][:-1]
        other = ci.SparseBinaryMatrix.from_rows(h.n_rows, h.n_cols, rows)
        assert _compile(other) is not _compile(h)
        assert sorted(set(np.diff(_compile(other).check_ptr))) == [9, 10]
        rng = np.random.default_rng(15)
        for batch, ebno_db in ((64, 2.5), (40, 2.0), (96, 2.75), (24, 2.25), (128, 3.0)):
            sigma = ci.ebno_sigma(ebno_db, paper_outer.rate)
            for graph in (h, other):
                if graph is h:
                    channel = noisy_codewords(paper_outer, batch, ebno_db, rng)
                else:
                    channel = ci.channel_llr(rng.normal(1.0, sigma, (batch, h.n_cols)), sigma)
                res = decode_rows(graph, channel, None, 40)
                assert_results_identical(res, reference_decode_batch(graph, channel, None, 40))
                assert len(np.unique(res.iterations_used)) >= 3

    def test_reloaded_equal_code_reuses_compiled_graph(self, paper_outer, tmp_path):
        ci.save_code(paper_outer, tmp_path / "outer")
        reloaded = ci.load_code(tmp_path / "outer")
        assert reloaded.H is not paper_outer.H and reloaded.H == paper_outer.H
        channel = noisy_codewords(paper_outer, 4, 2.5, np.random.default_rng(14))
        first = decode_rows(paper_outer, channel, None, 20)
        hits, misses = _compile.cache_info().hits, _compile.cache_info().misses
        assert_results_identical(decode_rows(reloaded, channel, None, 20), first)
        assert _compile.cache_info().hits == hits + 1
        assert _compile.cache_info().misses == misses
        assert _compile(reloaded.H) is _compile(paper_outer.H)

    def test_held_result_unchanged_by_later_calls(self, paper_outer):
        rng = np.random.default_rng(12)
        held = decode_rows(paper_outer, noisy_codewords(paper_outer, 16, 2.5, rng), None, 30)
        copies = {name: getattr(held, name).copy() for name in RESULT_FIELDS}
        for batch in (181, 1, 16):
            decode_rows(paper_outer, noisy_codewords(paper_outer, batch, 2.0, rng), None, 30)
        for name in RESULT_FIELDS:
            assert np.array_equal(getattr(held, name), copies[name]), name

    def test_inputs_not_mutated(self, paper_outer):
        rng = np.random.default_rng(13)
        channel = noisy_codewords(paper_outer, 24, 2.5, rng)
        prior = rng.normal(scale=0.5, size=channel.shape)
        channel_before, prior_before = channel.copy(), prior.copy()
        decode_rows(paper_outer, channel, prior, 30)
        assert np.array_equal(channel, channel_before)
        assert np.array_equal(prior, prior_before)

    @pytest.mark.parametrize("degenerate", [False, True], ids=["paper", "fewer-edges-than-vars"])
    def test_working_arrays_start_on_cache_lines(self, paper_outer, degenerate):
        # a fresh graph, grown in steps; every 32-byte tile row then lies in
        # one 64-byte line, and the first iteration's tanh(lam) fits in cv's buffer
        h = ci.SparseBinaryMatrix.from_rows(3, 8, [(0,), (1, 2), (7,)]) if degenerate else paper_outer.H
        g = spa._CompiledGraph(h)
        assert (g.n_edges < g.n_vars) == degenerate
        largest = 1
        for batch in (1, 5, 3, 184, 500, 501):
            g.reserve(batch)
            largest = max(largest, batch)
            assert g.tiles == -(-largest // spa._LANES)
            floats = {name: a for name, a in vars(g).items()
                      if isinstance(a, np.ndarray) and a.dtype == np.float64}
            assert sorted(floats) == ["cv", "ext", "lam", "msg", "post"]
            for name, a in floats.items():
                assert a.ctypes.data % 64 == 0, (batch, name)
            assert g.cv_bytes.ctypes.data == g.cv.ctypes.data
            assert g.cv_bytes.nbytes >= g.tiles * g.n_vars * spa._LANES * 8

    @pytest.mark.parametrize("max_iter", [1, 10])
    @pytest.mark.parametrize(
        "n_vars, rows",
        [
            (8, [(v, v + 1) for v in range(7)]),  # repetition code: every check of degree 2
            (8, [(0,), (0, 1, 2), (2, 3), (3, 4, 5, 6, 7)]),  # one degree-1 check
            (4, [(0,), (1,), (3,)]),  # every check of degree 1, one variable unchecked
        ],
        ids=["repetition", "one-degree-1-check", "all-degree-1-checks"],
    )
    def test_low_check_degrees_match_reference(self, n_vars, rows, max_iter):
        h = ci.SparseBinaryMatrix.from_rows(len(rows), n_vars, rows)
        rng = np.random.default_rng(max_iter)
        for batch in (5, 1):
            channel = rng.normal(loc=0.5, scale=1.5, size=(batch, h.n_cols))
            prior = rng.normal(scale=0.5, size=channel.shape)
            for pr in (None, prior):
                for early_stop in (True, False):
                    assert_results_identical(
                        decode_rows(h, channel, pr, max_iter, early_stop),
                        reference_decode_batch(h, channel, pr, max_iter, early_stop),
                    )


# sha256 of the hard decisions, iteration counts and validity flags of the
# corpus of check_corpus, as the batch-last NumPy kernel that the C kernel
# replaced gave them.  They are equal at every SIMD level of NumPy's tanh
# and arctanh, while the posteriors and extrinsics are not, so check_corpus
# compares those with the reference decoder of the same process instead.
CORPUS_DIGEST = "5b9b818e17e4349d37b34b029e915088cc758b954aa2c0fceaf7d9faa269e97a"


def check_corpus(code) -> None:
    """Decode the corpus, pin its decisions and compare every output with
    oracles.reference_decode_batch; exact zeros of both signs in channel and
    prior reach every sum."""
    digest = hashlib.sha256()
    for width in (1, 16, 181, 500):
        rng = np.random.default_rng(width)
        channel = noisy_codewords(code, width, 2.5, rng)
        prior = rng.normal(scale=0.5, size=channel.shape)
        for a in (channel, prior):
            a[rng.random(a.shape) < 0.02] = 0.0
            a[rng.random(a.shape) < 0.02] = -0.0
        for pr in (None, prior):
            for early_stop in (True, False):
                res = decode_rows(code, channel, pr, 30, early_stop)
                assert_results_identical(res, reference_decode_batch(code, channel, pr, 30, early_stop))
                for name in ("hard_bits", "iterations_used", "valid"):
                    a = getattr(res, name)
                    digest.update(f"{name} {a.dtype.str} {a.shape}".encode())
                    digest.update(a.tobytes())
    assert digest.hexdigest() == CORPUS_DIGEST


def lower_simd_levels() -> list[str]:
    """One NPY_DISABLE_CPU_FEATURES value per SIMD level below the one NumPy
    runs on this host: the top k of the dispatched features the host has,
    for k = 1, 2, ..."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1
        from numpy.core import _multiarray_umath as umath
    present = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return [" ".join(present[-k:]) for k in range(1, len(present) + 1)]


class TestIndexedDecode:
    """decode_indexed reads and writes each codeword through its table row."""

    @staticmethod
    def block(code, rng):
        """A 9-codeword block scattered over flat arrays: the prior and the
        outputs are shorter than the channel, so some variables have no
        prior and some write no output."""
        n = code.N
        at = rng.permutation(12 * n)[: 9 * n].astype(np.int32).reshape(9, n)
        channel = rng.normal(0.5, 1.5, size=12 * n)
        prior = rng.normal(scale=0.5, size=8 * n)
        return at, channel, prior

    @pytest.mark.parametrize("early_stop", [True, False], ids=["early-stop", "all-iterations"])
    @pytest.mark.parametrize("prior_given", [False, True], ids=["no-prior", "prior"])
    @pytest.mark.parametrize("code", ["paper_outer", "toy_outer"])
    def test_rows_decode_as_their_gathered_batch(self, request, code, prior_given, early_stop):
        """A row writes its posterior at exactly the indices where it writes
        its extrinsic, under either stop rule."""
        code = request.getfixturevalue(code)
        rng = np.random.default_rng(21)
        at, channel, prior = self.block(code, rng)
        ids = np.array([7, 0, 3, 8, 2])
        index = at[ids]
        if prior_given:
            gathered_prior = np.where(index < prior.size, prior[np.minimum(index, prior.size - 1)], 0.0)
        else:
            prior = gathered_prior = None
        want = decode_rows(code, channel[index], gathered_prior, 30, early_stop)
        extrinsic = np.full(10 * code.N, np.nan)
        posterior = np.full(extrinsic.size, np.nan)
        got = decode_indexed(code.H, at, ids, channel, prior, extrinsic, posterior, 30, early_stop)
        assert np.array_equal(got.iterations_used, want.iterations_used)
        assert np.array_equal(got.valid, want.valid)
        written = index < extrinsic.size
        assert 0 < written.sum() < index.size
        assert np.array_equal(extrinsic[index[written]], want.extrinsic[written])
        assert np.array_equal(posterior[index[written]], want.posterior[written])
        untouched = np.ones(extrinsic.size, dtype=bool)
        untouched[index[written]] = False
        assert np.isnan(extrinsic[untouched]).all() and np.isnan(posterior[untouched]).all()

    def test_no_prior(self, paper_outer):
        rng = np.random.default_rng(22)
        at, channel, _ = self.block(paper_outer, rng)
        ids = np.arange(9)
        want = decode_rows(paper_outer, channel[at], None, 30)
        extrinsic, posterior = np.empty(channel.size), np.empty(channel.size)
        got = decode_indexed(paper_outer.H, at, ids, channel, None, extrinsic, posterior, 30)
        assert np.array_equal(extrinsic[at], want.extrinsic)
        assert np.array_equal(posterior[at], want.posterior)
        assert np.array_equal(got.valid, want.valid)

    @pytest.mark.parametrize("fault", [
        "id past the table", "negative id", "index past the channel", "negative index",
        "int64 table", "strided channel", "read-only extrinsic", "posterior size",
    ])
    def test_bad_arguments_raise(self, toy_outer, fault):
        rng = np.random.default_rng(23)
        at, channel, prior = self.block(toy_outer, rng)
        ids, extrinsic, posterior = np.arange(9), np.empty(channel.size), np.empty(channel.size)
        if fault == "id past the table":
            ids = np.array([0, 9])
        elif fault == "negative id":
            ids = np.array([-1])
        elif fault == "index past the channel":
            at[4, 3] = channel.size
        elif fault == "negative index":
            at[8, 0] = -1
        elif fault == "int64 table":
            at = at.astype(np.int64)
        elif fault == "strided channel":
            channel = np.repeat(channel, 2)[::2]
        elif fault == "read-only extrinsic":
            extrinsic.setflags(write=False)
        else:
            posterior = np.empty(channel.size - 1)
        with pytest.raises(ValueError):
            decode_indexed(toy_outer.H, at, ids, channel, prior, extrinsic, posterior, 5)

    @pytest.mark.parametrize("prior_given", [False, True], ids=["no-prior", "prior"])
    @pytest.mark.parametrize("width", [1, 5, 512])
    @pytest.mark.parametrize("code", ["paper_outer", "toy_outer"])
    def test_identity_table_row_i_is_array_row_i(self, request, code, width, prior_given):
        """The table a single-code task decodes through: codeword i at row i
        of 2-D arrays, equal to the dense reference decode of the stack."""
        code = request.getfixturevalue(code)
        rng = np.random.default_rng(24)
        channel = noisy_codewords(code, width, 2.0, rng)
        prior = rng.normal(scale=0.5, size=channel.shape) if prior_given else None
        want = reference_decode_batch(code, channel, prior, 30)
        at = np.arange(channel.size, dtype=np.int32).reshape(channel.shape)
        extrinsic = np.full(channel.shape, np.nan)
        posterior = np.full(channel.shape, np.nan)
        got = decode_indexed(code.H, at, np.arange(width), channel, prior, extrinsic, posterior, 30)
        assert got.iterations_used.dtype == want.iterations_used.dtype
        assert np.array_equal(got.iterations_used, want.iterations_used)
        assert got.valid.dtype == want.valid.dtype and np.array_equal(got.valid, want.valid)
        assert np.array_equal(extrinsic, want.extrinsic)
        assert np.array_equal(posterior, want.posterior)
        assert np.array_equal((posterior < 0.0).view(np.uint8), want.hard_bits)
        if width == 512:
            assert 0 < want.valid.sum() < width

    @pytest.mark.parametrize("fault", ["short rows", "long rows", "flat table"])
    def test_tables_of_the_wrong_width_write_nothing(self, toy_outer, fault):
        rng = np.random.default_rng(25)
        n = toy_outer.N
        channel = rng.normal(size=6 * n)
        width = {"short rows": n - 1, "long rows": n + 1, "flat table": None}[fault]
        at = np.arange(channel.size, dtype=np.int32)
        at = at if width is None else at[: 5 * width].reshape(5, width)
        extrinsic, posterior = np.full(channel.size, np.nan), np.full(channel.size, np.nan)
        with pytest.raises(ValueError):
            decode_indexed(toy_outer.H, at, np.arange(5), channel, None, extrinsic, posterior, 5)
        assert np.isnan(extrinsic).all() and np.isnan(posterior).all()


class TestKernel:
    def test_corpus_decisions_are_pinned_and_outputs_equal_the_reference(self, paper_outer):
        check_corpus(paper_outer)

    def test_corpus_check_holds_at_every_lower_simd_level(self):
        # each level in a child process of its own, started together; -W error
        # makes a feature NumPy cannot disable here fail the child, and the
        # child checks that NumPy reports the disabled features off
        levels = lower_simd_levels()
        if not levels:
            pytest.skip("NumPy runs its baseline code on this host")
        tests = Path(__file__).parent
        script = (
            f"import sys; sys.path[:0] = {[str(tests.parent / 'src'), str(tests)]!r}\n"
            "import concat_ira as ci\n"
            "from test_spa import check_corpus, lower_simd_levels\n"
            "disabled = set(sys.argv[1].split())\n"
            "assert not disabled & set(' '.join(lower_simd_levels()).split())\n"
            "check_corpus(ci.build_code(128, 181, seed=1))\n"
        )
        children = [
            subprocess.Popen(
                [sys.executable, "-W", "error", "-c", script, level],
                env={**os.environ, "NPY_DISABLE_CPU_FEATURES": level},
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            for level in levels
        ]
        try:
            for level, child in zip(levels, children):
                output = child.communicate(timeout=600)[0]
                assert child.returncode == 0 and not output, (level, output)
        finally:
            for child in children:
                child.kill()

    def test_tanh_of_a_value_does_not_depend_on_where_it_sits(self, paper_outer):
        # The first iteration takes tanh of lam, (tiles, n_vars, 4), and
        # gathers it by edge; later ones take tanh of msg, (tiles, n_edges, 4),
        # in place.  The decoder is bit-identical only while NumPy's tanh
        # gives a value the same bits in either layout, at any offset.
        g = _compile(paper_outer.H)
        cut = 19.1  # |x| from which tanh(x) is exactly +-1.0
        specials = np.array([
            0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072009e-308, 1e-300,
            np.nextafter(cut, 0), cut, np.nextafter(cut, 99), -np.nextafter(cut, 0), -cut,
            -np.nextafter(cut, 99), 18.0, -20.0, 40.0, np.inf, -np.inf, np.nan, -np.nan,
        ])
        rng = np.random.default_rng(19)
        for tiles in (1, 2, 46):
            pool = np.concatenate([specials, rng.normal(scale=8.0, size=tiles * g.n_vars * 4)])
            for shift in range(0, len(specials), 3):
                lam = spa._aligned((tiles, g.n_vars, spa._LANES))
                lam.reshape(-1)[:] = np.roll(pool, shift)[:lam.size]
                first = spa._aligned(lam.shape)
                np.tanh(lam, out=first)
                msg = spa._aligned((tiles, g.n_edges, spa._LANES))
                msg[:] = lam[:, g.edge_var]
                np.tanh(msg, out=msg)
                assert first[:, g.edge_var].tobytes() == msg.tobytes(), (tiles, shift)

    def test_edges_are_numbered_check_by_check(self):
        g = _compile(ci.SparseBinaryMatrix.from_rows(3, 3, [(0, 2), (1, 2), (0, 1)]))
        assert g.check_ptr.tolist() == [0, 2, 4, 6]
        assert g.edge_var.tolist() == [0, 2, 1, 2, 0, 1]
        assert g.var_ptr.tolist() == [0, 2, 4, 6]
        assert g.var_edge.tolist() == [0, 4, 2, 5, 1, 3]  # each variable's edges in check order

    def test_negative_zero_sum_of_a_variable_below_the_largest_degree_is_positive(self):
        # variable 0 has degree 1 and variable 1 degree 2; a -0.0 channel
        # plus a -0.0 prior makes variable 1's message -0.0, so variable 0's
        # one check message is -0.0, and the kernel's sum, padded with +0.0
        # to the largest degree, is +0.0
        h = ci.SparseBinaryMatrix.from_rows(2, 3, [(0, 1), (1, 2)])
        res = decode_rows(h, [[1.0, -0.0, 1.0]], [[0.0, -0.0, 0.0]], 1)
        assert res.extrinsic[0, 0] == 0.0 and not np.signbit(res.extrinsic[0, 0])

    def test_numpy_scalar_arguments_decode_as_python_ones(self, toy_outer):
        channel = np.random.default_rng(18).normal(0.5, 1.5, size=(5, 12))
        assert_results_identical(
            decode_rows(toy_outer, channel, None, np.int64(6), np.True_),
            decode_rows(toy_outer, channel, None, 6, True),
        )

    def test_cold_cache_builds_one_library_and_a_warm_one_runs_no_compiler(
        self, paper_outer, tmp_path, monkeypatch
    ):
        channel = noisy_codewords(paper_outer, 8, 2.5, np.random.default_rng(17))
        expected = reference_decode_batch(paper_outer, channel, None, 20)
        monkeypatch.setattr(spa, "_CACHE_DIR", tmp_path)
        monkeypatch.setattr(spa, "_LIB", None)
        assert_results_identical(decode_rows(paper_outer, channel, None, 20), expected)
        (built,) = tmp_path.iterdir()
        assert built.name.startswith("_spa_kernel.") and built.suffix == ".so"

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran on a warm cache")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        monkeypatch.setattr(spa, "_LIB", None)
        assert_results_identical(decode_rows(paper_outer, channel, None, 20), expected)
        assert list(tmp_path.iterdir()) == [built]

    @pytest.mark.parametrize("compiler", ["missing", "failing", "located"])
    def test_failed_build_raises_at_every_decode_and_builds_once(
        self, toy_outer, tmp_path, monkeypatch, compiler
    ):
        cc, log = tmp_path / "cc", tmp_path / "runs"
        if compiler != "missing":
            # GCC often leads with the location of the error, not the error
            stderr = {
                "failing": ["cc: fatal error: out of luck", "more"],
                "located": ["x.c: In function 'f':", "x.c:3:5: error: out of luck", "more"],
            }[compiler]
            cc.write_text(f"#!/bin/sh\necho run >> {log}\n"
                          + "".join(f"echo \"{line}\" >&2\n" for line in stderr) + "exit 1\n")
            cc.chmod(0o755)
            message = (f"building the SPA kernel failed: {re.escape(str(cc))} .*: "
                       f"{re.escape(stderr[-2])}$")
        else:
            message = re.escape(f"cannot build the SPA kernel: C compiler '{cc}' not found")
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setattr(spa, "_CC", str(cc))
        monkeypatch.setattr(spa, "_CACHE_DIR", cache)
        monkeypatch.setattr(spa, "_LIB", None)
        for _ in range(2):
            with pytest.raises(RuntimeError, match=message):
                ci.decode(toy_outer, np.zeros(12))
        assert list(cache.iterdir()) == []
        runs = log.read_text() if log.exists() else ""
        assert runs == ("" if compiler == "missing" else "run\n")

    def test_sources_flags_compiler_and_cpu_key_the_cached_library(self, tmp_path, monkeypatch):
        # a stand-in compiler that writes an empty file at its -o argument
        cc = tmp_path / "cc"
        cc.write_text('#!/bin/sh\nwhile [ $# -gt 0 ]; do [ "$1" = -o ] && : > "$2"; shift; done\n')
        cc.chmod(0o755)
        sources = []
        for source in spa._SOURCES:
            sources.append(tmp_path / source.name)
            sources[-1].write_bytes(source.read_bytes())
        monkeypatch.setattr(spa, "_CC", str(cc))
        monkeypatch.setattr(spa, "_CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(spa, "_SOURCES", tuple(sources))
        names = [spa._build().name, spa._build().name]
        for source in sources:
            source.write_bytes(source.read_bytes() + b"\n")
            names.append(spa._build().name)
        monkeypatch.setattr(spa, "_CFLAGS", (*spa._CFLAGS, "-g"))
        names.append(spa._build().name)
        os.utime(cc, ns=(0, 0))
        names.append(spa._build().name)
        monkeypatch.setattr(spa, "_host_cpu", lambda: "another processor")
        names.append(spa._build().name)
        assert names[0] == names[1]
        assert len(set(names)) == len(names) - 1
        assert all(name.startswith("_spa_kernel.") for name in names)

    def test_build_command_is_the_compiler_flags_sources_and_libm(self, tmp_path):
        cc, out = "cc", str(tmp_path / "k.so")
        sources = [str(source) for source in spa._SOURCES]
        command = spa._command(cc, out)
        assert command == [cc, *spa._CFLAGS, "-o", out, *sources, "-lm"]
        numpy_dir = str(Path(np.__file__).parent)
        assert not any(numpy_dir in arg for arg in command)

    def test_source_compiles_without_warnings(self, tmp_path):
        command = spa._command(spa._CC, str(tmp_path / "k.so"))
        command[1:1] = ["-Wall", "-Wextra", "-Werror"]
        done = subprocess.run(command, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_source_ships_with_the_package(self):
        # pyproject.toml is read as text: Python 3.10 has no tomllib
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        (listed,) = re.findall(r"^concat_ira = \[(.*)\]$", pyproject, re.MULTILINE)
        for source in spa._SOURCES:
            assert f'"{source.name}"' in listed
            assert (importlib.resources.files("concat_ira") / source.name).is_file()
