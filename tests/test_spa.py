import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import concat_ira as ci
from concat_ira.spa import _compile, decode_batch

from oracles import (
    check_update,
    dense_codewords,
    dense_syndrome,
    exact_bit_marginals,
    reference_decode_batch,
    variable_update,
)

RESULT_FIELDS = ("hard_bits", "posterior", "extrinsic", "iterations_used", "valid")


def assert_results_identical(a, b):
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
        out = check_update([ci.spa.LLR_CLAMP, 2.5])
        assert out[0] == pytest.approx(2.5, abs=1e-9)
        # degree 3: box-plus with a clamped input reduces to the other value
        out = check_update([ci.spa.LLR_CLAMP, 2.5, -1.25])
        assert out[1] == pytest.approx(-1.25, abs=1e-6)
        assert out[2] == pytest.approx(2.5, abs=1e-6)

    def test_outputs_bounded_after_guard(self):
        out = check_update([ci.spa.LLR_CLAMP, ci.spa.LLR_CLAMP])
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
            assert res.valid == (not dense_syndrome(toy_outer.H.to_dense(), res.hard_bits).any())

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
        codewords = dense_codewords(tree_matrix.to_dense())
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
        codewords = dense_codewords(tree_matrix.to_dense())
        rng = np.random.default_rng(7)
        ch = rng.uniform(-2, 2, size=12)
        pr = rng.uniform(-1, 1, size=12)
        res = ci.decode(tree_matrix, ch, pr, max_iter=16, early_stop=False)
        exact = exact_bit_marginals(codewords, ch + pr)
        assert np.abs(res.posterior - exact).max() < 1e-6


class TestBatchDecode:
    def test_batch_matches_single(self, toy_outer):
        rng = np.random.default_rng(4)
        chans = rng.normal(scale=1.2, size=(9, 12))
        priors = rng.normal(scale=0.3, size=(9, 12))
        batch = decode_batch(toy_outer, chans, priors, max_iter=8)
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
        full = decode_batch(toy_outer, chans, max_iter=6)
        half = decode_batch(toy_outer, chans[::2], max_iter=6)
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


class TestReferenceKernel:
    """The slot-major kernel is pinned bit for bit to the padded-plane
    kernel it replaced, kept in oracles.reference_decode_batch."""

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
                    decode_batch(paper_outer, channel, pr, max_iter, early_stop),
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
                    decode_batch(tree_matrix, channel, pr, max_iter, early_stop),
                    reference_decode_batch(tree_matrix, channel, pr, max_iter, early_stop),
                )

    def test_some_rows_stop_early_and_some_never(self, paper_outer):
        # the [128-100] corpus case exercises both row exits of the batch
        rng = np.random.default_rng(1000 * 128 + 100)
        res = decode_batch(paper_outer, noisy_codewords(paper_outer, 128, 2.5, rng), None, 100)
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
    """Row i of decode_batch(stack) is bit-identical to decode(row i): the
    harness decodes trials in batches of any size on this guarantee."""
    rng = np.random.default_rng(seed)
    channel = noisy_codewords(paper_outer, batch, ebno_db, rng)
    prior = rng.normal(scale=0.5, size=channel.shape) if with_prior else None
    res = decode_batch(paper_outer, channel, prior, max_iter, early_stop)
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
    """decode_batch keeps one grow-only workspace per graph; no call may see
    what an earlier call left in it."""

    def test_sequence_of_widths_and_graphs_matches_reference(self, paper_outer, paper_inner):
        rng = np.random.default_rng(11)
        for code, batch in ((paper_outer, 128), (paper_outer, 3), (paper_inner, 40),
                            (paper_outer, 181), (paper_inner, 181), (paper_outer, 128)):
            channel = noisy_codewords(code, batch, 2.5, rng)
            prior = rng.normal(scale=0.5, size=channel.shape)
            assert_results_identical(
                decode_batch(code, channel, prior, 20),
                reference_decode_batch(code, channel, prior, 20),
            )

    def test_reloaded_equal_code_reuses_compiled_graph(self, paper_outer, tmp_path):
        ci.save_code(paper_outer, tmp_path / "outer")
        reloaded = ci.load_code(tmp_path / "outer")
        assert reloaded.H is not paper_outer.H and reloaded.H == paper_outer.H
        channel = noisy_codewords(paper_outer, 4, 2.5, np.random.default_rng(14))
        first = decode_batch(paper_outer, channel, None, 20)
        hits, misses = _compile.cache_info().hits, _compile.cache_info().misses
        assert_results_identical(decode_batch(reloaded, channel, None, 20), first)
        assert _compile.cache_info().hits == hits + 1
        assert _compile.cache_info().misses == misses
        assert _compile(reloaded.H) is _compile(paper_outer.H)

    def test_held_result_unchanged_by_later_calls(self, paper_outer):
        rng = np.random.default_rng(12)
        held = decode_batch(paper_outer, noisy_codewords(paper_outer, 16, 2.5, rng), None, 30)
        copies = {name: getattr(held, name).copy() for name in RESULT_FIELDS}
        for batch in (181, 1, 16):
            decode_batch(paper_outer, noisy_codewords(paper_outer, batch, 2.0, rng), None, 30)
        for name in RESULT_FIELDS:
            assert np.array_equal(getattr(held, name), copies[name]), name

    def test_inputs_not_mutated(self, paper_outer):
        rng = np.random.default_rng(13)
        channel = noisy_codewords(paper_outer, 24, 2.5, rng)
        prior = rng.normal(scale=0.5, size=channel.shape)
        channel_before, prior_before = channel.copy(), prior.copy()
        decode_batch(paper_outer, channel, prior, 30)
        assert np.array_equal(channel, channel_before)
        assert np.array_equal(prior, prior_before)

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
                        decode_batch(h, channel, pr, max_iter, early_stop),
                        reference_decode_batch(h, channel, pr, max_iter, early_stop),
                    )
