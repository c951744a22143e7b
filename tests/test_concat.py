import functools
import hashlib
from fractions import Fraction

import numpy as np
import pytest

import concat_ira as ci
from concat_ira import bench
from concat_ira import concat as concat_mod
from concat_ira.spa import PassResult

from oracles import (
    concat_peel,
    decode_rows,
    invert_permutation,
    joint_matrix,
    reference_concat_decode,
    to_dense,
)


def noiseless_llrs(tx):
    return 20.0 * (1.0 - 2.0 * tx.astype(np.float64))


class TestConcatEncode:
    def test_all_zero(self, toy_cc):
        out = ci.concat_encode(toy_cc, np.zeros((8, 8), dtype=np.uint8))
        assert out.shape == (12, 12) and not out.any()

    def test_paper_rate(self, paper_outer, paper_inner):
        cc = ci.ConcatCode(paper_outer, paper_inner, ci.random_permutation(128, 181, 7))
        assert Fraction(cc.K**2, cc.N**2) == Fraction(16384, 32761)
        assert cc.rate == pytest.approx(0.50011, abs=5e-6)
        assert ci.concat_encode(cc, np.zeros((128, 128), np.uint8)).size == 32761

    def test_all_columns_and_rows_are_codewords(self, toy_cc):
        rng = np.random.default_rng(0)
        inner_dense = to_dense(toy_cc.inner.H).astype(np.int64)
        outer_dense = to_dense(toy_cc.outer.H).astype(np.int64)
        for _ in range(100):
            source = rng.integers(0, 2, (8, 8), dtype=np.uint8)
            tx = ci.concat_encode(toy_cc, source)
            assert not ((inner_dense @ tx) % 2).any()
            rows = invert_permutation(toy_cc.pi).apply(tx[:8, :])
            assert not ((outer_dense @ rows.T) % 2).any()

    def test_systematic_region_carries_source(self, toy_cc):
        rng = np.random.default_rng(1)
        source = rng.integers(0, 2, (8, 8), dtype=np.uint8)
        tx = ci.concat_encode(toy_cc, source)
        rows = invert_permutation(toy_cc.pi).apply(tx[:8, :])
        assert np.array_equal(rows[:, :8], source)

    def test_shape_mismatch_rejected(self, toy_cc):
        with pytest.raises(ValueError):
            ci.concat_encode(toy_cc, np.zeros((8, 9), np.uint8))

    def test_component_shape_mismatch_rejected(self, toy_outer, paper_inner):
        with pytest.raises(ValueError):
            ci.ConcatCode(toy_outer, paper_inner, ci.random_permutation(8, 12, 0))


class TestConcatDecode:
    def test_noiseless_round_trip(self, toy_cc):
        rng = np.random.default_rng(2)
        source = rng.integers(0, 2, (8, 8), dtype=np.uint8)
        res = ci.concat_decode(
            toy_cc, noiseless_llrs(ci.concat_encode(toy_cc, source)), ci.Schedule()
        )
        assert res.converged and res.outer_iters_used == 1
        assert np.array_equal(res.source_bits, source)

    def test_noiseless_round_trip_many(self, toy_cc):
        rng = np.random.default_rng(3)
        sched = ci.Schedule(outer_iters=4, inner_iters=4)
        for _ in range(200):
            source = rng.integers(0, 2, (8, 8), dtype=np.uint8)
            res = ci.concat_decode(
                toy_cc, noiseless_llrs(ci.concat_encode(toy_cc, source)), sched
            )
            assert np.array_equal(res.source_bits, source)

    def test_awgn_high_snr_error_free(self, toy_cc):
        # the toy components have d_min = 2, so this needs real SNR headroom
        sched = ci.Schedule()
        sigma = ci.ebno_sigma(10.0, toy_cc.rate)
        for i in range(50):
            gen = ci.RngStream(77, i).generator()
            source = gen.integers(0, 2, (8, 8), dtype=np.uint8)
            tx = ci.concat_encode(toy_cc, source)
            llrs = ci.channel_llr(ci.awgn(ci.modulate(tx), sigma, gen), sigma)
            res = ci.concat_decode(toy_cc, llrs, sched)
            assert np.array_equal(res.source_bits, source)

    @pytest.mark.slow
    def test_awgn_paper_size_six_db_error_free(self, paper_outer, paper_inner):
        cc = ci.ConcatCode(paper_outer, paper_inner, ci.random_permutation(128, 181, 7))
        sigma = ci.ebno_sigma(6.0, cc.rate)
        errors = 0
        for i in range(100):
            gen = ci.RngStream(606, i).generator()
            source = gen.integers(0, 2, (128, 128), dtype=np.uint8)
            tx = ci.concat_encode(cc, source)
            llrs = ci.channel_llr(ci.awgn(ci.modulate(tx), sigma, gen), sigma)
            res = ci.concat_decode(cc, llrs, ci.Schedule())
            errors += int((res.source_bits != source).sum())
        assert errors == 0

    def test_converged_implies_reencode_consistency(self, toy_cc):
        rng = np.random.default_rng(4)
        sigma = ci.ebno_sigma(5.0, toy_cc.rate)
        checked = 0
        for i in range(30):
            gen = ci.RngStream(88, i).generator()
            source = gen.integers(0, 2, (8, 8), dtype=np.uint8)
            tx = ci.concat_encode(toy_cc, source)
            llrs = ci.channel_llr(ci.awgn(ci.modulate(tx), sigma, gen), sigma)
            res = ci.concat_decode(toy_cc, llrs, ci.Schedule())
            if res.converged:
                checked += 1
                again = ci.concat_encode(toy_cc, res.source_bits)
                inner_dense = to_dense(toy_cc.inner.H).astype(np.int64)
                assert not ((inner_dense @ again) % 2).any()
        assert checked > 0

    def test_shape_mismatch_rejected(self, toy_cc):
        with pytest.raises(ValueError):
            ci.concat_decode(toy_cc, np.zeros((12, 11)), ci.Schedule())

    def test_diagnostics_accumulate(self, toy_cc):
        rng = np.random.default_rng(5)
        source = rng.integers(0, 2, (8, 8), dtype=np.uint8)
        res = ci.concat_decode(
            toy_cc, noiseless_llrs(ci.concat_encode(toy_cc, source)), ci.Schedule()
        )
        assert res.component_decode_calls == 12 + 8  # one column pass, one row pass
        assert res.component_iterations == 12 + 8  # noiseless: single iteration each
        assert res.pass_validity == ((12, 8),)


class _RecordingStub:
    """Replaces the component decoder; writes tagged random extrinsics and
    records every (code, channel, prior) it was handed, each rebuilt as a
    (rows, N) array from the index table, the ids and the block arrays; the
    code is named by the parity-check matrix the pass decodes on."""

    def __init__(self, cc, valid_after=None):
        self.cc = cc
        self.calls = []
        self.rng = np.random.default_rng(99)
        self.valid_after = valid_after  # pass index -> bool array factory
        self.pass_no = 0

    def __call__(self, matrix, at, ids, channel, prior, extrinsic, posterior, max_iter):
        code = {id(self.cc.inner.H): "inner", id(self.cc.outer.H): "outer"}[id(matrix)]
        self.pass_no += 1
        index = at[ids]
        batch, n = index.shape
        rebuilt_channel = channel.reshape(-1)[index]
        has_prior = index < (0 if prior is None else prior.size)
        rebuilt_prior = np.zeros((batch, n))
        rebuilt_prior[has_prior] = prior.reshape(-1)[index[has_prior]]
        ext = self.rng.normal(size=(batch, n))
        self.calls.append(
            {"code": code, "pass": self.pass_no, "channel": rebuilt_channel,
             "prior": rebuilt_prior, "ext": ext.copy()}
        )
        out = index < extrinsic.size
        extrinsic.reshape(-1)[index[out]] = ext[out]
        posterior.reshape(-1)[index[out]] = (rebuilt_channel + rebuilt_prior + ext)[out]
        valid = np.zeros(batch, dtype=bool)
        if self.valid_after is not None:
            valid = self.valid_after(code, self.pass_no, batch)
        return PassResult(iterations_used=np.ones(batch, dtype=np.int64), valid=valid)


class TestExtrinsicHygiene:
    def test_priors_come_only_from_the_other_decoder(self, toy_cc, monkeypatch):
        stub = _RecordingStub(toy_cc)
        monkeypatch.setattr(concat_mod, "_decode_batch", stub)
        lch = np.random.default_rng(6).normal(size=(12, 12))
        ci.concat_decode(toy_cc, lch, ci.Schedule(outer_iters=2, inner_iters=3))

        col1, row1, col2, row2 = stub.calls
        assert [c["code"] for c in stub.calls] == ["inner", "outer", "inner", "outer"]
        pi_inv = invert_permutation(toy_cc.pi)

        # first column pass: channel in, all-zero prior
        assert np.array_equal(col1["channel"], lch.T)
        assert not col1["prior"].any()

        # row pass prior is exactly the de-interleaved column extrinsic
        col_ext = np.zeros((8, 12))
        col_ext[:, :] = col1["ext"][:, :8].T
        expect_prior = pi_inv.apply(col_ext)
        assert np.allclose(row1["prior"], expect_prior)
        # and the row channel is the de-interleaved systematic channel
        assert np.allclose(row1["channel"], pi_inv.apply(lch[:8, :]))

        # second column pass prior: permuted row extrinsic on systematic rows,
        # zero on parity rows; the row decoder's own inputs never re-enter it
        mixed = toy_cc.pi.apply(row1["ext"])
        assert np.allclose(col2["prior"][:, :8], mixed.T)
        assert not col2["prior"][:, 8:].any()

        # second row pass prior holds only second-column extrinsic
        col_ext2 = col2["ext"][:, :8].T
        assert np.allclose(row2["prior"], pi_inv.apply(col_ext2))

    def test_frozen_components_not_redecoded(self, toy_cc, monkeypatch):
        def valid_after(code, pass_no, batch):
            # first column pass: columns 0..4 converge; first row pass: rows 0..2
            if code == "inner" and pass_no == 1:
                v = np.zeros(batch, dtype=bool)
                v[:5] = True
                return v
            if code == "outer" and pass_no == 2:
                v = np.zeros(batch, dtype=bool)
                v[:3] = True
                return v
            return np.zeros(batch, dtype=bool)

        stub = _RecordingStub(toy_cc, valid_after)
        monkeypatch.setattr(concat_mod, "_decode_batch", stub)
        lch = np.random.default_rng(7).normal(size=(12, 12))
        ci.concat_decode(toy_cc, lch, ci.Schedule(outer_iters=2, inner_iters=3))
        col1, row1, col2, row2 = stub.calls
        assert col1["channel"].shape[0] == 12 and row1["channel"].shape[0] == 8
        assert col2["channel"].shape[0] == 12 - 5
        assert row2["channel"].shape[0] == 8 - 3
        # frozen columns are exactly the ones reported valid
        assert np.allclose(col2["channel"], lch.T[5:])

    def test_freeze_disabled_redecodes_everything(self, toy_cc, monkeypatch):
        def valid_after(code, pass_no, batch):
            return np.ones(batch, dtype=bool) if pass_no == 1 else np.zeros(batch, bool)

        stub = _RecordingStub(toy_cc, valid_after)
        monkeypatch.setattr(concat_mod, "_decode_batch", stub)
        lch = np.random.default_rng(8).normal(size=(12, 12))
        sched = ci.Schedule(outer_iters=2, inner_iters=3, freeze_converged=False)
        ci.concat_decode(toy_cc, lch, sched)
        assert stub.calls[2]["channel"].shape[0] == 12
        assert stub.calls[3]["channel"].shape[0] == 8


class _ValidStub:
    """Replaces the component decoder: every column and every row ends
    valid, deciding 0 at every bit, except that the row pass decides 1 at
    flat block index ``flip`` (none at -1)."""

    def __init__(self, cc, flip):
        self.cc, self.flip = cc, flip

    def __call__(self, matrix, at, ids, channel, prior, extrinsic, posterior, max_iter):
        index = at[ids]
        index = index[index < extrinsic.size]
        extrinsic.reshape(-1)[index] = 0.0
        decided_one = (index == self.flip) & (matrix is self.cc.outer.H)
        posterior.reshape(-1)[index] = np.where(decided_one, -1.0, 1.0)
        return PassResult(np.ones(len(ids), dtype=np.int64), np.ones(len(ids), dtype=bool))


class TestConvergedMeansAConcatenatedCodeword:
    """A block whose columns and rows each end valid has converged only when
    the two passes decide its systematic bits alike; a failed block counts
    as undetected only when it has."""

    @pytest.mark.parametrize("disagree", [True, False], ids=["passes-disagree", "passes-agree"])
    def test_every_component_valid(self, toy_cc, monkeypatch, disagree):
        row_at = toy_cc.pass_tables[1]
        flip = int(row_at[2, 3]) if disagree else -1  # source bit (2, 3) of the row pass
        monkeypatch.setattr(concat_mod, "_decode_batch", _ValidStub(toy_cc, flip))
        res = ci.concat_decode(toy_cc, np.zeros((12, 12)), ci.Schedule())
        assert res.column_valid.all() and res.row_valid.all() and res.pass_validity == ((12, 8),)
        assert res.converged is not disagree
        assert res.source_bits.sum() == disagree and res.source_bits[2, 3] == disagree

        system = bench.ConcatSystem(toy_cc, ci.Schedule())
        results = bench._run_trials(system, 0, 4, ci.ebno_sigma(3.0, toy_cc.rate), 5)
        assert results[:, 1].all()  # every block fails: its source is not the decision
        assert results[:, 5].tolist() == [int(not disagree)] * 4


def erased_blocks(cc, count, seed):
    """Seeded (source, channel LLRs, joint peeling residual of the source
    bits) of random blocks on erasures: LLR 0.0 for an erased bit, +-20 for
    a known one, at erased fractions 0.2-0.7."""
    rng = np.random.default_rng(seed)
    source_at = cc.pi.forward.reshape(cc.K, cc.N)[:, :cc.K]
    for _ in range(count):
        source = rng.integers(0, 2, (cc.K, cc.K), dtype=np.uint8)
        erased = rng.random((cc.N, cc.N)) < rng.uniform(0.2, 0.7)
        llr = np.where(erased, 0.0, 20.0 - 40.0 * ci.concat_encode(cc, source))
        yield source, llr, concat_peel(cc, erased).ravel()[source_at]


class TestErasurePeeling:
    """``concat_decode`` against joint peeling over both codes: a source bit
    that peeling resolves decodes to its value, and one it leaves erased
    keeps a posterior of exactly 0.0 and reads 0."""

    def test_equals_joint_peeling_when_components_run_every_iteration(self, toy_cc, monkeypatch):
        # with the product's early stop a component stops at its first valid
        # hard decision, where unresolved bits read 0, and passes on an
        # extrinsic its later iterations would have added to; a frozen
        # component never takes in what the other code resolves after it
        monkeypatch.setattr(concat_mod, "_decode_batch",
                            functools.partial(concat_mod.spa.decode_indexed, early_stop=False))
        schedule = ci.Schedule(20, 20, freeze_converged=False)
        stuck = 0
        for source, llr, unresolved in erased_blocks(toy_cc, 150, 23):
            res = ci.concat_decode(toy_cc, llr, schedule)
            assert np.array_equal(res.source_bits, np.where(unresolved, 0, source))
            stuck += unresolved.any()
        assert 0 < stuck < 150  # some blocks peel to the end, some stop short

    @pytest.mark.parametrize("freeze", [True, False], ids=["freeze", "no-freeze"])
    def test_resolves_nothing_peeling_cannot_and_decides_no_bit_wrong(self, toy_cc, freeze):
        schedule = ci.Schedule(20, 20, freeze_converged=freeze)
        for source, llr, unresolved in erased_blocks(toy_cc, 150, 29):
            res = ci.concat_decode(toy_cc, llr, schedule)
            assert not res.source_bits[unresolved].any()
            assert (res.source_bits <= source).all()  # a 1 only where the source has one

    def test_flooding_on_the_joint_matrix_equals_joint_peeling(self, toy_cc):
        # the block as one codeword of the joint matrix, every check of both
        # codes updated each iteration: belief propagation on the joint
        # graph, which leaves unresolved the largest stopping set inside the
        # erasures
        blocks = list(erased_blocks(toy_cc, 150, 23))
        llrs = np.stack([llr.ravel() for _, llr, _ in blocks])
        res = decode_rows(joint_matrix(toy_cc), llrs, None, 400, early_stop=False)
        stuck = 0
        for (source, llr, _), posterior in zip(blocks, res.posterior):
            unresolved = concat_peel(toy_cc, llr == 0.0).ravel()
            assert np.array_equal(posterior == 0.0, unresolved)
            sent = ci.concat_encode(toy_cc, source).ravel()
            assert np.array_equal((posterior < 0.0)[~unresolved], sent[~unresolved])
            stuck += unresolved.any()
        assert 0 < stuck < 150


class TestOrderIndependence:
    def test_column_pass_matches_per_column_decode(self, toy_cc):
        # one outer iteration: the batched column pass must equal decoding
        # each column independently (any execution order gives these values)
        rng = np.random.default_rng(9)
        lch = rng.normal(scale=1.5, size=(12, 12))
        res = ci.concat_decode(toy_cc, lch, ci.Schedule(outer_iters=1, inner_iters=4))
        for c in range(12):
            single = ci.decode(toy_cc.inner, lch[:, c], None, max_iter=4)
            assert single.valid == res.column_valid[c]


RESULT_FIELDS = (
    "source_bits", "converged", "outer_iters_used", "column_valid", "row_valid",
    "pass_validity", "component_decode_calls", "component_iterations",
)
SCHEDULES = (ci.Schedule(), ci.Schedule(freeze_converged=False))
# sha256 of every result field of the corpus below, as the NumPy glue that
# reference_concat_decode keeps gave them; converged compares the two passes'
# decisions since "undetected" came to mean a wrong concatenated codeword
CORPUS_DIGEST = "66a814cdd732e579ea3f1790630c1df45a5ce0cc46fc65b2df12ec33fff6125d"


@pytest.fixture(scope="module")
def corpus(paper_codes_with_histograms, toy_cc):
    """(code, channel LLRs, schedule) triples: the seed-1/seed-2 codes with
    the seed-7 random interleaver and its concat-floor escalation, and the
    toy code, at 2.0, 3.0 and 4.0 dB with freezing on and off.  Some toy
    LLRs are exact zeros of either sign."""
    outer, inner, hist_row, hist_col = paper_codes_with_histograms
    perm0 = ci.random_permutation(128, 181, 7)
    escalated = ci.escalate_design(hist_row, hist_col, perm0, np.random.default_rng(7))
    systems = [(ci.ConcatCode(outer, inner, pi), 3) for pi in (perm0, escalated)]
    systems.append((toy_cc, 6))
    cases = []
    for s, (cc, blocks) in enumerate(systems):
        for ebno in (2.0, 3.0, 4.0):
            sigma = ci.ebno_sigma(ebno, cc.rate)
            for b in range(blocks):
                gen = ci.RngStream(23 + s, int(10 * ebno) + 100 * b).generator()
                source = gen.integers(0, 2, (cc.K, cc.K), dtype=np.uint8)
                tx = ci.concat_encode(cc, source)
                llrs = ci.channel_llr(ci.awgn(ci.modulate(tx), sigma, gen), sigma)
                if cc is toy_cc:
                    llrs[gen.random(llrs.shape) < 0.05] = 0.0
                    llrs[gen.random(llrs.shape) < 0.05] = -0.0
                cases.extend((cc, llrs, schedule) for schedule in SCHEDULES)
    return cases


def digest_of(results) -> str:
    digest = hashlib.sha256()
    for res in results:
        for name in RESULT_FIELDS:
            value = getattr(res, name)
            if isinstance(value, np.ndarray):
                digest.update(f"{name} {value.dtype.str} {value.shape}".encode())
                digest.update(value.tobytes())
            else:
                digest.update(f"{name} {value!r}".encode())
    return digest.hexdigest()


class TestBitIdentity:
    def test_every_field_equals_the_numpy_glue(self, corpus):
        for cc, llrs, schedule in corpus:
            got = ci.concat_decode(cc, llrs, schedule)
            want = reference_concat_decode(cc, llrs, schedule)
            for name in RESULT_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
                else:
                    assert type(a) is type(b) and a == b, name

    def test_corpus_digest(self, corpus):
        results = [ci.concat_decode(cc, llrs, schedule) for cc, llrs, schedule in corpus]
        assert digest_of(results) == CORPUS_DIGEST
