import re

import numpy as np
import pytest

import concat_ira as ci
from concat_ira import interleave
from concat_ira.interleave import InterleaverInfeasible, PermutationFileError
from oracles import invert_permutation, reference_design, reference_escalate


class TestRandomPermutation:
    def test_one_by_one_is_identity(self):
        perm = ci.random_permutation(1, 1, 0)
        assert perm.forward.tolist() == [0]

    def test_deterministic_in_seed(self):
        a = ci.random_permutation(4, 6, 9)
        b = ci.random_permutation(4, 6, 9)
        assert np.array_equal(a.forward, b.forward)

    def test_uniform_over_two_by_two(self):
        """All 24 bijections of a 2x2 block occur near-equally over 1e5 seeds."""
        counts: dict[tuple, int] = {}
        for seed in range(100_000):
            key = tuple(ci.random_permutation(2, 2, seed).forward.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        expected = 100_000 / 24
        sd = np.sqrt(100_000 * (1 / 24) * (23 / 24))
        for got in counts.values():
            assert abs(got - expected) < 3 * sd

    def test_forward_is_readonly(self):
        perm = ci.random_permutation(3, 3, 0)
        with pytest.raises(ValueError):
            perm.forward[0] = 5

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            ci.BlockPermutation(K=2, N=2, forward=np.array([0, 0, 1, 2]), seed=0)


class TestApplyInvert:
    def test_identity_leaves_block_alone(self):
        perm = ci.BlockPermutation(K=2, N=3, forward=np.arange(6), seed=0)
        block = np.arange(6).reshape(2, 3)
        assert np.array_equal(perm.apply(block), block)

    def test_apply_then_inverse_restores(self):
        rng = np.random.default_rng(1)
        perm = ci.random_permutation(5, 7, 3)
        block = rng.normal(size=(5, 7))
        assert np.array_equal(invert_permutation(perm).apply(perm.apply(block)), block)

    def test_non_contiguous_input(self):
        # a transposed / sliced view must permute by value, not by memory order
        perm = ci.random_permutation(4, 4, 2)
        base = np.arange(32).reshape(4, 8)
        view = base[:, ::2]
        expect = perm.apply(view.copy())
        assert np.array_equal(perm.apply(view), expect)

    def test_moves_by_flat_position(self):
        perm = ci.BlockPermutation(K=1, N=3, forward=np.array([2, 0, 1]), seed=0)
        out = perm.apply(np.array([[10, 20, 30]]))
        assert out.tolist() == [[20, 30, 10]]

    def test_shape_mismatch_rejected(self):
        perm = ci.random_permutation(2, 3, 0)
        with pytest.raises(ValueError):
            perm.apply(np.zeros((3, 2)))


class TestCountBadMappings:
    def test_empty_sets_count_zero(self):
        perm = ci.random_permutation(4, 5, 0)
        sets = ci.SensitiveSets(frozenset(), frozenset())
        assert ci.count_bad_mappings(perm, sets).count == 0

    def test_identity_hand_worked(self):
        # K=N=2, identity: only (0,0) sits in sensitive column 0 and lands in
        # sensitive row 0; (1,0) lands in row 1 which is not sensitive
        perm = ci.BlockPermutation(K=2, N=2, forward=np.arange(4), seed=0)
        sets = ci.SensitiveSets(frozenset({0}), frozenset({0}))
        got = ci.count_bad_mappings(perm, sets)
        assert got.count == 1
        assert got.positions == [(0, 0)]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_position_by_position_scan(self, seed):
        rng = np.random.default_rng(seed)
        perm = ci.random_permutation(9, 13, seed)
        sets = ci.SensitiveSets(
            frozenset(rng.choice(13, size=4, replace=False).tolist()),
            frozenset(rng.choice(9, size=3, replace=False).tolist()),
        )
        want = [
            (r, c)
            for r in range(9)
            for c in range(13)
            if c in sets.row_code_nodes
            and int(perm.forward[r * 13 + c]) // 13 in sets.col_code_nodes
        ]
        got = ci.count_bad_mappings(perm, sets)
        assert got == (len(want), want)
        assert all(type(i) is int for pos in got.positions for i in pos)

    def test_out_of_range_sets_rejected(self):
        perm = ci.random_permutation(2, 2, 0)
        with pytest.raises(ValueError):
            ci.count_bad_mappings(perm, ci.SensitiveSets(frozenset({5}), frozenset()))
        with pytest.raises(ValueError):
            ci.count_bad_mappings(perm, ci.SensitiveSets(frozenset(), frozenset({1, 9})))


class TestGeneratorContract:
    """`design` draws every swap partner of a level in one call with bounds
    L, L-1, ..., L-m+1.  That is only the same repair as m scalar draws while
    numpy keeps the array draw and the sequential scalar draws identical."""

    @pytest.mark.parametrize(
        "highs",
        [[7, 6, 5, 4, 3, 2, 1], list(range(23_000, 17_000, -1)),
         [2**40 + 5, 2**40 + 4, 2**33, 2**32 + 1, 3], []],
    )
    def test_array_bounds_draw_as_scalar_calls(self, highs):
        one, many = np.random.default_rng(12), np.random.default_rng(12)
        drawn = one.integers(0, np.array(highs, dtype=np.int64))
        assert drawn.tolist() == [int(many.integers(h)) for h in highs]
        assert one.bit_generator.state == many.bit_generator.state

    def test_empty_bounds_leave_the_state(self):
        rng = np.random.default_rng(12)
        rng.integers(5)  # leave a buffered half-word behind
        before = rng.bit_generator.state
        assert rng.integers(0, np.arange(0)).size == 0
        assert rng.bit_generator.state == before


class TestDesign:
    def test_empty_sets_returns_unchanged(self):
        perm = ci.random_permutation(4, 5, 1)
        sets = ci.SensitiveSets(frozenset(), frozenset())
        out = ci.design(perm, sets, np.random.default_rng(0))
        assert np.array_equal(out.forward, perm.forward)
        assert out.repairs == 0

    def test_counting_bound_infeasible(self):
        # K=N=4 with all 4 columns and 3 rows sensitive: 16 > (4-3)*4 = 4
        perm = ci.random_permutation(4, 4, 2)
        sets = ci.SensitiveSets(frozenset({0, 1, 2, 3}), frozenset({1, 2, 3}))
        with pytest.raises(InterleaverInfeasible) as exc:
            ci.design(perm, sets, np.random.default_rng(0))
        assert exc.value.reason == "counting_bound"

    def test_paper_shape_top_ten(self, paper_codes_with_histograms):
        outer, inner, hist_row, hist_col = paper_codes_with_histograms
        perm0 = ci.random_permutation(128, 181, 7)
        sets = ci.SensitiveSets(
            frozenset(ci.select_sensitive(hist_row, 10)),
            frozenset(ci.select_sensitive(hist_col[:128], 10)),
        )
        before = ci.count_bad_mappings(perm0, sets).count
        designed = ci.design(perm0, sets, np.random.default_rng(3))
        assert ci.count_bad_mappings(designed, sets).count == 0
        assert designed.repairs == before  # each swap fixed exactly one offender
        assert np.array_equal(np.sort(designed.forward), np.arange(128 * 181))

    def test_designed_indicator_mask_property(self, paper_codes_with_histograms):
        outer, inner, hist_row, hist_col = paper_codes_with_histograms
        perm0 = ci.random_permutation(128, 181, 7)
        sets = ci.SensitiveSets(
            frozenset(ci.select_sensitive(hist_row, 8)),
            frozenset(ci.select_sensitive(hist_col[:128], 8)),
        )
        designed = ci.design(perm0, sets, np.random.default_rng(4))
        lit = np.zeros((128, 181))
        lit[:, sorted(sets.row_code_nodes)] = 1.0
        moved = designed.apply(lit)
        assert not moved[sorted(sets.col_code_nodes), :].any()

    def test_deterministic_given_seeds(self, paper_codes_with_histograms):
        _, _, hist_row, hist_col = paper_codes_with_histograms
        perm0 = ci.random_permutation(128, 181, 7)
        sets = ci.SensitiveSets(
            frozenset(ci.select_sensitive(hist_row, 6)),
            frozenset(ci.select_sensitive(hist_col[:128], 6)),
        )
        a = ci.design(perm0, sets, np.random.default_rng(5))
        b = ci.design(perm0, sets, np.random.default_rng(5))
        assert np.array_equal(a.forward, b.forward)


class TestEscalateDesign:
    def test_returns_last_feasible_level(self):
        # counting bound: 6t <= (6 - t) * 8 fails first at t = 4
        k, n = 6, 8
        hist_row = np.arange(n, 0, -1)
        hist_col = np.arange(n, 0, -1)
        perm0 = ci.random_permutation(k, n, 1)
        out = ci.escalate_design(hist_row, hist_col, perm0, np.random.default_rng(0))
        assert out.design_t == 3
        # cross-check: level 3 designs fine, level 4 is infeasible
        sets4 = ci.SensitiveSets(
            frozenset(ci.select_sensitive(hist_row, 4)),
            frozenset(ci.select_sensitive(hist_col[:k], 4)),
        )
        with pytest.raises(InterleaverInfeasible):
            ci.design(perm0, sets4, np.random.default_rng(0))

    def test_result_has_zero_bad_mappings(self, paper_codes_with_histograms):
        _, _, hist_row, hist_col = paper_codes_with_histograms
        perm0 = ci.random_permutation(128, 181, 7)
        out = ci.escalate_design(hist_row, hist_col, perm0, np.random.default_rng(1))
        assert out.design_t >= 1
        assert out.sets is not None
        assert ci.count_bad_mappings(out, out.sets).count == 0

    @pytest.mark.parametrize("which", ["row", "col"])
    @pytest.mark.parametrize("length", [20, 182])
    def test_histogram_of_wrong_length_refused(self, which, length):
        perm0 = ci.random_permutation(128, 181, 7)
        good, bad = np.ones(181, dtype=np.int64), np.ones(length, dtype=np.int64)
        hists = (bad, good) if which == "row" else (good, bad)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"has {length} entries.* needs 181"):
            ci.escalate_design(*hists, perm0, rng)
        assert rng.bit_generator.state == before

    def test_zero_histograms_still_return_a_permutation(self):
        k, n = 4, 6
        hist = np.zeros(n, dtype=np.int64)
        perm0 = ci.random_permutation(k, n, 2)
        out = ci.escalate_design(hist, hist, perm0, np.random.default_rng(2))
        assert np.array_equal(np.sort(out.forward), np.arange(k * n))


class TestPermutationFile:
    def test_round_trip(self, tmp_path):
        perm = ci.random_permutation(3, 5, 11)
        path = tmp_path / "pi.perm"
        ci.save_permutation(perm, path)
        again = ci.load_permutation(path)
        assert np.array_equal(again.forward, perm.forward)
        assert (again.K, again.N, again.seed, again.design_t) == (3, 5, 11, 0)

    def test_header_line(self, tmp_path):
        perm = ci.random_permutation(2, 2, 3)
        path = tmp_path / "pi.perm"
        ci.save_permutation(perm, path)
        assert path.read_text().splitlines()[0] == "2 2 3 0"

    def test_corrupt_mapping_rejected(self, tmp_path):
        perm = ci.random_permutation(2, 2, 3)
        path = tmp_path / "pi.perm"
        ci.save_permutation(perm, path)
        lines = path.read_text().splitlines()
        lines[1] = "0 0"
        lines[2] = "1 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PermutationFileError):
            ci.load_permutation(path)

    def test_wrong_line_count_rejected(self, tmp_path):
        path = tmp_path / "pi.perm"
        path.write_text("2 2 0 0\n0 0\n1 1\n")
        with pytest.raises(PermutationFileError, match="mapping lines"):
            ci.load_permutation(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            ("2 2 0\n0 1\n1 0\n2 3\n3 2\n", "line 1: expected header 'K N seed t' as saved"),
            ("2 2 0 x\n0 1\n1 0\n2 3\n3 2\n", "line 1: expected header 'K N seed t' as saved"),
            ("2 2 0 0\n0 1\n1 0\n2 3\n3 2 9\n", "line 5: expected 'src dst'"),
            ("2 2 0 0\n0 1\n\n2 3\n3 2\n", "line 3: expected 'src dst'"),
            ("2 2 0 0\n0 1\n1 x\n2 3\n3 2\n", "line 3: expected 'src dst'"),
            ("2 2 0 0\n0 1\n1 1.0\n2 3\n3 2\n", "line 3: expected 'src dst'"),
            ("2 2 0 0\n0 1\n1 4\n2 3\n3 2\n", "line 3: destination 4 out of range 0..3"),
            ("2 2 0 0\n0 1\n-1 0\n2 3\n3 2\n", "line 3: expected 'src dst'"),
            ("2 2 0 0\n0 1\n1 99999999999999999999\n2 3\n3 2\n", "line 3: expected 'src dst'"),
            ("2 2 0 0\n0 1\n0 0\n2 3\n3 2\n", "line 3: expected source 1, found 0"),
            ("2 2 0 0\n0 1\n1 0\n2 1\n3 2\n", "forward map is not a bijection"),
            ("0 5 0 0\n", "block shape must be positive"),
            ("-1 -1 3 0\n0 0\n", "block shape must be positive"),
            ("-1 2 0 0\n", "block shape must be positive"),
            ("2 -1 0 0\n0 0\n", "block shape must be positive"),
            ("2 2 -5 -3\n0 1\n1 0\n2 3\n3 2\n", "negative header field seed"),
            ("2 2 5 -1\n0 1\n1 0\n2 3\n3 2\n", "negative header field t"),
            # the first refused line wins, and within a line the source check
            ("2 2 0 0\n0 1\n0 0\n2 x\n3\n", "line 3: expected source 1, found 0"),
            ("2 2 0 0\n0 1\nx 0\n2 9\n3\n", "line 3: expected 'src dst'"),
            ("2 2 0 0\n0 1\n0 7\n2 3\n3 2\n", "line 3: expected source 1, found 0"),
            ("2 2 0 0\n0 1\n1 0\n2 3\n1 2\n", "line 5: expected source 3, found 1"),
            ("2 2 0 0\n0 1\n1 x\n2 3\n0 2\n", "line 3: expected 'src dst'"),
        ],
    )
    def test_each_refusal_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "pi.perm"
        path.write_bytes(text.encode())
        with pytest.raises(PermutationFileError, match=re.escape(f"{path}: {message}")):
            ci.load_permutation(path)

    @pytest.mark.parametrize(
        "header",
        [
            "+2\t2 0 1_0\r",  # int() and split() would read K=2, N=2, seed 0, t=10
            "2\t2 0 0", "2 2 0 0\r", "2 2 0 1_0", "+2 2 0 0", "02 2 0 0", "2 2 00 0",
            "2 2 -0 0", "2  2 0 0", " 2 2 0 0", "2 2 0 0 ", "2 2 0 0 0",
        ],
    )
    def test_header_in_any_other_form_is_refused_at_line_1(self, tmp_path, header):
        path = tmp_path / "pi.perm"
        path.write_bytes(f"{header}\n0 1\n1 0\n2 3\n3 2\n".encode())
        with pytest.raises(PermutationFileError, match=re.escape(f"{path}: line 1: ")):
            ci.load_permutation(path)

    @pytest.mark.parametrize("k, n, seed, t", [(1, 1, 0, 0), (2, 3, 10, 7), (3, 5, 2**40, 120)])
    def test_saved_headers_load_unchanged(self, tmp_path, k, n, seed, t):
        perm = ci.BlockPermutation(K=k, N=n, forward=np.arange(k * n)[::-1], seed=seed, design_t=t)
        path = tmp_path / "pi.perm"
        ci.save_permutation(perm, path)
        again = ci.load_permutation(path)
        assert (again.K, again.N, again.seed, again.design_t) == (k, n, seed, t)
        assert np.array_equal(again.forward, perm.forward)

    def test_paper_size_round_trip(self, tmp_path):
        perm = ci.random_permutation(128, 181, 7)
        path = tmp_path / "pi.perm"
        ci.save_permutation(perm, path)
        assert np.array_equal(ci.load_permutation(path).forward, perm.forward)

    def test_concat_floor_design_round_trip(self, tmp_path, paper_codes_with_histograms):
        _, _, hist_row, hist_col = paper_codes_with_histograms
        perm0 = ci.random_permutation(128, 181, 7)
        perm = ci.escalate_design(hist_row, hist_col, perm0, np.random.default_rng(7))
        path = tmp_path / "pi.perm"
        ci.save_permutation(perm, path)
        again = ci.load_permutation(path)
        assert np.array_equal(again.forward, perm.forward)
        assert (again.seed, again.design_t) == (7, 74)

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            ("0\t1\n1 0\n2 3\n3 2\n", "line 2: expected 'src dst'"),
            ("0 +1\n1 0\n2 3\n3 2\n", "line 2: expected 'src dst'"),
            ("0 01\n1 0\n2 3\n3 2\n", "line 2: expected 'src dst'"),
            ("0 0000000000000000001\n1 0\n2 3\n3 2\n", "line 2: expected 'src dst'"),
            ("0 1\n1 0\n2 3\n3 1000000000000000000\n", "line 5: expected 'src dst'"),
            ("3 2\n2 3\n1 0\n0 1\n", "line 2: expected source 0, found 3"),
            ("0 1 # first\n1 0\n2 3\n3 2\n", "line 2: expected 'src dst'"),
            ("0 1#\n1 0\n2 3\n3 2\n", "line 2: expected 'src dst'"),
            ("0 1_0\n1 0\n2 3\n3 2\n", "line 2: expected 'src dst'"),
            ("0 1\n1 0 2\n3\n3 2\n", "line 3: expected 'src dst'"),
            ("0 1\n1 0\n2 3\n3 2\n\n", "expected 4 mapping lines, found 5"),
            ("0 1\n1 0\n2 3\n3 1\n", "forward map is not a bijection"),
            ("0 1\r\n1 0\r\n2 3\r\n3 2\r\n", "line 2: expected 'src dst'"),
            ("0 1\n1 0\n\n3 2\n", "line 4: expected 'src dst'"),
            (" 0 1\n1 0\n2 3\n3 2\n", "line 2: expected 'src dst'"),
            ("0 1\n1 0 \n2 3\n3 2\n", "line 3: expected 'src dst'"),
            ("0 1\n1 0\n2 3\n2 2\n", "line 5: expected source 3, found 2"),
            ("4 1\n1 0\n2 3\n3 2\n", "line 2: expected source 0, found 4"),
            ("0 1\n1 0\n2 4\n3 2\n", "line 4: destination 4 out of range 0..3"),
            ("0 1\n1 0\n2 3\n3 2", "expected 4 mapping lines, found 3"),
            ("0 1\n1 0\n2 3\n3 2\n4 4", "line 6: expected 'src dst'"),
        ],
    )
    def test_forms_a_bulk_parse_could_misread(self, tmp_path, pairs, expected):
        """Every form but the saved one is refused, naming its first line."""
        path = tmp_path / "pi.perm"
        path.write_bytes(b"2 2 0 0\n" + pairs.encode())
        with pytest.raises(PermutationFileError, match=re.escape(f"{path}: {expected}")):
            ci.load_permutation(path)


def _paper_sets(hist_row, hist_col, t):
    return ci.SensitiveSets(
        frozenset(ci.select_sensitive(hist_row, t)),
        frozenset(ci.select_sensitive(hist_col[:128], t)),
    )


class TestEscalateMatchesReference:
    """`escalate_design` plans every level and applies only the last;
    `reference_escalate` repairs in full at every level."""

    @pytest.mark.parametrize("seed", range(6))
    def test_toy_codes(self, toy_outer, toy_inner, seed):
        hist_row = ci.sensitivity_histogram(toy_outer.H)
        hist_col = ci.sensitivity_histogram(toy_inner.H)
        perm0 = ci.random_permutation(8, 12, 5 + seed)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = ci.escalate_design(hist_row, hist_col, perm0, rng)
        want = reference_escalate(hist_row, hist_col, perm0, ref_rng)
        assert got.design_t == 4  # 8t <= (8 - t) * 12 first fails at t = 5
        assert np.array_equal(got.forward, want.forward)
        assert (got.repairs, got.sets, got.design_t, got.seed) == (
            want.repairs, want.sets, want.design_t, want.seed,
        )
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(12))
    def test_random_shapes_and_histograms(self, seed):
        """Small blocks of either orientation with tied histogram counts."""
        rng = np.random.default_rng(100 + seed)
        k, n = (int(x) for x in rng.integers(1, 9, size=2))
        hist_row = rng.integers(0, 4, size=n)
        hist_col = rng.integers(0, 4, size=n)
        perm0 = ci.random_permutation(k, n, seed)
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = ci.escalate_design(hist_row, hist_col, perm0, got_rng)
        want = reference_escalate(hist_row, hist_col, perm0, ref_rng)
        assert np.array_equal(got.forward, want.forward)
        assert (got.repairs, got.sets, got.design_t) == (want.repairs, want.sets, want.design_t)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_level_one_infeasible_returns_perm0(self):
        # K = 1: one sensitive row leaves no safe slot for the sensitive column
        hist = np.arange(5, 0, -1)
        perm0 = ci.random_permutation(1, 5, 3)
        for escalate in (ci.escalate_design, reference_escalate):
            rng = np.random.default_rng(4)
            rng.integers(5)  # leave a buffered half-word behind
            before = rng.bit_generator.state
            assert escalate(hist, hist, perm0, rng) is perm0
            assert rng.bit_generator.state == before


class TestLandingTable:
    """Every level is planned from one (N, K) table of source positions by
    source column and image row; its sums must be the mask counts."""

    @pytest.mark.parametrize("seed", range(4))
    def test_offenders_and_pool_match_the_masks(self, seed):
        rng = np.random.default_rng(seed)
        k, n = 9, 13
        perm0 = ci.random_permutation(k, n, seed)
        table = interleave._landing_table(perm0)
        assert table.shape == (n, k) and table.sum() == k * n
        assert table.sum(axis=1).tolist() == [k] * n  # each column holds k sources
        assert table.sum(axis=0).tolist() == [n] * k  # each row takes n images
        for t in range(5):
            sets = ci.SensitiveSets(
                frozenset(rng.choice(n, size=t, replace=False).tolist()),
                frozenset(rng.choice(k, size=t, replace=False).tolist()),
            )
            src, rows = interleave._sensitivity_tables(sets, k, n)
            lands = rows[perm0.forward // n]
            offenders = np.count_nonzero(src & lands)
            pool = np.count_nonzero(~(src | lands))
            plan_rng, mask_rng = np.random.default_rng(t), np.random.default_rng(t)
            plan = interleave._plan_repair(table, sets, plan_rng)
            want = mask_rng.integers(0, np.arange(pool, pool - offenders, -1))
            assert offenders == ci.count_bad_mappings(perm0, sets).count
            assert plan.draws.tolist() == want.tolist()
            assert plan_rng.bit_generator.state == mask_rng.bit_generator.state


class TestDesignMatchesReference:
    """`design` keeps its legal-partner pool incrementally; the rescanning
    `reference_design` must give the same permutation from the same draws."""

    @staticmethod
    def assert_same(perm0, sets, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = ci.design(perm0, sets, rng)
        want = reference_design(perm0, sets, ref_rng)
        assert np.array_equal(got.forward, want.forward)
        assert (got.repairs, got.sets, got.design_t, got.seed) == (
            want.repairs, want.sets, want.design_t, want.seed,
        )
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("t", [1, 6, 25, 50, 74])
    def test_paper_shape(self, paper_codes_with_histograms, t, seed):
        _, _, hist_row, hist_col = paper_codes_with_histograms
        perm0 = ci.random_permutation(128, 181, 7)
        self.assert_same(perm0, _paper_sets(hist_row, hist_col, t), seed)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_toy_shape(self, toy_outer, toy_inner, t, seed):
        hist_row = ci.sensitivity_histogram(toy_outer.H)
        hist_col = ci.sensitivity_histogram(toy_inner.H)
        sets = ci.SensitiveSets(
            frozenset(ci.select_sensitive(hist_row, t)),
            frozenset(ci.select_sensitive(hist_col[:8], t)),
        )
        self.assert_same(ci.random_permutation(8, 12, 5 + seed), sets, seed)

    def test_counting_bound_refusal(self, paper_codes_with_histograms):
        _, _, hist_row, hist_col = paper_codes_with_histograms
        perm0 = ci.random_permutation(128, 181, 7)
        sets = _paper_sets(hist_row, hist_col, 75)
        for repair in (ci.design, reference_design):
            rng = np.random.default_rng(7)
            before = rng.bit_generator.state
            with pytest.raises(InterleaverInfeasible) as exc:
                repair(perm0, sets, rng)
            assert exc.value.reason == "counting_bound"
            assert rng.bit_generator.state == before

    def test_benchmark_case_escalates_as_the_reference(
        self, paper_codes_with_histograms, monkeypatch
    ):
        """The concat-floor set-up: seed-1/seed-2 codes, the seed-7 block and
        generator.  Escalation plans every level and applies the last; that
        level is replayed through the reference from the generator state its
        plan started from."""
        _, _, hist_row, hist_col = paper_codes_with_histograms
        perm0 = ci.random_permutation(128, 181, 7)
        calls = []
        plan_repair = interleave._plan_repair

        def recording_plan(table, sets, rng):
            calls.append((sets, rng.bit_generator.state))
            return plan_repair(table, sets, rng)

        monkeypatch.setattr(interleave, "_plan_repair", recording_plan)
        rng = np.random.default_rng(7)
        out = ci.escalate_design(hist_row, hist_col, perm0, rng)
        assert (out.design_t, out.repairs) == (74, 5488)
        assert len(calls) == 75  # level 75 fails the counting bound

        sets, state = calls[73]
        assert sets == out.sets
        ref_rng = np.random.default_rng()
        ref_rng.bit_generator.state = state
        want = reference_design(perm0, sets, ref_rng)
        assert np.array_equal(out.forward, want.forward)
        assert out.repairs == want.repairs
        assert ref_rng.bit_generator.state == calls[74][1] == rng.bit_generator.state
