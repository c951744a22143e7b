import numpy as np
import pytest

import concat_ira as ci
from concat_ira.stopping import save_histogram

from oracles import all_bit_patterns, minimal_stopping_sets_containing


def isolated_four_cycle():
    """6 variables; vars 0 and 1 share checks 0 and 1, nothing else touches
    those checks, and the rest of the graph is a separate component."""
    return ci.SparseBinaryMatrix.from_rows(
        4, 6,
        [(0, 1), (0, 1), (2, 3, 4), (3, 4, 5)],
    )


class TestIsStoppingSet:
    def test_full_variable_set_of_min_degree_two_code(self, toy_outer):
        assert ci.is_stopping_set(toy_outer.H, range(12))

    def test_single_variable_seen_once_fails(self, toy_outer):
        # every systematic variable of this code has a check seeing only it
        assert not ci.is_stopping_set(toy_outer.H, {0})

    def test_four_cycle_pair_passes(self):
        assert ci.is_stopping_set(isolated_four_cycle(), {0, 1})

    def test_empty_rejected(self, toy_outer):
        with pytest.raises(ValueError):
            ci.is_stopping_set(toy_outer.H, set())

    def test_matches_exhaustive_definition(self, toy_outer):
        """Agreement with a dense re-implementation over all 2^12 - 1 subsets."""
        dense = toy_outer.H.to_dense().astype(np.int64)
        patterns = all_bit_patterns(12)[1:]
        counts = patterns @ dense.T
        expect = ~(counts == 1).any(axis=1)
        got = np.array(
            [ci.is_stopping_set(toy_outer.H, np.flatnonzero(p)) for p in patterns]
        )
        assert np.array_equal(got, expect)


class TestDetectFrom:
    def test_isolated_four_cycle_is_found_exactly(self):
        m = isolated_four_cycle()
        for start in (0, 1):
            assert ci.detect_from(m, start) == frozenset({0, 1})
        minimal = minimal_stopping_sets_containing(m.to_dense(), 0)
        assert {0, 1} in minimal and all(len(s) >= 2 for s in minimal)

    def test_degree_one_check_forces_full_set(self):
        # chain with a leaf check seeing a single variable
        m = ci.SparseBinaryMatrix.from_rows(3, 3, [(0,), (0, 1), (1, 2)])
        got = ci.detect_from(m, 2)
        assert got == frozenset({0, 1, 2})
        assert not ci.is_stopping_set(m, got)

    def test_every_start_verifies_on_paper_code(self, paper_outer):
        h = paper_outer.H
        for start in range(paper_outer.N):
            found = ci.detect_from(h, start)
            assert start in found
            assert ci.is_stopping_set(h, found)

    def test_union_of_stopping_sets_is_stopping_set(self, paper_outer):
        h = paper_outer.H
        rng = np.random.default_rng(0)
        for _ in range(25):
            a, b = rng.integers(0, paper_outer.N, size=2)
            union = (
                ci.detect_from(h, int(a))
                | ci.detect_from(h, int(b))
            )
            assert ci.is_stopping_set(h, union)


class TestSensitivityHistogram:
    def test_counts_bounded_by_runs(self, paper_outer):
        counts = ci.sensitivity_histogram(paper_outer.H)
        assert counts.dtype == np.int64 and len(counts) == 181
        assert counts.min() >= 1  # every start node is in its own set
        assert counts.max() <= 181

    def test_deterministic(self, toy_outer):
        a = ci.sensitivity_histogram(toy_outer.H)
        b = ci.sensitivity_histogram(toy_outer.H)
        assert np.array_equal(a, b)

    def test_parity_positions_more_sensitive(self, paper_outer):
        # the accumulator chain drags parity neighbors into detected sets
        counts = ci.sensitivity_histogram(paper_outer.H)
        assert counts[128:].mean() > counts[:128].mean()

    def test_member_of_every_set_reaches_runs_bound(self):
        counts = ci.sensitivity_histogram(isolated_four_cycle())
        # vars 3 and 4 belong to both cycles of the second component and to
        # every detected set there; the first component always yields {0, 1}
        assert counts[0] == counts[1]

    def test_upper_bound_attained_on_degenerate_graph(self):
        # two variables sharing both checks: every detection returns both
        m = ci.SparseBinaryMatrix.from_rows(2, 2, [(0, 1), (0, 1)])
        counts = ci.sensitivity_histogram(m)
        assert counts.tolist() == [2, 2] and len(counts) == 2


class TestSelectSensitive:
    def test_zero_takes_nothing(self):
        counts = np.array([5, 9, 9, 1])
        assert ci.select_sensitive(counts, 0) == []

    def test_tie_breaks_to_lower_index(self):
        counts = np.array([5, 9, 9, 1])
        assert ci.select_sensitive(counts, 2) == [1, 2]

    def test_restriction_applies_before_ranking(self):
        counts = np.array([5, 9, 9, 1])
        assert ci.select_sensitive(counts[:2], 2) == [1, 0]

    def test_truncates_to_available(self):
        counts = np.array([5, 9])
        assert ci.select_sensitive(counts, 99) == [1, 0]


class TestHistogramCsv:
    def test_csv_shape(self, toy_outer, tmp_path):
        counts = ci.sensitivity_histogram(toy_outer.H)
        path = tmp_path / "hist.csv"
        save_histogram(counts, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "index,count"
        assert len(lines) == 13
