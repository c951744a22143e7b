import numpy as np
import pytest

import concat_ira as ci
from concat_ira.stopping import save_histogram

from oracles import all_bit_patterns, minimal_stopping_sets_containing


def isolated_four_cycle_graph():
    """6 variables; vars 0 and 1 share checks 0 and 1, nothing else touches
    those checks, and the rest of the graph is a separate component."""
    m = ci.SparseBinaryMatrix.from_rows(
        4, 6,
        [(0, 1), (0, 1), (2, 3, 4), (3, 4, 5)],
    )
    return ci.TannerGraph.from_matrix(m), m


class TestIsStoppingSet:
    def test_full_variable_set_of_min_degree_two_code(self, toy_outer):
        graph = toy_outer.graph
        assert ci.is_stopping_set(graph, range(12))

    def test_single_variable_seen_once_fails(self, toy_outer):
        # every systematic variable of this code has a check seeing only it
        assert not ci.is_stopping_set(toy_outer.graph, {0})

    def test_four_cycle_pair_passes(self):
        graph, _ = isolated_four_cycle_graph()
        assert ci.is_stopping_set(graph, {0, 1})

    def test_empty_rejected(self, toy_outer):
        with pytest.raises(ValueError):
            ci.is_stopping_set(toy_outer.graph, set())

    def test_matches_exhaustive_definition(self, toy_outer):
        """Agreement with a dense re-implementation over all 2^12 - 1 subsets."""
        graph = toy_outer.graph
        dense = toy_outer.H.to_dense().astype(np.int64)
        patterns = all_bit_patterns(12)[1:]
        counts = patterns @ dense.T
        expect = ~(counts == 1).any(axis=1)
        got = np.array(
            [ci.is_stopping_set(graph, np.flatnonzero(p)) for p in patterns]
        )
        assert np.array_equal(got, expect)


class TestDetectFrom:
    def test_isolated_four_cycle_is_found_exactly(self):
        graph, m = isolated_four_cycle_graph()
        for start in (0, 1):
            assert ci.detect_from(graph, start) == frozenset({0, 1})
        minimal = minimal_stopping_sets_containing(m.to_dense(), 0)
        assert {0, 1} in minimal and all(len(s) >= 2 for s in minimal)

    def test_degree_one_check_forces_full_set(self):
        # chain with a leaf check seeing a single variable
        m = ci.SparseBinaryMatrix.from_rows(3, 3, [(0,), (0, 1), (1, 2)])
        graph = ci.TannerGraph.from_matrix(m)
        got = ci.detect_from(graph, 2)
        assert got == frozenset({0, 1, 2})
        assert not ci.is_stopping_set(graph, got)

    def test_every_start_verifies_on_paper_code(self, paper_outer):
        graph = paper_outer.graph
        for start in range(paper_outer.N):
            found = ci.detect_from(graph, start)
            assert start in found
            assert ci.is_stopping_set(graph, found)

    def test_union_of_stopping_sets_is_stopping_set(self, paper_outer):
        graph = paper_outer.graph
        rng = np.random.default_rng(0)
        for _ in range(25):
            a, b = rng.integers(0, paper_outer.N, size=2)
            union = (
                ci.detect_from(graph, int(a))
                | ci.detect_from(graph, int(b))
            )
            assert ci.is_stopping_set(graph, union)


class TestSensitivityHistogram:
    def test_counts_bounded_by_runs(self, paper_outer):
        hist = ci.sensitivity_histogram(paper_outer.graph)
        assert hist.runs == 181
        counts = hist.as_array()
        assert counts.min() >= 1  # every start node is in its own set
        assert counts.max() <= 181

    def test_deterministic(self, toy_outer):
        a = ci.sensitivity_histogram(toy_outer.graph)
        b = ci.sensitivity_histogram(toy_outer.graph)
        assert a == b

    def test_parity_positions_more_sensitive(self, paper_outer):
        # the accumulator chain drags parity neighbors into detected sets
        counts = ci.sensitivity_histogram(paper_outer.graph).as_array()
        assert counts[128:].mean() > counts[:128].mean()

    def test_member_of_every_set_reaches_runs_bound(self):
        graph, _ = isolated_four_cycle_graph()
        hist = ci.sensitivity_histogram(graph)
        # vars 3 and 4 belong to both cycles of the second component and to
        # every detected set there; the first component always yields {0, 1}
        assert hist.counts[0] == hist.counts[1]

    def test_upper_bound_attained_on_degenerate_graph(self):
        # two variables sharing both checks: every detection returns both
        m = ci.SparseBinaryMatrix.from_rows(2, 2, [(0, 1), (0, 1)])
        hist = ci.sensitivity_histogram(ci.TannerGraph.from_matrix(m))
        assert hist.counts == (2, 2) and hist.runs == 2


class TestSelectSensitive:
    def test_zero_takes_nothing(self):
        hist = ci.SensitivityHistogram((5, 9, 9, 1), runs=10)
        assert ci.select_sensitive(hist, 0) == []

    def test_tie_breaks_to_lower_index(self):
        hist = ci.SensitivityHistogram((5, 9, 9, 1), runs=10)
        assert ci.select_sensitive(hist, 2) == [1, 2]

    def test_restriction_applies_before_ranking(self):
        hist = ci.SensitivityHistogram((5, 9, 9, 1), runs=10)
        assert ci.select_sensitive(hist, 2, restrict_below=2) == [1, 0]

    def test_truncates_to_available(self):
        hist = ci.SensitivityHistogram((5, 9), runs=10)
        assert ci.select_sensitive(hist, 99) == [1, 0]


class TestHistogramCsv:
    def test_csv_shape(self, toy_outer, tmp_path):
        hist = ci.sensitivity_histogram(toy_outer.graph)
        path = tmp_path / "hist.csv"
        save_histogram(hist, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "index,count"
        assert len(lines) == 13
