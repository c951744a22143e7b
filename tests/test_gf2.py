import dataclasses
import pickle

import numpy as np
import pytest

import concat_ira as ci
from concat_ira.gf2 import AlistError

from oracles import brute_force_cycles_through, enumerate_short_cycles, tanner_graph


def dual_diagonal_3x3():
    return ci.SparseBinaryMatrix.from_rows(3, 3, [(0,), (0, 1), (1, 2)])


def random_matrix(rng, n_rows, n_cols, density=0.3):
    rows = []
    for _ in range(n_rows):
        row = [c for c in range(n_cols) if rng.random() < density]
        rows.append(row)
    return ci.SparseBinaryMatrix.from_rows(n_rows, n_cols, rows)


class TestSparseBinaryMatrix:
    def test_cross_consistency_rebuilt_from_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_matrix(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
            again = ci.SparseBinaryMatrix.from_rows(m.n_rows, m.n_cols, m.row_support)
            assert again.col_support == m.col_support

    def test_rows_are_derived_from_the_one_stored_table(self):
        m = ci.SparseBinaryMatrix(2, 3, [(1, 0), (), (1,)])
        assert [f.name for f in dataclasses.fields(m)] == ["n_rows", "n_cols", "col_support"]
        assert m.col_support == ((0, 1), (), (1,))
        assert m.row_support == ((0,), (0, 2))
        assert m.row_support is m.row_support

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ci.SparseBinaryMatrix.from_rows(1, 3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ci.SparseBinaryMatrix.from_rows(1, 3, [(3,)])

    def test_equal_matrices_hash_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_matrix(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
            again = ci.SparseBinaryMatrix(m.n_rows, m.n_cols, m.col_support)
            assert again is not m and again == m and hash(again) == hash(m)
            assert {m: 1}[again] == 1
        a = ci.SparseBinaryMatrix.from_rows(2, 3, [(0, 1), (2,)])
        b = ci.SparseBinaryMatrix.from_rows(2, 3, [(0, 1), (1,)])
        assert a != b and {a: 1}.get(b) is None

    def test_pickle_round_trip_before_and_after_rows_are_read(self):
        # the pool pickles codes, and with them their matrices, to its workers
        m = random_matrix(np.random.default_rng(2), 9, 14, density=0.4)
        fresh = pickle.loads(pickle.dumps(m))
        rows = m.row_support
        warm = pickle.loads(pickle.dumps(m))
        for again in (fresh, warm):
            assert again == m and hash(again) == hash(m)
            assert again.row_support == rows


class TestAlist:
    def test_round_trip_dual_diagonal(self):
        m = dual_diagonal_3x3()
        again = ci.load_alist(ci.save_alist(m))
        assert again.row_support == m.row_support
        assert again.col_support == m.col_support

    def test_round_trip_corpus(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_matrix(
                rng, int(rng.integers(1, 15)), int(rng.integers(1, 15)),
                density=float(rng.uniform(0.1, 0.6)),
            )
            again = ci.load_alist(ci.save_alist(m))
            assert again.row_support == m.row_support

    def test_save_deterministic(self):
        rng = np.random.default_rng(9)
        m = random_matrix(rng, 53, 181, density=0.05)
        assert ci.save_alist(m) == ci.save_alist(m)

    def test_format_shape(self):
        text = ci.save_alist(dual_diagonal_3x3())
        lines = text.split("\n")
        assert lines[0] == "3 3"
        assert lines[1] == "2 2"  # max column degree, max row degree
        assert lines[2] == "2 2 1"
        assert lines[3] == "1 2 2"
        assert text.endswith("\n") and "\r" not in text

    def test_cross_consistency_error_names_line(self):
        # column list says row 2 holds column 0, but row 2's own list omits it
        text = "\n".join(
            ["3 3", "2 2", "2 2 1", "1 2 2",
             "1 2", "2 3", "3 0",
             "1 0", "1 2", "2 3"]  # row 3 (line 10) should be "2 3"
        )
        bad = text.replace("2 3\n3 0", "2 3\n2 0")  # column 2 now names row 2
        with pytest.raises(AlistError):
            ci.load_alist(bad)

    def test_degree_line_mismatch_rejected(self):
        m = dual_diagonal_3x3()
        lines = ci.save_alist(m).splitlines()
        lines[2] = "2 2 2"  # wrong degree for column 2
        with pytest.raises(AlistError, match="line"):
            ci.load_alist("\n".join(lines))

    def test_truncated_rejected(self):
        with pytest.raises(AlistError):
            ci.load_alist("3 3\n2 2\n")

    def test_non_integer_rejected(self):
        with pytest.raises(AlistError, match="line 1"):
            ci.load_alist("x 3\n1 1\n1 1 1\n3\n")


ALTERATIONS = {
    "trailing-space": lambda line: line + " ",
    "plus-sign": lambda line: "+" + line,
    "leading-zero": lambda line: "0" + line,
    "double-space": lambda line: line.replace(" ", "  ", 1),
    "carriage-return": lambda line: line + "\r",
    "reversed": lambda line: " ".join(line.split()[::-1]),
    "incremented": lambda line: " ".join(str(int(t) + 1) for t in line.split()),
}


class TestAlistReadOnlyAsSaved:
    @pytest.mark.parametrize("kind", sorted(ALTERATIONS))
    def test_any_one_altered_line_is_refused_naming_it(self, toy_outer, kind):
        # every line is implied by the others, values and header included;
        # the second matrix has an empty row and two empty columns
        sparse = ci.SparseBinaryMatrix.from_rows(3, 5, [(0, 1), (1, 3), ()])
        for m in (toy_outer.H, sparse):
            lines = ci.save_alist(m).split("\n")
            for i, line in enumerate(lines[:-1]):
                altered = ALTERATIONS[kind](line)
                if altered == line:
                    continue
                text = "\n".join(lines[:i] + [altered] + lines[i + 1:])
                with pytest.raises(AlistError, match=f"^line {i + 1}: ") as refused:
                    ci.load_alist(text)
                assert refused.value.line == i + 1

    def test_missing_final_line_feed_names_the_last_line(self):
        text = ci.save_alist(dual_diagonal_3x3())
        with pytest.raises(AlistError, match="^line 10: "):
            ci.load_alist(text[:-1])

    def test_dimensions_past_the_text_are_refused_without_building(self):
        text = ci.save_alist(dual_diagonal_3x3()).replace("3 3\n", "3 1000000000\n", 1)
        with pytest.raises(AlistError, match="^line 1: "):
            ci.load_alist(text)


class TestCycleEnumeration:
    def test_tree_has_no_cycles(self, tree_matrix):
        graph = tanner_graph(tree_matrix)
        for v in range(tree_matrix.n_cols):
            assert enumerate_short_cycles(graph, v, 8) == []

    def test_two_by_two_all_ones(self):
        m = ci.SparseBinaryMatrix.from_rows(2, 2, [(0, 1), (0, 1)])
        graph = tanner_graph(m)
        for v in (0, 1):
            cycles = enumerate_short_cycles(graph, v, 4)
            assert len(cycles) == 1
            assert set(cycles[0]) == {0, 1}

    def test_matches_edge_subset_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n_rows, n_cols = 3, 4
            m = random_matrix(rng, n_rows, n_cols, density=0.5)
            if sum(map(len, m.col_support)) > 10:
                continue
            graph = tanner_graph(m)
            for v in range(n_cols):
                got = enumerate_short_cycles(graph, v, 8)
                expect = brute_force_cycles_through(
                    list(m.col_support), list(m.row_support), v, 8
                )
                assert len(got) == len(expect)

    def test_requires_even_length(self):
        graph = tanner_graph(dual_diagonal_3x3())
        with pytest.raises(ValueError):
            enumerate_short_cycles(graph, 0, 5)

