import numpy as np
import pytest

import concat_ira as ci

# loose conditioning so tiny dense codes are constructible
TOY_ACE = ci.AceParams(d_ace=2, eta=0, max_resample=50)


@pytest.fixture(scope="session")
def paper_outer() -> ci.IraCode:
    return ci.build_code(128, 181, seed=1)


@pytest.fixture(scope="session")
def paper_inner() -> ci.IraCode:
    return ci.build_code(128, 181, seed=2)


def build_toy(seed: int, k: int = 8, n: int = 12, check_degree: int = 8) -> ci.IraCode:
    # dense tiny codes cannot honor the minimum-distance screen
    return ci.build_code(
        k, n, check_degree=check_degree, ace=TOY_ACE, seed=seed,
        screen_low_weight=False,
    )


@pytest.fixture(scope="session")
def toy_outer() -> ci.IraCode:
    return build_toy(11)


@pytest.fixture(scope="session")
def toy_inner() -> ci.IraCode:
    return build_toy(12)


@pytest.fixture(scope="session")
def toy_cc(toy_outer, toy_inner) -> ci.ConcatCode:
    return ci.ConcatCode(toy_outer, toy_inner, ci.random_permutation(8, 12, 5))


@pytest.fixture(scope="session")
def tree_matrix() -> ci.SparseBinaryMatrix:
    """A 5-check, 12-variable code whose Tanner graph is a tree."""
    rows = [
        (0, 1, 2),
        (2, 3, 4),
        (4, 5, 6, 7),
        (7, 8, 9),
        (9, 10, 11),
    ]
    return ci.SparseBinaryMatrix.from_rows(5, 12, rows)


@pytest.fixture(scope="session")
def paper_codes_with_histograms(paper_outer, paper_inner):
    hist_row = ci.sensitivity_histogram(paper_outer.H)
    hist_col = ci.sensitivity_histogram(paper_inner.H)
    return paper_outer, paper_inner, hist_row, hist_col
