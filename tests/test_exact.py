from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcheck import exact


def test_frac_accepts_exact_floats_and_rejects_irrational_ones():
    assert exact.frac(0.5) == Fraction(1, 2)
    assert exact.frac(0.7) == Fraction(7, 10)
    assert exact.frac("3/7") == Fraction(3, 7)
    assert exact.frac(4) == Fraction(4)
    with pytest.raises(ValueError):
        exact.frac(np.pi)


def test_fmatrix_and_to_float_round_trip():
    m = exact.fmatrix([[1, "1/2"], [0.25, 3]])
    assert m.dtype == object
    back = exact.to_float(m)
    np.testing.assert_allclose(back, [[1.0, 0.5], [0.25, 3.0]])


def test_rref_identifies_pivots():
    a = exact.fmatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    r, pivots = exact.rref(a)
    assert list(pivots) == [0, 2]
    assert r[0][1] == Fraction(2)
    assert exact.bareiss_rank(a) == 2


def test_null_space_is_exact_kernel():
    a = exact.fmatrix([[1, 2, 3], [2, 4, 6]])
    k = exact.null_space(a)
    assert k.shape[1] == 2
    prod = a @ k
    assert all(v == 0 for v in prod.ravel())


def test_solve_and_solvable_agree():
    a = exact.fmatrix([[2, 0], [0, 3], [2, 3]])
    b_good = exact.fmatrix([[4], [9], [13]]).ravel()
    ok, rank_a, rank_aug = exact.solvable(a, b_good)
    assert ok and rank_a == rank_aug == 2
    x = exact.solve(a, b_good)
    assert list(x) == [Fraction(2), Fraction(3)]
    b_bad = exact.fmatrix([[4], [9], [14]]).ravel()
    ok, rank_a, rank_aug = exact.solvable(a, b_bad)
    assert not ok and rank_aug == rank_a + 1
    assert exact.solve(a, b_bad) is None


def test_bareiss_rank_matches_float_rank():
    rng = np.random.default_rng(0)
    m = rng.integers(-4, 5, size=(6, 6))
    m[5] = m[0] + m[1]
    m[4] = 2 * m[2]
    a = exact.fmatrix(m.tolist())
    assert exact.bareiss_rank(a) == np.linalg.matrix_rank(m.astype(float))


@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=3, max_size=3), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_rank_matches_numpy_on_integer_matrices(rows):
    a = exact.fmatrix(rows)
    expected = np.linalg.matrix_rank(np.array(rows, dtype=float))
    assert exact.bareiss_rank(a) == expected


@given(st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                         min_size=4, max_size=4), min_size=2, max_size=4),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=4,
                max_size=4))
@settings(max_examples=40, deadline=None)
def test_solve_residual_is_exactly_zero(rows, coeffs):
    a = exact.fmatrix(rows)
    x_true = exact.fmatrix([coeffs]).ravel()
    b = (a @ x_true.reshape(-1, 1)).ravel()
    x = exact.solve(a, b)
    assert x is not None
    residual = (a @ x.reshape(-1, 1)).ravel() - b
    assert all(v == 0 for v in residual)
