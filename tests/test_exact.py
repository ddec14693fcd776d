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


# near-10^6 primes: products of two exceed 2^31, and the lcm of a few
# such products exceeds 2^63
BIG_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(lambda n, p, q: Fraction(n, p * q),
              st.integers(min_value=-9, max_value=9),
              st.sampled_from(BIG_PRIMES), st.sampled_from(BIG_PRIMES)))


def _object_array(values, shape):
    return np.array(values, dtype=object).reshape(shape)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_matmul_equals_the_fraction_product(n_rows, inner, n_cols, vector, data):
    a = _object_array(data.draw(st.lists(rationals, min_size=n_rows * inner,
                                         max_size=n_rows * inner)),
                      (n_rows, inner))
    b_shape = (inner,) if vector else (inner, n_cols)
    size = int(np.prod(b_shape))
    b = _object_array(data.draw(st.lists(rationals, min_size=size,
                                         max_size=size)), b_shape)
    got = exact.matmul(a, b)
    want = a @ b
    assert got.shape == want.shape == (n_rows,) + b_shape[1:]
    assert all(isinstance(v, Fraction) for v in got.flat)
    assert all(g == w for g, w in zip(got.flat, want.flat))


def test_matmul_clears_denominators_beyond_int64():
    p = BIG_PRIMES
    a = exact.fmatrix([[Fraction(1, p[0] * p[1]), Fraction(1, p[2] * p[3]),
                        Fraction(1, p[4] * p[5])]])
    b = exact.fmatrix([[p[0] * p[1]], [p[2] * p[3]], [p[4] * p[5]]])
    assert exact.matmul(a, b)[0, 0] == 3
    assert exact.matmul(b, a)[1, 2] == Fraction(p[2] * p[3], p[4] * p[5])


def test_bareiss_rank_survives_denominators_past_int64():
    # the running lcm of a row once wrapped around in int64, so these
    # rank-1 rows came out with rank 2
    rng = np.random.default_rng(0)
    for _ in range(20):
        dens = [int(rng.choice(BIG_PRIMES)) * int(rng.choice(BIG_PRIMES))
                for _ in range(3)]
        row = [Fraction(int(rng.integers(1, 9)), d) for d in dens]
        a = exact.fmatrix([row, [2 * v for v in row]])
        assert exact.bareiss_rank(a) == 1
