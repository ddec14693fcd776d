from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


def _oracle_rref(a):
    """Gauss-Jordan in plain Fraction arithmetic, row by row."""
    m = [[Fraction(v) for v in row] for row in a]
    n_rows, n_cols = a.shape
    pivots = []
    for col in range(n_cols):
        row = len(pivots)
        pick = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pick is None:
            continue
        m[row], m[pick] = m[pick], m[row]
        m[row] = [v / m[row][col] for v in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col] != 0:
                m[r] = [v - m[r][col] * p for v, p in zip(m[r], m[row])]
        pivots.append(col)
    return m, pivots


@st.composite
def rational_systems(draw):
    """(a, b): a rational matrix of any shape up to 5 x 5, often rank
    deficient (a product through a thinner inner dimension), and a
    right-hand side that is consistent by construction about half the
    time."""
    n_rows = draw(st.integers(min_value=0, max_value=5))
    n_cols = draw(st.integers(min_value=0, max_value=5))

    def matrix(shape):
        size = shape[0] * shape[1]
        return _object_array(draw(st.lists(rationals, min_size=size,
                                           max_size=size)), shape)
    if draw(st.booleans()):
        inner = draw(st.integers(min_value=0, max_value=min(n_rows, n_cols)))
        a = matrix((n_rows, inner)) @ matrix((inner, n_cols))
        a = _object_array([Fraction(v) for v in a.flat], (n_rows, n_cols))
    else:
        a = matrix((n_rows, n_cols))
    if draw(st.booleans()):
        b = (a @ matrix((n_cols, 1))).reshape(n_rows)
        b = _object_array([Fraction(v) for v in b.flat], (n_rows,))
    else:
        b = matrix((n_rows, 1)).reshape(n_rows)
    return a, b


def _big_prime_system():
    # rank 2, with every row's denominator lcm past 2^63
    p = BIG_PRIMES
    r0 = [Fraction(1, p[0] * p[1]), Fraction(2, p[2] * p[3]),
          Fraction(3, p[4] * p[5]), Fraction(-1, p[0] * p[5])]
    r1 = [Fraction(5, p[1] * p[2]), Fraction(-7, p[3] * p[4]),
          Fraction(1, p[0] * p[3]), Fraction(4, p[2] * p[5])]
    rows = [r0, r1, [x + 3 * y for x, y in zip(r0, r1)]]
    b = [Fraction(1, p[0] * p[2]), Fraction(1, p[1] * p[3]),
         Fraction(1, p[4] * p[5])]
    return exact.fmatrix(rows), exact.fmatrix([b]).ravel()


@given(rational_systems())
@example(_big_prime_system())
@settings(max_examples=150, deadline=None)
def test_one_elimination_matches_the_fraction_oracle(system):
    a, b = system
    n_rows, n_cols = a.shape
    want, want_pivots = _oracle_rref(a)
    got, pivots = exact.rref(a)
    assert list(pivots) == want_pivots
    assert got.shape == (n_rows, n_cols)
    assert all(isinstance(v, Fraction) for v in got.flat)
    assert [list(row) for row in got] == want
    rank = len(want_pivots)
    assert exact.bareiss_rank(a) == rank

    kernel = exact.null_space(a)
    free = [c for c in range(n_cols) if c not in want_pivots]
    assert kernel.shape == (n_cols, n_cols - rank)
    assert all(v == 0 for v in (a @ kernel).flat)
    assert np.array_equal(kernel[free], exact.fidentity(len(free)))

    aug = np.hstack([a, b.reshape(-1, 1)])
    rank_aug = len(_oracle_rref(aug)[1])
    x = exact.solve(a, b)
    if rank_aug > rank:
        assert x is None
    else:
        assert x is not None and x.shape == (n_cols,)
        assert all(v == 0 for v in (a @ x.reshape(-1, 1)).ravel() - b)
    assert exact.solvable(a, b) == (x is not None, rank, rank_aug)


def test_one_elimination_on_zero_size_shapes():
    for shape in ((0, 0), (0, 3), (3, 0)):
        a = exact.fzeros(shape)
        r, pivots = exact.rref(a)
        assert r.shape == shape and pivots == []
        assert exact.bareiss_rank(a) == 0
        assert np.array_equal(exact.null_space(a), exact.fidentity(shape[1]))
        b = exact.fzeros(shape[0])
        assert list(exact.solve(a, b)) == [0] * shape[1]
        assert exact.solvable(a, b) == (True, 0, 0)
    # a nonzero right-hand side with no unknowns is inconsistent
    a, b = exact.fzeros((2, 0)), exact.fmatrix([[0, 1]]).ravel()
    assert exact.solve(a, b) is None
    assert exact.solvable(a, b) == (False, 0, 1)


@st.composite
def larger_systems(draw):
    """(a, b): an integer or rational matrix up to 10 x 12, made rank
    deficient by a product through a thin inner dimension, with a
    right-hand side that is consistent by construction or drawn freely
    (and then almost always inconsistent)."""
    n_rows = draw(st.integers(min_value=1, max_value=10))
    n_cols = draw(st.integers(min_value=1, max_value=12))
    inner = draw(st.integers(min_value=0, max_value=min(n_rows, n_cols)))
    entries = draw(st.sampled_from([
        st.integers(min_value=-4, max_value=4),
        st.fractions(min_value=-6, max_value=6, max_denominator=7)]))

    def matrix(shape):
        values = draw(st.lists(entries, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]))
        return _object_array([Fraction(v) for v in values], shape)
    a = matrix((n_rows, inner)) @ matrix((inner, n_cols))
    a = _object_array([Fraction(v) for v in a.flat], (n_rows, n_cols))
    if draw(st.booleans()):
        b = (a @ matrix((n_cols, 1))).reshape(n_rows)
    else:
        b = matrix((n_rows, 1)).reshape(n_rows)
    return a, _object_array([Fraction(v) for v in b.flat], (n_rows,))


@given(larger_systems())
@settings(max_examples=60, deadline=None)
def test_back_substitution_matches_the_fraction_oracle_on_larger_systems(
        system):
    # long back-substitution chains: up to 10 pivots, every RREF entry,
    # kernel vector and solution entry compared exactly with the oracle
    a, b = system
    n_rows, n_cols = a.shape
    want, want_pivots = _oracle_rref(a)
    got, pivots = exact.rref(a)
    assert list(pivots) == want_pivots
    assert [list(row) for row in got] == want
    rank = len(want_pivots)

    free = [c for c in range(n_cols) if c not in want_pivots]
    kernel = exact.null_space(a)
    assert kernel.shape == (n_cols, len(free))
    for t, c in enumerate(free):
        assert [kernel[p, t] for p in want_pivots] == \
            [-want[k][c] for k in range(rank)]
        assert [kernel[f, t] for f in free] == [int(f == c) for f in free]

    aug, aug_pivots = _oracle_rref(np.hstack([a, b.reshape(-1, 1)]))
    x = exact.solve(a, b)
    consistent = n_cols not in aug_pivots
    if consistent:
        want_x = [Fraction(0)] * n_cols
        for k, p in enumerate(aug_pivots):
            want_x[p] = aug[k][n_cols]
        assert x is not None and list(x) == want_x
    else:
        assert x is None
    assert exact.solvable(a, b) == (consistent, rank, len(aug_pivots))
