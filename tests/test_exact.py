import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orbitcheck import catalog, exact, go


def test_frac_accepts_exact_floats_and_rejects_irrational_ones():
    assert exact.frac(0.5) == Fraction(1, 2)
    assert exact.frac(0.7) == Fraction(7, 10)
    assert exact.frac("3/7") == Fraction(3, 7)
    assert exact.frac(4) == Fraction(4)
    with pytest.raises(ValueError):
        exact.frac(np.pi)


def fmatrix(rows) -> np.ndarray:
    """The Fraction matrix of a list of rows (``exact.frac`` of each)."""
    return exact.over(*exact.cleared(np.array(rows, dtype=object)))


def test_fmatrix_and_to_float_round_trip():
    m = fmatrix([[1, "1/2"], [0.25, 3]])
    assert m.dtype == object
    back = exact.to_float(m)
    np.testing.assert_allclose(back, [[1.0, 0.5], [0.25, 3.0]])


def test_to_float_is_one_division_where_both_operands_are_exact():
    # int64 entries up to 2^53 in size over a d up to 2^53 in size are
    # exact floats, and one float division rounds their quotient as
    # Python's int division does: the per-entry oracle, at the edges and
    # on random pairs. Past 2^53 an entry would round before dividing, so
    # it and any object array take the Python path
    edge = 2 ** 53
    rng = np.random.default_rng(3)
    cases = [(np.array([edge, -edge, edge - 1, 1, 0, -3]), d)
             for d in (edge - 1, edge, -edge, 3, -7)]
    cases += [(rng.integers(-edge, edge + 1, size=500),
               int(rng.integers(1, edge + 1)) * sign)
              for sign in (1, -1) for _ in range(20)]
    cases += [(np.array([edge + 1, 5]), 3),
              (np.array([edge + 1, 5], dtype=object), 3),
              (np.array([2 ** 70 + 1, -1], dtype=object), 3),
              (np.array([[7, 1]]), edge + 1)]
    for a, d in cases:
        want = [v / d for v in a.ravel().tolist()]
        got = exact.to_float(a, d)
        assert got.dtype == np.float64 and got.shape == a.shape
        assert got.ravel().tolist() == want
    assert float(edge + 1) / 3 != (edge + 1) / 3


def _rank(a):
    """Rank of ``a`` from the Bareiss elimination: its column count less
    its kernel's dimension."""
    return a.shape[1] - exact.null_space(a)[0].shape[1]


def _solve(a, b):
    """exact.solve on the one column b: y / d over the least d, or None
    when b raises the rank."""
    y, d, tail = exact.solve(a, b.reshape(-1, 1))
    return None if any(tail.flat) else exact.reduced(y[:, 0], d)


def test_rref_identifies_pivots():
    a = fmatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    n, d = exact.null_space(a)
    # pivots 0 and 2: the free column 1 carries the rref entry -r[0][1]
    assert n.tolist() == [[-2], [1], [0]] and d == 1
    assert _rank(a) == 2


def test_null_space_is_exact_kernel():
    a = fmatrix([[1, 2, 3], [2, 4, 6]])
    k, d = exact.null_space(a)
    assert k.shape[1] == 2 and d == 1
    prod = a @ k
    assert all(v == 0 for v in prod.ravel())


def test_null_space_returns_integers_over_the_least_denominator():
    a = fmatrix([[2, 3, 0], [0, 6, 4]])
    n, d = exact.null_space(a)
    assert all(type(v) is int for v in n.flat)
    assert d == 3 and n.tolist() == [[3], [-2], [3]]
    assert exact.over(n, d).tolist() == [[1], [Fraction(-2, 3)], [1]]


def test_solve_and_solvable_agree():
    # solve returns None exactly when b raises the rank
    a = fmatrix([[2, 0], [0, 3], [2, 3]])
    b_good = fmatrix([[4], [9], [13]]).ravel()
    assert _rank(a) == _rank(np.column_stack([a, b_good])) == 2
    y, d = _solve(a, b_good)
    assert y.tolist() == [2, 3] and d == 1
    b_bad = fmatrix([[4], [9], [14]]).ravel()
    assert _rank(np.column_stack([a, b_bad])) == _rank(a) + 1
    assert _solve(a, b_bad) is None
    y, d = _solve(a, b_good / 6)
    assert y.tolist() == [2, 3] and d == 6


def test_bareiss_rank_matches_float_rank():
    rng = np.random.default_rng(0)
    m = rng.integers(-4, 5, size=(6, 6))
    m[5] = m[0] + m[1]
    m[4] = 2 * m[2]
    a = fmatrix(m.tolist())
    assert _rank(a) == np.linalg.matrix_rank(m.astype(float))


@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=3, max_size=3), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_rank_matches_numpy_on_integer_matrices(rows):
    a = fmatrix(rows)
    expected = np.linalg.matrix_rank(np.array(rows, dtype=float))
    assert _rank(a) == expected


@given(st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                         min_size=4, max_size=4), min_size=2, max_size=4),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=4,
                max_size=4))
@settings(max_examples=40, deadline=None)
def test_solve_residual_is_exactly_zero(rows, coeffs):
    a = fmatrix(rows)
    x_true = fmatrix([coeffs]).ravel()
    b = (a @ x_true.reshape(-1, 1)).ravel()
    solution = _solve(a, b)
    assert solution is not None
    y, d = solution
    residual = (a @ y.reshape(-1, 1)).ravel() - d * b
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


def test_imatmul_takes_int64_only_below_its_bound():
    # rows of three equal entries u against columns of v: every partial
    # sum reaches 3 u v, the bound; just below 2^63 the product runs in
    # int64, just above on Python ints, where int64 would wrap around
    u = 2 ** 31
    for v, dtype in ((2 ** 32 // 3, np.int64), (2 ** 32 // 3 + 1, object)):
        assert (3 * u * v < 2 ** 63) == (dtype is np.int64)
        for sign in (1, -1):
            a = _object_array([sign * u] * 6, (2, 3))
            b = _object_array([v] * 6, (3, 2))
            for left, right in ((a, b), (a.astype(np.int64), b),
                                (a[None].repeat(2, axis=0), b)):
                got = exact.imatmul(left, right)
                want = left.astype(object) @ right
                assert got.dtype == dtype and got.tolist() == want.tolist()
        if dtype is object:
            assert (a.astype(np.int64) @ b.astype(np.int64)).tolist() \
                != (a @ b).tolist()
    # an operand past int64, or holding -2^63, stays on Python ints
    for big in (2 ** 63, -2 ** 63, 2 ** 70):
        a = _object_array([big, 1], (1, 2))
        got = exact.imatmul(a, _object_array([0, 3], (2, 1)))
        assert got.dtype == object and got.tolist() == [[3]]
        assert exact.narrowed(a).dtype == object


@st.composite
def certificate_systems(draw):
    """(ab, width): 1 to 3 stacked int64 systems [a | b1 b2] of one
    shape, a up to 6 x 5 with entries up to 3 in size and maybe a last
    row that repeats the first, and b = a y + e, y up to 3 in size and e
    zero or entries up to 1 in size."""
    n_rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    systems = []
    for _ in range(draw(st.integers(1, 3))):
        size = n_rows * width
        a = np.array(draw(st.lists(st.integers(-3, 3), min_size=size,
                                   max_size=size))).reshape(n_rows, width)
        if n_rows > 1 and draw(st.booleans()):
            a[-1] = a[0]
        y = np.array(draw(st.lists(st.integers(-3, 3), min_size=2 * width,
                                   max_size=2 * width))).reshape(width, 2)
        e = draw(st.lists(st.integers(-1, 1) if draw(st.booleans())
                          else st.just(0), min_size=2 * n_rows,
                          max_size=2 * n_rows))
        systems.append(np.hstack([a, a @ y + np.reshape(e, (n_rows, 2))]))
    return np.array(systems, dtype=np.int64), width


@given(certificate_systems())
@settings(max_examples=300, deadline=None)
def test_exact_certificate_is_sound_and_takes_what_its_plan_solves(system):
    # the plan is the first system's pivot columns and pivot rows. A
    # certified system is consistent by the Fraction-free oracle; a
    # consistent one whose planned subsystem S is nonsingular, with a of
    # rank |S|, is certified (entries this small keep the float finder
    # exact)
    ab, width = system
    _, cols, _, order = exact._bareiss(ab[0], width)
    assume(cols)
    rows = order[:len(cols)]
    assert _rank(ab[0][rows][:, cols]) == len(cols)
    took = exact.certified(ab, width, cols, rows)
    assert took.dtype == bool and took.shape == (len(ab),)
    for one, certified in zip(ab, took):
        tail = exact.solve(one[:, :width], one[:, width:])[2]
        consistent = not any(tail.flat)
        assert consistent or not certified
        if consistent and _rank(one[:, :width]) == len(cols) \
                and _rank(one[rows][:, cols]) == len(cols):
            assert certified


def test_exact_certificate_checks_past_int64_on_python_ints():
    # the plan's rows 0 and 1 give D = 1 and Y = (9, 3) for b1; row 2
    # then needs 9 q + 3 = b. At q = 2^61, b = 2^61 + 3 is inconsistent,
    # yet 9 q + 3 - b = 2^64 wraps to 0 in int64: the product bound sends
    # the check to Python ints, which refuse it. At q = 2^58 the
    # consistent b = 9 q + 3 fits int64 and is certified the same way
    def system(q, b):
        return np.array([[[1, 0, 9, 0], [0, 1, 3, 0], [q, 1, b, 0]]],
                        dtype=np.int64)
    for q, b, want in ((2 ** 61, 2 ** 61 + 3, False),
                       (2 ** 58, 9 * 2 ** 58 + 3, True)):
        ab = system(q, b)
        assert exact.certified(ab, 2, [0, 1], [0, 1]).tolist() == [want]
        assert (exact.solve(ab[0][:, :2], ab[0][:, 2:])[2].any()) != want
    wrapped = system(2 ** 61, 2 ** 61 + 3)[0]
    assert not (wrapped[:, :3] @ np.array([9, 3, -1])).any()


def test_exact_certificate_refuses_a_singular_or_overflowing_s_quietly():
    # rows 0 and 1 of a are dependent, so the planned S is singular: the
    # finder proposes D = 0 and Y = 0, swapping S for the identity before
    # the solve, and the check refuses D = 0; rows 0 and 2 certify it
    ab = np.array([[[1, 2, 5, 3], [2, 4, 10, 6], [0, 1, 2, 1]]],
                  dtype=np.int64)
    assert exact.certified(ab, 2, [0, 1], [0, 1]).tolist() == [False]
    y, det = exact.proposed(ab[:, [0, 1]], 2)
    assert det.tolist() == [0] and not y.any()
    assert exact.certified(ab, 2, [0, 1], [0, 2]).tolist() == [True]
    # (2^60 + 1) I plus ones above the diagonal, 20 x 20: primitive rows,
    # a det past float range, refused without a warning (an error here)
    a = (2 ** 60 + 1) * np.identity(20, dtype=np.int64) \
        + np.eye(20, k=1, dtype=np.int64)
    big = np.concatenate([a, a @ np.ones((20, 2), dtype=np.int64)], axis=1)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.linalg.det(a.astype(float)))
    assert exact.certified(big[None], 20, list(range(20)),
                           list(range(20))).tolist() == [False]


@st.composite
def near_integers(draw):
    """A float at or next to k +- 2^-21 for an integer k, the edge of
    ``rounded``'s integer shortcut."""
    k = draw(st.integers(min_value=-2 ** 20, max_value=2 ** 20))
    edge = k + draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** -21
    return draw(st.sampled_from([np.nextafter(edge, k), edge,
                                 np.nextafter(edge, 2 * edge - k)]))


floats_to_round = st.one_of(
    st.builds(lambda k, e: k + e, st.integers(-2 ** 40, 2 ** 40),
              st.floats(min_value=-1e-9, max_value=1e-9)),
    st.integers(-2 ** 41, 2 ** 41).map(lambda n: n / 2),
    near_integers(),
    st.floats(min_value=-2 ** 40, max_value=2 ** 40),
    st.floats(min_value=-2.0 ** -1022, max_value=2.0 ** -1022))


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0,
                                                          max_value=4),
       st.data())
@example(1, 4, [1 + 2.0 ** -22, 0.5 - 2.0 ** -60, -3 - 2.0 ** -21,
                5e-324])
@settings(max_examples=200, deadline=None)
def test_rounded_is_the_cleared_limit_denominator(n_rows, n_cols, data):
    size = n_rows * n_cols
    values = data if isinstance(data, list) else data.draw(
        st.lists(floats_to_round, min_size=size, max_size=size))
    a = np.array(values, dtype=np.float64).reshape(n_rows, n_cols)
    got, d = exact.rounded(a)
    want, want_d = exact.cleared(_object_array(
        [Fraction(x).limit_denominator(1 << 20) for x in a.flat], a.shape))
    assert d == want_d and type(d) is int
    assert got.dtype == object and got.tolist() == want.tolist()
    assert all(type(v) is int for v in got.flat)


def test_bareiss_rank_survives_denominators_past_int64():
    # the running lcm of a row once wrapped around in int64, so these
    # rank-1 rows came out with rank 2
    rng = np.random.default_rng(0)
    for _ in range(20):
        dens = [int(rng.choice(BIG_PRIMES)) * int(rng.choice(BIG_PRIMES))
                for _ in range(3)]
        row = [Fraction(int(rng.integers(1, 9)), d) for d in dens]
        a = fmatrix([row, [2 * v for v in row]])
        assert _rank(a) == 1


integers = st.one_of(st.just(0), st.integers(min_value=-60, max_value=60),
                     st.integers(min_value=-2 ** 80, max_value=2 ** 80))


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=-2 ** 70, max_value=2 ** 70).filter(bool),
       st.data())
@example(2, 3, -4, None)
@example(0, 2, -3, None)
@settings(max_examples=100, deadline=None)
def test_reduced_is_the_cleared_fraction_array(n_rows, n_cols, d, data):
    # an example without data is the all-zero array
    size = n_rows * n_cols
    values = [0] * size if data is None else data.draw(
        st.lists(integers, min_size=size, max_size=size))
    n = _object_array(values, (n_rows, n_cols))
    got, got_d = exact.reduced(n, d)
    want, want_d = exact.cleared(exact.over(n, d))
    assert got_d == want_d > 0
    assert got.shape == n.shape and got.tolist() == want.tolist()
    assert all(type(v) is int for v in got.flat)


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
    return fmatrix(rows), fmatrix([b]).ravel()


def _past_int64_system():
    # one near-2^40 denominator per row: cleared, each row fits int64,
    # but the 2 x 2 minors pass 2^63
    p = BIG_PRIMES
    rows = [[Fraction(1, p[0] * p[1]), 3, -2],
            [5, Fraction(-7, p[2] * p[3]), 1],
            [2, 1, Fraction(4, p[4] * p[5])]]
    b = [1, Fraction(1, p[2] * p[3]), -1]
    return fmatrix(rows), fmatrix([b]).ravel()


def _assert_matches_the_oracle(a, b):
    """null_space and solve against the Fraction oracle: N / d is the rref
    free-column kernel, y / d the solution with free unknowns 0, each
    over the least positive d, and solve is None exactly when b raises
    the rank."""
    n_cols = a.shape[1]
    want, want_pivots = _oracle_rref(a)
    rank = len(want_pivots)
    # cleared to one denominator, a's rows keep their directions, so the
    # integer array and its int64 copy eliminate to a's (rows, pivots, d)
    ints = exact.cleared(a)[0]
    if exact.narrowed(ints).dtype == np.int64:
        want_steps = exact._eliminate(a, n_cols)
        for copy in (ints, exact.narrowed(ints)):
            rows, pivots, d = exact._eliminate(copy, n_cols)
            assert rows.dtype == want_steps[0].dtype
            assert rows.tolist() == want_steps[0].tolist()
            assert (pivots, d) == want_steps[1:] and type(d) is int
    free = [c for c in range(n_cols) if c not in want_pivots]
    n, d = exact.null_space(a)
    assert n.shape == (n_cols, len(free)) and _rank(a) == rank
    assert all(type(v) is int for v in n.flat)
    assert d > 0 and math.gcd(d, *n.flat) == 1
    assert all(v == 0 for v in (a @ n).flat)
    kernel = exact.over(n, d)
    for t, c in enumerate(free):
        assert [kernel[p, t] for p in want_pivots] == \
            [-want[k][c] for k in range(rank)]
        assert [kernel[f, t] for f in free] == [int(f == c) for f in free]

    aug, aug_pivots = _oracle_rref(np.column_stack([a, b]))
    solution = _solve(a, b)
    if n_cols in aug_pivots:
        assert solution is None
        assert _rank(np.column_stack([a, b])) == rank + 1
        return
    y, d = solution
    assert y.shape == (n_cols,) and all(type(v) is int for v in y)
    assert d > 0 and math.gcd(d, *y) == 1
    want_x = [Fraction(0)] * n_cols
    for k, p in enumerate(aug_pivots):
        want_x[p] = aug[k][n_cols]
    assert list(exact.over(y, d)) == want_x
    assert all(v == 0 for v in (a @ y.reshape(-1, 1)).ravel() - d * b)


@given(rational_systems())
@example(_big_prime_system())
@example(_past_int64_system())
@settings(max_examples=150, deadline=None)
def test_one_elimination_matches_the_fraction_oracle(system):
    _assert_matches_the_oracle(*system)


def test_one_elimination_on_zero_size_shapes():
    for shape in ((0, 0), (0, 3), (3, 0)):
        a = exact.fzeros(shape)
        n, d = exact.null_space(a)
        assert n.tolist() == np.eye(shape[1], dtype=int).tolist() and d == 1
        b = exact.fzeros(shape[0])
        y, d = _solve(a, b)
        assert y.tolist() == [0] * shape[1] and d == 1
        _assert_matches_the_oracle(a, b)
    # a nonzero right-hand side with no unknowns is inconsistent
    a, b = exact.fzeros((2, 0)), fmatrix([[0, 1]]).ravel()
    assert _solve(a, b) is None
    _assert_matches_the_oracle(a, b)


@given(rational_systems(), st.integers(min_value=-2, max_value=2),
       st.one_of(st.none(), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
       st.data())
@settings(max_examples=80, deadline=None)
def test_solve_decides_every_combination_of_its_columns(system, k, coeffs,
                                                        data):
    # one elimination against columns b and c = a v + k b: the combination
    # s b + t c is consistent exactly where s tail_b + t tail_c vanishes,
    # and then (s Y_b + t Y_c) / d is its rref solution; with no coeffs
    # drawn, (s, t) = (k, -1) makes the combination a v, consistent even
    # where b is not
    a, b = system
    n_cols = a.shape[1]
    v = _object_array(data.draw(st.lists(rationals, min_size=n_cols,
                                         max_size=n_cols)), (n_cols, 1))
    c = (a @ v).reshape(-1) + k * b
    s, t = coeffs or (k, -1)
    y, d, tail = exact.solve(a, np.column_stack([b, c]))
    assert y.shape == (n_cols, 2) and tail.shape[1] == 2
    combo = _object_array([Fraction(s * p + t * q) for p, q in zip(b, c)],
                          (len(b),))
    aug, pivots = _oracle_rref(np.column_stack([a, combo]))
    consistent = not any(s * u + t * w for u, w in tail.tolist())
    assert consistent == (n_cols not in pivots)
    if consistent:
        want = [Fraction(0)] * n_cols
        for row, p in enumerate(pivots):
            want[p] = aug[row][n_cols]
        assert [Fraction(s * u + t * w, d) for u, w in y.tolist()] == want


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
    # long back-substitution chains: up to 10 pivots, every kernel vector
    # and solution entry compared exactly with the oracle
    _assert_matches_the_oracle(*system)


class _StepSpy:
    """Stands in for numpy inside ``exact``: records the dtype of each
    Bareiss step, read off the column its outer product takes."""

    def __init__(self):
        self.steps = []
        self.multiply = self

    def __getattr__(self, name):
        return getattr(np, name)

    def outer(self, col, row):
        self.steps.append(col.dtype)
        return np.multiply.outer(col, row)


def _eliminate_with_spy(monkeypatch, a, b):
    """The oracle check of (a, b), then the dtype of each step of the
    elimination that ``solve`` runs on [a | b]."""
    _assert_matches_the_oracle(a, b)
    spy = _StepSpy()
    monkeypatch.setattr(exact, "np", spy)
    y, d, tail = exact.solve(a, b.reshape(-1, 1))
    monkeypatch.undo()
    assert type(d) is int and all(type(v) is int for v in tail.flat)
    return [str(t) for t in spy.steps]


def _integer_system(rows, b):
    return _object_array(rows, (len(rows), len(rows[0]))), \
        _object_array(b, (len(b),))


def test_small_integer_systems_stay_on_int64(monkeypatch):
    a, b = _integer_system([[2, -1, 0, 3], [1, 4, -2, 0], [0, 3, 5, -1],
                            [3, 3, -2, 3]], [1, -2, 4, -1])
    steps = _eliminate_with_spy(monkeypatch, a, b)
    assert steps == ["int64"] * 3


def test_minors_past_the_int64_bound_finish_on_python_ints(monkeypatch):
    # primitive 12-bit rows: the 1 x 1 and 2 x 2 minors fit the bound
    # 2 M^2 < 2^63, the 3 x 3 ones (about 38 bits) do not, so the
    # elimination leaves int64 after two pivots
    rng = np.random.default_rng(7)
    rows = rng.integers(-4095, 4096, size=(6, 6)).tolist()
    rows[5] = [u + v for u, v in zip(rows[0], rows[1])]
    b = rng.integers(-4095, 4096, size=6).tolist()
    a, b = _integer_system(rows, b)
    steps = _eliminate_with_spy(monkeypatch, a, b)
    assert steps[:2] == ["int64"] * 2
    assert len(steps) > 3 and set(steps[2:]) == {"object"}


def test_the_int64_bound_holds_at_its_edge(monkeypatch):
    # 2 M^2 < 2^63 admits M = 2^31 - 1, where p u - f v reaches 2 M^2;
    # just past it, M^2 < 2^63 alone would let 2 M^2 wrap around
    for top, first in ((2 ** 31 - 1, "int64"), (3 * 10 ** 9, "object")):
        a, b = _integer_system([[top, top - 1], [-(top - 1), top]], [1, 0])
        assert _eliminate_with_spy(monkeypatch, a, b)[0] == first


def test_entries_outside_int64_start_on_python_ints(monkeypatch):
    # 2^63 does not fit int64 at all; -2^63 does, but |-2^63| does not
    for big in (2 ** 63, 2 ** 70 + 1, -2 ** 63):
        a, b = _integer_system([[big, 1, 2], [1, 1, 0], [3, 0, 1]],
                               [1, 2, big])
        assert set(_eliminate_with_spy(monkeypatch, a, b)) == {"object"}


def _bareiss_oracle(rows, width):
    """``_eliminate`` on Python ints, as its docstring states it: (rows,
    pivots, d, fits), each row over its content first, and fits[k] true
    where the block the k-th step reads, measured, has 2 M^2 < 2^63."""
    m = [[v // g for v in row] if (g := math.gcd(*row)) > 1 else list(row)
         for row in rows]
    pivots, d, fits = [], 1, []
    for col in range(width):
        row = len(pivots)
        if row == len(m):
            break
        nonzero = [r for r in range(row, len(m)) if m[r][col]]
        if not nonzero:
            continue
        m[row], m[nonzero[0]] = m[nonzero[0]], m[row]
        top = max(abs(v) for r in m[row:] for v in r[col:])
        fits.append(2 * top * top < 2 ** 63)
        p, pivot_row = m[row][col], m[row]
        for r in m[row + 1:]:
            f = r[col]
            r[col:] = [(p * v - f * u) // d
                       for v, u in zip(r[col:], pivot_row[col:])]
        d = p
        pivots.append(col)
    return m, pivots, d, fits


@st.composite
def bareiss_inputs(draw):
    """(rows, width): an integer matrix up to 7 x 9 with entries up to
    2^bits in size, bits drawn up to 40, planted zero columns, rows whose
    leading entries (up to 3) are zero, and maybe a last row that is a
    multiple of the first; width, how many leading columns may pivot, is
    all of them or up to 2 fewer."""
    n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    bits = draw(st.integers(0, 40))
    entries = st.integers(-2 ** bits, 2 ** bits)
    rows = [draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
            for _ in range(n_rows)]
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=3))
    leads = draw(st.lists(st.integers(0, min(3, n_cols)), min_size=n_rows,
                          max_size=n_rows))
    for row, lead in zip(rows, leads):
        row[:lead] = [0] * lead
        for c in zero_cols:
            row[c] = 0
    if n_rows > 1 and draw(st.booleans()):
        rows[-1] = [draw(st.integers(-3, 3)) * v for v in rows[0]]
    return rows, max(0, n_cols - draw(st.integers(0, 2)))


def _eliminate_steps(a, width):
    """``_eliminate``'s (rows, pivots, d) of ``a``, the dtype of each of
    its steps and the shape of each block whose max|entry| it measured."""
    spy, measured, top = _StepSpy(), [], exact._top
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "np", spy)
        patch.setattr(exact, "_top", lambda block: measured.append(
            block.shape) or top(block))
        rows, pivots, d = exact._eliminate(a, width)
    return rows, pivots, d, [str(t) for t in spy.steps], measured


@given(bareiss_inputs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_the_running_bound_keeps_every_step_of_the_measured_one(system,
                                                                as_int64):
    # the steps are int64 exactly up to the first whose measured block max
    # M has 2 M^2 >= 2^63, and the rows, pivots and d those of the oracle,
    # from int64 and from Python-int input alike
    rows, width = system
    a = np.array(rows, dtype=np.int64 if as_int64 else object)
    got, pivots, d, steps, _ = _eliminate_steps(a, width)
    want, want_pivots, want_d, fits = _bareiss_oracle(rows, width)
    assert got.tolist() == want
    assert (pivots, d) == (want_pivots, want_d) and type(d) is int
    assert steps == ["int64" if all(fits[:k + 1]) else "object"
                     for k in range(len(fits))]


def test_a_failed_running_bound_is_measured_and_stays_on_int64():
    # T J + I at T = 2^20: after the first step the running bound is
    # 2 (T + 1)^2, past 2^31, so the second step measures its block, which
    # holds only T and 2 T + 1, and every step stays on int64; switching
    # on the bound alone would leave int64 there
    t = 2 ** 20
    a = np.full((4, 4), t, dtype=np.int64) + np.eye(4, dtype=np.int64)
    rows, pivots, d, steps, measured = _eliminate_steps(a, 4)
    want, want_pivots, want_d, fits = _bareiss_oracle(a.tolist(), 4)
    assert all(fits) and steps == ["int64"] * 4
    assert measured == [(4, 4), (3, 3)]
    assert rows.tolist() == want and (pivots, d) == (want_pivots, want_d)
    assert d == 1 + 4 * t  # det(T J + I)


def test_rows_with_a_common_factor_and_a_zero_row():
    # row scaling keeps the rref: every row but the zero one has a factor
    # of 6 to 180, which the elimination divides out
    a = fmatrix([[6, 12, -18, 24], [0, 0, 0, 0], [180, -360, 540, 0],
                       [Fraction(7, 2), 7, Fraction(21, 2), 0]])
    for b in ([12, 0, 180, 7], [12, 1, 180, 7], [0, 0, 0, 0]):
        _assert_matches_the_oracle(a, fmatrix([b]).ravel())
    y, d, tail = exact.solve(a, fmatrix([[12, 1, 180, 7]]).T)
    # d is the pivot minor of the primitive rows, without their factors
    # 6, 180 and 7; the zero row, the one below the rank, keeps b's 1 as
    # d times it
    assert d == -24 and tail.tolist() == [[-24]]


# the two-summand entries whose exact lane runs, and the pairs their
# digests read; go-4-r2 leaves int64 mid-elimination on most samples and
# t1-V.1-m3n3 gives NOT_GO with its rank-gap witness
EXACT_IDS = ("go-2", "go-3-k2", "go-3-k3", "go-4-r2", "go-5", "go-6-m2n1",
             "go-6-m3n2", "go-7-n2", "go-8-n1", "t1-V.1-m3n3", "struct-2",
             "struct-3", "struct-4", "struct-6", "struct-7")
EXACT_PAIRS = ((1, 2), (2, 1), (1, 5), (Fraction(5, 2), Fraction(1, 3)))


def _exact_digest(entry_id: str, seed: int) -> str:
    """sha256 of one space's exact lane (bases and denominator) and of its
    exact verdicts at EXACT_PAIRS, each with every witness."""
    space = catalog.catalog_instantiate(entry_id, seed=seed)
    lane = space.exact_lane
    dump = {"bases": [b.tolist() for b in lane.bases], "denom": lane.denom,
            "verdicts": []}
    for lam, mu in EXACT_PAIRS:
        verdict = go.go_check(space, (Fraction(lam), Fraction(mu)),
                              n_samples=8, seed=seed, exact_mode=True)
        dump["verdicts"].append([verdict.as_dict()]
                                + [w.as_dict() for w in verdict.witnesses])
    return hashlib.sha256(
        json.dumps(dump, sort_keys=True).encode()).hexdigest()


def test_exact_verdicts_match_the_checked_in_digests():
    # every exact verdict and witness, and each lane's bases, for seeds
    # 0..3, is pinned to the byte: a change shows in the diff of
    # tests/exact_digests.json
    want = json.loads(Path(__file__).with_name(
        "exact_digests.json").read_text())["sha256"]
    got = {f"{entry_id}/{seed}": _exact_digest(entry_id, seed)
           for entry_id in EXACT_IDS for seed in range(4)}
    assert got == want
