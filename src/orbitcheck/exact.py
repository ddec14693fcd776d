"""Exact rational linear algebra on integer arrays over one denominator.

Rational matrices enter as numpy object arrays of fractions.Fraction
entries (or of Python ints), and ``cleared`` turns one into an integer
array n over a common denominator d. ``rounded`` does the same for the
entries of a float array rounded to fractions with denominators up to
2^20, taking the nearest integer directly wherever it lies within 2^-21,
where it is provably ``limit_denominator``'s answer. Products run on
such integers too: ``imatmul`` multiplies integer arrays in int64
wherever max|a| max|b| (inner length) < 2^63 bounds every partial sum,
and on Python ints otherwise. One fraction-free forward elimination
serves the two solvers, ``null_space`` and ``solve``. It takes int64
input as it is and clears any other row to integers, divides each row by
the gcd of its entries, which keeps the rref and shortens every minor,
then runs Bareiss steps in place, in int64 for as long as a running
bound per pivot, measured again only where it fails, proves them exact,
and on Python ints after. Each solver back-substitutes, in integers too,
the columns it needs (the free ones, or the right-hand sides, all at
once), and returns its answer as Python integers over one denominator,
so no row operation ever touches a Fraction. ``solve`` is its two
halves, ``eliminated`` (the echelon rows and the tail that decides
consistency) and ``back_substituted``, which a caller may run apart,
only where it wants the solution. ``reduced`` brings such a pair to its
least denominator, ``over`` back to Fractions. ``certified`` verifies
instead: it proves b in a's column space by one integer identity, from a
float proposal, and leaves any system it cannot prove to the
elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, float):
        as_frac = Fraction(value).limit_denominator(1 << 20)
        if float(as_frac) != value:
            raise ValueError(f"{value!r} is not exactly rational")
        return as_frac
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def fzeros(shape) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    arr[...] = Fraction(0)
    return arr


def to_float(a: np.ndarray, d: int = 1) -> np.ndarray:
    """Float array of ``a / d``, each entry rounded once (``a`` of
    Fractions, Python ints or int64). An int64 ``a`` with every
    |entry| <= 2^53 over 0 < |d| <= 2^53 is one float division of exact
    operands, correctly rounded as Python's int division is; any other
    entry is divided as a Python number."""
    if d == 1:
        return np.array(a, dtype=np.float64)
    if a.dtype == np.int64 and 0 < abs(d) <= 2 ** 53 and _top(a) <= 2 ** 53:
        return a.astype(np.float64) / d
    return np.array([v / d for v in a.ravel().tolist()],
                    dtype=np.float64).reshape(a.shape)


def cleared(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer object array n and common denominator d with a == n / d.
    Entries that are all Fractions or Python ints are read as they are;
    any other set goes through ``frac``."""
    fracs = list(a.flat)
    if not set(map(type, fracs)) <= {Fraction, int}:
        fracs = [frac(x) for x in fracs]
    d = math.lcm(*{x.denominator for x in fracs})
    ints = [x.numerator * (d // x.denominator) for x in fracs]
    return np.array(ints, dtype=object).reshape(a.shape), d


def rounded(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``cleared`` of the float array ``a`` with each entry x rounded to
    ``Fraction(x).limit_denominator(2**20)``: integer object array n and
    denominator d.

    An entry within 2^-21 of an integer k (a difference that float
    subtraction computes exactly) takes k, without a Fraction: every
    other fraction with denominator up to 2^20 lies at least 2^-20 from
    k, so farther from x than k is. Every other entry, and any |k| from
    2^62 up, goes through ``limit_denominator``.
    """
    k = np.rint(a)
    far = ~(np.abs(a - k) < 2.0 ** -21) | (np.abs(k) >= 2.0 ** 62)
    fracs = [Fraction(x).limit_denominator(1 << 20) for x in a[far].tolist()]
    d = math.lcm(*(x.denominator for x in fracs))
    n = np.where(far, 0, k).astype(np.int64).astype(object) * d
    n[far] = [x.numerator * (d // x.denominator) for x in fracs]
    return n, d


def _top(a: np.ndarray) -> int:
    """max |entry| of an integer array, as a Python int (0 if empty)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def narrowed(a: np.ndarray) -> np.ndarray:
    """The integer array ``a`` as int64 where every |entry| < 2^63, so
    that -a fits too, else as Python ints."""
    try:
        n = a.astype(np.int64, copy=False)
    except OverflowError:  # an entry past int64
        return a
    return n if _top(n) < 2 ** 63 else a.astype(object)


def imatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``a @ b`` of integer arrays (int64 or Python-int object).

    Every partial sum is at most max|a| max|b| times the inner length in
    size. Where both operands fit int64 and that bound, computed on
    Python ints, is below 2^63, the product runs in int64 and comes back
    int64; otherwise it runs on Python ints and comes back object. An
    int64 operand is taken as it is: an entry -2^63 fails the bound
    unless the other operand is 0.
    """
    a, b = (x if x.dtype == np.int64 else narrowed(x) for x in (a, b))
    if a.dtype == b.dtype == np.int64 \
            and _top(a) * _top(b) * a.shape[-1] < 2 ** 63:
        return a @ b
    return a.astype(object) @ b.astype(object)


def over(num: np.ndarray, d: int) -> np.ndarray:
    """The Fraction array ``num / d`` of an integer object array."""
    return np.array([Fraction(n, d) for n in num.flat],
                    dtype=object).reshape(num.shape)


def reduced(n: np.ndarray, d: int) -> tuple[np.ndarray, int]:
    """The integer array ``n / d`` over its least positive denominator:
    n and d divided by their gcd, signed by d's sign (d nonzero)."""
    g = math.gcd(d, *n.flat)
    if d < 0:
        g = -g
    return n // g, d // g


def _eliminate(a: np.ndarray, width: int
               ) -> tuple[np.ndarray, list[int], int]:
    """``_bareiss`` without the row order: (rows, pivots, d)."""
    return _bareiss(a, width)[:3]


def _bareiss(a: np.ndarray, width: int
             ) -> tuple[np.ndarray, list[int], int, list[int]]:
    """Fraction-free forward elimination: (rows, pivots, d, order), with
    order[k] the index in ``a`` of the row that the k-th pivot took.

    An int64 matrix (every |entry| < 2^63, as ``narrowed`` and
    ``imatmul`` give) or one of Python ints is taken as it is; any other
    has each row cleared to Python integers. Each row is then divided by
    the gcd of its entries (``np.gcd.reduce`` on int64 input; a zero row
    stays as it is), which keeps the rref and scales each minor by a
    positive factor. Each pivot p, found among the
    first ``width`` columns, then updates the rows below it, from its
    column on, by the Bareiss step (p m[r][j] - m[r][col] m[row][j]) // d,
    with d the previous pivot (1 at the start). Every division is exact
    because every entry stays a minor of the primitive-row matrix.

    The steps run in int64 while 2 M^2 < 2^63, with M the largest
    |entry| of the block m[row:, col:] that the step reads: each product
    is at most M^2 in size, their difference at most 2 M^2, and the
    quotient by d, a nonzero earlier pivot, no larger. A running bound
    T >= M, which a step keeps at 2 T^2 // |d|, spares measuring M
    (``_top``) where 2 T^2 < 2^63. From the first step whose M fails on,
    the steps run on Python ints; a matrix with an entry outside int64
    starts there. On return the rows are an integer echelon form and d,
    a Python int, is the last pivot, which may be negative.
    """
    n_rows, n_cols = a.shape
    if a.dtype == np.int64:
        m = a // np.maximum(np.gcd.reduce(a, axis=1), 1)[:, None]
    else:
        if set(map(type, a.flat)) <= {int}:
            rows = a.tolist()
        else:
            rows = [cleared(row)[0].tolist() for row in a]
        rows = [[v // g for v in row] if (g := math.gcd(*row)) > 1 else row
                for row in rows]
        try:
            m = np.array(rows, dtype=np.int64).reshape(n_rows, n_cols)
        except OverflowError:
            m = np.array(rows, dtype=object).reshape(n_rows, n_cols)
    pivots: list[int] = []
    order = list(range(n_rows))
    d, top = 1, 2 ** 63  # no int64 |entry| exceeds 2^63
    for col in range(width):
        row = len(pivots)
        if row == n_rows:
            break
        if not m[row, col]:
            below = m[row + 1:, col].nonzero()[0]
            if not below.size:
                continue
            swap = row + 1 + below[0]
            m[row], m[swap] = m[swap], m[row].copy()
            order[row], order[swap] = order[swap], order[row]
        if m.dtype != object and 2 * top * top >= 2 ** 63:
            top = _top(m[row:, col:])
            if 2 * top * top >= 2 ** 63:
                m, d = m.astype(object), int(d)
        p, block = m[row, col], m[row + 1:, col:]
        outer = np.multiply.outer(block[:, 0], m[row, col:])
        block *= p
        block -= outer
        if d != 1:
            block //= d
        if m.dtype != object:
            top = 2 * top * top // abs(int(d))
        d = p
        pivots.append(col)
    return m, pivots, int(d), order


def _back_substitute(rows: np.ndarray, pivots: list[int], d: int, cols):
    """Integers Y, with Y / d the reduced row echelon entries of the
    columns ``cols`` of ``_eliminate``'s (rows, pivots, d), from the last
    pivot up: y_k = (d u_k - sum_{i>k} U[k, P_i] y_i) // U[k, P_k]. Each
    division is exact by Cramer's rule, as d is the leading pivot minor.
    The recurrence runs on Python lists: a numpy call per pivot costs
    more than the few products it does.
    """
    y: list[list[int]] = [[]] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        row = rows[k].tolist()
        later = [(row[p], y[i]) for i, p in enumerate(pivots[k + 1:], k + 1)
                 if row[p]]
        y[k] = [(d * row[c] - sum(u * yi[j] for u, yi in later))
                // row[pivots[k]] for j, c in enumerate(cols)]
    return np.array(y, dtype=object).reshape(len(pivots), len(cols))


def certified(ab: np.ndarray, width: int, cols: list[int],
              rows: list[int]) -> np.ndarray:
    """One bool per stacked int64 system ab[i] = [a | b], a its first
    ``width`` columns: True where b provably lies in a's column space.

    Each row is divided by its content, as in ``_eliminate``;
    ``proposed`` then reads [S | b[rows]], S = a[rows, cols], and the
    check is exact: [a[:, cols] | b] [Y; -D I] = 0, one ``imatmul``, with
    D != 0, so b = a[:, cols] Y / D. False proves nothing.
    """
    ab = ab // np.maximum(np.gcd.reduce(ab, axis=-1), 1)[..., None]
    sides = ab[:, :, list(cols) + list(range(width, ab.shape[-1]))]
    y, det = proposed(sides[:, rows], len(cols))
    w = np.concatenate([y, np.multiply.outer(
        -det, np.identity(ab.shape[-1] - width, dtype=np.int64))], axis=1)
    return (det != 0) & ~imatmul(sides, w).any(axis=(1, 2))


def proposed(sb: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Untrusted int64 Y and D for stacked [S | B], S r x r: D = rint(det S)
    and Y = rint(D S^-1 B), numpy's batched det and solve. Both are 0
    where D is 0 or D or Y reaches 2^52 in size; such an S is swapped
    for the identity first, so no singular S reaches the solve."""
    sb = sb.astype(np.float64)
    s = sb[..., :r]
    with np.errstate(all="ignore"):  # a det past float range is bad
        det = np.rint(np.linalg.det(s))
    bad = ~(np.abs(det) < 2.0 ** 52) | (det == 0)
    det[bad], s[bad] = 0, np.identity(r)
    y = np.rint(det[:, None, None] * np.linalg.solve(s, sb[..., r:]))
    bad = ~(np.abs(y) < 2.0 ** 52).all(axis=(1, 2))
    y[bad], det[bad] = 0, 0
    return y.astype(np.int64), det.astype(np.int64)


def null_space(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer columns N and denominator d, with N / d spanning the exact
    kernel in rref free-column form, over the least d.

    Each kernel vector carries value 1 at its own free column and 0 at
    every other free column, which makes coordinate extraction against
    this basis a direct read-off. The rank of ``a`` is its column count
    less N's.
    """
    n_cols = a.shape[1]
    m, pivots, d = _eliminate(a, n_cols)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((n_cols, len(free)), dtype=object)
    basis[free, range(len(free))] = d
    basis[pivots] = -_back_substitute(m, pivots, d, free)
    return reduced(basis, d)


def eliminated(ab: np.ndarray, n_cols: int
               ) -> tuple[np.ndarray, list[int], int, np.ndarray]:
    """The forward half of ``solve``: ``_eliminate``'s (rows, pivots, d)
    of ab = [a | b], pivoting on a's ``n_cols`` columns only, with its
    rows cut to the rank, and ``tail``, b's reduced rows below the rank
    as Python ints. ``back_substituted`` finishes it when Y is wanted."""
    m, pivots, d = _eliminate(ab, n_cols)
    return m[:len(pivots)], pivots, d, m[len(pivots):, n_cols:].astype(object)


def back_substituted(rows: np.ndarray, pivots: list[int], d: int,
                     n_cols: int) -> np.ndarray:
    """Y of ``solve`` from ``eliminated``'s (rows, pivots, d) of a system
    with ``n_cols`` unknowns: Python ints, 0 at every free unknown."""
    y = np.zeros((n_cols, rows.shape[1] - n_cols), dtype=object)
    y[pivots] = _back_substitute(rows, pivots, d, range(n_cols, rows.shape[1]))
    return y


def solve(a: np.ndarray, b: np.ndarray):
    """Rref solutions Y / d of ``a Y = b`` (free unknowns 0, d maybe
    negative) and ``tail``, b's reduced rows below the rank, each times
    d over the content (gcd) of the row it came from. Only a's columns
    pivot: a combination of b's columns is consistent exactly where that
    of tail's vanishes, and its solution is that of Y's."""
    rows, pivots, d, tail = eliminated(np.column_stack([a, b]), a.shape[1])
    return back_substituted(rows, pivots, d, a.shape[1]), d, tail


def format_value(x: Fraction) -> str | int:
    x = frac(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"
