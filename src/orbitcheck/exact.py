"""Exact rational linear algebra on matrices of fractions.

Matrices are numpy object arrays holding fractions.Fraction entries.
Products run on integer arrays over a common denominator: ``matmul``
scales each operand by the lcm of its denominators, multiplies the
integer arrays, and divides once per output entry. Rank computations
clear denominators row by row the same way and run fraction-free
(Bareiss) elimination so that every intermediate value stays integral;
row reduction for solving and kernels uses plain Fraction arithmetic.
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


def fmatrix(rows) -> np.ndarray:
    arr = np.array([[frac(v) for v in row] for row in rows], dtype=object)
    if arr.ndim == 1:
        arr = arr.reshape(0, 0)
    return arr


def fzeros(shape) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    arr[...] = Fraction(0)
    return arr


def fidentity(n: int) -> np.ndarray:
    arr = fzeros((n, n))
    for i in range(n):
        arr[i, i] = Fraction(1)
    return arr


def to_float(a: np.ndarray) -> np.ndarray:
    return np.array(a, dtype=np.float64)


def _cleared(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer object array n and common denominator d with a == n / d."""
    fracs = [frac(x) for x in a.flat]
    d = math.lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (d // x.denominator) for x in fracs]
    return np.array(ints, dtype=object).reshape(a.shape), d


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product ``a @ b`` of rational arrays (``b`` may be 1-D).

    Both operands are scaled to Python integers by the lcm of their
    denominators, so the product is one integer ``@``, where a zero
    factor costs almost nothing; each output entry is then divided by
    the product of the two denominators.
    """
    ia, da = _cleared(a)
    ib, db = _cleared(b)
    num = ia @ ib
    d = da * db
    return np.array([Fraction(n, d) for n in num.flat],
                    dtype=object).reshape(num.shape)


def bareiss_rank(a: np.ndarray) -> int:
    """Rank via fraction-free Gaussian elimination on cleared denominators."""
    if a.size == 0:
        return 0
    m = [list(_cleared(row)[0]) for row in a]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for r in range(row + 1, n_rows):
            factor = m[r][col]
            for c in range(col, n_cols):
                m[r][c] = (pivot * m[r][c] - factor * m[row][c]) // prev
        prev = pivot
        row += 1
        rank += 1
        if row == n_rows:
            break
    return rank


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over the rationals, with pivot columns."""
    m = np.array([[frac(x) for x in row] for row in a], dtype=object) if a.size else a.copy()
    n_rows, n_cols = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[[row, pivot_row]] = m[[pivot_row, row]]
        m[row] = m[row] / m[row][col]
        for r in range(n_rows):
            if r != row and m[r][col] != 0:
                m[r] = m[r] - m[r][col] * m[row]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return m, pivots


def null_space(a: np.ndarray) -> np.ndarray:
    """Columns spanning the exact kernel, in rref free-column form.

    Each kernel vector carries value 1 at its own free column and 0 at
    every other free column, which makes coordinate extraction against
    this basis a direct read-off.
    """
    n_cols = a.shape[1]
    if a.size == 0:
        return fidentity(n_cols)
    r, pivots = rref(a)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = fzeros((n_cols, len(free)))
    for k, fc in enumerate(free):
        basis[fc, k] = Fraction(1)
        for i, pc in enumerate(pivots):
            basis[pc, k] = -r[i][fc]
    return basis


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One exact solution of ``a x = b``, or None when inconsistent."""
    n_rows, n_cols = a.shape
    aug = fzeros((n_rows, n_cols + 1))
    aug[:, :n_cols] = a
    for i in range(n_rows):
        aug[i, n_cols] = frac(b[i])
    r, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = fzeros(n_cols)
    for i, pc in enumerate(pivots):
        x[pc] = r[i][n_cols]
    return x


def solvable(a: np.ndarray, b: np.ndarray) -> tuple[bool, int, int]:
    """Exact consistency certificate: (solvable, rank_a, rank_augmented)."""
    n_rows, n_cols = a.shape
    aug = fzeros((n_rows, n_cols + 1))
    aug[:, :n_cols] = a
    for i in range(n_rows):
        aug[i, n_cols] = frac(b[i])
    rank_a = bareiss_rank(a)
    rank_aug = bareiss_rank(aug)
    return rank_aug == rank_a, rank_a, rank_aug


def format_value(x: Fraction) -> str | int:
    x = frac(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"
