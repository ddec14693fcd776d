"""Lie algebras presented by structure constants, with a chosen inner product.

The structure tensor convention is [e_i, e_j] = sum_k c[i][j][k] e_k.
Every algebra holds its constants once, as ``StructureConstants``: the
sorted triples (i, j, k) with a nonzero c[i][j][k] and their values,
Python-int numerators over one denominator for an exact algebra (every
classical algebra, g2, rational JSON specs, direct sums of exact
algebras), float64 for a float one (float JSON specs, dense tensors).
Every contraction, exact or float, runs on the triples;
``LieAlgebra.structure`` rebuilds the dense tensor on each read. The one
float Gram defaults to the negative Killing form on the derived algebra
plus the dot product on the center, ad-invariant and positive definite
on compact algebras; the exact GO lane reads its rationals back and
proves them ad-invariant, and ``validate_algebra`` checks antisymmetry,
Jacobi and, for a LieAlgebra, the Gram's ad-invariance.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact
from .linalg import (DEFAULT_TOL, RANK_FLOOR, column_space,
                     gram_orthonormalize, nullspace, project_onto, svd_rank)


class OrbitcheckError(Exception):
    """Base error for the package."""


class ValidationError(OrbitcheckError):
    pass


class EffectivenessError(OrbitcheckError):
    pass


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry: float
    jacobi: float
    passed: bool
    mode: str = "float"
    invariance: float | None = None  # None: no inner product was given

    def as_dict(self) -> dict:
        return asdict(self)


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (a, b) with left[a] == right[b], for integer keys."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    lo = np.searchsorted(ordered, left, "left")
    counts = np.searchsorted(ordered, left, "right") - lo
    a = np.repeat(np.arange(len(left)), counts)
    shift = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return a, order[shift + np.arange(len(a))]


def _accumulate(keys: np.ndarray,
                values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in increasing order, with the sum of the values at each."""
    if not len(keys):
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], np.add.reduceat(values[order], starts)


def _fractions(shape, keys: np.ndarray, sums: np.ndarray,
               denom: int) -> np.ndarray:
    """Fraction array of the given shape, sums / denom at the flat keys."""
    out = exact.fzeros(shape)
    for key, v in zip(keys.tolist(), sums):
        out.flat[key] = Fraction(int(v), denom)
    return out


def _floats(shape, keys: np.ndarray, sums: np.ndarray,
            denom: int) -> np.ndarray:
    """Float array of the given shape, sums / denom rounded at the keys."""
    out = np.zeros(shape)
    try:
        out.flat[keys] = exact.to_float(sums, denom)
    except OverflowError:  # a quotient past the float range reads as +-inf
        out.flat[keys] = [_nearest_float(Fraction(int(v), denom)) for v in sums]
    return out


def _nearest_float(value) -> float | None:
    """Nearest float of a real or rational string, +-inf on overflow, or None."""
    try:
        number = Fraction(value) if isinstance(value, str) else value
        return float(number) if isinstance(number, numbers.Real) else None
    except (ValueError, ZeroDivisionError):
        return None
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def check_finite(matrix: np.ndarray, what: str) -> None:
    """Raise a ValidationError naming the first non-finite entry."""
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        at = tuple(int(t) for t in bad[0])
        raise ValidationError(f"{what} entry {at} is {matrix[at]}, not finite")


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Structure constants as sorted triples.

    Row t of ``index`` is (i, j, k): e_k has coefficient
    numer[t] / denom in [e_i, e_j]. Rows are distinct and in increasing
    order. Exact numerators are nonzero Python ints (an object array)
    over their least common denominator (1 for every classical algebra
    and g2); float ones are float64, over 1.
    """

    dim: int
    index: np.ndarray
    numer: np.ndarray
    denom: int = 1

    @property
    def exact(self) -> bool:
        return self.numer.dtype == object

    @cached_property
    def values(self) -> np.ndarray:
        """Float value of each triple, numer / denom rounded once."""
        return exact.to_float(self.numer, self.denom)

    @cached_property
    def groups(self) -> tuple[np.ndarray, ...]:
        """The distinct j n + k and i n + j of the triples, each followed
        by every triple's place among them: the compressed axes of
        ``left_brackets`` and ``bracket_images``."""
        i, j, k = self.index.T
        jk, at_jk = np.unique(j * self.dim + k, return_inverse=True)
        ij, at_ij = np.unique(i * self.dim + j, return_inverse=True)
        return jk, at_jk.reshape(-1), ij, at_ij.reshape(-1)

    def _machine(self, terms: int) -> np.ndarray:
        """The exact numerators as int64 where max|c|^2 ``terms`` < 2^63,
        computed on Python ints, bounds every sum of up to ``terms``
        products of two of them (and of two numerators); otherwise as
        they are."""
        if not self.exact:
            return self.numer
        top = exact._top(self.numer)
        return (self.numer.astype(np.int64)
                if top * top * max(terms, 2) < 2 ** 63 else self.numer)

    def residuals(self) -> tuple[Fraction, Fraction]:
        """Largest |c_ijk + c_jik| and largest Jacobi defect, exactly.

        The Jacobi defect J(a, b, c) = [[a, b], c] + [[b, c], a]
        + [[c, a], b] comes from one join of the rows (a, b, m) with the
        rows (m, c, p); each product c_abm c_mcp is one term of J at the
        three cyclic rotations of (a, b, c). The sums run in int64 where
        ``_machine`` bounds them, on Python ints otherwise.
        """
        n = self.dim
        i, j, k = self.index.T
        a, b = _join(k, i)
        numer = self._machine(3 * len(a))
        _, anti = _accumulate(np.concatenate([(i * n + j) * n + k,
                                              (j * n + i) * n + k]),
                              np.concatenate([numer, numer]))
        x, y, z, p = i[a], j[a], j[b], k[b]
        _, jac = _accumulate(
            np.concatenate([((x * n + y) * n + z) * n + p,
                            ((z * n + x) * n + y) * n + p,
                            ((y * n + z) * n + x) * n + p]),
            np.tile(numer[a] * numer[b], 3))
        return (Fraction(int(np.abs(anti).max(initial=0)), self.denom),
                Fraction(int(np.abs(jac).max(initial=0)), self.denom ** 2))

    def killing(self) -> tuple[np.ndarray, np.ndarray]:
        """denom^2 B_ij = denom^2 sum_{m,n} c_imn c_jnm as flat (keys,
        sums), from one join of the rows (i, m, n) with the rows (j, n, m);
        the sums are Python ints, run in int64 where ``_machine``
        bounds them."""
        n = self.dim
        i, j, k = self.index.T
        a, b = _join(j * n + k, k * n + j)
        numer = self._machine(len(a))
        keys, sums = _accumulate(i[a] * n + i[b], numer[a] * numer[b])
        return keys, sums.astype(object)

    def invariance(self, gram: np.ndarray) -> int:
        """Largest |denom (<[e_a, e_b], e_c> + <e_b, [e_a, e_c]>)| for an
        integer Gram, on Python ints: 0 exactly when it is ad-invariant.
        One join of the rows (a, b, d) with the Gram's nonzero (d, c) puts
        each term c_abd G_dc at (a, b, c) and at (a, c, b). The exact
        lane's GO equation, [X + Z, A X] in h for X in m and Z in h, is
        the geodesic lemma <[X + Z, Y]_m, A X> = 0 (all Y in m) only once
        ad(X + Z) moves across the inner product, with X in m: ad(h)-
        invariance, which keeps m and its modules invariant, is not enough.
        """
        n = self.dim
        i, j, k = self.index.T
        d, col = np.nonzero(gram)
        row, at = _join(k, d)
        a, b, c = i[row], j[row], col[at]
        terms = self.numer.astype(object)[row] * gram[d[at], c].astype(object)
        _, sums = _accumulate(np.concatenate([(a * n + b) * n + c,
                                              (a * n + c) * n + b]),
                              np.tile(terms, 2))
        return int(np.abs(sums).max(initial=0))

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Exact [x, y] for Fraction coordinate vectors, from
        ``bracket_numerators`` on integers over the cleared denominators."""
        xi, dx = exact.cleared(x)
        yi, dy = exact.cleared(y)
        return _fractions(self.dim, *self.bracket_numerators(xi, yi),
                          self.denom * dx * dy)

    def bracket_numerators(self, x: np.ndarray, y: np.ndarray):
        """denom [x, y] for integer vectors, as its nonzero (keys, sums).
        Only rows (i, j, k) with x_i and y_j both nonzero are touched."""
        i, j, k = self.index.T
        rows = np.flatnonzero((x != 0)[i] & (y != 0)[j])
        return _accumulate(k[rows], self.numer[rows] * x[i[rows]] * y[j[rows]])

    def ad_numerators(self, xs: np.ndarray) -> np.ndarray:
        """Integer ad matrices of the integer columns of ``xs`` (n, k).

        Returns N of shape (k, n, n) with ad(x_t) = N[t] / denom, so
        N[t] @ y is denom [x_t, y]. Only rows (i, j, k) with x_t[i]
        nonzero are touched, r of them, so each entry of N sums at most r
        products c x: N is int64 where max|c| max|x| r < 2^63, computed
        on Python ints, and Python ints otherwise.
        """
        n = self.dim
        i, j, k = self.index.T
        xs = exact.narrowed(xs)
        rows, t = np.nonzero(xs[i] != 0)
        numer = self.numer
        if xs.dtype == np.int64 and self.exact and exact._top(numer) \
                * exact._top(xs) * len(rows) < 2 ** 63:
            numer = numer.astype(np.int64)
        else:
            numer, xs = numer.astype(object), xs.astype(object)
        keys, sums = _accumulate((t * n + k[rows]) * n + j[rows],
                                 numer[rows] * xs[i[rows], t])
        out = np.zeros(xs.shape[1] * n * n, dtype=numer.dtype)
        out[keys] = sums
        return out.reshape(xs.shape[1], n, n)


def _entries(dim: int, table: np.ndarray,
             values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct (i, j, k), in range(dim), of an (m, 4) entry table
    with their ``values``: zeros dropped, of repeats the last kept."""
    index = table[:, :3].astype(np.int64)
    keys = (index[:, 0] * dim + index[:, 1]) * dim + index[:, 2]
    _, last = np.unique(keys[::-1], return_index=True)
    keep = len(keys) - 1 - last
    keep = keep[values[keep] != 0]
    return index[keep], values[keep]


def structure_constants(dim: int, entries) -> StructureConstants:
    """Exact triples from (i, j, k, value) entries with rational values
    (Fractions, ints, strings or exactly rational floats), as ``_entries``
    reads them."""
    table = np.array(entries, dtype=object).reshape(len(entries), 4)
    index, values = _entries(dim, table, np.array(
        [exact.frac(v) for v in table[:, 3]], dtype=object))
    return StructureConstants(dim, index, *exact.cleared(values))


def float_constants(structure) -> StructureConstants:
    """Float triples of a dense (n, n, n) tensor: every nonzero entry bit
    for bit, in index order; only exact zeros are dropped."""
    arr = np.asarray(structure, dtype=np.float64)
    _check_tensor_shape(arr)
    index = np.argwhere(arr)
    return StructureConstants(arr.shape[0], index, arr[tuple(index.T)])


def _check_tensor_shape(structure: np.ndarray) -> None:
    if structure.ndim != 3 or len(set(structure.shape)) != 1:
        raise ValidationError(f"structure tensor must be cubic with 3 axes, "
                              f"got shape {structure.shape}")


def jacobi_residual(structure: np.ndarray) -> float:
    """Max-norm of the Jacobi identity over all basis triples (float tensor).

    Evaluated one i-slice at a time to keep memory at O(n^3); a NaN
    anywhere gives NaN.
    """
    n = structure.shape[0]
    flat = structure.reshape(n, n * n)
    worst = 0.0
    for i in range(n):
        term1 = (structure[i] @ flat).reshape(n, n, n)
        term2 = (structure.reshape(n * n, n) @ structure[:, i, :]).reshape(n, n, n)
        term3 = (structure[:, i, :] @ flat).reshape(n, n, n)
        total = term1 + term2 + np.transpose(term3, (1, 0, 2))
        worst = float(np.maximum(worst, np.abs(total).max()))
    return worst


def validate_algebra(structure, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Antisymmetry and Jacobi check, and for a LieAlgebra the
    ad-invariance of its inner product.

    Accepts a float tensor, exact ``StructureConstants`` or a
    LieAlgebra. Exact constants are checked on their triples in integer
    arithmetic and pass only with both residuals exactly 0; a float
    algebra is checked densely, on its rebuilt ``structure`` (a join over
    dense float triples would cost n^5 memory), against ``tol``. A
    LieAlgebra's ``invariance``, the largest |<[e_a, e_b], e_c> +
    <e_b, [e_a, e_c]>| relative to max |Gram|, must be 0 where it is
    exact (``StructureConstants.invariance`` on exact constants and a
    Gram that ``exact.rounded`` reads back), else at most ``tol``.
    """
    if isinstance(structure, LieAlgebra):
        gram, c = structure.inner_product, structure.structure_exact
        ip, dip = exact.rounded(gram)
        proven = c is not None and np.array_equal(exact.to_float(ip, dip),
                                                  gram)
        if proven:
            top = c.denom * (int(np.abs(ip).max(initial=0)) or 1)
            invariance = float(Fraction(c.invariance(ip), top))
        else:
            top = float(np.abs(gram).max(initial=0.0)) or 1.0
            invariance = structure.inner_ad_invariance() / top
        report = validate_algebra(c or structure.structure, tol)
        return replace(report, invariance=invariance, passed=report.passed
                       and invariance <= (0.0 if proven else tol))
    if isinstance(structure, StructureConstants):
        anti, jac = structure.residuals()
        return ValidationReport(float(anti), float(jac),
                                anti == 0 and jac == 0, mode="exact")
    arr = np.asarray(structure, dtype=np.float64)
    _check_tensor_shape(arr)
    anti = float(np.abs(arr + np.transpose(arr, (1, 0, 2))).max()) if arr.size else 0.0
    jac = jacobi_residual(arr) if arr.size else 0.0
    return ValidationReport(anti, jac, anti <= tol and jac <= tol)


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Immutable Lie algebra: structure constants and one float Gram.
    A dense (n, n, n) tensor given as ``constants`` becomes float triples
    (``float_constants``). Equality and hashing are by identity."""

    constants: StructureConstants
    inner_product: np.ndarray
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.constants, StructureConstants):
            object.__setattr__(self, "constants",
                               float_constants(self.constants))
        gram = np.ascontiguousarray(np.asarray(self.inner_product, dtype=np.float64))
        if gram.shape != (self.dim, self.dim):
            raise ValidationError("inner product shape does not match dim")
        gram.flags.writeable = False
        object.__setattr__(self, "inner_product", gram)

    @property
    def dim(self) -> int:
        return self.constants.dim

    @property
    def structure(self) -> np.ndarray:
        """The dense (n, n, n) tensor, rebuilt from the triples per read."""
        c = self.constants
        out = np.zeros((c.dim,) * 3)
        out[tuple(c.index.T)] = c.values
        return out

    @property
    def structure_exact(self) -> StructureConstants | None:
        """The constants when they are exact, else None."""
        return self.constants if self.constants.exact else None

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.ad(x) @ y

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) acting on coordinate vectors."""
        return left_brackets(self, x[:, None])[0].T

    def _exact(self) -> StructureConstants:
        if self.structure_exact is None:
            raise ValidationError(f"{self.name or 'algebra'} has no exact structure")
        return self.structure_exact

    def bracket_exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._exact().bracket(x, y)

    @cached_property
    def killing_form(self) -> np.ndarray:
        return _killing_floats(self.constants)

    @cached_property
    def killing_form_exact(self) -> np.ndarray:
        c = self._exact()
        return _fractions((self.dim,) * 2, *c.killing(), c.denom ** 2)

    @cached_property
    def center(self) -> np.ndarray:
        """Orthonormal basis of the center (kernel of ad), read-only."""
        center = _center(self.constants)
        center.flags.writeable = False
        return center

    def validate(self, tol: float = DEFAULT_TOL) -> ValidationReport:
        return validate_algebra(self, tol)

    def inner_ad_invariance(self) -> float:
        """Max violation of <[x,y],z> + <y,[x,z]> = 0 over basis triples.

        Evaluated one i-slice t[j, l] = <[e_i, e_j], e_l> at a time, the
        rows of ``bracket_images`` whose pairs start with i, to keep
        memory at O(n^2); a NaN anywhere gives NaN.
        """
        c, n = self.constants, self.dim
        ij, at_ij = c.groups[2:]
        rows = np.searchsorted(ij, np.arange(n + 1) * n)  # pairs (i, .)
        cuts = np.searchsorted(at_ij, rows)  # their triples
        worst = 0.0
        for i in range(n):
            at = slice(cuts[i], cuts[i + 1])
            mat = np.zeros((rows[i + 1] - rows[i], n))
            mat[at_ij[at] - rows[i], c.index[at, 2]] = c.values[at]
            t = np.zeros((n, n))
            t[ij[rows[i]:rows[i + 1]] - i * n] = mat @ self.inner_product
            worst = float(np.maximum(worst, np.abs(t + t.T).max(initial=0.0)))
        return worst

    def to_json_dict(self) -> dict:
        c = self.constants
        values = ([exact.format_value(Fraction(int(v), c.denom)) for v in c.numer]
                  if c.exact else c.numer.tolist())
        entries = [[i, j, k, v] for (i, j, k), v in zip(c.index.tolist(), values)]
        return {"name": self.name, "dim": self.dim, "structure": entries,
                "inner_product": self.inner_product.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LieAlgebra({self.name or 'unnamed'}, dim={self.dim})"


def _check_spec(data: dict) -> None:
    """Refuse a spec, naming the field and its first bad entry, unless its
    dim is a positive integer up to 240, its structure a list of [i, j, k,
    value] entries with integer indices and a number or rational-string
    value, and its inner product, if any, dim rows of dim such values."""
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) \
            or dim < 1:
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    if dim > 240:  # so(16)+so(16), the largest sum of two cap algebras
        raise ValidationError(f"dim {dim} exceeds the cap of 240")
    entries = data.get("structure")
    if not isinstance(entries, list):
        raise ValidationError("structure must be a list of [i, j, k, value] "
                              f"entries, got {entries!r}")
    for t, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 4
                and all(isinstance(i, numbers.Integral) for i in entry[:3])
                and _nearest_float(entry[3]) is not None):
            raise ValidationError(
                f"structure entry {t} is {entry!r}, not [i, j, k, value] of "
                "integer indices and a number or rational string")
    rows = data.get("inner_product")
    if rows is None:
        return
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValidationError("inner product shape does not match dim: "
                              f"{rows!r} is not a list of {dim} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError("inner product shape does not match dim: "
                                  f"row {i} is {row!r}, not {dim} entries")
        for j, value in enumerate(row):
            if _nearest_float(value) is None:
                raise ValidationError(f"inner product entry ({i}, {j}) is "
                                      f"{value!r}, not a number")


def algebra_from_json_dict(data: dict) -> LieAlgebra:
    """Algebra from a JSON spec; rational constants (ints and strings) give
    an exact algebra, any float a float one. The spec's shape is checked
    first (``_check_spec``). Every constant and Gram entry must have a
    finite nearest float (``_nearest_float``) of size up to 2^64, exact
    constants too. An inner product must be symmetric and positive
    definite; the constants are not validated, so a bad spec can still be
    built and reported."""
    _check_spec(data)
    dim, entries = int(data["dim"]), data["structure"]
    table = np.array(entries, dtype=object).reshape(len(entries), 4)
    rational = all(isinstance(v, (str, int)) for v in table[:, 3])
    values = np.array([_nearest_float(v) for v in table[:, 3]], dtype=float)
    # int(t) lies in range(dim) exactly when -1 < t < dim
    at = table[:, :3].astype(np.float64)
    outside = ~((at > -1) & (at < dim)).all(axis=1)
    bad = outside | ~np.isfinite(values)
    if bad.any():
        t = int(np.argmax(bad))
        i, j, k, value = entries[t]
        raise ValidationError(
            f"structure index ({i},{j},{k}) out of range" if outside[t]
            else f"structure constant ({i},{j},{k}) is {value}, not finite")
    gram, rows = None, data.get("inner_product")
    if rows is not None:
        gram = np.array([[_nearest_float(v) for v in row] for row in rows])
        check_finite(gram, "inner product")
    if rational:
        constants = structure_constants(dim, entries)
    else:
        constants = StructureConstants(dim, *_entries(dim, table, values))
    alg = make_algebra(constants, data.get("name", ""), gram)
    if gram is not None:
        if not np.array_equal(alg.inner_product, alg.inner_product.T):
            raise ValidationError("inner product is not symmetric")
        try:  # gram_orthonormalize's test, which reads one triangle
            np.linalg.cholesky(alg.inner_product)
        except np.linalg.LinAlgError:
            raise ValidationError("inner product is not positive definite") from None
    # products of a few values over dim^2 terms stay inside the float range
    top = max(np.abs(values).max(initial=0.0),
              0.0 if gram is None else np.abs(gram).max())
    if top > 2.0 ** 64:
        raise ValidationError(f"a constant or Gram entry of size {top:.3g} "
                              "exceeds the cap of 2^64 on a spec's scale")
    return alg


def algebra_from_json(text: str) -> LieAlgebra:
    return algebra_from_json_dict(json.loads(text))


def make_algebra(constants: StructureConstants, name: str,
                 inner_product: np.ndarray | None = None) -> LieAlgebra:
    """Assemble an algebra, with ``default_inner_product`` when no inner
    product is given. Nothing is checked: builders prove their constants
    (``zoo.classical``, ``zoo._g2_data``), ``validate_algebra`` others,
    and the exact lane proves the inner product it reads back."""
    if inner_product is None:
        inner_product = default_inner_product(constants)
    return LieAlgebra(constants, inner_product, name)


def default_inner_product(constants: StructureConstants) -> np.ndarray:
    """Negative Killing form on the derived algebra, dot product on the center.

    The two blocks are glued along the direct sum g = center + [g, g]:
    the result is ad-invariant for every Lie algebra, as the Killing form
    is (Humphreys, Introduction to Lie Algebras, 5.1) and the center is
    ad-trivial and orthogonal to [g, g]. Raises for non-compact input
    (negative Killing form not positive definite on [g, g]), for a
    Killing form with an entry past the float range (where eigvalsh would
    not converge; an exact sum there reads as +-inf) and for constants
    whose brackets all lie below the rank floor. Exact constants give -B
    from the exact Killing sums, each entry rounded once, so the exact
    lane reads the exact -B back off it.

    A -B that passes the definiteness test on all of g is nondegenerate,
    so g is semisimple (Cartan), with center 0 and [g, g] = g: -B is the
    result, and the SVDs of the n x n^2 bracket matrix (rebuilt from the
    triples for the call) run only for algebras with a center and for
    non-compact input.
    """
    n = constants.dim
    if not len(constants.index):
        return np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        b = _killing_floats(constants)
    check_finite(b, "Killing form")
    if np.linalg.eigvalsh(-b).min() > 1e-8 * float(np.abs(b).max()):
        return -b
    # column (i, j) of the bracket matrix is [e_i, e_j]
    i, j, k = constants.index.T
    brackets = np.zeros((n, n * n))
    brackets[k, i * n + j] = constants.values
    derived = column_space(brackets)
    if not derived.shape[1]:
        raise ValidationError(
            "structure constants of size at most "
            f"{float(np.abs(constants.values).max()):.3g} give no bracket "
            f"above the rank floor {RANK_FLOOR:g}; rescale them")
    eigs = np.linalg.eigvalsh(derived.T @ -b @ derived)
    if eigs.min() <= 1e-8 * float(np.abs(b).max()):
        raise ValidationError("Killing form is not negative definite on [g, g]"
                              " (g is not compact); give an inner product")
    center = _center(constants)
    if center.shape[1] + derived.shape[1] != n:
        raise ValidationError("center and derived algebra do not span (non-reductive?)")
    if center.shape[1] == 0:
        return -b
    basis = np.hstack([center, derived])
    inv = np.linalg.inv(basis)
    proj_center = center @ inv[: center.shape[1], :]
    return -b + proj_center.T @ proj_center


def trivial_algebra() -> LieAlgebra:
    return make_algebra(structure_constants(0, []), "0")


def direct_sum(summands: list[LieAlgebra], name: str | None = None) -> LieAlgebra:
    """Block-diagonal direct sum; inner products stay block-diagonal.

    The triples are offset into place; exact summands give an exact sum
    over the lcm of their denominators, any float one a float sum.
    """
    dims = [a.dim for a in summands]
    total = sum(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    gram = np.zeros((total, total))
    for o, alg in zip(offsets, summands):
        gram[o:o + alg.dim, o:o + alg.dim] = alg.inner_product
    if name is None:
        name = "+".join(a.name or "?" for a in summands)
    parts = [a.constants for a in summands] or [structure_constants(0, [])]
    if all(c.exact for c in parts):
        denom = math.lcm(*(c.denom for c in parts))
        numer = [c.numer * (denom // c.denom) for c in parts]
    else:
        denom, numer = 1, [c.values for c in parts]
    constants = StructureConstants(
        total, np.vstack([c.index + o for c, o in zip(parts, offsets)]),
        np.concatenate(numer), denom)
    return make_algebra(constants, name, gram)


def _center(constants: StructureConstants) -> np.ndarray:
    """Kernel of ad: the null space of the ``_first_slot`` matrix's rows."""
    return nullspace(_first_slot(constants)[1].T)


@dataclass(frozen=True)
class Subspace:
    """Subspace of a Lie algebra, orthonormalized against its inner product."""

    ambient: LieAlgebra
    basis: np.ndarray
    name: str = ""

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != self.ambient.dim:
            raise ValidationError(
                f"subspace basis shape {b.shape} does not match ambient dim "
                f"{self.ambient.dim}")
        if b.shape[1] and svd_rank(b) != b.shape[1]:
            raise ValidationError("subspace basis columns are dependent")
        b = np.ascontiguousarray(b)
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_columns(cls, ambient: LieAlgebra, columns: np.ndarray,
                     name: str = "") -> "Subspace":
        ortho = gram_orthonormalize(np.asarray(columns, dtype=np.float64),
                                    ambient.inner_product)
        return cls(ambient=ambient, basis=ortho, name=name)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        return project_onto(v, self.basis, self.ambient.inner_product)

    def distance(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(v - self.project(v)))

    def max_distance(self, columns: np.ndarray) -> float:
        """Largest distance of the columns of ``columns`` from the subspace."""
        residual = columns - self.project(columns)
        return float(np.linalg.norm(residual, axis=0).max(initial=0.0))

    def closure_residual(self) -> float:
        """Max distance of basis brackets from the subspace (0 for subalgebras)."""
        raw = pair_bracket_tensor(self.ambient, self.basis, self.basis)
        return self.max_distance(
            raw.reshape(self.dim ** 2, self.ambient.dim).T)


def _first_slot(c: StructureConstants) -> tuple[np.ndarray, np.ndarray]:
    """The distinct j n + k of the triples and the n x s matrix holding
    c_ijk at row i and the place of (j, k) among them."""
    jk, at_jk = c.groups[:2]
    mat = np.zeros((c.dim, len(jk)))
    mat[c.index[:, 0], at_jk] = c.values
    return jk, mat


def _killing_floats(c: StructureConstants) -> np.ndarray:
    """B_ij = sum_{m,n} c_imn c_jnm in floats. Exact constants round each
    exact sum once. Float ones take one BLAS product of the
    ``_first_slot`` matrix with its columns at the swapped (n, m): memory
    in n times the distinct (m, n), where the exact join's is in the
    joined pairs, n^4 on dense constants."""
    n = c.dim
    if c.exact:
        return _floats((n, n), *c.killing(), c.denom ** 2)
    jk, mat = _first_slot(c)
    # column col[t] at (m, n) meets column pair[t] at (n, m)
    _, pair, col = np.intersect1d(jk, jk % n * n + jk // n,
                                  assume_unique=True, return_indices=True)
    return mat[:, col] @ mat[:, pair].T


def left_brackets(g: LieAlgebra, left: np.ndarray) -> np.ndarray:
    """out[a, j] = [left_a, e_j] in g coords, shape (p, n, n), so
    out[a].T is ad(left_a). The values are scattered into an n x s
    matrix, s the number of distinct (j, k) among the triples, and the
    sum over i is one BLAS product.
    """
    n, p = g.dim, left.shape[1]
    jk, mat = _first_slot(g.constants)
    half = np.zeros((p, n * n))
    half[:, jk] = left.T @ mat
    return half.reshape(p, n, n)


def pair_bracket_tensor(g: LieAlgebra, left: np.ndarray,
                        right: np.ndarray) -> np.ndarray:
    """Brackets of basis columns: out[a, b] = [left_a, right_b] in g coords.

    ``left_brackets`` contracts the first slot of the constants with
    every left column, and one batched matmul the second slot with every
    right column.
    """
    return right.T @ left_brackets(g, left)


def bracket_images(g: LieAlgebra, images: np.ndarray) -> np.ndarray:
    """out[a, b] = sum_k c_abk images[k], the image of [e_a, e_b] under
    the linear map e_k -> images[k]; as ``left_brackets``, over the
    distinct (a, b) of the triples."""
    c = g.constants
    n = c.dim
    ij, at_ij = c.groups[2:]
    mat = np.zeros((len(ij), n))
    mat[at_ij, c.index[:, 2]] = c.values
    flat = images.reshape(n, math.prod(images.shape[1:]))
    out = np.zeros((n * n, flat.shape[1]), dtype=np.result_type(flat, float))
    out[ij] = mat @ flat
    return out.reshape((n, n) + images.shape[1:])
