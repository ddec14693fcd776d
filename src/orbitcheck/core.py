"""Lie algebras presented by structure constants, with a chosen inner product.

The structure tensor convention is [e_i, e_j] = sum_k c[i][j][k] e_k.
Every algebra carries a float64 tensor; algebras built from rational
data additionally carry an exact sparse copy used for certified
arithmetic. The default inner product is the negative Killing form on
the derived algebra plus the coordinate dot product on the center,
assembled so that it is ad-invariant and positive definite on compact
algebras.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact
from .linalg import (DEFAULT_TOL, column_space, gram_orthonormalize, nullspace,
                     project_onto, svd_rank)

ExactStructure = dict[tuple[int, int], dict[int, Fraction]]


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

    def as_dict(self) -> dict:
        return {
            "antisymmetry": self.antisymmetry,
            "jacobi": self.jacobi,
            "passed": self.passed,
            "mode": self.mode,
        }


def _check_tensor_shape(structure: np.ndarray) -> None:
    if structure.ndim != 3:
        raise ValidationError(
            f"structure tensor must have 3 axes, got {structure.ndim}")
    n = structure.shape[0]
    for axis in (1, 2):
        if structure.shape[axis] != n:
            raise ValidationError(
                f"structure tensor is not cubic: axis {axis} has length "
                f"{structure.shape[axis]}, expected {n}")


def jacobi_residual(structure: np.ndarray) -> float:
    """Max-norm of the Jacobi identity over all basis triples.

    Evaluated one i-slice at a time to keep memory at O(n^3).
    """
    n = structure.shape[0]
    if n == 0:
        return 0.0
    flat = structure.reshape(n, n * n)
    worst = 0.0
    for i in range(n):
        term1 = (structure[i] @ flat).reshape(n, n, n)
        term2 = (structure.reshape(n * n, n) @ structure[:, i, :]).reshape(n, n, n)
        term3 = (structure[:, i, :] @ flat).reshape(n, n, n)
        total = term1 + term2 + np.transpose(term3, (1, 0, 2))
        worst = max(worst, float(np.abs(total).max()))
    return worst


def validate_algebra(structure, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Antisymmetry and Jacobi check for a structure tensor.

    Accepts a float tensor or a LieAlgebra; exact-mode algebras are
    checked with rational arithmetic and must have residual exactly 0.
    """
    if isinstance(structure, LieAlgebra):
        alg = structure
        if alg.structure_exact is not None:
            anti, jac = _exact_residuals(alg.dim, alg.structure_exact)
            return ValidationReport(anti, jac, anti == 0.0 and jac == 0.0,
                                    mode="exact")
        structure = alg.structure
    arr = np.asarray(structure, dtype=np.float64)
    _check_tensor_shape(arr)
    anti = float(np.abs(arr + np.transpose(arr, (1, 0, 2))).max()) if arr.size else 0.0
    jac = jacobi_residual(arr) if arr.size else 0.0
    return ValidationReport(anti, jac, anti <= tol and jac <= tol)


def _exact_residuals(dim: int, sparse: ExactStructure) -> tuple[float, float]:
    anti = Fraction(0)
    for (i, j), row in sparse.items():
        back = sparse.get((j, i), {})
        keys = set(row) | set(back)
        for k in keys:
            s = row.get(k, Fraction(0)) + back.get(k, Fraction(0))
            anti = max(anti, abs(s))
    worst = Fraction(0)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc: dict[int, Fraction] = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = sparse.get((a, b), {})
                    for m, v in inner.items():
                        for l, w in sparse.get((m, c), {}).items():
                            acc[l] = acc.get(l, Fraction(0)) + v * w
                for value in acc.values():
                    worst = max(worst, abs(value))
    return float(anti), float(worst)


def _dense_from_exact(dim: int, sparse: ExactStructure) -> np.ndarray:
    dense = np.zeros((dim, dim, dim))
    for (i, j), row in sparse.items():
        for k, v in row.items():
            dense[i, j, k] = float(v)
    return dense


@dataclass(frozen=True)
class LieAlgebra:
    """Immutable Lie algebra with structure tensor and inner product."""

    structure: np.ndarray
    inner_product: np.ndarray
    name: str = ""
    structure_exact: ExactStructure | None = None
    inner_product_exact: np.ndarray | None = None

    def __post_init__(self):
        struct = np.ascontiguousarray(np.asarray(self.structure, dtype=np.float64))
        _check_tensor_shape(struct)
        gram = np.ascontiguousarray(np.asarray(self.inner_product, dtype=np.float64))
        if gram.shape != (struct.shape[0], struct.shape[0]):
            raise ValidationError("inner product shape does not match dim")
        struct.flags.writeable = False
        gram.flags.writeable = False
        object.__setattr__(self, "structure", struct)
        object.__setattr__(self, "inner_product", gram)

    @property
    def dim(self) -> int:
        return self.structure.shape[0]

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.ad(x) @ y

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) acting on coordinate vectors."""
        n = self.dim
        return (x @ self.structure.reshape(n, n * n)).reshape(n, n).T

    def bracket_exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.structure_exact is None:
            raise ValidationError(f"{self.name or 'algebra'} has no exact structure")
        out = exact.fzeros(self.dim)
        xs = [(i, v) for i, v in enumerate(x) if v != 0]
        ys = [(j, v) for j, v in enumerate(y) if v != 0]
        for i, xi in xs:
            for j, yj in ys:
                for k, c in self.structure_exact.get((i, j), {}).items():
                    out[k] += c * xi * yj
        return out

    @cached_property
    def killing_form(self) -> np.ndarray:
        return _killing(self.structure)

    @cached_property
    def killing_form_exact(self) -> np.ndarray:
        if self.structure_exact is None:
            raise ValidationError(f"{self.name or 'algebra'} has no exact structure")
        return _killing_exact(self.dim, self.structure_exact)

    def validate(self, tol: float = DEFAULT_TOL) -> ValidationReport:
        return validate_algebra(self, tol)

    def inner_ad_invariance(self) -> float:
        """Max violation of <[x,y],z> + <y,[x,z]> = 0 over basis triples."""
        t = self.structure @ self.inner_product
        return float(np.abs(t + np.transpose(t, (0, 2, 1))).max()) if t.size else 0.0

    def to_json_dict(self) -> dict:
        entries = []
        if self.structure_exact is not None:
            for (i, j), row in sorted(self.structure_exact.items()):
                for k, v in sorted(row.items()):
                    entries.append([i, j, k, exact.format_value(v)])
        else:
            nz = np.argwhere(self.structure != 0.0)
            for i, j, k in nz:
                entries.append([int(i), int(j), int(k), float(self.structure[i, j, k])])
        data = {"name": self.name, "dim": self.dim, "structure": entries}
        if self.inner_product_exact is not None:
            data["inner_product"] = [[exact.format_value(v) for v in row]
                                     for row in self.inner_product_exact]
        else:
            data["inner_product"] = [[float(v) for v in row] for row in self.inner_product]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LieAlgebra({self.name or 'unnamed'}, dim={self.dim})"


def algebra_from_json_dict(data: dict) -> LieAlgebra:
    dim = int(data["dim"])
    entries = data["structure"]
    all_rational = all(isinstance(e[3], (str, int)) for e in entries)
    dense = np.zeros((dim, dim, dim))
    sparse: ExactStructure | None = {} if all_rational else None
    for i, j, k, value in entries:
        i, j, k = int(i), int(j), int(k)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValidationError(f"structure index ({i},{j},{k}) out of range")
        if all_rational:
            v = exact.frac(value)
            sparse.setdefault((i, j), {})[k] = v
            dense[i, j, k] = float(v)
        else:
            dense[i, j, k] = float(value)
    gram_exact = None
    if "inner_product" in data and data["inner_product"] is not None:
        rows = data["inner_product"]
        if all(isinstance(v, (str, int)) for row in rows for v in row):
            gram_exact = exact.fmatrix(rows)
            gram = exact.to_float(gram_exact)
        else:
            gram = np.array(rows, dtype=np.float64)
    else:
        gram, gram_exact = default_inner_product(dense, sparse)
    return LieAlgebra(structure=dense, inner_product=gram,
                      name=data.get("name", ""), structure_exact=sparse,
                      inner_product_exact=gram_exact)


def algebra_from_json(text: str) -> LieAlgebra:
    return algebra_from_json_dict(json.loads(text))


def make_algebra(structure_exact: ExactStructure, dim: int, name: str,
                 inner_product: np.ndarray | None = None,
                 inner_product_exact: np.ndarray | None = None,
                 validate: bool = True, tol: float = DEFAULT_TOL) -> LieAlgebra:
    """Assemble an algebra from exact sparse structure constants."""
    dense = _dense_from_exact(dim, structure_exact)
    if inner_product is None:
        inner_product, inner_product_exact = default_inner_product(dense, structure_exact)
    alg = LieAlgebra(structure=dense, inner_product=inner_product, name=name,
                     structure_exact=structure_exact,
                     inner_product_exact=inner_product_exact)
    if validate:
        report = validate_algebra(dense, tol)
        if not report.passed:
            raise ValidationError(
                f"{name}: structure constants fail validation "
                f"(antisymmetry {report.antisymmetry:.2e}, jacobi {report.jacobi:.2e})")
        inv = alg.inner_ad_invariance()
        if inv > max(tol, 1e-8 * max(1.0, float(np.abs(inner_product).max()))):
            raise ValidationError(f"{name}: inner product is not ad-invariant ({inv:.2e})")
    return alg


def default_inner_product(structure: np.ndarray,
                          structure_exact: ExactStructure | None = None,
                          tol: float = DEFAULT_TOL
                          ) -> tuple[np.ndarray, np.ndarray | None]:
    """Negative Killing form on the derived algebra, dot product on the center.

    The two blocks are glued along the direct sum g = center + [g, g],
    which keeps the result ad-invariant. Raises for non-compact input
    (negative Killing form not positive semidefinite on [g, g]).
    """
    n = structure.shape[0]
    if n == 0:
        return np.zeros((0, 0)), exact.fzeros((0, 0))
    b = _killing(structure)
    scale = float(np.abs(b).max())
    if scale == 0.0:
        return np.eye(n), exact.fidentity(n)
    admap = np.transpose(structure, (0, 2, 1)).reshape(n, n * n).T
    center = nullspace(admap)
    derived = column_space(structure.reshape(n * n, n).T)
    if center.shape[1] + derived.shape[1] != n:
        raise ValidationError("center and derived algebra do not span (non-reductive?)")
    eigs = np.linalg.eigvalsh(-b)
    if eigs.min() < -1e-8 * scale:
        raise ValidationError("Killing form is not negative semidefinite; "
                              "provide an inner product explicitly")
    if center.shape[1] == 0:
        gram = -b
        gram_exact = None
        if structure_exact is not None:
            bx = _killing_exact(n, structure_exact)
            gram_exact = -bx
        return gram, gram_exact
    basis = np.hstack([center, derived])
    inv = np.linalg.inv(basis)
    proj_center = center @ inv[: center.shape[1], :]
    gram = -b + proj_center.T @ proj_center
    return gram, None


def _killing(structure: np.ndarray) -> np.ndarray:
    """B_ij = sum_{m,n} c_imn c_jnm = tr(ad e_i ad e_j), as one matmul."""
    n = structure.shape[0]
    return structure.reshape(n, n * n) @ \
        structure.transpose(0, 2, 1).reshape(n, n * n).T


def _killing_exact(dim: int, sparse: ExactStructure) -> np.ndarray:
    """B_ij = sum_{m,n} c_imn c_jnm, matching the float trace contraction."""
    by_pair: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for (j, n), row in sparse.items():
        for m, v in row.items():
            by_pair.setdefault((n, m), []).append((j, v))
    b = exact.fzeros((dim, dim))
    for (i, m), row in sparse.items():
        for n, v in row.items():
            for j, w in by_pair.get((n, m), []):
                b[i, j] += v * w
    return b


def trivial_algebra() -> LieAlgebra:
    return LieAlgebra(structure=np.zeros((0, 0, 0)), inner_product=np.zeros((0, 0)),
                      name="0")


def direct_sum(summands: list[LieAlgebra], name: str | None = None) -> LieAlgebra:
    """Block-diagonal direct sum; inner products stay block-diagonal."""
    dims = [a.dim for a in summands]
    total = sum(dims)
    structure = np.zeros((total, total, total))
    gram = np.zeros((total, total))
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    all_exact = all(a.structure_exact is not None for a in summands)
    sparse: ExactStructure | None = {} if all_exact else None
    gram_exact = exact.fzeros((total, total)) if all(
        a.inner_product_exact is not None for a in summands) else None
    for idx, alg in enumerate(summands):
        o = offsets[idx]
        d = alg.dim
        structure[o:o + d, o:o + d, o:o + d] = alg.structure
        gram[o:o + d, o:o + d] = alg.inner_product
        if sparse is not None:
            for (i, j), row in alg.structure_exact.items():
                sparse[(i + o, j + o)] = {k + o: v for k, v in row.items()}
        if gram_exact is not None:
            gram_exact[o:o + d, o:o + d] = alg.inner_product_exact
    if name is None:
        name = "+".join(a.name or "?" for a in summands)
    return LieAlgebra(structure=structure, inner_product=gram, name=name,
                      structure_exact=sparse, inner_product_exact=gram_exact)


def center_basis(algebra: LieAlgebra) -> np.ndarray:
    """Orthonormal basis of the center (kernel of the adjoint map)."""
    n = algebra.dim
    if n == 0:
        return np.zeros((0, 0))
    admap = np.transpose(algebra.structure, (0, 2, 1)).reshape(n, n * n).T
    return nullspace(admap)


@dataclass(frozen=True)
class Subspace:
    """Subspace of a Lie algebra, orthonormalized against its inner product."""

    ambient: LieAlgebra
    basis: np.ndarray
    name: str = ""
    raw_basis: np.ndarray | None = field(default=None, compare=False)
    basis_exact: np.ndarray | None = field(default=None, compare=False)

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
                     name: str = "", basis_exact: np.ndarray | None = None) -> "Subspace":
        ortho = gram_orthonormalize(np.asarray(columns, dtype=np.float64),
                                    ambient.inner_product)
        return cls(ambient=ambient, basis=ortho, name=name,
                   raw_basis=np.asarray(columns, dtype=np.float64),
                   basis_exact=basis_exact)

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


def pair_bracket_tensor(g: LieAlgebra, left: np.ndarray,
                        right: np.ndarray) -> np.ndarray:
    """Brackets of basis columns: out[a, b] = [left_a, right_b] in g coords.

    One matmul contracts the first slot of the structure tensor with
    every left column, and one batched matmul the second slot with every
    right column, so both run on BLAS.
    """
    n = g.dim
    flat = g.structure.reshape(n, n * n)
    half = (left.T @ flat).reshape(left.shape[1], n, n)
    return right.T @ half
