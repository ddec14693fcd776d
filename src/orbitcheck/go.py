"""Geodesic-orbit verdicts via structure-constant linear algebra.

A tangent direction X passes the pointwise criterion when some Z in h
satisfies [X + Z, A X] in h, with A the metric endomorphism. That is a
linear system over h whose solvability is decided by rank data: a
minimum-norm solution with small residual certifies the direction, a
rank jump between the coefficient and augmented matrices certifies a
counterexample, with the smallest discarded singular value as margin.
Sampling many directions upgrades pointwise answers to a space verdict.

The geodesic-graph solvers sharpen witnesses on two-module spaces: the
witness of a mixed direction X + Y is pinned inside the complement of
the centralizer of X + Y within its normalizer, splits into parts
commuting with X and with Y, and rebuilds from those parts by explicit
metric-ratio coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .core import OrbitcheckError, ValidationError
from .linalg import DEFAULT_TOL, consistency_gap, min_norm_solve, rng_for, \
    svd_rank
from .filters import CentralizerSplit, centralizer, normalizer_split
from .linalg import gram_orthonormalize, subspace_intersection
from .spaces import (ExactUnavailableError, ReductiveSpace, exact_module_bases,
                     intertwiners)

MARGIN_FACTOR = 1e3


class ToleranceError(OrbitcheckError):
    """Raised when rank decisions fall inside the ambiguous band."""


class GoError(OrbitcheckError):
    pass


@dataclass(frozen=True)
class MetricOperator:
    """Invariant metric endomorphism of m, positive and ad(h)-equivariant."""

    space: ReductiveSpace
    matrix: np.ndarray
    kind: str
    params: tuple

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        dm = self.space.m.dim
        if mat.shape != (dm, dm):
            raise ValidationError("metric operator shape mismatch")
        if float(np.abs(mat - mat.T).max()) > 1e-10:
            raise ValidationError("metric operator is not symmetric")
        eigs = np.linalg.eigvalsh(mat)
        if dm and eigs.min() <= 0:
            raise ValidationError("metric operator is not positive definite")
        action = self.space.iso_action
        if action.shape[0]:
            comm = np.einsum("aij,jk->aik", action, mat) - \
                np.einsum("ij,ajk->aik", mat, action)
            worst = float(np.abs(comm).max())
            if worst > 1e-8 * max(1.0, float(np.abs(mat).max())):
                raise ValidationError(
                    f"metric operator does not commute with the isotropy "
                    f"action (residual {worst:.2e})")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def two_param(cls, space: ReductiveSpace, lam, mu) -> "MetricOperator":
        """Metric acting by lam on the first module and mu on the second."""
        if len(space.modules) != 2:
            raise ValidationError("two-parameter metric needs two modules")
        lam_f, mu_f = float(lam), float(mu)
        if lam_f <= 0 or mu_f <= 0:
            raise ValidationError("metric parameters must be positive")
        b1 = space.module_coords_in_m(0)
        b2 = space.module_coords_in_m(1)
        mat = lam_f * (b1 @ b1.T) + mu_f * (b2 @ b2.T)
        return cls(space=space, matrix=mat, kind="two_param",
                   params=(lam, mu))

    @classmethod
    def block(cls, space: ReductiveSpace,
              coefficients: list[np.ndarray]) -> "MetricOperator":
        """Metric from one symmetric coefficient matrix per isotypic group.

        Cross coefficients couple equivalent modules through a fixed
        equivariant isometry; groups of more than two modules are not
        supported.
        """
        groups = space.isotypic_groups
        if len(coefficients) != len(groups):
            raise ValidationError(
                f"expected {len(groups)} coefficient blocks, "
                f"got {len(coefficients)}")
        dm = space.m.dim
        mat = np.zeros((dm, dm))
        for group, coeff in zip(groups, coefficients):
            coeff = np.atleast_2d(np.asarray(coeff, dtype=np.float64))
            if coeff.shape != (len(group), len(group)):
                raise ValidationError("coefficient block shape mismatch")
            if len(group) > 2:
                raise ValidationError(
                    "isotypic groups above size 2 are not supported")
            blocks = [space.module_coords_in_m(i) for i in group]
            for a in range(len(group)):
                mat += coeff[a, a] * (blocks[a] @ blocks[a].T)
            if len(group) == 2:
                iso = _equivariant_isometry(space, group[0], group[1])
                cross = blocks[1] @ iso @ blocks[0].T
                mat += coeff[0, 1] * (cross + cross.T)
        return cls(space=space, matrix=mat, kind="block",
                   params=tuple(tuple(map(tuple, np.atleast_2d(c)))
                                for c in coefficients))

    @property
    def is_scalar(self) -> bool:
        dm = self.matrix.shape[0]
        if dm == 0:
            return True
        a = float(self.matrix[0, 0])
        return float(np.abs(self.matrix - a * np.eye(dm)).max()) <= 1e-12 * a

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def exact_params(self) -> tuple[Fraction, Fraction]:
        if self.kind != "two_param":
            raise ExactUnavailableError("exact mode needs a two-parameter "
                                        "metric")
        try:
            return exact.frac(self.params[0]), exact.frac(self.params[1])
        except (ValueError, TypeError) as err:
            raise ExactUnavailableError(
                f"metric parameters are not rational: {err}") from err

    def as_dict(self) -> dict:
        if self.kind == "two_param":
            return {"kind": "two_param",
                    "lambda": float(self.params[0]),
                    "mu": float(self.params[1])}
        if self.kind == "block":
            return {"kind": "block",
                    "coefficients": [[list(map(float, row)) for row in block]
                                     for block in self.params]}
        return {"kind": self.kind,
                "params": [float(v) for v in np.ravel(self.params)]}


def _equivariant_isometry(space: ReductiveSpace, i: int, j: int) -> np.ndarray:
    """Isometry from module i coordinates to module j coordinates
    commuting with the isotropy action; sign fixed deterministically."""
    bi = space.module_coords_in_m(i)
    bj = space.module_coords_in_m(j)
    action = space.iso_action
    ai = np.einsum("pi,apq,qj->aij", bi, action, bi)
    aj = np.einsum("pi,apq,qj->aij", bj, action, bj)
    d = bi.shape[1]
    if bj.shape[1] != d:
        raise ValidationError("isotypic modules with unequal dimensions")
    maps = intertwiners(ai, aj)
    if not len(maps):
        raise ValidationError("modules are not equivalent")
    t = maps[0]
    gram = t.T @ t
    scale = float(gram[0, 0])
    if float(np.abs(gram - scale * np.eye(d)).max()) > 1e-8 * max(scale, 1.0):
        raise ValidationError("equivariant map is not conformal")
    t = t / np.sqrt(scale)
    flat = t.reshape(-1)
    pivot = int(np.argmax(np.abs(flat)))
    if flat[pivot] < 0:
        t = -t
    return t


@dataclass(frozen=True)
class GoWitness:
    """Pointwise certificate for one tangent direction."""

    x: np.ndarray
    z: np.ndarray | None
    residual: float
    rank_gap: int
    margin: float
    kind: str = "generic"

    @property
    def solvable(self) -> bool:
        return self.z is not None

    def as_dict(self) -> dict:
        # JSON has no NaN or Infinity: an exact counterexample's are None
        return {
            "solvable": self.solvable,
            "residual": _finite_or_none(self.residual),
            "rank_gap": self.rank_gap,
            "margin": _finite_or_none(self.margin),
            "kind": self.kind,
            "x": [float(v) for v in self.x],
            "z": None if self.z is None else [float(v) for v in self.z],
        }


def _finite_or_none(value: float) -> float | None:
    return value if np.isfinite(value) else None


@dataclass(frozen=True)
class GoVerdict:
    """Space-level verdict from sampled pointwise certificates."""

    status: str
    witnesses: tuple[GoWitness, ...]
    counterexample: GoWitness | None
    max_residual: float
    n_samples: int
    seed: int
    metric: dict
    space_name: str
    exact: bool = False

    @property
    def is_go_consistent(self) -> bool:
        return self.status in ("GO_CONSISTENT", "NORMAL_TRIVIAL")

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "go_consistent": self.is_go_consistent,
            "space": self.space_name,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "max_residual": self.max_residual,
            "metric": self.metric,
            "exact": self.exact,
            "counterexample": None if self.counterexample is None
            else self.counterexample.as_dict(),
        }


def _as_metric(space: ReductiveSpace, metric) -> MetricOperator:
    if isinstance(metric, MetricOperator):
        return metric
    if isinstance(metric, (tuple, list)) and len(metric) == 2:
        return MetricOperator.two_param(space, metric[0], metric[1])
    raise ValidationError("metric must be a MetricOperator or (lam, mu)")


def go_witness_general(space: ReductiveSpace, metric, x: np.ndarray,
                       tol: float = DEFAULT_TOL,
                       kind: str = "generic") -> GoWitness:
    """Decide the pointwise criterion at X (m coordinates).

    Solves proj_m [Z, A X] = -proj_m [X, A X] for Z in h by minimum-norm
    least squares. An inconsistent system is certified by the rank gap
    of the augmented matrix; a gap whose margin falls below 1000 * tol
    raises ToleranceError instead of returning an uncertain verdict.
    """
    a = _as_metric(space, metric)
    x = np.asarray(x, dtype=np.float64)
    ax = a.apply(x)
    # column a is proj_m [h_a, AX]; the einsum contraction yields its
    # negative transpose, hence the sign
    lhs = -np.einsum("apq,q->pa", space.iso_action, ax)
    rhs = -np.einsum("abc,a,b->c", space.m_bracket_m, x, ax)
    z, residual = min_norm_solve(lhs, rhs)
    scale = max(1.0, float(np.linalg.norm(rhs)))
    if residual <= tol * scale:
        return GoWitness(x=x, z=z, residual=residual, rank_gap=0,
                         margin=0.0, kind=kind)
    rank_a, rank_aug, margin = consistency_gap(lhs, rhs)
    if rank_aug <= rank_a:
        raise ToleranceError(
            f"residual {residual:.2e} exceeds tolerance but ranks agree "
            f"({rank_a}); tighten or loosen tol")
    if margin < MARGIN_FACTOR * tol:
        raise ToleranceError(
            f"rank gap margin {margin:.2e} is below the robust band "
            f"({MARGIN_FACTOR * tol:.2e})")
    return GoWitness(x=x, z=None, residual=residual,
                     rank_gap=rank_aug - rank_a, margin=margin, kind=kind)


def _sample_direction(space: ReductiveSpace, rng: np.random.Generator,
                      structured: bool) -> tuple[np.ndarray, str]:
    dm = space.m.dim
    if structured and len(space.modules) == 2:
        b1 = space.module_coords_in_m(0)
        b2 = space.module_coords_in_m(1)
        x1 = b1 @ rng.standard_normal(b1.shape[1])
        x2 = b2 @ rng.standard_normal(b2.shape[1])
        n1 = np.linalg.norm(x1)
        n2 = np.linalg.norm(x2)
        if n1 < 1e-12 or n2 < 1e-12:
            return _sample_direction(space, rng, False)
        return (x1 / n1 + x2 / n2) / np.sqrt(2.0), "structured"
    v = rng.standard_normal(dm)
    return v / np.linalg.norm(v), "generic"


def go_check(space: ReductiveSpace, metric, n_samples: int = 100,
             seed: int = 0, tol: float = DEFAULT_TOL,
             exact_mode: bool = False) -> GoVerdict:
    """Sample tangent directions and aggregate pointwise certificates.

    Directions alternate between generic unit vectors and normalized
    two-module mixtures (X1 + X2) / sqrt(2). The first certified
    counterexample short-circuits to NOT_GO. A scalar metric is the
    normal-metric case: trivially consistent with zero witnesses.
    """
    a = _as_metric(space, metric)
    if not space.modules:
        raise ValidationError("decompose the isotropy modules first")
    if exact_mode:
        return _go_check_exact(space, a, n_samples, seed, tol)
    if a.is_scalar:
        witnesses = []
        for i in range(n_samples):
            rng = rng_for("go", space.name, seed, i)
            x, kind = _sample_direction(space, rng, i % 2 == 1)
            ax = a.apply(x)
            rhs = -np.einsum("abc,a,b->c", space.m_bracket_m, x, ax)
            witnesses.append(GoWitness(
                x=x, z=np.zeros(space.h.dim),
                residual=float(np.linalg.norm(rhs)), rank_gap=0, margin=0.0,
                kind=kind))
        max_res = max((w.residual for w in witnesses), default=0.0)
        return GoVerdict(status="NORMAL_TRIVIAL", witnesses=tuple(witnesses),
                         counterexample=None, max_residual=max_res,
                         n_samples=n_samples, seed=seed, metric=a.as_dict(),
                         space_name=space.name)
    witnesses = []
    max_res = 0.0
    for i in range(n_samples):
        rng = rng_for("go", space.name, seed, i)
        x, kind = _sample_direction(space, rng, i % 2 == 1)
        w = go_witness_general(space, a, x, tol=tol, kind=kind)
        witnesses.append(w)
        if not w.solvable:
            return GoVerdict(status="NOT_GO", witnesses=tuple(witnesses),
                             counterexample=w, max_residual=max_res,
                             n_samples=i + 1, seed=seed, metric=a.as_dict(),
                             space_name=space.name)
        max_res = max(max_res, w.residual)
    return GoVerdict(status="GO_CONSISTENT", witnesses=tuple(witnesses),
                     counterexample=None, max_residual=max_res,
                     n_samples=n_samples, seed=seed, metric=a.as_dict(),
                     space_name=space.name)


def _go_check_exact(space: ReductiveSpace, a: MetricOperator,
                    n_samples: int, seed: int, tol: float) -> GoVerdict:
    lam, mu = a.exact_params()
    bases = exact_module_bases(space)
    if len(bases) != 2:
        raise ExactUnavailableError("exact mode expects two modules")
    g = space.g
    h_cols = space.embedding.matrix_exact
    rows_proj = exact.matmul(space.exact_m_basis.T, g.inner_product_exact)
    is_trivial = lam == mu
    witnesses = []
    for i in range(n_samples):
        rng = rng_for("go-exact", space.name, seed, i)
        c1 = _nonzero_int_vector(rng, bases[0].shape[1])
        c2 = _nonzero_int_vector(rng, bases[1].shape[1])
        x1 = exact.matmul(bases[0], c1)
        x2 = exact.matmul(bases[1], c2)
        xg = x1 + x2
        axg = lam * x1 + mu * x2
        b_vec = -exact.matmul(rows_proj, g.bracket_exact(xg, axg))
        x_m = space.m.basis.T @ g.inner_product @ exact.to_float(xg)
        if is_trivial:
            witnesses.append(GoWitness(
                x=x_m, z=np.zeros(space.h.dim), residual=0.0, rank_gap=0,
                margin=0.0, kind="exact"))
            continue
        # column t is proj_m [h_t, A X]: one product for every column
        brackets = exact.fzeros((g.dim, h_cols.shape[1]))
        for t in range(h_cols.shape[1]):
            brackets[:, t] = g.bracket_exact(h_cols[:, t], axg)
        z = exact.solve(exact.matmul(rows_proj, brackets), b_vec)
        if z is not None:
            zg = exact.to_float(exact.matmul(h_cols, z))
            z_h = space.h.basis.T @ g.inner_product @ zg
            witnesses.append(GoWitness(x=x_m, z=z_h, residual=0.0,
                                       rank_gap=0, margin=0.0, kind="exact"))
        else:
            # an inconsistent system gains exactly one rank from b
            w = GoWitness(x=x_m, z=None, residual=float("nan"),
                          rank_gap=1, margin=float("inf"), kind="exact")
            return GoVerdict(status="NOT_GO", witnesses=tuple(witnesses + [w]),
                             counterexample=w, max_residual=0.0,
                             n_samples=i + 1, seed=seed, metric=a.as_dict(),
                             space_name=space.name, exact=True)
    status = "NORMAL_TRIVIAL" if is_trivial else "GO_CONSISTENT"
    return GoVerdict(status=status, witnesses=tuple(witnesses),
                     counterexample=None, max_residual=0.0,
                     n_samples=n_samples, seed=seed, metric=a.as_dict(),
                     space_name=space.name, exact=True)


def _nonzero_int_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        v = rng.integers(-3, 4, size=n)
        if np.any(v):
            return np.array([Fraction(int(t)) for t in v], dtype=object)


# --- geodesic graphs on two-module spaces -------------------------------

@dataclass(frozen=True)
class GeodesicGraph:
    """Witness pinned in the normalizer complement, with its split data."""

    z: np.ndarray
    split: CentralizerSplit
    residual: float


def _validate_module_vector(space: ReductiveSpace, x: np.ndarray,
                            index: int, tol: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (space.m.dim,):
        raise ValidationError("vectors are m coordinates")
    block = space.module_coords_in_m(index)
    proj = block @ (block.T @ x)
    if float(np.linalg.norm(x - proj)) > tol * max(1.0, np.linalg.norm(x)):
        raise ValidationError(f"vector does not lie in module {index + 1}")
    return x


def geodesic_graph(space: ReductiveSpace, lam, mu, x: np.ndarray,
                   y: np.ndarray, tol: float = 1e-8) -> GeodesicGraph:
    """Solve for the unique witness of X + Y inside the normalizer
    complement of the centralizer of X + Y.

    X must lie in the first module and Y in the second; the metric
    weights enter through the ratio coefficients lam/(lam - mu) and
    mu/(lam - mu). The coefficient system must have full column rank
    (kernel triviality gives uniqueness) and an exact solution up to
    tolerance.
    """
    lam_f, mu_f = float(lam), float(mu)
    if abs(lam_f - mu_f) < 1e-12 * max(abs(lam_f), abs(mu_f)):
        raise ValidationError("geodesic graph needs distinct metric weights")
    x = _validate_module_vector(space, x, 0, tol)
    y = _validate_module_vector(space, y, 1, tol)
    g = space.g
    xg = space.m.basis @ x
    yg = space.m.basis @ y
    split = normalizer_split(space, xg + yg)
    basis = split.c_tilde
    k = basis.shape[1]
    gram = g.inner_product
    cx = lam_f / (lam_f - mu_f)
    cy = mu_f / (lam_f - mu_f)
    proj = space.m.basis.T @ gram
    if k == 0:
        lhs = np.zeros((space.m.dim, 0))
    else:
        cols = [proj @ (cx * g.bracket(basis[:, t], xg) +
                        cy * g.bracket(basis[:, t], yg))
                for t in range(k)]
        lhs = np.stack(cols, axis=1)
    rhs = proj @ g.bracket(xg, yg)
    if k and svd_rank(lhs) < k:
        raise GoError("geodesic graph system has a nontrivial kernel; "
                      "the witness is not unique")
    z_coeff, residual = min_norm_solve(lhs, rhs)
    scale = max(1.0, float(np.linalg.norm(rhs)))
    if residual > tol * scale:
        raise GoError(f"no geodesic graph witness within tolerance "
                      f"(residual {residual:.2e})")
    z = basis @ z_coeff if k else np.zeros(g.dim)
    return GeodesicGraph(z=z, split=split, residual=residual)


@dataclass(frozen=True)
class ZxZyDecomposition:
    """Split of the mixed bracket into parts commuting with each factor."""

    z_x: np.ndarray
    z_y: np.ndarray
    split: CentralizerSplit
    residual: float

    def reconstruct(self, lam, mu) -> np.ndarray:
        """Witness rebuilt from the split parts for the given weights."""
        lam_f, mu_f = float(lam), float(mu)
        return ((lam_f - mu_f) / mu_f) * self.z_x + \
            ((lam_f - mu_f) / lam_f) * self.z_y


def zxzy_decompose(space: ReductiveSpace, x: np.ndarray, y: np.ndarray,
                   tol: float = 1e-8) -> ZxZyDecomposition:
    """Write [X, Y] = [Z_Y, X] + [Z_X, Y] with Z_X centralizing X and
    Z_Y centralizing Y, both inside the normalizer complement of X + Y.

    The pair is unique (full column rank demanded) and rebuilds the
    geodesic graph witness via the metric-ratio coefficients.
    """
    x = _validate_module_vector(space, x, 0, tol)
    y = _validate_module_vector(space, y, 1, tol)
    g = space.g
    gram = g.inner_product
    xg = space.m.basis @ x
    yg = space.m.basis @ y
    split = normalizer_split(space, xg + yg)
    cent_x = centralizer(g, space.h.basis, xg)
    cent_y = centralizer(g, space.h.basis, yg)
    bx = _gram_intersection(split.c_tilde, cent_x, gram)
    by = _gram_intersection(split.c_tilde, cent_y, gram)
    kx, ky = bx.shape[1], by.shape[1]
    proj = space.m.basis.T @ gram
    cols = []
    for t in range(kx):
        cols.append(proj @ g.bracket(bx[:, t], yg))
    for t in range(ky):
        cols.append(proj @ g.bracket(by[:, t], xg))
    lhs = np.stack(cols, axis=1) if cols else np.zeros((space.m.dim, 0))
    rhs = proj @ g.bracket(xg, yg)
    if cols and svd_rank(lhs) < kx + ky:
        raise GoError("bracket split system has a nontrivial kernel")
    coeff, residual = min_norm_solve(lhs, rhs)
    scale = max(1.0, float(np.linalg.norm(rhs)))
    if residual > tol * scale:
        raise GoError(f"bracket does not split against the centralizers "
                      f"(residual {residual:.2e})")
    z_x = bx @ coeff[:kx] if kx else np.zeros(g.dim)
    z_y = by @ coeff[kx:] if ky else np.zeros(g.dim)
    return ZxZyDecomposition(z_x=z_x, z_y=z_y, split=split, residual=residual)


def _gram_intersection(a: np.ndarray, b: np.ndarray,
                       gram: np.ndarray) -> np.ndarray:
    inter = subspace_intersection(a, b)
    if inter.shape[1] == 0:
        return inter
    return gram_orthonormalize(inter, gram)
