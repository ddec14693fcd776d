"""Centralizer geometry and cheap necessary conditions for the GO property.

The verdict engine certifies single tangent vectors; the filters here
rule entire spaces out before any sampling. They key on where the
bracket of the two isotropy modules lands and on principal stabilizer
dimensions of the isotropy action, both computable by exact basis
sweeps and small rank computations. Neither reads a seed: the filter
report is computed once per isotropy decomposition and shared by every
space that carries it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .core import LieAlgebra, OrbitcheckError
from .linalg import gram_orthonormalize, nullspace, rank_threshold, rng_for
from .spaces import ReductiveSpace, bracket_coords, pair_bracket_tensor


class FilterError(OrbitcheckError):
    pass


def centralizer(g: LieAlgebra, basis: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Basis of {z in span(basis): [z, u] = 0}, orthonormal w.r.t. g's gram.

    ``basis`` columns must be orthonormal w.r.t. g's inner product; the
    result is expressed in ambient g coordinates.
    """
    kernel = nullspace(g.ad(u) @ basis)
    return gram_orthonormalize(basis @ kernel, g.inner_product)


@dataclass(frozen=True)
class CentralizerSplit:
    """C = centralizer of u in h, N its normalizer in h, and N = C + C~."""

    u: np.ndarray
    c: np.ndarray
    n: np.ndarray
    c_tilde: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.c.shape[1], self.n.shape[1], self.c_tilde.shape[1])


def normalizer_split(space: ReductiveSpace, u: np.ndarray) -> CentralizerSplit:
    """Split h along the centralizer of u and its normalizer.

    [h, h] lies in h and [h, m_k] in m_k, so C = C_h(u) is the same for
    u and for ``_balanced(space, u)``, whose parts have unit norm: C is
    computed there, so its rank gap does not shrink with the ratio of
    the parts' norms. C~ is the z in the complement of C in h with
    [z, C] in C, and N = C + C~, so N contains C by construction.
    Verifies the structural identity [C~, C] = 0: the complement of the
    centralizer inside its own normalizer commutes with the centralizer.
    Empty centralizers, complements and h go through the same steps.
    """
    g = space.g
    h_basis = space.h.basis
    gram = g.inner_product
    c = centralizer(g, h_basis, _balanced(space, u))
    comp = gram_orthonormalize(h_basis @ nullspace(c.T @ gram @ h_basis), gram)
    # z in comp normalizes C when no [z, c_b] has a component along comp
    coords = bracket_coords(g, pair_bracket_tensor(g, comp, c), comp)
    rows = coords.reshape(comp.shape[1], c.shape[1] * comp.shape[1]).T
    c_tilde = gram_orthonormalize(comp @ nullspace(rows), gram)
    n = np.hstack([c, c_tilde])
    worst = float(np.abs(pair_bracket_tensor(g, c_tilde, c)).max(initial=0.0))
    if worst > 1e-8:
        raise FilterError(
            f"normalizer complement does not commute with the "
            f"centralizer (residual {worst:.2e})")
    return CentralizerSplit(u=u, c=c, n=n, c_tilde=c_tilde)


def _balanced(space: ReductiveSpace, u: np.ndarray) -> np.ndarray:
    """Sum of u's parts along h and along each isotropy module (along m
    before a decomposition), each scaled to unit norm; a part at or below
    1e-12 max(1, |u|) counts as zero."""
    gram = space.g.inner_product
    blocks = [space.h.basis] + ([mod.basis for mod in space.modules]
                                or [space.m.basis])
    floor = 1e-12 * max(1.0, float(np.linalg.norm(u)))
    out = np.zeros_like(u, dtype=np.float64)
    for b in blocks:
        coords = b.T @ (gram @ u)
        size = float(np.linalg.norm(coords))
        if size > floor:
            out += b @ (coords / size)
    return out


def bracket_location(space: ReductiveSpace) -> str:
    """Where [m1, m2] lands: 'in_m1', 'in_m2', 'mixed', or 'zero'.

    Exact basis sweep over all pairs of module basis vectors; the m
    component of each bracket is resolved against the two modules, at
    ``spaces.STRUCTURE_TOL``, once per decomposition.
    """
    if len(space.modules) != 2:
        raise FilterError("bracket location needs exactly two modules")
    return space.decomposition.bracket_location


def _principal_ranks(action: np.ndarray):
    """The 20 (d x k) matrices [X_1 v, ..., X_k v] of 20 unit vectors v
    from one fixed draw, ``rng_for("principal", 0)``, and their ranks
    from one batched SVD, cut at ``rank_threshold`` in one call."""
    k, d, _ = action.shape
    vs = rng_for("principal", 0).standard_normal((20, d))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    columns = (action @ vs.T).transpose(2, 1, 0)
    s = np.linalg.svd(columns, compute_uv=False)
    return columns, (s > rank_threshold(s, (d, k))).sum(axis=1)


def principal_isotropy_dim(action: np.ndarray) -> int:
    """Generic stabilizer dimension of an action (k generators on R^d):
    k minus the largest rank of ``_principal_ranks``' 20 draws."""
    return action.shape[0] - int(_principal_ranks(action)[1].max())


def principal_frame(action: np.ndarray) -> tuple[np.ndarray, int]:
    """(F, r): an orthogonal k x k frame and the largest rank r of
    ``principal_isotropy_dim``'s draws. The last k - r columns of F span
    the stabilizer of the first draw of rank r, the first r its
    orthocomplement; F is the identity when r = k."""
    k = action.shape[0]
    columns, ranks = _principal_ranks(action)
    best = int(np.argmax(ranks))
    if ranks[best] == k:
        return np.eye(k), k
    return np.linalg.svd(columns[best])[2].T.copy(), int(ranks[best])


def _module_action(space: ReductiveSpace, index: int) -> np.ndarray:
    """ad(h) restricted to module ``index`` in module coordinates."""
    block = space.module_coords_in_m(index)
    return block.T @ space.iso_action @ block


def _subalgebra_action_on_module(space: ReductiveSpace, from_index: int,
                                 to_index: int) -> np.ndarray:
    """Generators of (h + m_from) acting on m_to, in module coordinates."""
    h_part = _module_action(space, to_index)
    bf = space.module_coords_in_m(from_index)
    bt = space.module_coords_in_m(to_index)
    cross = bt.T @ np.tensordot(bf, space.m_bracket_m, (0, 0)) @ bt
    return np.concatenate([h_part, cross.transpose(0, 2, 1)], axis=0)


@dataclass(frozen=True)
class FilterRule:
    rule: str
    required: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.actual >= self.required

    def as_dict(self) -> dict:
        return {"rule": self.rule, "required": self.required,
                "actual": self.actual, "passed": self.passed}


@dataclass(frozen=True)
class FilterReport:
    """Outcome of the necessary conditions for the GO property."""

    bracket_location: str
    rules: tuple[FilterRule, ...]
    principal_dims: Mapping[str, int]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rules)

    def as_dict(self) -> dict:
        return {
            "bracket_location": self.bracket_location,
            "passed": self.passed,
            "principal_dims": dict(self.principal_dims),
            "rules": [r.as_dict() for r in self.rules],
        }


def necessary_filter(space: ReductiveSpace, seed: int = 0) -> FilterReport:
    """Necessary conditions for the GO property on a two-module space.

    With a mixed bracket both modules must have positive-dimensional
    generic stabilizers in h. When [m1, m2] lies in one module, the
    other module needs a positive stabilizer and the enlarged algebra
    h + m_absorbed must act on the big module with generic stabilizer
    at least dim m_absorbed. A vanishing bracket forces g decomposable.

    The principal dimensions take ``principal_isotropy_dim``'s fixed
    draw, as ``ReductiveSplit.stabilizer_frame`` does, and ``seed`` is not
    read; it stays for callers that pass it. The report is built once
    per decomposition, so every space carrying the same modules gets the
    same report object.
    """
    if len(space.modules) != 2:
        raise FilterError("necessary filter needs exactly two modules")
    d = space.decomposition
    if d.filter_report is None:
        d.filter_report = _filter_report(space, bracket_location(space))
    return d.filter_report


def _filter_report(space: ReductiveSpace, location: str) -> FilterReport:
    chi1 = principal_isotropy_dim(_module_action(space, 0))
    chi2 = principal_isotropy_dim(_module_action(space, 1))
    dims = {"module_1_stabilizer": chi1, "module_2_stabilizer": chi2}
    rules = []
    if location == "mixed":
        rules.append(FilterRule("module_1_stabilizer_positive", 1, chi1))
        rules.append(FilterRule("module_2_stabilizer_positive", 1, chi2))
    elif location in ("in_m1", "in_m2"):
        absorbed, big = (1, 0) if location == "in_m1" else (0, 1)
        small_chi = chi2 if location == "in_m1" else chi1
        rules.append(FilterRule(
            f"module_{absorbed + 1}_stabilizer_positive", 1, small_chi))
        eta = principal_isotropy_dim(
            _subalgebra_action_on_module(space, absorbed, big))
        dims["extended_action_stabilizer"] = eta
        rules.append(FilterRule(
            "extended_action_stabilizer_bound",
            space.modules[absorbed].dim, eta))
    else:
        components = space.g.center.shape[1] + len(space.split.ideals)
        dims["algebra_components"] = components
        rules.append(FilterRule("commuting_modules_need_decomposable_g",
                                2, components))
    # read-only, as the report is shared by every space of a decomposition
    return FilterReport(bracket_location=location, rules=tuple(rules),
                        principal_dims=MappingProxyType(dims))
