"""Reductive decompositions, isotropy module splitting, and structure labels.

A reductive space is g = h + m with m the orthocomplement of a
subalgebra h against the chosen ad-invariant inner product. Every
equivariance question goes through one routine, ``intertwiners``, which
returns a basis of the maps between two ad(h)-actions that commute with
every generator. The isotropy decomposition takes the symmetric part of
the commutant of ad(h) on m (the invariant metrics), splits m along the
eigenspaces of a random element of it, certifies each summand
irreducible by a 1-dimensional symmetric commutant, and groups
summands joined by a nonzero intertwiner. The structure classifier
labels the pair (g, h) by one of seven coarse cases from the center
dimension, the minimal ideals of g, and how the simple ideals of h
project onto them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from fractions import Fraction

from . import exact
from .core import (LieAlgebra, OrbitcheckError, Subspace, ValidationError,
                   EffectivenessError, center_basis)
from .linalg import (column_space, gram_orthonormalize, nullspace, rng_for,
                     subspace_intersection, svd_rank)
from .zoo import Embedding, EmbeddingChain, as_embedding


class DecompositionError(OrbitcheckError):
    pass


class ClassificationError(OrbitcheckError):
    pass


class ExactUnavailableError(OrbitcheckError):
    pass


@dataclass(frozen=True)
class ReductiveSpace:
    """g = h + m with h a subalgebra and m its orthocomplement."""

    g: LieAlgebra
    h: Subspace
    m: Subspace
    name: str = ""
    embedding: Embedding | None = field(default=None, compare=False)
    h_algebra: LieAlgebra | None = field(default=None, compare=False)
    modules: tuple[Subspace, ...] = ()
    isotypic_groups: tuple[tuple[int, ...], ...] = ()
    metric_space_dim: int | None = None
    decomposition_seed: int | None = None

    @property
    def dim_m(self) -> int:
        return self.m.dim

    @property
    def module_dims(self) -> tuple[int, ...]:
        return tuple(mod.dim for mod in self.modules)

    @property
    def two_summand(self) -> bool:
        return len(self.modules) == 2

    @cached_property
    def iso_action(self) -> np.ndarray:
        """ad(h) on m in orthonormal coordinates, shape (dim h, dim m, dim m)."""
        return self._action_tensor(self.h.basis)

    @cached_property
    def exact_m_basis(self) -> np.ndarray:
        """Rational basis (columns, g coords) of m in rref free-column
        form; not orthonormal."""
        _require_exact(self)
        basis = exact.null_space(exact.matmul(
            self.embedding.matrix_exact.T, self.g.inner_product_exact))
        if basis.shape[1] != self.m.dim:
            raise ExactUnavailableError("exact m dimension disagrees with float")
        return basis

    def _action_tensor(self, generators: np.ndarray) -> np.ndarray:
        raw = pair_bracket_tensor(self.g, generators, self.m.basis)
        gm = self.g.inner_product @ self.m.basis
        return np.einsum("abk,kc->acb", raw, gm).transpose(0, 2, 1)

    @cached_property
    def m_bracket_h(self) -> np.ndarray:
        """h-coordinates of [m_i, m_j], shape (dim m, dim m, dim h)."""
        raw = pair_bracket_tensor(self.g, self.m.basis, self.m.basis)
        return np.einsum("abk,kc->abc", raw, self.g.inner_product @ self.h.basis)

    @cached_property
    def m_bracket_m(self) -> np.ndarray:
        """m-coordinates of [m_i, m_j], shape (dim m, dim m, dim m)."""
        raw = pair_bracket_tensor(self.g, self.m.basis, self.m.basis)
        return np.einsum("abk,kc->abc", raw, self.g.inner_product @ self.m.basis)

    def module_coords_in_m(self, index: int) -> np.ndarray:
        """Module basis expressed in m coordinates."""
        mod = self.modules[index]
        return self.m.basis.T @ self.g.inner_product @ mod.basis

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "dim_g": self.g.dim,
            "dim_h": self.h.dim,
            "dim_m": self.m.dim,
            "module_dims": list(self.module_dims),
            "isotypic_groups": [list(gp) for gp in self.isotypic_groups],
            "metric_space_dim": self.metric_space_dim,
        }


def pair_bracket_tensor(g: LieAlgebra, left: np.ndarray,
                        right: np.ndarray) -> np.ndarray:
    """Brackets of basis columns: out[a, b] = [left_a, right_b] in g coords."""
    half = np.einsum("ijk,ia->ajk", g.structure, left)
    return np.einsum("ajk,jb->abk", half, right)


def reductive_space(g: LieAlgebra | None,
                    h_embedding: Embedding | EmbeddingChain | np.ndarray,
                    name: str = "", tol: float = 1e-8) -> ReductiveSpace:
    """Build the orthogonal reductive decomposition for h inside g.

    ``h_embedding`` is an Embedding (or chain) whose target matches g,
    or a raw coordinate matrix whose columns span h. Verifies that h is
    a subalgebra, that [h, m] stays in m, and that h contains no
    nonzero ideal of g (almost-effective action).
    """
    emb = None
    h_alg = None
    if isinstance(h_embedding, (Embedding, EmbeddingChain)):
        emb = as_embedding(h_embedding)
        if g is None:
            g = emb.target
        elif g.dim != emb.target.dim:
            raise ValidationError("embedding target does not match g")
        cols = emb.matrix
        h_alg = emb.source
    else:
        if g is None:
            raise ValidationError("g is required with a raw basis matrix")
        cols = np.asarray(h_embedding, dtype=np.float64)
        if cols.ndim != 2 or cols.shape[0] != g.dim:
            raise ValidationError(f"h basis shape {cols.shape} does not match g")
    h = Subspace.from_columns(g, cols, name="h")
    if h.dim:
        closure = h.closure_residual()
        if closure > tol:
            raise ValidationError(f"h is not a subalgebra (residual {closure:.2e})")
    if h.dim == g.dim:
        raise EffectivenessError("h equals g; the space is a point")
    comp = nullspace(cols.T @ g.inner_product) if h.dim else np.eye(g.dim)
    m = Subspace(ambient=g, basis=gram_orthonormalize(comp, g.inner_product),
                 name="m")
    if h.dim + m.dim != g.dim:
        raise ValidationError("h and m do not span g")
    worst = 0.0
    for a in range(h.dim):
        brackets = g.bracket_matrix(h.basis[:, a], m.basis)
        for j in range(m.dim):
            worst = max(worst, m.distance(brackets[:, j]))
    if worst > tol:
        raise ValidationError(f"[h, m] leaves m (residual {worst:.2e})")
    if h.dim:
        rows = pair_bracket_tensor(g, h.basis, m.basis).reshape(h.dim, -1).T
        kernel = nullspace(rows)
        if kernel.shape[1]:
            raise EffectivenessError(
                f"h contains a {kernel.shape[1]}-dimensional ideal of g "
                "acting trivially on m")
    return ReductiveSpace(g=g, h=h, m=m, name=name, embedding=emb,
                          h_algebra=h_alg)


def _cluster(values: np.ndarray, rel_gap: float = 1e-6) -> list[np.ndarray]:
    """Indices of values grouped by gaps relative to the overall scale."""
    order = np.argsort(values)
    scale = max(float(np.abs(values).max()), 1.0) if values.size else 1.0
    groups: list[list[int]] = []
    for idx in order:
        if groups and values[idx] - values[groups[-1][-1]] <= rel_gap * scale:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return [np.array(gp) for gp in groups]


def intertwiners(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the maps T with dst[a] T = T src[a] for every a.

    ``src`` and ``dst`` are (k, d_src, d_src) and (k, d_dst, d_dst) stacks
    of generator actions; the result is a (count, d_dst, d_src) stack,
    orthonormal in the Frobenius inner product. A map that intertwines
    every generator intertwines any combination of them, so the kernel
    of the equivariance system for one fixed generic combination holds
    every intertwiner; all generators are then imposed on that small
    kernel only.
    """
    k, ds, dd = len(src), src.shape[1], dst.shape[1]
    if k == 0:
        return np.eye(dd * ds).reshape(dd * ds, dd, ds)
    weights = rng_for("intertwiners", k).standard_normal(k)
    a = np.einsum("a,aij->ij", weights, src)
    b = np.einsum("a,aij->ij", weights, dst)
    system = np.kron(b, np.eye(ds)) - np.kron(np.eye(dd), a.T)
    kernel = nullspace(system).T.reshape(-1, dd, ds)
    residual = dst[:, None] @ kernel[None] - kernel[None] @ src[:, None]
    rows = np.moveaxis(residual, 1, -1).reshape(k * dd * ds, len(kernel))
    coeffs = nullspace(rows)
    return np.einsum("sc,sij->cij", coeffs, kernel)


def _symmetric_part(maps: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the symmetric matrices in a transpose-closed span."""
    d = maps.shape[1]
    sym = (maps + maps.transpose(0, 2, 1)) / 2
    span = column_space(sym.reshape(len(maps), d * d).T)
    return span.T.reshape(-1, d, d)


def decompose_isotropy(space: ReductiveSpace, seed: int = 0,
                       tol: float = 1e-8) -> ReductiveSpace:
    """Split m into irreducible ad(h)-modules; returns an updated space.

    The invariant symmetric operators are the symmetric part of
    ``intertwiners(action, action)``; it is the whole symmetric part
    because the action matrices are skew, so the commutant is closed
    under transposition. A random symmetric matrix is projected onto
    them, and m splits along the eigenvalue clusters of the projection
    (relative gap 1e-6). Each summand is certified irreducible by a
    1-dimensional symmetric commutant; isomorphic summands are grouped
    by nonzero intertwiners. Modules are ordered by dimension, then by
    the norm of proj_m [m_i, m_i], then by eigenvalue, so the module
    with h + m_i a subalgebra comes first whatever the seed. Degenerate
    draws retry with derived seeds, then fail.
    """
    action = space.iso_action
    dm = space.m.dim
    if dm == 0:
        return replace(space, modules=(), isotypic_groups=(),
                       metric_space_dim=0, decomposition_seed=seed)
    metrics = _symmetric_part(intertwiners(action, action))
    last_error = None
    for attempt in range(3):
        rng = rng_for("decompose", space.name, seed, attempt)
        raw = rng.standard_normal((dm, dm))
        raw = (raw + raw.T) / 2
        op = np.einsum("s,sij->ij", np.einsum("sij,ij->s", metrics, raw),
                       metrics)
        eigvals, eigvecs = np.linalg.eigh(op)
        clusters = _cluster(eigvals)
        ok = True
        mods = []
        for cl in clusters:
            block = eigvecs[:, cl]
            inv_res = _invariance_residual(action, block)
            if inv_res > tol:
                ok = False
                break
            sub_action = np.einsum("pi,apq,qj->aij", block, action, block)
            if len(_symmetric_part(intertwiners(sub_action, sub_action))) != 1:
                ok = False
                break
            mods.append((float(np.mean(eigvals[cl])), block, sub_action))
        if not ok:
            last_error = f"attempt {attempt}: degenerate eigenvalue split"
            continue
        mods.sort(key=lambda t: (t[1].shape[1],
                                 round(_self_bracket_norm(space, t[1]), 6),
                                 t[0]))
        groups = _isotypic_groups([sa for _, _, sa in mods])
        modules = tuple(
            Subspace(ambient=space.g, basis=space.m.basis @ block,
                     name=f"m{i + 1}")
            for i, (_, block, _) in enumerate(mods))
        return replace(space, modules=modules,
                       isotypic_groups=tuple(groups),
                       metric_space_dim=len(metrics),
                       decomposition_seed=seed)
    raise DecompositionError(
        f"isotropy decomposition failed after 3 attempts ({last_error})")


def _self_bracket_norm(space: ReductiveSpace, block: np.ndarray) -> float:
    """Norm of proj_m [m_i, m_i] for the module with m coordinates ``block``.

    It does not depend on the module's basis, and it is 0 exactly when
    h + m_i is a subalgebra, so that module sorts first among equal
    dimensions.
    """
    cols = space.m.basis @ block
    raw = pair_bracket_tensor(space.g, cols, cols)
    gm = space.g.inner_product @ space.m.basis
    return float(np.linalg.norm(np.einsum("abk,kc->abc", raw, gm)))


def _invariance_residual(action: np.ndarray, block: np.ndarray) -> float:
    if action.shape[0] == 0:
        return 0.0
    image = np.einsum("apq,qj->apj", action, block)
    inside = np.einsum("pi,apj->aij", block, image)
    recon = np.einsum("pi,aij->apj", block, inside)
    return float(np.abs(image - recon).max())


def _isotypic_groups(sub_actions: list[np.ndarray]) -> list[tuple[int, ...]]:
    r = len(sub_actions)
    parent = list(range(r))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(r):
        for j in range(i + 1, r):
            ai, aj = sub_actions[i], sub_actions[j]
            if ai.shape[1] != aj.shape[1]:
                continue
            if len(intertwiners(ai, aj)):
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pj] = pi
    groups: dict[int, list[int]] = {}
    for i in range(r):
        groups.setdefault(find(i), []).append(i)
    return [tuple(v) for _, v in sorted(groups.items())]


# --- minimal ideals and the structure classifier -----------------------

def minimal_ideals(alg: LieAlgebra, seed: int = 0,
                   tol: float = 1e-8) -> list[np.ndarray]:
    """Orthonormal bases of the minimal ideals of the derived algebra.

    Splits along eigenspaces of (ad X)^2 for random X, merges blocks
    connected by nonzero brackets, completes each block with its part of
    the kernel, and intersects the partitions of two independent draws.
    The result is verified to consist of ideals spanning the derived
    algebra; minimality holds for generic draws and is deterministic
    under the seed.
    """
    n = alg.dim
    if n == 0:
        return []
    center = center_basis(alg)
    if center.shape[1] == n:
        return []
    gram = alg.inner_product
    if center.shape[1] == 0:
        s_basis = gram_orthonormalize(np.eye(n), gram)
    else:
        s_basis = gram_orthonormalize(nullspace(center.T @ gram), gram)
    for attempt in range(3):
        rng = rng_for("ideals", alg.name, seed, attempt)
        try:
            parts1 = _ideal_split_once(alg, s_basis, rng)
            parts2 = _ideal_split_once(alg, s_basis, rng)
            parts = _common_refinement(alg, parts1, parts2)
            _verify_ideals(alg, parts, s_basis, tol)
            parts.sort(key=lambda b: (b.shape[1], _first_coord_key(b)))
            return parts
        except DecompositionError:
            continue
    raise DecompositionError(f"minimal ideal split failed for {alg.name}")


def _first_coord_key(basis: np.ndarray) -> tuple:
    weights = np.abs(basis).sum(axis=1)
    return tuple(np.round(-weights, 9))


def _ideal_split_once(alg: LieAlgebra, s_basis: np.ndarray,
                      rng: np.random.Generator) -> list[np.ndarray]:
    gram = alg.inner_product
    ds = s_basis.shape[1]
    x = s_basis @ rng.standard_normal(ds)
    sq = np.empty((ds, ds))
    for j in range(ds):
        v = alg.bracket(x, alg.bracket(x, s_basis[:, j]))
        sq[:, j] = s_basis.T @ gram @ v
    sq = (sq + sq.T) / 2
    eigvals, eigvecs = np.linalg.eigh(sq)
    scale = max(float(np.abs(eigvals).max()), 1.0)
    kernel_idx = np.abs(eigvals) <= 1e-9 * scale
    clusters = [c for c in _cluster(eigvals) if not kernel_idx[c[0]]]
    kernel = s_basis @ eigvecs[:, kernel_idx]
    blocks = [s_basis @ eigvecs[:, c] for c in clusters]
    if not blocks:
        raise DecompositionError("no nonzero eigenvalue blocks")
    merged = _merge_connected(alg, blocks)
    completed = []
    used_kernel_dims = 0
    for block in merged:
        cart = _kernel_part(alg, block, kernel, gram)
        used_kernel_dims += cart.shape[1]
        basis = np.hstack([block, cart]) if cart.shape[1] else block
        completed.append(gram_orthonormalize(basis, gram))
    completed = _merge_connected(alg, completed)
    total = sum(b.shape[1] for b in completed)
    if used_kernel_dims != kernel.shape[1] or total != ds:
        raise DecompositionError("kernel completion did not account for the "
                                 "whole derived algebra")
    return completed


def _merge_connected(alg: LieAlgebra, blocks: list[np.ndarray],
                     tol: float = 1e-8) -> list[np.ndarray]:
    r = len(blocks)
    parent = list(range(r))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(r):
        for j in range(i + 1, r):
            raw = pair_bracket_tensor(alg, blocks[i], blocks[j])
            if float(np.abs(raw).max()) > tol:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pj] = pi
    groups: dict[int, list[int]] = {}
    for i in range(r):
        groups.setdefault(find(i), []).append(i)
    return [np.hstack([blocks[i] for i in idxs])
            for _, idxs in sorted(groups.items())]


def _kernel_part(alg: LieAlgebra, block: np.ndarray, kernel: np.ndarray,
                 gram: np.ndarray) -> np.ndarray:
    if kernel.shape[1] == 0:
        return np.zeros((alg.dim, 0))
    raw = pair_bracket_tensor(alg, block, block).reshape(-1, alg.dim).T
    coords = kernel.T @ gram @ raw
    span = column_space(coords)
    return kernel @ span


def _common_refinement(alg: LieAlgebra, parts1: list[np.ndarray],
                       parts2: list[np.ndarray]) -> list[np.ndarray]:
    refined = []
    for b1 in parts1:
        for b2 in parts2:
            inter = subspace_intersection(b1, b2)
            if inter.shape[1]:
                refined.append(gram_orthonormalize(inter, alg.inner_product))
    total = sum(b.shape[1] for b in refined)
    if total != sum(b.shape[1] for b in parts1):
        raise DecompositionError("draws produced incompatible partitions")
    return refined


def _verify_ideals(alg: LieAlgebra, parts: list[np.ndarray],
                   s_basis: np.ndarray, tol: float) -> None:
    gram = alg.inner_product
    for basis in parts:
        raw = pair_bracket_tensor(alg, np.eye(alg.dim), basis)
        flat = raw.reshape(-1, alg.dim)
        recon = (flat @ gram @ basis) @ np.linalg.solve(
            basis.T @ gram @ basis, basis.T)
        if float(np.abs(flat - recon).max()) > tol * 10:
            raise DecompositionError("candidate block is not an ideal")
    total = sum(b.shape[1] for b in parts)
    if total != s_basis.shape[1]:
        raise DecompositionError("ideals do not span the derived algebra")


@dataclass(frozen=True)
class StructureReport:
    """Coarse label for the pair (g, h) with the counters that drove it."""

    case_label: int
    center_dim: int
    ideal_dims: tuple[int, ...]
    proj_dims: tuple[int, ...]
    deficient: tuple[bool, ...]
    h_center_dim: int
    h_ideal_dims: tuple[int, ...]
    hit_matrix: tuple[tuple[int, ...], ...]
    v: tuple[int, ...]
    counting_value: int

    def as_dict(self) -> dict:
        return {
            "case": self.case_label,
            "center_dim": self.center_dim,
            "ideal_dims": list(self.ideal_dims),
            "proj_dims": list(self.proj_dims),
            "deficient": [bool(b) for b in self.deficient],
            "h_center_dim": self.h_center_dim,
            "h_ideal_dims": list(self.h_ideal_dims),
            "hit_matrix": [list(r) for r in self.hit_matrix],
            "v": list(self.v),
            "counting_value": self.counting_value,
        }


def _subalgebra_algebra(g: LieAlgebra, basis: np.ndarray,
                        name: str) -> LieAlgebra:
    """Abstract algebra carried by an orthonormal subalgebra basis."""
    d = basis.shape[1]
    raw = pair_bracket_tensor(g, basis, basis)
    structure = np.einsum("abk,kc->abc", raw, g.inner_product @ basis)
    return LieAlgebra(structure=structure, inner_product=np.eye(d), name=name)


def classify_structure(g: LieAlgebra | ReductiveSpace,
                       h_embedding=None, seed: int = 0,
                       tol: float = 1e-8) -> StructureReport:
    """Label (g, h) by the seven-case coarse structure decision tree.

    The tree keys on the center dimension of g, then on how the simple
    ideals of h project onto the minimal ideals of g: a simple h-ideal
    hitting three g-ideals is the triple-diagonal case (1); two h-ideals
    hitting two each is (2); one hitting two routes to (3) or (4) by
    whether it touches a deficiently covered ideal; with no diagonal
    h-ideals the count of deficiently covered ideals decides (2) or (7).
    Center dimension 2 is the flat case (5); center dimension 1 routes
    to (6) or (4) by whether h sits inside the derived algebra.
    """
    if isinstance(g, ReductiveSpace):
        space = g
    else:
        space = reductive_space(g, h_embedding, tol=tol)
    g = space.g
    h_basis = space.h.basis
    gram = g.inner_product
    eigs = np.linalg.eigvalsh(-g.killing_form)
    scale = max(float(np.abs(eigs).max()), 1.0)
    if eigs.min() < -1e-8 * scale:
        raise ClassificationError("g is not compact (Killing form sign)")
    center = center_basis(g)
    cg = center.shape[1]
    ideals = minimal_ideals(g, seed=seed, tol=tol)
    ideal_dims = tuple(b.shape[1] for b in ideals)
    proj_dims = tuple(int(svd_rank(b.T @ gram @ h_basis)) if space.h.dim else 0
                      for b in ideals)
    deficient = tuple(pd < b.shape[1] for pd, b in zip(proj_dims, ideals))
    if space.h.dim:
        h_alg = _subalgebra_algebra(g, h_basis, "h")
        h_center = center_basis(h_alg)
        l_dim = h_center.shape[1]
        h_ideals = minimal_ideals(h_alg, seed=seed, tol=tol)
    else:
        l_dim = 0
        h_ideals = []
    h_ideal_dims = [b.shape[1] for b in h_ideals]
    hit = []
    for hb in h_ideals:
        h_cols = h_basis @ hb
        row = []
        for b in ideals:
            r = int(svd_rank(b.T @ gram @ h_cols))
            if r not in (0, hb.shape[1]):
                raise ClassificationError(
                    f"simple h-ideal projects with rank {r}, expected 0 or "
                    f"{hb.shape[1]}")
            row.append(1 if r else 0)
        hit.append(tuple(row))
    order = sorted(range(len(h_ideals)),
                   key=lambda i: (-sum(hit[i]), -h_ideal_dims[i]))
    hit = [hit[i] for i in order]
    h_ideal_dims = [h_ideal_dims[i] for i in order]
    v = [sum(row) for row in hit]
    p = sum(deficient)
    counting = p + (cg - l_dim) + sum(vi - 1 for vi in v)

    def report(case):
        return StructureReport(case_label=case, center_dim=cg,
                               ideal_dims=ideal_dims, proj_dims=proj_dims,
                               deficient=deficient, h_center_dim=l_dim,
                               h_ideal_dims=tuple(h_ideal_dims),
                               hit_matrix=tuple(hit), v=tuple(v),
                               counting_value=counting)

    if cg > 2:
        raise ClassificationError(f"center dimension {cg} exceeds 2")
    if cg == 2:
        if ideals or space.h.dim:
            raise ClassificationError("center dimension 2 requires g flat "
                                      "and h trivial")
        return report(5)
    if cg == 1:
        center_overlap = float(np.abs(center.T @ gram @ h_basis).max()) \
            if space.h.dim else 0.0
        return report(6 if center_overlap <= tol else 4)
    if not v or v[0] == 1:
        if p == 2:
            return report(2)
        if p == 1:
            if len(ideals) != 1:
                raise ClassificationError(
                    "one deficient ideal but g is not simple")
            return report(7)
        raise ClassificationError(f"no matching case (p = {p}, v = {v})")
    if v[0] >= 4:
        raise ClassificationError(f"h-ideal spread across {v[0]} ideals")
    if v[0] == 3:
        return report(1)
    if len(v) >= 2 and v[1] == 2:
        return report(2)
    hits_deficient = any(a and d for a, d in zip(hit[0], deficient))
    return report(4 if hits_deficient else 3)


# --- exact (rational) bases for certified verdicts ----------------------

def _require_exact(space: ReductiveSpace) -> None:
    g = space.g
    if g.structure_exact is None or g.inner_product_exact is None:
        raise ExactUnavailableError(f"{g.name or 'g'} lacks exact data")
    emb = space.embedding
    if emb is None or emb.matrix_exact is None:
        raise ExactUnavailableError("h embedding lacks exact coordinates")


def exact_module_bases(space: ReductiveSpace) -> tuple[np.ndarray, ...]:
    """Rational bases of the isotropy modules, verified against the float ones.

    Every module but the largest is read off its float projector: the
    gm-orthogonal projector P onto the module, in the rational m basis
    ``exact_m_basis`` (gm is that basis's exact Gram matrix), is rounded
    entry by entry to fractions with denominators up to 2^20, and the
    module is the exact kernel of I - P in rref free-column form, which
    depends only on the subspace. The guess is then checked exactly: its
    dimension is the float module's, the bracket of every h generator
    with every basis vector stays inside it, and the guessed modules are
    pairwise gm-orthogonal. The largest module is their exact
    gm-orthocomplement in m, invariant because the inner product is.
    Every exact module must also match its float module to 1e-8.

    Raises ExactUnavailableError when an exact ingredient is missing,
    when the modules form isotypic pairs (an equivalent pair has no
    canonical split to recover), or when any check fails, so a bad
    rounding withdraws the exact lane but never certifies a wrong split.
    """
    _require_exact(space)
    if not space.modules:
        raise ExactUnavailableError("decompose the isotropy modules first")
    if any(len(group) > 1 for group in space.isotypic_groups):
        raise ExactUnavailableError("isotypic modules have no canonical split")
    gram_f = space.g.inner_product
    m_x = space.exact_m_basis
    gm = exact.matmul(exact.matmul(m_x.T, space.g.inner_product_exact), m_x)
    gm_f = exact.to_float(gm)
    to_coords = np.linalg.solve(gm_f, exact.to_float(m_x).T @ gram_f)
    largest = int(np.argmax(space.module_dims))
    coords: list[np.ndarray | None] = [None] * len(space.modules)
    for idx, mod in enumerate(space.modules):
        if idx == largest:
            continue
        c = to_coords @ mod.basis
        proj = exact.fmatrix([[Fraction(v).limit_denominator(1 << 20)
                               for v in row] for row in c @ c.T @ gm_f])
        kernel = exact.null_space(exact.fidentity(len(proj)) - proj)
        if kernel.shape[1] != mod.dim:
            raise ExactUnavailableError(f"rounded {mod.name} has dimension "
                                        f"{kernel.shape[1]}, not {mod.dim}")
        _require_invariant(space, exact.matmul(m_x, kernel), mod.name)
        coords[idx] = kernel
    guessed = [c for c in coords if c is not None]
    for i, a in enumerate(guessed):
        for b in guessed[i + 1:]:
            if np.any(exact.matmul(exact.matmul(a.T, gm), b) != 0):
                raise ExactUnavailableError("rounded modules are not orthogonal")
    coords[largest] = exact.null_space(
        np.vstack([exact.matmul(c.T, gm) for c in guessed]) if guessed
        else exact.fzeros((0, len(gm))))
    bases = []
    for mod, kernel in zip(space.modules, coords):
        basis = exact.matmul(m_x, kernel)
        basis_f = exact.to_float(basis)
        proj = mod.basis @ (mod.basis.T @ gram_f @ basis_f)
        if kernel.shape[1] != mod.dim or float(np.abs(basis_f - proj).max()) \
                > 1e-8 * max(1.0, float(np.abs(basis_f).max())):
            raise ExactUnavailableError(
                f"exact {mod.name} does not match the float module")
        bases.append(basis)
    return tuple(bases)


def _require_invariant(space: ReductiveSpace, basis: np.ndarray,
                       name: str) -> None:
    """Raise unless [h, span(basis)] lies in span(basis), testing each
    bracket's nonzero coordinates against the rows vanishing on the span."""
    g = space.g
    h_cols = space.embedding.matrix_exact
    annihilator = exact.null_space(basis.T).T
    for a in range(h_cols.shape[1]):
        for j in range(basis.shape[1]):
            image = g.bracket_exact(h_cols[:, a], basis[:, j])
            support = [t for t in range(g.dim) if image[t] != 0]
            for row in annihilator:
                if sum(row[t] * image[t] for t in support) != 0:
                    raise ExactUnavailableError(
                        f"rounded {name} is not ad(h)-invariant")
