"""Reductive decompositions, isotropy module splitting, and structure labels.

A reductive space is g = h + m with m the orthocomplement of a
subalgebra h against the chosen ad-invariant inner product. Every
equivariance question goes through one routine, ``commutant``, which
returns a basis of the maps on a space commuting with every generator
of an ad(h)-action, from the matching eigenvalues of one generic
element of h (on its kernel, of a second one's square), pruned by two
more generic elements and then by every generator. The
commutant of ad(h) on m is computed once per ``ReductiveSplit``, the
seed-free part of a space, shared by every space and seed built from
one (g, embedding). The isotropy decomposition splits m along the
eigenspaces of one random symmetric element of that commutant, with no
retry, rotates the basis once into those eigenvectors, and reads every
count as an integer block sum of squared entries of that one stack: the
invariant metrics are its symmetric part, a summand is irreducible when
it carries one symmetric invariant map, and summands joined by an
invariant map are grouped as isotypic. The split of m is drawn once
per split, with no seed, and every space of that split carries the same
``IsotropyModules``: the modules, and what is read off them alone
(module coordinates, checked projectors, the filter reports and the
exact lane), each computed once. When no two summands are isotypic that
split is unique; an isotypic group, whose split the maths leaves open,
takes the same one draw, so no seed moves it either. Ideals
need no commutant: those of [g, g], and of [h, h], are the components of
the roots of one generic element, linked where two roots are not
orthogonal, every bracket taken through g's constants. Ideals and
modules alike are ordered by keys of their subspaces, never of a draw.
The structure classifier labels the pair (g, h) by one of seven coarse
cases from the center dimension, the minimal ideals of g, and how the
simple ideals of h project onto them. None of these depends on a seed,
so the ideals of g and h and the label are computed once per split,
from draws of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import exact
from .core import (LieAlgebra, OrbitcheckError, Subspace, ValidationError,
                   EffectivenessError, check_finite, pair_bracket_tensor)
from .linalg import (column_space, gram_orthonormalize, nullspace, rng_for,
                     svd_rank)
from .zoo import Embedding, EmbeddingChain, as_embedding


class DecompositionError(OrbitcheckError):
    pass


# Largest stage commutant allocates: K candidate maps on R^d, d * d * K
# doubles, and, when j generators are imposed on them, the (j d^2, K)
# system and the QR's two copies of it. The first stage, with j = 1 and
# the most candidates, is checked before any candidate is built.
MAX_SYSTEM_BYTES = 128 * 2 ** 20
# Relative gap under which commutant pairs two eigenvalues, and
# _simple_ideals counts one as zero: loose, as the generators prune a pair
# matched by accident and [t, t] refuses a root counted as zero.
EIGENVALUE_MATCH = 1e-6
# Largest miss _simple_ideals accepts: of a Cartan integer from an integer,
# of a bracket that must vanish from zero, relative to the longest root.
ROOT_MARGIN = 1e-6


class ClassificationError(OrbitcheckError):
    pass


class ExactUnavailableError(OrbitcheckError):
    pass


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _within(residual: float, tol: float, what: str,
            error: type[OrbitcheckError] = ValidationError) -> None:
    if residual > tol:
        raise error(f"{what} (residual {residual:.2e}, over tol {tol:.2e})")


class ReductiveSplit:
    """The part of g = h + m that no name or seed touches: h, m, the
    embedding it was built from (None from a raw matrix), the closure and
    [h, m] residuals ``_build_split`` measured (None on a split it did not
    build), and, each computed when first read, the isotropy action, its
    stabilizer frame, the m-bracket tensors, the isotropy commutant, the
    seed-free isotropy decomposition (one draw, no retry), the minimal
    ideals of g and the structure report of (g, h). Every array is
    read-only, as splits are shared between spaces."""

    def __init__(self, g: LieAlgebra, h: Subspace, m: Subspace,
                 closure: float | None = None, leak: float | None = None,
                 embedding: Embedding | None = None):
        self.g, self.h, self.m = g, h, m
        self.closure, self.leak = closure, leak
        self.embedding = embedding

    def check(self, tol: float) -> None:
        """Raise unless h is a subalgebra and [h, m] lies in m, to ``tol``."""
        if self.h.dim:
            _within(self.closure, tol, "h is not a subalgebra")
        _within(self.leak, tol, "[h, m] leaves m")

    @cached_property
    def iso_action(self) -> np.ndarray:
        raw = pair_bracket_tensor(self.g, self.h.basis, self.m.basis)
        return _read_only(bracket_coords(self.g, raw, self.m.basis))

    @cached_property
    def stabilizer_frame(self) -> tuple[np.ndarray, int]:
        """``filters.principal_frame(iso_action)``, no seed: (F, r), r the
        generic rank of M(v): z -> proj_m [z, v] over h, F an orthogonal
        frame of h whose last dim h - r columns span ker M at a fixed v
        of rank r (the generic stabilizer), the identity when r = dim h.
        Every M(v) has rank at most r; ``go._factorise`` solves
        M(v) y = P_k [v1, v2]_m, k = 1, 2, on M S, S the first r columns,
        and ``go._min_norm`` reads ker M off M F."""
        from .filters import principal_frame
        frame, rank = principal_frame(self.iso_action)
        return _read_only(frame), rank

    @cached_property
    def m_bracket_m(self) -> np.ndarray:
        raw = pair_bracket_tensor(self.g, self.m.basis, self.m.basis)
        return _read_only(bracket_coords(self.g, raw, self.m.basis))

    @cached_property
    def commutant(self) -> np.ndarray:
        """``commutant(iso_action)``: a Frobenius-orthonormal basis of the
        maps on m commuting with ad(h), (count, dim m, dim m). Its only
        draw is ``rng_for("intertwiners", dim h)``, no seed."""
        return _read_only(commutant(self.iso_action))

    @cached_property
    def decomposition(self) -> IsotropyModules:
        """The isotropy decomposition, the only one: ``_split_modules`` on
        one draw, no name or seed, with the worst invariance residual,
        which each call compares with its own ``tol``."""
        return _split_modules(self)

    @cached_property
    def ideals(self) -> tuple[np.ndarray, ...]:
        """``minimal_ideals(g)``, read-only, from one draw by g's name."""
        return tuple(_read_only(b) for b in minimal_ideals(self.g))

    @cached_property
    def structure(self) -> StructureReport:
        """The seven-case label of (g, h); see ``classify_structure``."""
        return _classify(self)


class IsotropyModules:
    """One isotropy decomposition of a split: the modules, their isotypic
    groups and the dimension of the invariant metrics, with what is read
    off the modules alone, each computed once and shared by every space
    that carries this decomposition: the modules' m coordinates, their
    checked projectors, the largest coordinates of [m1, m2] along each
    module, the ``filters.necessary_filter`` reports (``filter_reports``,
    by bracket location) and the exact lane (``exact_lane``, filled by
    ``ReductiveSpace.exact_lane``). ``residual`` is the worst invariance
    residual of the draw that found the modules (None for modules given
    rather than drawn). Every array is read-only."""

    def __init__(self, split: ReductiveSplit,
                 modules: tuple[Subspace, ...] = (),
                 isotypic_groups: tuple[tuple[int, ...], ...] = (),
                 metric_space_dim: int | None = None,
                 residual: float | None = None):
        self.split, self.modules = split, modules
        self.isotypic_groups = isotypic_groups
        self.metric_space_dim = metric_space_dim
        self.residual = residual
        self.filter_reports: dict = {}
        self.exact_lane: ExactLane | None = None

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Module bases in m coordinates."""
        to_m = self.split.m.basis.T @ self.split.g.inner_product
        return tuple(_read_only(to_m @ mod.basis) for mod in self.modules)

    @cached_property
    def projectors(self) -> np.ndarray:
        """``ReductiveSpace.module_projectors``, checked once."""
        proj = np.stack([b @ b.T for b in self.coords])
        if not np.array_equal(proj, proj.transpose(0, 2, 1)):
            raise ValidationError("metric operator is not symmetric")
        dm = self.split.m.dim
        if float(np.abs(proj.sum(axis=0) - np.eye(dm)).max()) > 1e-10:
            raise ValidationError("the modules do not split m: P1 + P2 != I")
        act = self.split.iso_action
        worst = sum(float(np.abs(act @ p - p @ act).max(initial=0.0)
                          / p.diagonal().max()) for p in proj)
        if worst > 1e-8:
            raise ValidationError("metric operator does not commute with the "
                                  f"isotropy action (residual {worst:.2e})")
        return _read_only(proj)

    @cached_property
    def bracket_sizes(self) -> tuple[float, float]:
        """Largest coordinates of [m1, m2] along m1 and along m2, over every
        pair of basis vectors of two modules."""
        g = self.split.g
        b1, b2 = (mod.basis for mod in self.modules)
        raw = pair_bracket_tensor(g, b1, b2)
        return (float(np.abs(bracket_coords(g, raw, b1)).max()),
                float(np.abs(bracket_coords(g, raw, b2)).max()))


@dataclass(frozen=True)
class ReductiveSpace:
    """g = h + m with h a subalgebra and m its orthocomplement.

    Seed-free data is read from ``split``, and the data read off the
    modules alone from ``decomposition``, which ``replace`` carries over.
    A space whose g, h, m or embedding is not its split's gets a split of
    its own, and one whose split, modules or isotypic groups are not its
    decomposition's gets a decomposition of its own.
    """

    g: LieAlgebra
    h: Subspace
    m: Subspace
    name: str = ""
    embedding: Embedding | None = field(default=None, compare=False)
    modules: tuple[Subspace, ...] = ()
    isotypic_groups: tuple[tuple[int, ...], ...] = ()
    metric_space_dim: int | None = None
    split: ReductiveSplit | None = field(default=None, compare=False,
                                         repr=False)
    decomposition: IsotropyModules | None = field(default=None, compare=False,
                                                  repr=False)

    def __post_init__(self):
        s = self.split
        if s is None or s.g is not self.g or s.h is not self.h \
                or s.m is not self.m or s.embedding is not self.embedding:
            s = ReductiveSplit(self.g, self.h, self.m,
                               embedding=self.embedding)
            object.__setattr__(self, "split", s)
        d = self.decomposition
        if d is None or d.split is not s or d.modules is not self.modules \
                or d.isotypic_groups != self.isotypic_groups:
            object.__setattr__(self, "decomposition", IsotropyModules(
                s, self.modules, self.isotypic_groups, self.metric_space_dim))

    @property
    def dim_m(self) -> int:
        return self.m.dim

    @property
    def module_dims(self) -> tuple[int, ...]:
        return tuple(mod.dim for mod in self.modules)

    @property
    def two_summand(self) -> bool:
        return len(self.modules) == 2

    @property
    def iso_action(self) -> np.ndarray:
        """ad(h) on m in orthonormal coordinates, shape (dim h, dim m,
        dim m), read-only."""
        return self.split.iso_action

    @cached_property
    def go_factorisations(self) -> dict:
        """GO samples of this space by lane (float draws, float or exact
        factorisation), each filled and bounded to its lane's latest seed
        by ``go.go_check``."""
        return {}

    @cached_property
    def exact_lane(self) -> ExactLane:
        """The exact GO lane's data, built by ``exact_module_bases`` once
        per decomposition and shared by every space that carries it; an
        ExactUnavailableError raises again on every access."""
        d = self.decomposition
        if d.exact_lane is None:
            d.exact_lane = exact_module_bases(self)
        return d.exact_lane

    @property
    def m_bracket_m(self) -> np.ndarray:
        """m-coordinates of [m_i, m_j], shape (dim m, dim m, dim m),
        read-only."""
        return self.split.m_bracket_m

    def module_coords_in_m(self, index: int) -> np.ndarray:
        """Module basis expressed in m coordinates (shared, read-only)."""
        return self.decomposition.coords[index]

    @property
    def module_projectors(self) -> np.ndarray:
        """Projectors P_k = b_k b_k^T onto the modules, (2, dim m, dim m) on
        two, read-only, checked once per decomposition: exactly symmetric
        (as numpy forms b b^T), P1 + P2 = I, and c1/p1 + c2/p2 <= 1e-8 for
        c_k = |[ad h, P_k]|max, p_k = max diag P_k >= 0. A = lam P1 + mu P2
        (lam, mu > 0) is then exactly symmetric, positive, of spectrum
        {lam, mu} to |P1 + P2 - I|, and |A|max >= max(lam p1, mu p2), so
        for every lam and mu |[ad h, A]|max <= lam c1 + mu c2 <= 1e-8
        max(1, |A|max) to rounding."""
        return self.decomposition.projectors

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


def bracket_coords(g: LieAlgebra, raw: np.ndarray,
                   basis: np.ndarray) -> np.ndarray:
    """Coordinates of a (p, q, dim g) bracket tensor along the g-orthonormal
    columns of ``basis``, shape (p, q, basis columns)."""
    p, q, n = raw.shape
    flat = raw.reshape(p * q, n) @ (g.inner_product @ basis)
    return flat.reshape(p, q, basis.shape[1])


def reductive_space(g: LieAlgebra | None,
                    h_embedding: Embedding | EmbeddingChain | np.ndarray,
                    name: str = "", tol: float = 1e-8) -> ReductiveSpace:
    """Build the orthogonal reductive decomposition for h inside g.

    ``h_embedding`` is an Embedding (or chain) whose target matches g,
    or a raw coordinate matrix whose columns span h. Verifies that h is
    a subalgebra, that [h, m] stays in m, and that h contains no
    nonzero ideal of g (almost-effective action).

    From an Embedding or chain, the split is computed once per process
    for each (g, composite embedding) pair, by object identity, and
    shared by every space built from it, whatever its name or seed:
    h, m, the residuals, and, once first read, the isotropy action, the
    m-bracket tensors, the isotropy commutant, the seed-free isotropy
    decomposition, the minimal ideals of g and the structure report, all
    read-only. ``SPLITS``, an ``lru_cache`` of ``SPLIT_CACHE_SIZE``
    entries, keeps the recent splits; a build that raises is not kept. A
    raw matrix builds a split of its own on every call. Either way the
    split's residuals are then compared with this call's ``tol``, so a
    split one call refuses is kept and served to a call with a looser
    ``tol``.
    """
    if isinstance(h_embedding, (Embedding, EmbeddingChain)):
        emb = as_embedding(h_embedding)
        if g is None:
            g = emb.target
        elif g.dim != emb.target.dim:
            raise ValidationError("embedding target does not match g")
        split = SPLITS(g, emb)
    else:
        if g is None:
            raise ValidationError("g is required with a raw basis matrix")
        emb = None
        cols = np.asarray(h_embedding, dtype=np.float64)
        if cols.ndim != 2 or cols.shape[0] != g.dim:
            raise ValidationError(f"h basis shape {cols.shape} does not match g")
        check_finite(cols, "h basis")
        split = _build_split(g, cols)
    split.check(tol)
    return ReductiveSpace(g=g, h=split.h, m=split.m, name=name,
                          embedding=emb, split=split)


def _build_split(g: LieAlgebra, cols: np.ndarray,
                 embedding: Embedding | None = None) -> ReductiveSplit:
    """The split of g along the span of ``cols`` (the columns of
    ``embedding``, when given) with its closure and [h, m] residuals,
    raising on the checks that no ``tol`` decides."""
    h = Subspace.from_columns(g, cols, name="h")
    if h.dim == g.dim:
        raise EffectivenessError("h equals g; the space is a point")
    with np.errstate(over="ignore"):
        pairing = cols.T @ g.inner_product
    check_finite(pairing, "h basis pairing cols^T G")
    comp = nullspace(pairing) if h.dim else np.eye(g.dim)
    m = Subspace(ambient=g, basis=gram_orthonormalize(comp, g.inner_product),
                 name="m")
    if h.dim + m.dim != g.dim:
        raise ValidationError("h and m do not span g")
    raw = pair_bracket_tensor(g, h.basis, m.basis)
    leak = m.max_distance(raw.reshape(h.dim * m.dim, g.dim).T)
    if h.dim:
        kernel = nullspace(raw.reshape(h.dim, -1).T)
        if kernel.shape[1]:
            raise EffectivenessError(
                f"h contains a {kernel.shape[1]}-dimensional ideal of g "
                "acting trivially on m")
    return ReductiveSplit(g, h, m, h.closure_residual() if h.dim else 0.0,
                          leak, embedding)


SPLIT_CACHE_SIZE = 32


@lru_cache(maxsize=SPLIT_CACHE_SIZE)
def SPLITS(g: LieAlgebra, emb: Embedding) -> ReductiveSplit:
    """The split of g along ``emb``, cached by the identity of both."""
    return _build_split(g, emb.matrix, emb)


def _cluster(values: np.ndarray) -> list[np.ndarray]:
    """Indices of values grouped by gaps relative to the overall scale."""
    order = np.argsort(values)
    scale = max(float(np.abs(values).max()), 1.0) if values.size else 1.0
    groups: list[list[int]] = []
    for idx in order:
        if groups and values[idx] - values[groups[-1][-1]] <= 1e-6 * scale:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return [np.array(gp) for gp in groups]


def commutant(action: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the maps T with a T = T a for every generator a.

    ``action`` is a (k, d, d) stack of skew generator actions; the result
    is a Frobenius-orthonormal, C-contiguous (count, d, d) stack. Every
    such T commutes with one generic combination a: with i a = U diag(l)
    U^H, T = U E U^H with E_ji = 0 unless l_j = l_i. The spectrum is
    symmetric, with conjugate eigenvectors at -l, so the candidates are
    sqrt(2) times the real and imaginary parts of U[:, j] U[:, i]^H for
    l_j = l_i > 0. On the real kernel P of a, T commutes with
    M = P^T c^T c P for a second generic combination c, so the last
    candidates are the maps between matched eigenvectors of M (whose
    eigenvalues, and their rounding, lie under |c|_F^2). With one
    generator every candidate commutes with it, by construction. Else two
    more generic combinations are imposed on the candidates, one (d^2, K)
    system each, which leaves few survivors, and then every generator is
    imposed on those (``_impose``): the result is the commutant whatever
    the draws were. Each stage is refused before it allocates, by
    ``_check_size``.
    """
    k, d = len(action), action.shape[1]
    if k == 0 or d == 0:
        _check_size(d * d, d, 0)
        return np.eye(d * d).reshape(d * d, d, d)
    rng = rng_for("intertwiners", k)
    weights = rng.standard_normal(k)
    lam, u = np.linalg.eigh(1j * np.einsum("a,aij->ij", weights, action))
    cut = EIGENVALUE_MATCH * np.abs(lam).max()
    jj, ii = np.nonzero((np.abs(lam[:, None] - lam) <= cut)
                        & (lam[:, None] > cut) & (lam > cut))
    vecs = u[:, np.abs(lam) <= cut]
    ker = column_space(np.hstack([vecs.real, vecs.imag]))
    c = np.einsum("a,aij->ij", rng.standard_normal(k), action)
    image = c @ ker
    mu, w = np.linalg.eigh(image.T @ image)
    ker = ker @ w
    kj, ki = np.nonzero(np.abs(mu[:, None] - mu)
                        <= EIGENVALUE_MATCH * float(np.sum(c * c)))
    pairs, count = len(jj), 2 * len(jj) + len(kj)
    _check_size(count, d, 0 if k == 1 else 1)
    maps = np.empty((count, d, d))
    product = np.sqrt(2) * (u.T[jj, :, None] * u.T[ii, None].conj())
    maps[:pairs], maps[pairs:2 * pairs] = product.real, product.imag
    np.multiply(ker.T[kj, :, None], ker.T[ki, None], out=maps[2 * pairs:])
    if k == 1:
        return maps
    generic = np.einsum("sa,aij->sij", rng.standard_normal((2, k)), action)
    for gens in (generic[:1], generic[1:], action):
        maps = _impose(maps, gens)
    return maps


def _check_size(count: int, d: int, generators: int) -> None:
    """Refuse a stage of ``count`` candidate maps on R^d that imposes
    ``generators`` maps before it allocates: it holds the candidates, its
    (generators d^2, count) system and the QR's two copies of it (numpy's
    and LAPACK's), against ``MAX_SYSTEM_BYTES``."""
    size = count * d * d * (1 + 3 * generators) * 8
    if size > MAX_SYSTEM_BYTES:
        raise DecompositionError(
            f"commutant system of {size / 2 ** 20:.0f} MiB "
            f"({count} candidate maps) exceeds the "
            f"{MAX_SYSTEM_BYTES >> 20} MiB bound")


def _impose(maps: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """The combinations of the orthonormal stack ``maps`` (K, d, d) that
    commute with each of ``gens`` (j, d, d): the kernel of the (j d^2, K)
    system whose columns are the residuals a T - T a, an orthonormal
    C-contiguous stack. The generators go in as few parts as
    ``_check_size`` admits, each part's kernel shrinking the stack."""
    d, done = maps.shape[1], 0
    while done < len(gens) and len(maps):
        fit = (MAX_SYSTEM_BYTES // (8 * d * d * len(maps)) - 1) // 3
        part = gens[done:done + max(fit, 1)]
        _check_size(len(maps), d, len(part))
        rows = part @ maps[:, None]
        rows -= maps[:, None] @ part
        coeffs = nullspace(rows.reshape(len(maps), -1).T)
        maps = (coeffs.T @ maps.reshape(len(maps), d * d)).reshape(-1, d, d)
        done += len(part)
    return maps


def _block_sums(maps: np.ndarray,
                basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over the commutant basis {T_k}, rotated once into the
    orthonormal ``basis`` as T~_k = basis^T T_k basis, of the entrywise
    squares T~_k * T~_k (summed over a block, the maps between two spans)
    and of sym T~_k * sym T~_k (over a diagonal block, the symmetric ones).
    The maps are rotated and summed in chunks of at most 2^19 doubles, so
    no rotated copy of the whole stack is held beside it."""
    d = len(basis)
    squares, crossed = np.zeros((d, d)), np.zeros((d, d))
    step = max(1, 2 ** 19 // max(d * d, 1))
    for i in range(0, len(maps), step):
        rotated = basis.T @ maps[i:i + step] @ basis
        squares += np.einsum("kpq,kpq->pq", rotated, rotated)
        crossed += np.einsum("kpq,kqp->pq", rotated, rotated)
    return squares, (squares + crossed) / 2


def _commutant_count(sums: np.ndarray, rows, cols) -> int:
    """Dimension of the invariant maps a block of ``_block_sums`` counts:
    the trace of a projection of the commutant, an integer up to
    rounding, checked rather than cut."""
    value = float(sums[rows][:, cols].sum())
    if abs(value - round(value)) > 0.25:
        raise DecompositionError(
            f"commutant count {value:.3f} is not near an integer")
    return round(value)


_NOT_INVARIANT = "the isotropy modules are not ad(h)-invariant"


def decompose_isotropy(space: ReductiveSpace, seed: int = 0,
                       tol: float = 1e-8) -> ReductiveSpace:
    """Split m into irreducible ad(h)-modules; returns an updated space.

    One commutant, ``commutant(action)``, gives an orthonormal
    basis {T_k} of the maps commuting with ad(h); it is read from the
    space's split, so it is computed once per split and shared by every
    space of it, and the returned space keeps the split. m splits along the
    eigenvalue clusters (relative gap 1e-6) of the projection of one
    random symmetric matrix onto the commutant, and the basis is rotated
    once into those eigenvectors E, T~_k = E^T T_k E. Every count is then
    a block sum of that one stack: the maps from module i to module j
    number sum_k |T~_k[j, i]|^2, and the symmetric ones (the action is
    skew, so the commutant is closed under transposition) sum_k
    |sym T~_k[i, i]|^2; over all of m the latter is the dimension of the
    invariant metrics. Summands joined by a map are isotypic. With no
    retry, ``DecompositionError`` names a cluster that does not carry one
    symmetric map, or a worst invariance residual over ``tol``. Modules
    are ordered by dimension, then by the norm of proj_m [m_i, m_i] (the
    module with h + m_i a subalgebra first), then by the rounded entries
    of their projectors B B^T: keys of the subspaces, not of the draw.

    The split is drawn once per split (``ReductiveSplit.decomposition``),
    with no name or seed, and every space of that split carries it, the
    same ``IsotropyModules`` object, its residual compared with each
    call's ``tol``. An isotypic group, whose split the maths leaves open,
    is split by that one draw too. ``seed`` is not read; it stays for
    callers that pass it.
    """
    found = space.split.decomposition
    _within(found.residual, tol, _NOT_INVARIANT, DecompositionError)
    return replace(space, modules=found.modules,
                   isotypic_groups=found.isotypic_groups,
                   metric_space_dim=found.metric_space_dim,
                   decomposition=found)


def _split_modules(split: ReductiveSplit) -> IsotropyModules:
    """The decomposition from one draw, ``rng_for("decompose", 0)``: m
    split along the eigenvalue clusters of the projection onto the
    commutant of a random symmetric matrix, whose eigenspaces are
    invariant and generically irreducible, with the worst invariance
    residual of its clusters."""
    maps = split.commutant
    d = maps.shape[1]
    # the trailing 0 keeps this draw, and so every module basis,
    # bit-identical to those of the decompositions before it
    raw = rng_for("decompose", 0).standard_normal((d, d))
    raw = (raw + raw.T) / 2
    op = np.einsum("s,sij->ij", np.einsum("sij,ij->s", maps, raw), maps)
    eigvals, eigvecs = np.linalg.eigh(op)
    clusters = _cluster(eigvals)
    squares, symmetric = _block_sums(maps, eigvecs)
    whole = slice(None)
    metric_dim = _commutant_count(symmetric, whole, whole)
    for cl in clusters:
        count = _commutant_count(symmetric, cl, cl)
        if count != 1:
            raise DecompositionError(
                f"a {len(cl)}-dimensional eigenvalue cluster carries {count} "
                "symmetric invariant maps, not 1")
    residual = max((_invariance_residual(split.iso_action, eigvecs[:, cl])
                    for cl in clusters), default=0.0)
    blocks = [eigvecs[:, cl] for cl in clusters]
    clusters = [clusters[i] for i in _subspace_order(
        [b @ b.T for b in blocks],
        [(b.shape[1], round(_self_bracket_norm(split, b), 6))
         for b in blocks])]
    groups = _connected_groups(
        clusters, lambda a, b: _commutant_count(squares, b, a) > 0)
    modules = tuple(
        Subspace(ambient=split.g, basis=split.m.basis @ eigvecs[:, cl],
                 name=f"m{i + 1}")
        for i, cl in enumerate(clusters))
    return IsotropyModules(split, modules, tuple(map(tuple, groups)),
                           metric_dim, residual)


def _subspace_order(projectors: list[np.ndarray], keys: list) -> list[int]:
    """Indices of subspaces sorted by their ``keys``, ties broken by the
    entries of their ``projectors`` rounded to 6 decimals, ascending: only
    those that differ within a tie, as only they can decide its order."""
    tie_keys = {}
    for key in set(keys):
        group = [i for i, k in enumerate(keys) if k == key]
        proj = np.round(np.stack([projectors[i] for i in group]),
                        6).reshape(len(group), -1)
        tie_keys.update(zip(group,
                            map(tuple, proj[:, (proj != proj[0]).any(0)])))
    return sorted(range(len(keys)), key=lambda i: (keys[i], tie_keys[i]))


def _self_bracket_norm(split: ReductiveSplit, block: np.ndarray) -> float:
    """Norm of proj_m [m_i, m_i] for the module with m coordinates ``block``.

    It does not depend on the module's basis, and it is 0 exactly when
    h + m_i is a subalgebra, so that module sorts first among equal
    dimensions.
    """
    cols = split.m.basis @ block
    raw = pair_bracket_tensor(split.g, cols, cols)
    return float(np.linalg.norm(bracket_coords(split.g, raw, split.m.basis)))


def _invariance_residual(action: np.ndarray, block: np.ndarray) -> float:
    image = action @ block
    return float(np.abs(image - block @ (block.T @ image)).max(initial=0.0))


def _connected_groups(items: list, linked) -> list[list[int]]:
    """Indices of ``items`` grouped into the connected components of the
    graph with an edge i < j wherever ``linked(items[i], items[j])``.

    Union-find over the pairs in order, the root of j's component
    joining i's; each group is ascending, and groups come in the order
    of their roots.
    """
    parent = list(range(len(items)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in combinations(range(len(items)), 2):
        if linked(items[i], items[j]):
            pi, pj = find(i), find(j)
            if pi != pj:
                parent[pj] = pi
    groups: dict[int, list[int]] = {}
    for i in range(len(items)):
        groups.setdefault(find(i), []).append(i)
    return [v for _, v in sorted(groups.items())]


# --- minimal ideals and the structure classifier -----------------------

def minimal_ideals(alg: LieAlgebra) -> list[np.ndarray]:
    """Gram-orthonormal bases of the minimal ideals of [g, g], the center's
    orthocomplement: its ``_simple_ideals``, from a draw by ``alg.name``."""
    gram = alg.inner_product
    return _simple_ideals(alg, gram_orthonormalize(
        nullspace(alg.center.T @ gram), gram), alg.name)


def _simple_ideals(g: LieAlgebra, s_basis: np.ndarray,
                   label: str) -> list[np.ndarray]:
    """g-orthonormal bases of the simple ideals of the semisimple
    subalgebra s of g spanned by the g-orthonormal columns ``s_basis``.

    In s's coordinates, brackets taken through g's constants, one generic
    X drawn from ``rng_for("ideals", label)`` (no seed reaches it) has a
    Cartan subalgebra t = ker ad(X). The eigenvectors e_a of i ad(X) with
    eigenvalue a(X) > 0 are positive root vectors, and a(H) = e_a^H i
    ad(H) e_a on an orthonormal basis of t. Ideal j is spanned by Re e_a,
    Im e_a and the coroots over a component of the graph linking a and b
    when (a, b) != 0. With no retry, ``DecompositionError`` names the
    miss, and ``label``, when [t, t], a Cartan integer 2 (a, b) / (b, b),
    [I, I^perp] (zero for an ideal I, the gram being ad-invariant) or the
    ideals' dimension misses by more than ``ROOT_MARGIN``. Ideals are
    ordered by dimension, then by the rounded entries of their projectors
    B B^T, larger first: keys of the subspace, not of the draw.
    """
    d = s_basis.shape[1]
    if d == 0:
        return []

    def brackets(left, right):  # of s-coordinate columns, in s coordinates
        raw = pair_bracket_tensor(g, s_basis @ left, s_basis @ right)
        return bracket_coords(g, raw, s_basis)

    def check(what, miss):
        if miss > ROOT_MARGIN:
            raise DecompositionError(f"{what} of {label} misses by "
                                     f"{miss:.1e}, over {ROOT_MARGIN:.0e}")

    x = rng_for("ideals", label).standard_normal((d, 1))
    lam, vecs = np.linalg.eigh(1j * brackets(x, np.eye(d))[0].T)
    cut = EIGENVALUE_MATCH * float(np.abs(lam).max())
    kernel, e = vecs[:, np.abs(lam) <= cut], vecs[:, lam > cut]
    cartan = column_space(np.hstack([kernel.real, kernel.imag]))
    ads = brackets(cartan, np.eye(d)).transpose(0, 2, 1)  # ad(H_r)
    roots = (1j * (e.conj() * (ads @ e)).sum(axis=1)).real
    lengths = np.linalg.norm(roots, axis=0)
    if not (lengths.size and lengths.all()):  # as below the rank floor
        raise DecompositionError(f"ad(X) on {label or 'g'} gives no root "
                                 "or a zero one: it is not semisimple")
    longest = float(lengths.max())
    check("ker ad(X) is not abelian: [t, t]",
          float(np.abs(ads @ cartan).max()) / longest)
    integers = 2 * (roots.T @ roots) / (roots * roots).sum(axis=0)
    nearest = np.round(integers)
    check("a Cartan integer", float(np.abs(integers - nearest).max()))
    parts = [column_space(np.hstack([e[:, gp].real, e[:, gp].imag,
                                     cartan @ roots[:, gp]]))
             for gp in _connected_groups(list(range(e.shape[1])),
                                         lambda a, b: nearest[a, b] != 0)]
    check("the ideals' dimension", abs(d - sum(p.shape[1] for p in parts)))
    step = max(1, 2 ** 22 // d ** 2)  # bracket blocks of <= 2^22 doubles
    for part in parts[:-1]:  # the last spans the others' complement
        small, large = sorted((part, nullspace(part.T)),
                              key=lambda b: b.shape[1])
        check("[I, I^perp]", max(
            float(np.abs(brackets(small[:, i:i + step], large)).max())
            for i in range(0, small.shape[1], step)) / longest)
    ideals = [s_basis @ p for p in parts]
    # negated projectors sort the larger entries first
    return [ideals[i] for i in _subspace_order(
        [-b @ b.T for b in ideals], [b.shape[1] for b in ideals])]


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


def classify_structure(space: ReductiveSpace) -> StructureReport:
    """Label (g, h) by the seven-case coarse structure decision tree.

    The tree keys on the center dimension of g, then on how the simple
    ideals of h project onto the minimal ideals of g: a simple h-ideal
    hitting three g-ideals is the triple-diagonal case (1); two h-ideals
    hitting two each is (2); one hitting two routes to (3) or (4) by
    whether it touches a deficiently covered ideal; with no diagonal
    h-ideals the count of deficiently covered ideals decides (2) or (7).
    Center dimension 2 is the flat case (5); center dimension 1 routes
    to (6) or (4) by whether h sits inside the derived algebra.

    Its inputs are the centers and minimal ideals of g and h, which no
    seed changes, so the report is computed once per split, with g's
    ideals read from ``split.ideals``, and returned on every later call.
    h is read through g's constants: its center is the kernel of its
    brackets, and [h, h] is split as [g, g] is, from a draw labelled "h".
    """
    return space.split.structure


def _classify(split: ReductiveSplit) -> StructureReport:
    g = split.g
    h_basis = split.h.basis
    gram = g.inner_product
    eigs = np.linalg.eigvalsh(-g.killing_form)
    scale = max(float(np.abs(eigs).max()), 1.0)
    if eigs.min() < -1e-8 * scale:
        raise ClassificationError("g is not compact (Killing form sign)")
    center = g.center
    cg = center.shape[1]
    ideals = split.ideals
    ideal_dims = tuple(b.shape[1] for b in ideals)
    proj_dims = tuple(int(svd_rank(b.T @ gram @ h_basis)) for b in ideals)
    deficient = tuple(pd < b.shape[1] for pd, b in zip(proj_dims, ideals))
    dh = split.h.dim  # h's center is the kernel of its brackets
    raw = pair_bracket_tensor(g, h_basis, h_basis).reshape(dh, dh * g.dim)
    h_center = nullspace(raw.T)
    l_dim = h_center.shape[1]
    h_ideals = _simple_ideals(g, h_basis @ nullspace(h_center.T), "h")
    h_ideal_dims = [b.shape[1] for b in h_ideals]
    hit = []
    for hb in h_ideals:
        row = []
        for b in ideals:
            r = int(svd_rank(b.T @ gram @ hb))
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
        if ideals or split.h.dim:
            raise ClassificationError("center dimension 2 requires g flat "
                                      "and h trivial")
        return report(5)
    if cg == 1:
        overlap = np.abs(center.T @ gram @ h_basis).max(initial=0.0)
        return report(6 if overlap <= 1e-8 else 4)
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

# the exact lane's basis coefficients: none is zero
COEFFICIENTS = np.array([-3, -2, -1, 1, 2, 3], dtype=np.int64)


@dataclass(frozen=True)
class ExactLane:
    """The exact GO lane's per-space data, on integers, as
    ``exact_module_bases`` builds and proves it.

    Module k's rational basis (g coords) is ``bases[k] / denom``, over
    its least denominator, and the integer columns ``h_cols`` span h.
    Row p of ``rows`` is b_p^T G over its content (gcd), b_p column p of
    the bases and G the integer Gram: ``rows @ v`` vanishes exactly when
    v lies in h, and module k's rows see only v's part in module k. A
    sample's [M | b] row p is a multiple of b_p^T G, and the elimination
    divides each row by its content first, so these shorter rows give
    the same y, d and tail. ``system`` is the integer tensor
    S[a] = rows @ ad(h_a), h_a column a of ``h_cols``, as its nonzero
    (keys, cols, values): key p * dim h + a and column j hold S[a][p, j].
    ``brackets`` are g's triples (i, j, k) and numerators c with e_i in
    the support of module 1's basis and e_j in module 2's, in increasing
    k, as (i, j, c, starts, keys) with the start of each k's run and
    that k: every term of [x1, x2]. ``to_m`` and ``to_h`` take float g
    coordinates to orthonormal m and h coordinates.

    ``tops`` are (x1, x2, m, bracket, rows), on Python ints: at
    coefficients of size at most 1, |x_k| is at most x_k (the largest
    row sum of |bases[k]|), an entry of M at most m max|x1 + x2|
    (max|value| times the most entries that share a key), a bracket
    numerator at most bracket max|x1| max|x2| (max|c| times the longest
    run) and an entry of rows @ b at most rows max|b| (the largest row
    sum of |rows|). The integers a sample reads (bases, rows, values and
    numerators) are int64 when rows and every such bound, at coefficients
    up to max|``COEFFICIENTS``|, are below 2^63, so each product of each
    sample runs in int64, and Python ints otherwise. The lane decides on
    construction, so a lane built from other integers decides again.
    """

    bases: tuple[np.ndarray, np.ndarray]
    denom: int
    rows: np.ndarray
    system: tuple[np.ndarray, np.ndarray, np.ndarray]
    brackets: tuple[np.ndarray, ...]
    h_cols: np.ndarray
    to_m: np.ndarray
    to_h: np.ndarray

    def __post_init__(self):
        c = int(np.abs(COEFFICIENTS).max())
        x1, x2, m, bracket, rows = self.tops
        x, b = c * (x1 + x2), bracket * c * x1 * c * x2
        # rows alone bounds the lane's rows where no bracket term makes b > 0
        bounds = x, m * x, b, rows * b, rows
        dtype = np.int64 if max(bounds) < 2 ** 63 else object
        keys, cols, values = self.system
        i, j, numer, starts, run_keys = self.brackets
        put = object.__setattr__
        put(self, "bases", tuple(a.astype(dtype) for a in self.bases))
        put(self, "rows", self.rows.astype(dtype))
        put(self, "system", (keys, cols, values.astype(dtype)))
        put(self, "brackets", (i, j, numer.astype(dtype), starts, run_keys))

    @property
    def tops(self) -> tuple[int, int, int, int, int]:
        keys, _, values = self.system
        i, _, numer, starts, _ = self.brackets
        return (*map(_row_sum_top, self.bases),
                exact._top(values) * int(np.bincount(keys).max(initial=0)),
                exact._top(numer)
                * int(np.diff(np.r_[starts, len(i)]).max(initial=0)),
                _row_sum_top(self.rows))


def _row_sum_top(a: np.ndarray) -> int:
    """The largest sum of |entry| along a row of an integer array, on
    Python ints."""
    return max((sum(map(abs, row)) for row in a.tolist()), default=0)


def exact_module_bases(space: ReductiveSpace) -> ExactLane:
    """The exact GO lane: rational bases of the two isotropy modules,
    verified against the float ones, and the integer data each sample reuses.

    The integer Gram ip / dip and h's integer columns are g's float Gram
    and the embedding's float matrix read by ``exact.rounded``, each taken
    only if it gives its matrix back exactly, entry for entry; an
    irrational one is refused there. The Gram must also be symmetric and
    ad(g)-invariant (``StructureConstants.invariance`` 0), as the GO
    equation the lane solves assumes. m's rational basis mx / dx is the
    exact kernel of h's Gram pairing, in rref free-column form, and its
    pairing rows mx^T G must kill [h, h], one integer product, which
    proves that the rounded h is a subalgebra. gm / (dx^2 dip) is m's
    Gram matrix. The module that ``argmax(module_dims)`` does not pick
    is read off its float
    projector: the gm-orthogonal projector P onto the module, in that
    basis, is rounded to the nearest fractions with denominators up to
    2^20 by ``exact.rounded`` (an entry within 2^-21 of an integer takes
    that integer, provably ``limit_denominator``'s answer, so only the
    others build a Fraction), and the module is the exact kernel of
    I - P in rref free-column form, which depends only on the subspace.
    The guess is then checked exactly: its dimension is the float
    module's, and the bracket of every h generator with every basis
    vector stays inside it (one integer product of h's ad matrices with
    the basis must vanish on the rows that vanish on the span). The other
    module is its exact gm-orthocomplement in m, invariant because the
    inner product is. Both exact modules must also match their float
    modules to 1e-8. Every product is ``exact.imatmul``: in int64 where
    max|a| max|b| (inner length) < 2^63 proves it exact, on Python ints
    otherwise, and the eliminations take int64 input as it is.
    ``ExactLane`` then picks one dtype for the integers its samples read.

    Raises ExactUnavailableError when an exact ingredient is missing,
    when the modules form an isotypic pair (an equivalent pair has no
    canonical split to recover), when there are not two, or when any
    check fails, so a bad rounding withdraws the exact lane but never
    certifies a wrong split.
    """
    g, emb = space.g, space.embedding
    ip, dip = exact.rounded(g.inner_product)
    if g.structure_exact is None or not np.array_equal(
            exact.to_float(ip, dip), g.inner_product):
        raise ExactUnavailableError(f"{g.name or 'g'} lacks exact data")
    if not np.array_equal(ip, ip.T) or g.structure_exact.invariance(ip):
        raise ExactUnavailableError(
            f"{g.name or 'g'}: inner product is not ad-invariant")
    h_cols, dh = exact.rounded(emb.matrix) if emb is not None else (None, 1)
    if emb is None or not np.array_equal(exact.to_float(h_cols, dh),
                                         emb.matrix):
        raise ExactUnavailableError("h embedding lacks exact coordinates")
    if not space.modules:
        raise ExactUnavailableError("decompose the isotropy modules first")
    if any(len(group) > 1 for group in space.isotypic_groups):
        raise ExactUnavailableError("isotypic modules have no canonical split")
    if len(space.modules) != 2:
        raise ExactUnavailableError("exact mode expects two modules")
    gram_f = g.inner_product
    ip = exact.narrowed(ip)
    ad_h = g.structure_exact.ad_numerators(h_cols)
    mx, dx = exact.null_space(exact.imatmul(h_cols.T, ip))
    if mx.shape[1] != space.m.dim:
        raise ExactUnavailableError("exact m dimension disagrees with float")
    m_rows = exact.imatmul(mx.T, ip)
    if np.any(exact.imatmul(m_rows, exact.imatmul(ad_h, h_cols)) != 0):
        raise ExactUnavailableError("rounded h is not a subalgebra")
    gm = exact.imatmul(m_rows, mx)
    gm_f = exact.to_float(gm, dx * dx * dip)
    to_coords = np.linalg.solve(gm_f, exact.to_float(mx, dx).T @ gram_f)
    rounded = 1 - int(np.argmax(space.module_dims))
    mod = space.modules[rounded]
    c = to_coords @ mod.basis
    proj, d = exact.rounded(c @ c.T @ gm_f)
    # I - P has the kernel of d I - proj, which stays on integers
    kernel, dk = exact.null_space(
        exact.narrowed(d * np.identity(len(proj), dtype=object) - proj))
    if kernel.shape[1] != mod.dim:
        raise ExactUnavailableError(f"rounded {mod.name} has dimension "
                                    f"{kernel.shape[1]}, not {mod.dim}")
    basis = exact.imatmul(mx, kernel)
    if np.any(exact.imatmul(exact.null_space(basis.T)[0].T,
                            exact.imatmul(ad_h, basis)) != 0):
        raise ExactUnavailableError(
            f"rounded {mod.name} is not ad(h)-invariant")
    guess, rest = (kernel, dk), exact.null_space(exact.imatmul(kernel.T, gm))
    coords = (rest, guess) if rounded else (guess, rest)
    common = math.lcm(*(dk for _, dk in coords))
    bases = []
    for mod, (kernel, dk) in zip(space.modules, coords):
        basis = exact.imatmul(mx, kernel * (common // dk))
        basis_f = exact.to_float(basis, dx * common)
        proj = mod.basis @ (mod.basis.T @ gram_f @ basis_f)
        if kernel.shape[1] != mod.dim or float(np.abs(basis_f - proj).max()) \
                > 1e-8 * max(1.0, float(np.abs(basis_f).max())):
            raise ExactUnavailableError(
                f"exact {mod.name} does not match the float module")
        bases.append(basis)
    nums, denom = exact.reduced(np.hstack(bases), dx * common)
    rows = exact.imatmul(nums.T, ip)
    rows //= np.array([math.gcd(*row) or 1 for row in rows.tolist()])[:, None]
    # S[a] = rows @ ad(h_a) for every a at once, row (p, a) at p dim h + a
    tensor = exact.imatmul(rows, ad_h).transpose(1, 0, 2).reshape(-1, g.dim)
    keys, cols = np.nonzero(tensor)
    bases = tuple(np.split(nums, [space.modules[0].dim], axis=1))
    i, j, k = g.structure_exact.index.T
    on = [np.any(b != 0, axis=1) for b in bases]
    at = np.flatnonzero(on[0][i] & on[1][j])
    at = at[np.argsort(k[at], kind="stable")]
    k = k[at]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]][:len(k)])
    return ExactLane(bases=bases, denom=denom, rows=rows,
                     system=(keys, cols, tensor[keys, cols]),
                     brackets=(i[at], j[at], g.structure_exact.numer[at],
                               starts, k[starts]),
                     h_cols=h_cols, to_m=space.m.basis.T @ gram_f,
                     to_h=space.h.basis.T @ gram_f)
