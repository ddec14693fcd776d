"""Geodesic-orbit verdicts via structure-constant linear algebra.

A tangent direction X passes the pointwise criterion when some Z in h
satisfies [X + Z, A X] in h, with A the metric endomorphism. That is a
linear system over h whose solvability is decided by rank data: a
minimum-norm solution with small residual certifies the direction, a
rank jump between the coefficient and augmented matrices certifies a
counterexample, with the smallest discarded singular value as margin.
Sampling many directions upgrades pointwise answers to a space verdict.

On two modules, with X = X1 + X2 (X_k in module k), A = lam P1 + mu P2
and b = [X1, X2]_m, the criterion reads lam [Z, X1] + mu [Z, X2] =
(lam - mu) b, as [h, m_k] lies in m_k. So one metric-free system,
M y = P_k b (k = 1, 2) with M: z -> proj_m [z, X], decides every metric
of a direction. The float samples (``_factorise``), the exact samples
and the geodesic-graph solvers all solve it; the float readers take
each ratio off one quadratic (``_quadratic``, ``_weights``). At a mixed
direction X + Y (X in module 1, Y in module 2), Z_X = M+ P2 b commutes
with X, Z_Y = M+ P1 b with Y, and each ratio's witness combines the
two. They lie in the complement C~ of C = C_h(X + Y) in its normalizer,
and are unique there: each c in C fixes X and Y, and exp(t ad c) is an
isometry of h keeping C, M and P_k b, hence each min-norm z. So
[c, z] = 0, z normalizes C, and z is orthogonal to C = ker M.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import exact
from .core import OrbitcheckError, ValidationError, check_finite
from .filters import CentralizerSplit, normalizer_split
from .linalg import (DEFAULT_TOL, RANK_FLOOR, consistency_gap,
                     min_norm_solve, rank_of, rank_threshold, rng_for)
from .spaces import (COEFFICIENTS, ExactUnavailableError, ReductiveSpace,
                     ReductiveSplit)

MARGIN_FACTOR = 1e3
# the QR certificate of ``_qr_solve``: an R is inverted only when its
# smallest pivot exceeds QR_PIVOT_FLOOR |M|_F, and a row is solved by QR
# only when |M|_F |R^-1|_F, a bound on the condition number of M, is at
# most QR_CONDITION_CAP, far below the 1 / (dim m eps) of rank_threshold
QR_PIVOT_FLOOR = 1e-8
QR_CONDITION_CAP = 1e8


class ToleranceError(OrbitcheckError):
    """Raised when rank decisions fall inside the ambiguous band."""


class GoError(OrbitcheckError):
    pass


@dataclass(frozen=True)
class MetricOperator:
    """Invariant metric endomorphism of m, positive and ad(h)-equivariant
    (checked once per decomposition by ``two_param``), of largest
    eigenvalue s."""

    space: ReductiveSpace
    matrix: np.ndarray
    kind: str
    params: tuple
    spectral_norm: float = field(init=False, repr=False, compare=False)  # s

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        dm = self.space.m.dim
        if mat.shape != (dm, dm):
            raise ValidationError("metric operator shape mismatch")
        check_finite(mat, "metric operator")
        if float(np.abs(mat - mat.T).max()) > 1e-10:
            raise ValidationError("metric operator is not symmetric")
        eigs = np.linalg.eigvalsh(mat)
        if dm and eigs.min() <= 0:
            raise ValidationError("metric operator is not positive definite")
        action = self.space.iso_action
        if action.shape[0]:
            comm = action @ mat - mat @ action
            worst = float(np.abs(comm).max())
            if worst > 1e-8 * max(1.0, float(np.abs(mat).max())):
                raise ValidationError(
                    f"metric operator does not commute with the isotropy "
                    f"action (residual {worst:.2e})")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "spectral_norm", float(eigs.max(initial=0)))

    @classmethod
    def two_param(cls, space: ReductiveSpace, lam, mu) -> "MetricOperator":
        """Metric lam P1 + mu P2 of norm max(lam, mu), unchecked per call
        (the projectors are checked once per decomposition). ``matrix``
        is formed on first read: the factorised read-off never reads it."""
        if len(space.modules) != 2:
            raise ValidationError("two-parameter metric needs two modules")
        lam_f, mu_f = float(lam), float(mu)
        if not (0 < lam_f < math.inf and 0 < mu_f < math.inf):
            raise ValidationError("metric parameters must be positive and "
                                  f"finite, got {lam!r}, {mu!r}")
        space.module_projectors  # raises on a split that is not invariant
        op = object.__new__(cls)
        vars(op).update(space=space, kind="two_param", params=(lam, mu),
                        spectral_norm=max(lam_f, mu_f))
        return op

    def __getattr__(self, name):
        # only an operator from ``two_param`` lacks its matrix, until read
        if name != "matrix" or "params" not in vars(self):
            raise AttributeError(name)
        p1, p2 = self.space.module_projectors
        mat = float(self.params[0]) * p1 + float(self.params[1]) * p2
        mat.flags.writeable = False
        vars(self)["matrix"] = mat
        return mat

    @classmethod
    def block(cls, space: ReductiveSpace,
              coefficients: list[np.ndarray]) -> "MetricOperator":
        """Metric from one symmetric coefficient matrix per isotypic group.

        Cross coefficients couple equivalent modules through a fixed
        equivariant isometry, read off the split's commutant; a block that
        is not symmetric is refused, as are groups of more than two.
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
            check_finite(coeff, "coefficient block")
            if float(np.abs(coeff - coeff.T).max()) > 1e-10:
                raise ValidationError(
                    f"coefficient block {coeff.tolist()} is not symmetric")
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
        """A = a I to 1e-12 a: for a two-parameter metric lam P1 + mu P2,
        |lam - mu| <= 1e-12 max(lam, mu); else the largest entry of
        A - A[0, 0] I against 1e-12 A[0, 0]."""
        if self.kind == "two_param":
            lam, mu = map(float, self.params)
            return abs(lam - mu) <= 1e-12 * max(lam, mu)
        dm = self.matrix.shape[0]
        a = float(self.matrix[0, 0]) if dm else 0.0
        return float(np.abs(self.matrix - a * np.eye(dm)).max(
            initial=0.0)) <= 1e-12 * a

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
            return {"kind": "two_param", "lambda": float(self.params[0]),
                    "mu": float(self.params[1])}
        if self.kind == "block":
            return {"kind": "block",
                    "coefficients": [[list(map(float, row)) for row in block]
                                     for block in self.params]}
        return {"kind": self.kind,
                "params": [float(v) for v in np.ravel(self.params)]}


def _equivariant_isometry(space: ReductiveSpace, i: int, j: int) -> np.ndarray:
    """Isometry from module i coordinates to module j coordinates
    commuting with the isotropy action, sign fixed deterministically: the
    largest of the maps B_j^T T_k B_i, for {T_k} the split's commutant,
    which span Hom_h(m_i, m_j). Every nonzero map between equivalent
    irreducible modules (of real, complex or quaternionic type) is
    conformal, so the conformality check guards and selects nothing."""
    bi, bj = space.module_coords_in_m(i), space.module_coords_in_m(j)
    d = bi.shape[1]
    if bj.shape[1] != d:
        raise ValidationError("isotypic modules with unequal dimensions")
    maps = bj.T @ space.split.commutant @ bi
    norms = np.linalg.norm(maps, axis=(1, 2))
    if float(norms.max()) <= 1e-8:
        raise ValidationError("modules are not equivalent")
    t = maps[np.argmax(norms)]
    gram = t.T @ t
    scale = float(gram[0, 0])
    if float(np.abs(gram - scale * np.eye(d)).max()) > 1e-8 * max(scale, 1.0):
        raise ValidationError("equivariant map is not conformal")
    t = t / np.sqrt(scale)
    return -t if t.flat[np.argmax(np.abs(t))] < 0 else t


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
    witnesses: Sequence[GoWitness]
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
    least squares, reading Z, the residual and the rank off one thin SVD
    (``min_norm_solve``). An inconsistent system is certified by the rank
    gap of the augmented matrix, from its singular values alone; a gap
    whose margin falls below 1000 * tol raises ToleranceError instead of
    returning an uncertain verdict.

    Both sides are linear in A, so it is solved for A over its spectral
    norm (GO is invariant under homothety), and the tolerances meet data
    of unit scale. Z is the same; the residual is reported for A as
    given, the margin for the normalised system.
    """
    a = _as_metric(space, metric)
    x = np.asarray(x, dtype=np.float64)
    dm, scale = space.m.dim, a.spectral_norm
    ax = a.apply(x) / scale
    # column a is proj_m [h_a, AX]; iso_action holds the transpose of
    # each ad(h_a) on m, which is its negative, hence the sign
    lhs = -(space.iso_action @ ax).T
    rhs = -ax @ (x @ space.m_bracket_m.reshape(dm, dm * dm)).reshape(dm, dm)
    z, residual, s = min_norm_solve(lhs, rhs)
    if residual <= tol * max(1.0, float(np.linalg.norm(rhs))):
        return GoWitness(x=x, z=z, residual=scale * residual, rank_gap=0,
                         margin=0.0, kind=kind)
    rank_a = rank_of(s, lhs.shape)
    rank_aug, margin = consistency_gap(lhs, rhs, rank_a)
    if rank_aug <= rank_a:
        raise ToleranceError(
            f"residual {residual:.2e} exceeds tolerance but ranks agree "
            f"({rank_a}); tighten or loosen tol")
    if margin < MARGIN_FACTOR * tol:
        raise ToleranceError(
            f"rank gap margin {margin:.2e} is below the robust band "
            f"({MARGIN_FACTOR * tol:.2e})")
    return GoWitness(x=x, z=None, residual=scale * residual,
                     rank_gap=rank_aug - rank_a, margin=margin, kind=kind)


class _Stream:
    """The one stream ``rng_for(*label)``, seeded once: ``words`` gives
    the 64-bit words (rows) of ``samples``, sample j taking the words
    [j dm, (j + 1) dm), reached from the seeded state by one ``advance``
    and one ``random_raw``, so a row depends on (label, j) alone, on any
    machine and numpy version."""

    def __init__(self, label: tuple):
        self.bits = rng_for(*label).bit_generator
        self.seeded = self.bits.state

    def words(self, samples: range, dm: int) -> np.ndarray:
        self.bits.state = self.seeded
        self.bits.advance(samples.start * dm)
        return self.bits.random_raw(len(samples) * dm).reshape(
            len(samples), dm)


def _coordinates(stream: _Stream, samples: range, dm: int) -> np.ndarray:
    """Coordinates (rows) of ``samples``: their words, word w read as
    2 (w >> 11) 2^-53 - 1 in [-1, 1). Each step is exact, so a row is the
    same to the last bit whatever chunk drew it."""
    words = stream.words(samples, dm)
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -52 - 1.0


def _directions(blocks: list[np.ndarray], stream: _Stream,
                samples: range) -> tuple[np.ndarray, list[str]]:
    """Unit directions (rows) of ``samples`` and their kinds, from their
    ``_coordinates`` u. On two modules an odd j is structured,
    (X1/|X1| + X2/|X2|) / sqrt(2) with X_k = b_k z_k, z1 and z2 the first
    and last module widths of u (the widths sum to dim m), unless X1 or
    X2 has norm below 1e-12: then it is generic, as every other j is,
    u / |u|. Module maps and norms are stacked matmuls, bit-identical to
    the per-sample b @ z and x @ x."""
    v = _coordinates(stream, samples, blocks[0].shape[0])
    mixed = (np.arange(samples.start, samples.stop) % 2 == 1) \
        & (len(blocks) == 2)
    x = np.empty_like(v)
    if mixed.any():
        at = np.flatnonzero(mixed)
        parts = [np.matmul(b, z[:, :, None])[:, :, 0] for b, z in zip(
            blocks, np.split(v[at], [blocks[0].shape[1]], axis=1))]
        n1, n2 = (np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]
                  for p in parts)
        ok = (n1[:, 0] >= 1e-12) & (n2[:, 0] >= 1e-12)
        x[at[ok]] = (parts[0][ok] / n1[ok]
                     + parts[1][ok] / n2[ok]) / np.sqrt(2.0)
        mixed[at[~ok]] = False
    generic = ~mixed
    if generic.any():
        vs = v[generic]
        x[generic] = vs / np.sqrt(vs[:, None, :] @ vs[:, :, None])[:, 0]
    return x, ["structured" if m else "generic" for m in mixed]


def go_check(space: ReductiveSpace, metric, n_samples: int = 100,
             seed: int = 0, tol: float = DEFAULT_TOL,
             exact_mode: bool = False) -> GoVerdict:
    """Sample tangent directions and aggregate pointwise certificates.

    Sample i takes its own run of dim m words of one stream per lane and
    seed, ``rng_for("go", name, seed)`` or ``rng_for("go-exact", name,
    seed)`` (``_Stream``), drawn by ``_directions`` or
    ``_ExactFactorisation.fill``. The first certified counterexample ends
    the run as NOT_GO. A normal metric (scalar, or lam == mu exactly) is
    trivially consistent. The float lane refuses (ToleranceError) a weight
    ratio above max(MARGIN_FACTOR, 1 / (MARGIN_FACTOR tol)), where the
    lighter module's rank gaps fall below the band at unit scale, and
    near RANK_FLOOR read as inconsistent.
    Every metric runs on one driver over its lane's samples, held by the
    space for one seed: a two-parameter metric reads them off the
    factorisation, a scalar one with z = 0, any other float metric none,
    and a rejected sample is solved again (a float one by
    go_witness_general). Sample 0, where every counterexample seen so far
    ends a run, is decided first: a two-parameter call of several samples
    at a new seed probes it (``_Factorisation.probe``), then factorises
    the whole call at once; any other call, or an ambiguous probe, fills
    it alone. Each witness is independent of its chunk and of earlier
    calls; its z is formed on first read.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be at least 1, got {n_samples}")
    if not 0 < tol < np.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    a = _as_metric(space, metric)
    if not space.modules:
        raise ValidationError("decompose the isotropy modules first")
    normal = len(set(a.exact_params())) == 1 if exact_mode else a.is_scalar
    lo, hi = sorted(map(float, a.params)) if a.kind == "two_param" else (1, 1)
    if not exact_mode and min(hi * MARGIN_FACTOR * tol,
                              hi / MARGIN_FACTOR) > lo:
        raise ToleranceError(f"weight ratio {hi / lo:.3g} exceeds max("
                             f"{MARGIN_FACTOR:g}, 1 / ({MARGIN_FACTOR:g} tol))"
                             ": unit scale does not resolve the lighter module")
    lane = _ExactFactorisation if exact_mode else _Factorisation \
        if a.kind == "two_param" and not normal else _Draws
    fac = space.go_factorisations.get(lane)
    if fac is None or fac.seed != seed:
        # one seed per lane, with the samples of its longest call
        fac = space.go_factorisations[lane] = lane(space, seed)
    reads, solved, counterexample, n = [], {}, None, 0
    probe = fac.probe(space, a, tol) if lane is _Factorisation \
        and n_samples > 1 and not fac.held else None
    if probe and not probe.solvable:
        reads.append((np.zeros(1, dtype=bool), np.zeros(1)))
        solved, counterexample, n = {0: probe}, probe, 1
    while n < n_samples and counterexample is None:
        if n >= fac.held:
            fac.fill(space, range(n, n_samples if n or probe else 1))
        part = slice(n, min(fac.held, n_samples))
        reads.append(fac.read_off(a, tol, part))
        n = part.stop
        for i in (part.start + np.flatnonzero(~reads[-1][0])).tolist():
            w = solved[i] = probe if i == 0 and probe else \
                fac.solve_again(space, a, tol, i)
            if not w.solvable:
                counterexample, n = w, i + 1
                break
    ok, residuals = (np.concatenate(arrays)[:n] if len(reads) > 1
                     else arrays[0][:n] for arrays in zip(*reads))
    max_res = max([float(residuals[ok].max(initial=0.0))]
                  + [w.residual for w in solved.values() if w.solvable])
    return GoVerdict(status="NOT_GO" if counterexample is not None
                     else "NORMAL_TRIVIAL" if normal else "GO_CONSISTENT",
                     witnesses=_ReadOff(fac.rows[:n], fac.kinds[:n],
                                        residuals, solved,
                                        lambda at: fac.z_at(a, at)),
                     counterexample=counterexample, max_residual=max_res,
                     n_samples=n, seed=seed, metric=a.as_dict(),
                     space_name=space.name, exact=bool(exact_mode))


def _m_of(iso_action: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M of each row of a (k, dim m) stack x, shape (k, dim m, dim h):
    column a is proj_m [h_a, x], one stacked product per row."""
    dh, dm = iso_action.shape[:2]
    return -(x[:, None] @ iso_action.reshape(dh * dm, dm).T).reshape(
        len(x), dh, dm).transpose(0, 2, 1)


def _system(space: ReductiveSpace, x: np.ndarray):
    """Per row of a (k, dim m) stack x = x1 + x2: M (``_m_of``), the
    mixed bracket b = [x1, x]_m and the one buffer [M S | P1 b, P2 b], S
    the first r columns of the split's stabilizer frame."""
    dm, dh = space.m.dim, space.h.dim
    frame, rank = space.split.stabilizer_frame
    k, xs = len(x), x[:, None]
    m = _m_of(space.iso_action, x)
    system = np.empty((k, dm, rank + 2))
    system[..., :rank] = m if rank == dh else m @ frame[:, :rank]
    proj = space.module_projectors
    # b from each sample's module part x1; the (k, dim m, dim m)
    # brackets [x, .] are freed at once
    b = (-(xs @ proj[0]) @ (
        xs @ space.m_bracket_m.reshape(dm, dm * dm)).reshape(k, dm, dm))[:, 0]
    system[..., rank], system[..., rank + 1] = \
        (proj[:, None] @ b[:, :, None])[..., 0]
    return m, b, system


def _quadratic(proj: np.ndarray, mz: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows D0 = P1 M Y2, D1 = P1 M Y1 + P2 M Y2 - b, D2 = P2 M Y1
    (k, 3, dim m) of images M Y_k (k, dim m, 2) and brackets b (k, dim m):
    a ratio t's residual is a multiple of D(t) = D0 + t D1 + t^2 D2."""
    pmz = proj[:, None] @ mz  # [j, ..., k] P_j M Y_k
    return np.stack([pmz[0, ..., 1], pmz[0, ..., 0] + pmz[1, ..., 1] - b,
                     pmz[1, ..., 0]], axis=1)


def _weights(lam, mu) -> np.ndarray:
    """(1 - t, (1 - t)/t), t = mu/lam: z = (1 - t)(Y1 + Y2/t)."""
    t = float(mu) / float(lam)
    return np.array([1.0 - t, (1.0 - t) / t])


def _factorise(space: ReductiveSpace, x: np.ndarray):
    """Metric-free solve for a (k, dim m) stack x = x1 + x2: per row, |b|
    (``_system``), parts Y_k of M Y_k = P_k b (k, dim h, 2), the rows of
    ``_quadratic`` and whether the row is certified: whether its M, on the
    split's stabilizer frame F = [S | T], passes ``_qr_solve``'s
    certificate. A certified row is solved on M S, min-norm with no T,
    else particular in frame coordinates until ``_min_norm``; any other
    row (one inside a module, a zero row) is refused, with zero parts and
    rows. Every product is stacked per row: no stack moves a row's bits."""
    rank = space.split.stabilizer_frame[1]
    m, b, system = _system(space, x)
    z = np.zeros((len(x), space.h.dim, 2))
    refused = _qr_solve(system, np.sqrt(np.einsum("kij,kij->k", m, m)), z)
    d = _quadratic(space.module_projectors,
                   system[..., :rank] @ z[:, :rank], b)  # (M S) R11^-1 Q^T
    d[refused] = 0.0
    return (np.linalg.norm(b, axis=1), z, d,
            np.bincount(refused, minlength=len(x)) == 0)


def _qr_solve(m_parts: np.ndarray, norm: np.ndarray,
              z: np.ndarray) -> np.ndarray:
    """Write R11^-1 Q^T parts into z[:, :rank] for each row of
    ``m_parts`` = [M S | parts] (``rank`` its width less z's) whose
    M S = Q R11 passes the certificate, and return the other rows. One
    batched raw QR gives R11 and Q^T parts on and above its diagonal.
    Only an R11 with min |R_ii| > QR_PIVOT_FLOOR |M|_F (``norm``) is
    inverted, by back-substitution, and a row is certified when
    |M|_F |R11^-1|_F <= QR_CONDITION_CAP and 1 / |R11^-1|_F > RANK_FLOOR
    (an overflowing inverse fails). As s_max <= |M|_F and the rank-th
    singular value is at least 1 / |R11^-1|_F, ``rank_threshold`` keeps
    ``rank`` singular values, the most any M of the split has, so
    S R11^-1 Q^T parts solves M z = parts in least squares."""
    rank = m_parts.shape[2] - z.shape[2]
    r = np.linalg.qr(m_parts, mode="raw")[0].swapaxes(1, 2)
    pivots = np.abs(r.diagonal(0, 1, 2)[:, :rank]).min(1, initial=np.inf)
    at = np.flatnonzero(pivots > QR_PIVOT_FLOOR * norm)
    with np.errstate(over="ignore", invalid="ignore"):
        r_inv = _triu_inverse(r[at, :rank, :rank])
        size = np.sqrt(np.einsum("kij,kij->k", r_inv, r_inv))
    ok = (norm[at] * size <= QR_CONDITION_CAP) & (size < 1.0 / RANK_FLOOR)
    at = at[ok]
    z[at, :rank] = r_inv[ok] @ r[at, :rank, rank:]
    return np.flatnonzero(np.bincount(at, minlength=len(m_parts)) == 0)


def _min_norm(split: ReductiveSplit, x: np.ndarray,
              z: np.ndarray) -> np.ndarray:
    """Min-norm parts, in h coordinates, of each row of the (k, dim m)
    stack x whose certified ``_factorise`` parts z (k, dim h, 2) are
    particular, F^T z = [R11^-1 Q^T parts; 0] on the stabilizer frame
    F = [S | T]. With R12 = Q^T M T off one raw QR of M F, the columns
    [-R11^-1 R12; I] span ker M on the frame, and z less its projection
    on an orthonormal basis of them (one small QR) is the min-norm
    solution. Every product is stacked per row, so a row's result is the
    same to the last bit whatever rows share its stack."""
    frame, rank = split.stabilizer_frame
    r = np.linalg.qr(_m_of(split.iso_action, x) @ frame,
                     mode="raw")[0].swapaxes(1, 2)
    free = np.eye(len(frame) - rank)
    kernel = np.concatenate([-(_triu_inverse(r[:, :rank, :rank])
                               @ r[:, :rank, rank:]),
                             np.broadcast_to(free, (len(x), *free.shape))], 1)
    q = np.linalg.qr(kernel)[0]
    return frame @ (z - q @ (q.transpose(0, 2, 1) @ z))


def _triu_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of the upper triangle of each matrix of a (k, n, n) stack,
    by back-substitution: past its diagonal 1 / R_ii, row i of R^-1 is
    -R[i, i+1:] / R_ii times rows i+1: of R^-1. Nothing below the
    diagonal is read, and each matrix's products are its own."""
    n = r.shape[1]
    recip = 1.0 / r.diagonal(0, 1, 2)
    inv = np.zeros(r.shape)
    inv.reshape(len(r), n * n)[:, ::n + 1] = recip
    r = r * -recip[:, :, None]
    for i in range(n - 2, -1, -1):
        np.matmul(r[:, i:i + 1, i + 1:], inv[:, i + 1:, i + 1:],
                  out=inv[:, i:i + 1, i + 1:])
    return inv


class _Draws:
    """The float lane's samples of one seed: their unit directions
    (``rows``) and kinds, each chunk read off the seed's one addressed
    stream (``_directions``), so a row is the same whatever chunk drew
    it. A scalar metric accepts each sample with z = 0; any other float
    metric none, and ``go_witness_general`` solves each again.
    """

    def __init__(self, space: ReductiveSpace, seed: int):
        # no reference back to the space, which holds this object: a
        # cycle would keep both alive until the cyclic collector runs
        self.seed, self.stream = seed, _Stream(("go", space.name, seed))
        self.blocks = [space.module_coords_in_m(i)
                       for i in range(len(space.modules))]
        self.dh = space.h.dim
        self.brackets = space.m_bracket_m.reshape(space.m.dim, -1)
        self.kinds: list[str] = []
        self.rows: list[np.ndarray] = []

    @property
    def held(self) -> int:  # samples a read-off can read
        return len(self.kinds)

    def fill(self, space: ReductiveSpace, samples: range):
        """Draw the next chunk of samples."""
        x, kinds = _directions(self.blocks, self.stream, samples)
        # witnesses hand out rows of x, so nothing may write to them
        x.flags.writeable = False
        self.kinds += kinds
        self.rows += list(x)

    def read_off(self, a: MetricOperator, tol: float, part: slice):
        """Acceptance mask and residuals of the samples in ``part``:
        under a scalar metric every sample, with residual
        ||-A x @ (x @ m_bracket_m)|| row by row; under any other, none."""
        rows = self.rows[part]
        n, dm = len(rows), len(self.brackets)
        if not a.is_scalar:
            return np.zeros(n, dtype=bool), np.zeros(n)
        residuals = [np.linalg.norm(-a.apply(x) @ (x @ self.brackets).reshape(
            dm, dm)) for x in rows]
        return np.ones(n, dtype=bool), np.array(residuals)

    def z_at(self, a: MetricOperator, at: list[int]) -> list[np.ndarray]:
        # only a scalar metric accepts a sample
        return [np.zeros(self.dh) for _ in at]

    def solve_again(self, space: ReductiveSpace, a: MetricOperator, tol, i):
        return go_witness_general(space, a, self.rows[i], tol, self.kinds[i])


class _Factorisation(_Draws):
    """Metric-free part of the float system for the samples of one seed.

    At x = x1 + x2 the unit-scale system of ``go_witness_general`` is
    D M z = rhs, with M = -(iso_action @ x)^T, D = A / s for s the
    spectral norm of A, and rhs = (lam - mu) b / s. With t = mu/lam and
    the parts Y_k of ``_factorise``, the witness is z = (1 - t)(Y1 + Y2/t)
    and D M z - rhs = (lam/s) (1 - t)/t D(t) (``_quadratic``), against
    |rhs| = (lam/s) |1 - t| |b|; a sample solves the positive roots of
    D(t). Besides the draws, per factorised sample this keeps the parts
    (``z``), made min-norm at the first read (``projected``), the rows
    (``d``), |b| (``b_norm``) and whether it is ``certified``; a refused
    one is never accepted. Every product is stacked per sample, so no
    chunk or earlier call moves a sample's bits. ``probe`` may draw
    sample 0 ahead of its chunk.
    """

    def __init__(self, space: ReductiveSpace, seed: int):
        super().__init__(space, seed)
        self.split = space.split  # which holds no reference to the space
        self.z = np.empty((0, self.dh, 2))
        self.d = np.empty((0, 3, len(self.brackets)))
        self.b_norm = np.empty(0)
        self.certified = np.empty(0, dtype=bool)
        self.projected: set[int] = set()

    @property
    def held(self) -> int:
        return len(self.z)

    def probe(self, space: ReductiveSpace, a: MetricOperator, tol: float):
        """go_witness_general at sample 0, drawn once and kept, or None
        where it raises ToleranceError: the read-off then decides."""
        if not self.rows:
            super().fill(space, range(1))
        try:
            return self.solve_again(space, a, tol, 0)
        except ToleranceError:
            return None

    def fill(self, space: ReductiveSpace, samples: range):
        """Factorise the next chunk, drawing its samples not drawn yet."""
        done = self.held
        super().fill(space, range(samples.start + len(self.rows) - done,
                                  samples.stop))
        x = np.array(self.rows[done:])
        self.b_norm, self.z, self.d, self.certified = (
            np.concatenate([held, new]) for held, new in zip(
                (self.b_norm, self.z, self.d, self.certified),
                _factorise(space, x)))

    def read_off(self, a: MetricOperator, tol: float, part: slice):
        """Acceptance mask and residuals of the samples in ``part`` under
        a two-parameter metric: go_witness_general's residual test at unit
        scale, both norms read off D(t) and |b|, on certified samples."""
        (lam, mu), scale = map(float, a.params), a.spectral_norm
        t = mu / lam
        w = lam / scale * abs(1.0 - t)
        residual = w / t * np.linalg.norm(
            np.array([1.0, t, t * t]) @ self.d[part], axis=1)
        return self.certified[part] & (residual <= tol * np.maximum(
            1.0, w * self.b_norm[part])), scale * residual

    def z_at(self, a: MetricOperator, at: list[int]) -> list[np.ndarray]:
        """z = (1 - t)(Y1 + Y2/t), t = mu/lam, of each accepted sample in
        ``at``; on a frame with a kernel part, one stacked ``_min_norm``
        makes the parts of the rows not projected yet min-norm, kept."""
        if self.split.stabilizer_frame[1] < self.dh:
            new = [i for i in dict.fromkeys(at) if i not in self.projected]
            if new:
                self.z[new] = _min_norm(self.split, np.array(
                    [self.rows[i] for i in new]), self.z[new])
                self.projected.update(new)
        w = _weights(*a.params)
        return [self.z[i] @ w for i in at]


class _ExactFactorisation:
    """Metric-free part of the exact system for the samples of one seed.

    Sample i is X = (x1 + x2) / denom, x_k in module k a combination of
    its basis columns with nonzero integer coefficients, and A scales X_k
    by c_k, c1 : c2 = lam : mu. In rows (rows_k sees module k alone),
    rows [Z + X, A X] = 0 is diag(c1, c2) M y = (c2 - c1) b with
    Z = H y / denom, M = rows ad(x) H and b = rows [x1, x2]. At the first
    lam != mu read-off, ``exact.certified`` proves each new sample of the
    chunk consistent at every pair where it can, on the module
    docstring's system, M against [b1; 0] and [0; b2], stacked
    (``ExactLane.systems``). The others are eliminated
    (``exact.eliminated``) in index order, up to the first inconsistent
    at the pair, and one elimination serves every pair: a pair is
    consistent exactly where c2 tail1 + c1 tail2 = 0, and its rref
    solution is then y = (c2 - c1) (c2 Y1 + c1 Y2) / (c1 c2 d). An
    eliminated sample keeps its echelon rows, pivots, d and tail;
    ``z_at`` back-substitutes Y at the first read of its witness
    (eliminating a certified sample there) and keeps it. Every product
    of a sample runs in the lane's one dtype (``ExactLane``).
    """

    def __init__(self, space: ReductiveSpace, seed: int):
        self.seed, self.lane = seed, space.exact_lane
        self.stream = _Stream(("go-exact", space.name, seed))
        self.kinds, self.rows, self.parts = [], [], []
        # sample -> (tail, d); -> (echelon rows, pivots) until its first
        # read; -> Y from then on
        self.tails, self.echelons, self.y = {}, {}, {}
        self.certified: set[int] = set()

    def fill(self, space: ReductiveSpace, samples: range) -> None:
        """Draw the next chunk of samples off the seed's one addressed
        stream (``_Stream``): word w is the coefficient
        ``COEFFICIENTS[w % 6]`` (in {-3, -2, -1, 1, 2, 3}) of a basis
        column, module 1's first, so neither module part is zero. Each
        sample's float row is its own product, of its own correctly
        rounded quotient, whatever chunk drew it."""
        b1, b2 = self.lane.bases
        words = self.stream.words(samples, b1.shape[1] + b2.shape[1])
        c = COEFFICIENTS[words % np.uint64(6)]
        x1, x2 = c[:, :b1.shape[1]] @ b1.T, c[:, b1.shape[1]:] @ b2.T
        for q, part1, part2 in zip(exact.to_float(x1 + x2, self.lane.denom),
                                   x1, x2):
            x = self.lane.to_m @ q
            x.flags.writeable = False
            self.kinds.append("exact")
            self.rows.append(x)
            self.parts.append((part1, part2))

    def _eliminate(self, i: int, system: np.ndarray) -> None:
        rows, pivots, d, tail = exact.eliminated(system, len(self.lane.to_h))
        self.tails[i] = tail.tolist(), d
        self.echelons[i] = rows, pivots

    held = _Draws.held

    def read_off(self, a: MetricOperator, tol: float, part: slice):
        """Acceptance mask and residuals (all 0) of the samples in
        ``part``, none decided at lam == mu, the mask False past the
        first inconsistent sample wherever it is not certified."""
        lam, mu = a.exact_params()
        c1, c2 = lam.numerator * mu.denominator, mu.numerator * lam.denominator
        samples = range(part.start, part.stop)
        if c1 == c2:
            return np.ones(len(samples), dtype=bool), np.zeros(len(samples))
        new = [i for i in samples
               if i not in self.tails and i not in self.certified]
        systems = self.lane.systems([self.parts[i] for i in new]) \
            if new else None
        if new and self.lane.plan:
            self.certified.update(np.array(new)[exact.certified(
                systems, len(self.lane.to_h), *self.lane.plan)].tolist())
        ok = np.array([i in self.certified for i in samples])
        for j, i in enumerate(samples):
            if ok[j]:
                continue
            if i not in self.tails:
                self._eliminate(i, systems[new.index(i)])
            ok[j] = all(c2 * t1 + c1 * t2 == 0 for t1, t2 in self.tails[i][0])
            if not ok[j]:
                break
        return ok, np.zeros(len(samples))

    def z_at(self, a: MetricOperator, at: list[int]) -> list[np.ndarray]:
        """z of each accepted sample in ``at``, 0 at lam == mu."""
        lam, mu = a.exact_params()
        c1, c2 = lam.numerator * mu.denominator, mu.numerator * lam.denominator
        if c1 == c2:
            return [np.zeros(len(self.lane.to_h)) for _ in at]
        zs = []
        for i in at:
            if i not in self.tails:
                self._eliminate(i, self.lane.systems([self.parts[i]])[0])
            d = self.tails[i][1]
            if i not in self.y:
                rows, pivots = self.echelons.pop(i)
                self.y[i] = exact.back_substituted(
                    rows, pivots, d, len(self.lane.to_h)).tolist()
            y = [(c2 - c1) * (c2 * u + c1 * v) for u, v in self.y[i]]
            zs.append(self.lane.to_h @ exact.to_float(
                self.lane.h_cols @ np.array(y, dtype=object),
                c1 * c2 * d * self.lane.denom))
        return zs

    def solve_again(self, space: ReductiveSpace, a: MetricOperator, tol, i):
        # an inconsistent system gains exactly one rank from b
        return GoWitness(x=self.rows[i], z=None, residual=float("nan"),
                         rank_gap=1, margin=float("inf"), kind="exact")


class _ReadOff(Sequence):
    """Read-only witnesses of a verdict: solved-again samples as their
    lane's ``solve_again`` returned them, any other built on first read.
    An index, a slice or an iteration reads the z of every witness it
    builds with one ``z_at`` of the lane."""

    def __init__(self, rows, kinds, residuals, solved, z_at):
        self._rows, self._kinds, self._z_at = rows, kinds, z_at
        self._residuals, self._built = residuals, solved

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._read(range(len(self))[i])
        return self._read([range(len(self))[i]])[0]

    def __iter__(self):
        return iter(self[:])

    def _read(self, at) -> tuple:
        new = [j for j in dict.fromkeys(at) if j not in self._built]
        for j, z in zip(new, self._z_at(new)):
            self._built[j] = GoWitness(
                x=self._rows[j], z=z, residual=float(self._residuals[j]),
                rank_gap=0, margin=0.0, kind=self._kinds[j])
        return tuple(self._built[j] for j in at)


# --- geodesic graphs on two-module spaces -------------------------------

@dataclass(frozen=True)
class GeodesicGraph:
    """Witness of X + Y in the normalizer complement, with its split data."""

    z: np.ndarray
    split: CentralizerSplit
    residual: float


def _pair_factorisation(space: ReductiveSpace, x: np.ndarray, y: np.ndarray,
                        tol: float):
    """Split, the module docstring's min-norm columns (Z_Y, Z_X) in h
    coordinates, the ``_quadratic`` rows at X + Y and the bound
    tol max(1, ||[X, Y]_m||) at unit scale on a residual.

    X and Y are divided by the powers of two nearest their norms, sx and
    sy (exactly), and M y = P_k b solved there by the pseudo-inverse cut
    at ``rank_threshold``, which refuses no direction. As b scales by
    sx sy and M by sx P1 + sy P2, Z_Y = sy Y1, Z_X = sx Y2 and the rows
    scale by sx^2, sx sy, sy^2.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if len(space.modules) != 2:
        raise ValidationError("geodesic graphs need exactly two modules")
    for i, (v, p) in enumerate(zip((x, y), space.module_projectors)):
        if v.shape != (space.m.dim,):
            raise ValidationError("vectors are m coordinates")
        if float(np.linalg.norm(v - p @ v)) > tol * np.linalg.norm(v):
            raise ValidationError(f"vector does not lie in module {i + 1}")
    sx, sy = (2.0 ** round(math.log2(n)) if n else 1.0
              for n in (float(np.linalg.norm(x)), float(np.linalg.norm(y))))
    u = x / sx + y / sy
    split = normalizer_split(space, space.m.basis @ u)
    m, b, system = _system(space, u[None])
    left, s, right = np.linalg.svd(m[0], full_matrices=False)
    inv = np.divide(1.0, s, out=np.zeros_like(s),
                    where=s > rank_threshold(s, m[0].shape))
    z = right.T @ (inv[:, None] * (left.T @ system[0, :, -2:]))
    d = _quadratic(space.module_projectors, m @ z, b)[0]
    return (replace(split, u=space.m.basis @ (x + y)), z * np.array([sy, sx]),
            d * np.array([[sx * sx], [sx * sy], [sy * sy]]),
            tol * sx * sy * max(1.0, float(np.linalg.norm(b))))


def geodesic_graph(space: ReductiveSpace, lam, mu, x: np.ndarray,
                   y: np.ndarray, tol: float = 1e-8) -> GeodesicGraph:
    """Witness Z of X + Y with proj_m [Z, cx X + cy Y] = proj_m [X, Y],
    cx = lam/(lam - mu) and cy = mu/(lam - mu): the min-norm, and in C~
    unique, Z = Z_X/cy + Z_Y/cx (module docstring). X must lie in the
    first module and Y in the second. Z is refused unless ||D(t)|| / |t|,
    t = mu/lam, is at most tol max(1, ||[X, Y]_m||) at unit scale; the
    residual is reported for X and Y as given.
    """
    lam_f, mu_f = float(lam), float(mu)
    if abs(lam_f - mu_f) < 1e-12 * max(abs(lam_f), abs(mu_f)):
        raise ValidationError("geodesic graph needs distinct metric weights")
    split, zs, d, bound = _pair_factorisation(space, x, y, tol)
    t = mu_f / lam_f
    residual = float(np.linalg.norm(np.array([1.0, t, t * t]) @ d)) / abs(t)
    if residual > bound:
        raise GoError("no geodesic graph witness within tolerance "
                      f"(residual {residual:.2e})")
    return GeodesicGraph(z=space.h.basis @ (zs @ _weights(lam_f, mu_f)),
                         split=split, residual=residual)


@dataclass(frozen=True)
class ZxZyDecomposition:
    """Split of the mixed bracket into parts commuting with each factor."""

    z_x: np.ndarray
    z_y: np.ndarray
    split: CentralizerSplit
    residual: float

    def reconstruct(self, lam, mu) -> np.ndarray:
        """Witness rebuilt from the split parts for the given weights."""
        return np.stack([self.z_y, self.z_x], axis=1) @ _weights(lam, mu)


def zxzy_decompose(space: ReductiveSpace, x: np.ndarray, y: np.ndarray,
                   tol: float = 1e-8) -> ZxZyDecomposition:
    """Write [X, Y] = [Z_Y, X] + [Z_X, Y] with Z_X centralizing X and
    Z_Y centralizing Y: the module docstring's min-norm, and in C~
    unique, pair. It is refused unless M Z_X - P2 b and M Z_Y - P1 b,
    b = [X, Y]_m, have joint norm at most tol max(1, ||b||) at unit
    scale, which asks [Z_X, X] = 0 and [Z_Y, Y] = 0 too: ||(D0, D1, D2)||,
    as P_k D1 = P_k (M Y_k - b). The residual is reported for X and Y as
    given. ``reconstruct`` rebuilds the geodesic graph witness.
    """
    split, zs, d, bound = _pair_factorisation(space, x, y, tol)
    residual = float(np.linalg.norm(d))
    if residual > bound:
        raise GoError("bracket does not split against the centralizers "
                      f"(residual {residual:.2e})")
    z_y, z_x = (space.h.basis @ zs).T
    return ZxZyDecomposition(z_x=z_x, z_y=z_y, split=split, residual=residual)
