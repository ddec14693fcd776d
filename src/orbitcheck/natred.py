"""Naturally reductive presentations from bi-invariant product metrics.

Two constructions are covered. The two-factor construction turns a
two-parameter invariant metric (a, b) into weights (alpha, beta) for a
bi-invariant metric on a product group presentation, except on the
locus 3a = b where the metric is already normal for a larger group.
The triple-product construction inverts the correspondence between
left-invariant metrics (A, B, C) on a compact simple group F, seen as
the triple product F^3 / diag(F) x F presentation, and bi-invariant
weight triples (alpha, beta, gamma) on F^3; the inverse degenerates
exactly when one of three denominators vanishes, in which case a
two-factor subgroup is already transitive.

All formulas run in exact rational arithmetic whenever the inputs
convert to fractions losslessly, so the identities they satisfy can be
checked with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import exact
from .core import LieAlgebra, ValidationError
from .linalg import gram_orthonormalize

_DEGENERATE_LABELS = {1: "factor_23_transitive", 2: "factor_13_transitive",
                      3: "factor_12_transitive"}


def _maybe_frac(*values):
    """Fractions when every value converts losslessly, else floats."""
    out = []
    for v in values:
        if isinstance(v, Rational):
            out.append(Fraction(v))
            continue
        try:
            out.append(exact.frac(v))
        except (ValueError, TypeError):
            return [float(v) for v in values], False
    return out, True


@dataclass(frozen=True)
class TwoFactorWeights:
    """Result of the two-factor construction for metric weights (a, b),
    kept as ``_maybe_frac`` returns them: Fractions when both convert
    losslessly, else floats."""

    kind: str
    a: object
    b: object
    alpha: object | None
    beta: object | None

    @property
    def identity_residual(self) -> float:
        """|4 alpha beta (alpha+beta) - (alpha+beta)^2 (a+b)|, 0 if normal."""
        if self.kind == "normal":
            return 0.0
        al, be = self.alpha, self.beta
        s = al + be
        value = 4 * al * be * s - s * s * (self.a + self.b)
        return abs(float(value))

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "a": float(self.a),
            "b": float(self.b),
            "alpha": None if self.alpha is None else float(self.alpha),
            "beta": None if self.beta is None else float(self.beta),
            "identity_residual": self.identity_residual,
        }


def product_biinvariant_weights(a, b) -> TwoFactorWeights:
    """Weights (alpha, beta) of the bi-invariant product metric matching
    the two-parameter metric (a, b); 'normal' when 3a = b.

    The weights satisfy 4*alpha*beta*(alpha+beta) =
    (alpha+beta)^2 * (a+b) identically. Rational inputs are processed
    exactly; the normal branch is taken only on exact equality there,
    and within 1e-12 relative tolerance for floats.
    """
    (av, bv), is_exact = _maybe_frac(a, b)
    if float(av) <= 0 or float(bv) <= 0:
        raise ValidationError("metric weights must be positive")
    gap = 3 * av - bv
    scale = max(abs(float(av)), abs(float(bv)))
    degenerate = gap == 0 if is_exact else abs(float(gap)) <= 1e-12 * scale
    if degenerate:
        return TwoFactorWeights(kind="normal", a=av, b=bv,
                                alpha=None, beta=None)
    alpha = av
    beta = av * (av + bv) / gap
    return TwoFactorWeights(kind="product", a=av, b=bv,
                            alpha=alpha, beta=beta)


@dataclass(frozen=True)
class LedgerObataMetric:
    """Left-invariant metric coefficients (A, B, C) on the triple product.

    Positive definiteness requires A > 0 and D = A*C - B^2 > 0.
    """

    a: object
    b: object
    c: object

    def __post_init__(self):
        if float(self.a) <= 0 or float(self.determinant) <= 0:
            raise ValidationError(
                "metric needs A > 0 and A*C - B^2 > 0")

    @property
    def determinant(self):
        return self.a * self.c - self.b * self.b

    @classmethod
    def from_values(cls, a, b, c) -> "LedgerObataMetric":
        (av, bv, cv), _ = _maybe_frac(a, b, c)
        return cls(a=av, b=bv, c=cv)

    def as_dict(self) -> dict:
        return {"A": float(self.a), "B": float(self.b), "C": float(self.c),
                "D": float(self.determinant)}


@dataclass(frozen=True)
class BiInvariantTriple:
    """Weights of a bi-invariant metric on the triple product group."""

    alpha: object
    beta: object
    gamma: object

    def __post_init__(self):
        for v in (self.alpha, self.beta, self.gamma):
            if float(v) == 0.0:
                raise ValidationError("triple weights must be nonzero")

    @property
    def total(self):
        return self.alpha + self.beta + self.gamma

    @classmethod
    def from_values(cls, alpha, beta, gamma) -> "BiInvariantTriple":
        (av, bv, cv), _ = _maybe_frac(alpha, beta, gamma)
        return cls(alpha=av, beta=bv, gamma=cv)

    def as_dict(self) -> dict:
        return {"alpha": float(self.alpha), "beta": float(self.beta),
                "gamma": float(self.gamma), "total": float(self.total)}


@dataclass(frozen=True)
class LedgerObataSolution:
    kind: str
    metric: LedgerObataMetric
    triple: BiInvariantTriple | None

    @property
    def sum_identity_residual(self) -> float:
        """|alpha+beta+gamma + D^2 / (B (A+B) (B+C))|; 0 when degenerate."""
        if self.triple is None:
            return 0.0
        m = self.metric
        d = m.determinant
        expected = -(d * d) / (m.b * (m.a + m.b) * (m.b + m.c))
        return abs(float(self.triple.total - expected))

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric.as_dict(),
            "triple": None if self.triple is None else self.triple.as_dict(),
            "sum_identity_residual": self.sum_identity_residual,
        }


def ledger_obata_solve(a, b, c) -> LedgerObataSolution:
    """Invert a left-invariant triple-product metric (A, B, C) into
    bi-invariant weights (alpha, beta, gamma).

    The generic inverse is alpha = D/(B+C), beta = D/(A+B),
    gamma = -D/B with D = A*C - B^2. Each vanishing denominator marks a
    metric already realized by a two-factor transitive subgroup, and is
    reported as a degenerate kind instead of a triple.
    """
    metric = LedgerObataMetric.from_values(a, b, c)
    av, bv, cv = metric.a, metric.b, metric.c
    is_exact = isinstance(av, Fraction)

    def vanishes(v):
        if is_exact:
            return v == 0
        scale = max(abs(float(av)), abs(float(bv)), abs(float(cv)), 1e-30)
        return abs(float(v)) <= 1e-12 * scale

    if vanishes(bv):
        return LedgerObataSolution(kind=_DEGENERATE_LABELS[3], metric=metric,
                                   triple=None)
    if vanishes(av + bv):
        return LedgerObataSolution(kind=_DEGENERATE_LABELS[2], metric=metric,
                                   triple=None)
    if vanishes(bv + cv):
        return LedgerObataSolution(kind=_DEGENERATE_LABELS[1], metric=metric,
                                   triple=None)
    d = metric.determinant
    triple = BiInvariantTriple(alpha=d / (bv + cv), beta=d / (av + bv),
                               gamma=-d / bv)
    return LedgerObataSolution(kind="generic", metric=metric, triple=triple)


def _resolve_algebra(algebra) -> LieAlgebra:
    from . import zoo
    if isinstance(algebra, LieAlgebra):
        return algebra
    if algebra in ("so3", "so(3)"):
        return zoo.classical("so", 3)
    if algebra in ("su2", "su(2)"):
        return zoo.classical("su", 2)
    raise ValidationError(f"unsupported verification algebra {algebra!r}")


def ledger_obata_verify(metric: LedgerObataMetric,
                        triple: BiInvariantTriple,
                        algebra="so3") -> float:
    """Check that the bi-invariant triple reproduces the metric.

    The submersion presentation puts g = F + F + F with the diagonal as
    isotropy and the first two factors as the tangent model. For every
    direction (a*X, b*X, 0) over an orthonormal basis X of F and
    integer grid (a, b) in {-1, 0, 1}^2 minus the origin, the
    horizontal lift w = (a*X, b*X, 0) + t*(X, X, X) with
    t = -(a*alpha + b*beta) / (alpha + beta + gamma) must satisfy
    <w, w>_triple = (A a^2 + 2B a b + C b^2) |X|^2. Returns the largest
    absolute mismatch across the grid and the basis.
    """
    if float(triple.total) == 0.0:
        raise ValidationError(
            "triple weights sum to zero; no horizontal lift exists")
    f = _resolve_algebra(algebra)
    gf = f.inner_product
    basis = gram_orthonormalize(np.eye(f.dim), gf)
    al, be, ga = (float(triple.alpha), float(triple.beta),
                  float(triple.gamma))
    total = float(triple.total)
    av, bv, cv = float(metric.a), float(metric.b), float(metric.c)
    g1 = np.zeros((3 * f.dim, 3 * f.dim))
    g1[:f.dim, :f.dim] = al * gf
    g1[f.dim:2 * f.dim, f.dim:2 * f.dim] = be * gf
    g1[2 * f.dim:, 2 * f.dim:] = ga * gf
    worst = 0.0
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            if a == 0 and b == 0:
                continue
            t = -(a * al + b * be) / total
            for i in range(f.dim):
                x = basis[:, i]
                xx = float(x @ gf @ x)
                lift = np.concatenate([(a + t) * x, (b + t) * x, t * x])
                got = float(lift @ g1 @ lift)
                want = (av * a * a + 2 * bv * a * b + cv * b * b) * xx
                worst = max(worst, abs(got - want))
    return worst


def ledger_obata_verify_exact(metric: LedgerObataMetric,
                              triple: BiInvariantTriple) -> Fraction:
    """Exact counterpart of the grid verification, algebra-independent.

    The tensor factor |X|^2 cancels from both sides, leaving a rational
    identity in the weights that is evaluated with zero rounding.
    """
    if not isinstance(triple.alpha, Fraction) or \
            not isinstance(metric.a, Fraction):
        raise ValidationError("exact verification needs rational inputs")
    total = triple.total
    if total == 0:
        raise ValidationError(
            "triple weights sum to zero; no horizontal lift exists")
    worst = Fraction(0)
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            if a == 0 and b == 0:
                continue
            t = -(a * triple.alpha + b * triple.beta) / total
            got = triple.alpha * (a + t) ** 2 + \
                triple.beta * (b + t) ** 2 + triple.gamma * t ** 2
            want = metric.a * a * a + 2 * metric.b * a * b + \
                metric.c * b * b
            worst = max(worst, abs(got - want))
    return worst


def ledger_obata_metric_operator(space, metric: LedgerObataMetric):
    """Pull the triple-product metric back to an invariant operator on m.

    ``space`` must be the triple product F^3 over its diagonal with the
    isotropy modules already decomposed. Tangent vectors are projected
    to the first two factors along the diagonal, where the coefficient
    form (A, B, C) applies; the result is the matrix of that pulled
    back form against the orthonormal basis of m, packaged as a metric
    operator (and validated for positivity and equivariance).
    """
    from .go import MetricOperator
    g = space.g
    d = g.dim // 3
    if 3 * d != g.dim or space.h.dim != d:
        raise ValidationError("space is not a triple product over the "
                              "diagonal")
    f_gram = g.inner_product[:d, :d]
    av, bv, cv = float(metric.a), float(metric.b), float(metric.c)
    q = np.zeros((2 * d, 2 * d))
    q[:d, :d] = av * f_gram
    q[:d, d:] = bv * f_gram
    q[d:, :d] = bv * f_gram
    q[d:, d:] = cv * f_gram
    basis = space.m.basis
    pi = (basis[:2 * d].reshape(2, d, -1) - basis[2 * d:]).reshape(2 * d, -1)
    mat = pi.T @ q @ pi
    return MetricOperator(space=space, matrix=mat, kind="pullback",
                          params=(av, bv, cv))
