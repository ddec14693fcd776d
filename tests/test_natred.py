from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcheck import go, natred, spaces, zoo
from orbitcheck.core import ValidationError


def test_two_factor_weights_known_values():
    w = natred.product_biinvariant_weights(1, 2)
    assert w.kind == "product"
    assert w.alpha == Fraction(1)
    assert w.beta == Fraction(3)
    assert w.identity_residual == 0.0
    # non-unit first weight exercises the full formula
    w2 = natred.product_biinvariant_weights(Fraction(7, 10), Fraction(19, 10))
    assert w2.beta == Fraction(91, 10)
    assert w2.identity_residual == 0.0


def test_two_factor_normal_branch():
    w = natred.product_biinvariant_weights(1, 3)
    assert w.kind == "normal"
    assert w.alpha is None and w.beta is None
    assert w.identity_residual == 0.0
    # floats within relative 1e-12 of the locus are treated as normal
    assert natred.product_biinvariant_weights(1.0, 3.0 + 1e-14).kind == "normal"


def test_two_factor_rejects_nonpositive_weights():
    with pytest.raises(ValidationError):
        natred.product_biinvariant_weights(0, 2)
    with pytest.raises(ValidationError):
        natred.product_biinvariant_weights(1, -1)


def test_two_factor_decimal_strings_stay_exact():
    w = natred.product_biinvariant_weights(0.5, 0.25)
    assert isinstance(w.alpha, Fraction)
    assert w.beta == Fraction(1, 2) * Fraction(3, 4) / Fraction(5, 4)
    assert w.identity_residual == 0.0


def test_two_factor_keeps_large_denominators_exact():
    # 1/3000001 lies past the 2^20 denominators a float is read back with
    w = natred.product_biinvariant_weights(Fraction(1, 3_000_001), 1)
    assert (w.a, w.b) == (Fraction(1, 3_000_001), 1)
    assert w.identity_residual == 0.0
    data = w.as_dict()
    assert (data["a"], data["alpha"]) == (1 / 3_000_001, 1 / 3_000_001)
    assert data["identity_residual"] == 0.0


@given(st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_two_factor_identity_holds_generically(a, b):
    if abs(3 * a - b) < 0.05:
        return
    w = natred.product_biinvariant_weights(a, b)
    assert w.kind == "product"
    scale = max(1.0, abs(a) + abs(b)) ** 3
    assert w.identity_residual <= 1e-12 * scale


def test_ledger_obata_known_solution():
    sol = natred.ledger_obata_solve(3, 1, 2)
    assert sol.kind == "generic"
    t = sol.triple
    assert (t.alpha, t.beta, t.gamma) == (
        Fraction(5, 3), Fraction(5, 4), Fraction(-5))
    assert sol.sum_identity_residual == 0.0
    assert natred.ledger_obata_verify_exact(sol.metric, t) == 0


def test_ledger_obata_round_trip_is_exact():
    triple = natred.BiInvariantTriple.from_values(1, 1, 1)
    # the forward map sends equal weights to the diagonal metric
    # A = 2/3, B = -1/3, C = 2/3
    metric = natred.LedgerObataMetric.from_values(
        Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3))
    assert natred.ledger_obata_verify_exact(metric, triple) == 0
    sol = natred.ledger_obata_solve(metric.a, metric.b, metric.c)
    assert (sol.triple.alpha, sol.triple.beta, sol.triple.gamma) == (1, 1, 1)


def test_ledger_obata_transposed_assignment_fails_verification():
    sol = natred.ledger_obata_solve(3, 1, 2)
    good = sol.triple
    swapped = natred.BiInvariantTriple.from_values(
        good.alpha, good.gamma, good.beta)
    assert natred.ledger_obata_verify_exact(sol.metric, good) == 0
    assert natred.ledger_obata_verify_exact(sol.metric, swapped) > Fraction(1, 10)


def test_ledger_obata_verify_on_algebras():
    sol = natred.ledger_obata_solve(3, 1, 2)
    assert natred.ledger_obata_verify(sol.metric, sol.triple, "so3") < 1e-12
    assert natred.ledger_obata_verify(sol.metric, sol.triple, "su2") < 1e-12


def test_ledger_obata_degenerate_branches():
    assert natred.ledger_obata_solve(1, 0, 1).kind == "factor_12_transitive"
    assert natred.ledger_obata_solve(2, -1, 1).kind == "factor_23_transitive"
    sol = natred.ledger_obata_solve(2, -2, 3)
    assert sol.kind == "factor_13_transitive"
    assert sol.triple is None
    assert sol.sum_identity_residual == 0.0
    assert sol.as_dict()["triple"] is None


def test_ledger_obata_rejects_indefinite_metrics():
    with pytest.raises(ValidationError):
        natred.ledger_obata_solve(1, 2, 1)
    with pytest.raises(ValidationError):
        natred.ledger_obata_solve(-1, 0, -1)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.2, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_ledger_obata_sum_identity_holds_generically(b, a, c):
    if a * c - b * b <= 0.01:
        return
    if min(abs(b), abs(a + b), abs(b + c)) < 0.1:
        return
    sol = natred.ledger_obata_solve(a, b, c)
    assert sol.kind == "generic"
    assert sol.sum_identity_residual <= 1e-9
    assert natred.ledger_obata_verify(sol.metric, sol.triple, "so3") < 1e-9


@pytest.fixture(scope="module", params=[("su", 2), ("su", 3)],
                ids=["su2", "su3"])
def triple_product(request):
    """F^3 over its diagonal, decomposed."""
    family, n = request.param
    emb = zoo.embed_diagonal(family, n, 3)
    return spaces.decompose_isotropy(
        spaces.reductive_space(None, emb, name=f"{family}({n})^3/diag"))


@pytest.mark.parametrize("abc", [(2, 1, 3), (3, -1, 2), (5, 2, 1)])
def test_triple_product_metrics_are_geodesic_orbit(triple_product, abc):
    # Ledger-Obata metrics are naturally reductive, hence GO: isotypic,
    # off-diagonal metric operators that the two-parameter path never builds
    metric = natred.LedgerObataMetric.from_values(*abc)
    operator = natred.ledger_obata_metric_operator(triple_product, metric)
    verdict = go.go_check(triple_product, operator, n_samples=20)
    assert verdict.status == "GO_CONSISTENT"
    assert verdict.max_residual <= 1e-10


def test_float_inputs_fall_back_to_float_arithmetic():
    import math
    w = natred.product_biinvariant_weights(math.pi / 4, 1.1)
    assert isinstance(w.alpha, float)
    assert w.identity_residual < 1e-12
