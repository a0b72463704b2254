import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcgeo.bounds import (
    BoundContext,
    bound_identity_check,
    classify,
    gap_polynomial,
    gap_threshold,
    okumura_check,
    scalar_curvature_bound,
)
from cmcgeo.catalog import (
    CliffordTorus,
    EuclideanProduct,
    HyperbolicCylinder,
    SphereProduct,
    UmbilicalSphere,
    Unduloid,
    closed_form_invariants,
    default_model_grid,
    unduloid_profile,
    unduloid_sup_phi,
)
from cmcgeo.errors import NonElliptic, NotTraceFree


# ---------------------------------------------------------------------------
# trace-free cubic bound
# ---------------------------------------------------------------------------

def test_okumura_zero_tuple():
    rep = okumura_check([0.0, 0.0, 0.0])
    assert rep.upper_bound == 0.0 and rep.lower_bound == 0.0
    assert rep.equality_side == "both"


def test_okumura_upper_equality():
    rep = okumura_check([2.0, -1.0, -1.0])
    assert rep.sum_cubes == pytest.approx(6.0)
    assert rep.upper_bound == pytest.approx(6.0)
    assert rep.equality_side == "upper"


def test_okumura_lower_equality():
    rep = okumura_check([1.0, 1.0, -2.0])
    assert rep.sum_cubes == pytest.approx(-6.0)
    assert rep.lower_bound == pytest.approx(-6.0)
    assert rep.equality_side == "lower"


def test_okumura_strict():
    rep = okumura_check([3.0, -1.0, -2.0])
    assert rep.sum_cubes == pytest.approx(18.0)
    assert rep.upper_bound == pytest.approx(14.0**1.5 / math.sqrt(6.0))
    assert abs(rep.sum_cubes) < rep.upper_bound
    assert rep.equality_side == "none"


def test_okumura_rejects_nonzero_trace():
    with pytest.raises(NotTraceFree):
        okumura_check([1.0, 1.0, 1.0])


def test_okumura_two_entries_degenerate():
    rep = okumura_check([1.5, -1.5])
    assert rep.upper_bound == 0.0
    assert rep.sum_cubes == pytest.approx(0.0)
    assert rep.equality_side == "both"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=8))
def test_okumura_inequality_random(values):
    a = np.asarray(values) - np.mean(values)
    rep = okumura_check(a, tol=1e-9)
    slack = rep.upper_bound - abs(rep.sum_cubes)
    assert slack >= -1e-12


# ---------------------------------------------------------------------------
# gap polynomial and scalar bound
# ---------------------------------------------------------------------------

def test_gap_threshold_minimal_sphere_exact():
    assert gap_threshold(BoundContext(3, 1, 0.0)) == math.sqrt(3.0)
    assert gap_threshold(BoundContext(5, 1, 0.0)) == math.sqrt(5.0)


def test_gap_threshold_values():
    assert gap_threshold(BoundContext(3, 0, 2.0 / 3.0)) == pytest.approx(
        math.sqrt(2.0 / 3.0), abs=1e-14)
    assert gap_threshold(BoundContext(3, -1, 5.0 / (3.0 * math.sqrt(2.0)))) == pytest.approx(
        1.0 / math.sqrt(3.0), abs=1e-14)
    # surfaces degenerate to sqrt(2 (c + H^2))
    assert gap_threshold(BoundContext(2, 0, 1.0)) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert gap_threshold(BoundContext(2, 1, 0.5)) == pytest.approx(
        math.sqrt(2.0 * 1.25), abs=1e-14)


def test_gap_threshold_nonelliptic():
    with pytest.raises(NonElliptic):
        gap_threshold(BoundContext(3, -1, 1.0))
    with pytest.raises(NonElliptic):
        scalar_curvature_bound(BoundContext(3, 0, 0.0))


def test_gap_polynomial_root_and_sign():
    for ctx in (BoundContext(3, 1, 0.7), BoundContext(4, 0, 1.1),
                BoundContext(5, -1, 1.4), BoundContext(2, 1, 0.0)):
        alpha = gap_threshold(ctx)
        scale = max(1.0, ctx.n * ctx.H**2, ctx.n * abs(ctx.c))
        assert abs(gap_polynomial(ctx, alpha)) <= 1e-10 * scale
        assert alpha > 0.0
        for frac in (0.1, 0.5, 0.9):
            assert gap_polynomial(ctx, frac * alpha) < 0.0
        for mult in (1.1, 2.0, 10.0):
            assert gap_polynomial(ctx, mult * alpha) > 0.0


def test_scalar_bound_values():
    assert scalar_curvature_bound(BoundContext(3, 1, 0.0)) == pytest.approx(3.0)
    assert scalar_curvature_bound(BoundContext(3, 0, 2.0 / 3.0)) == pytest.approx(2.0)
    assert scalar_curvature_bound(BoundContext(2, 1, 0.7)) == 0.0
    assert scalar_curvature_bound(BoundContext(2, -1, 1.5)) == 0.0


def _valid_H_values(c):
    if c == -1:
        return [1.05 + 0.35 * j for j in range(10)]
    if c == 0:
        return [0.1 + 0.45 * j for j in range(10)]
    return [0.0] + [0.3 * j for j in range(1, 10)]


def test_bound_identity_on_grid():
    for n in (2, 3, 4, 5, 8):
        for c in (-1, 0, 1):
            for h in _valid_H_values(c):
                ctx = BoundContext(n, c, h)
                resid = bound_identity_check(ctx)
                assert abs(resid) <= 1e-10 * max(1.0, n * n * (h * h + abs(c)))


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def test_classify_euclidean_equality_and_strict():
    v = classify(EuclideanProduct(3, 2, 1.0))
    assert v.branch == "equality"
    assert v.inf_scalar == pytest.approx(v.scalar_bound, abs=1e-10)
    assert classify(EuclideanProduct(3, 1, 1.0)).branch == "strict"


def test_classify_umbilical_sphere():
    v = classify(UmbilicalSphere(3, 0, 2.0))
    assert v.branch == "umbilical"
    assert v.inf_scalar == pytest.approx(6.0 / 4.0, abs=1e-12)


def test_classify_reads_the_given_invariants():
    model = EuclideanProduct(3, 2, 1.0)
    inv = closed_form_invariants(model)
    assert classify(model, inv) == classify(model)
    assert classify(model, dataclasses.replace(inv, phi_norm=0.0)).branch == "umbilical"


def test_classify_hyperbolic_sides():
    assert classify(HyperbolicCylinder(3, 2, 0.7)).branch == "equality"
    assert classify(HyperbolicCylinder(3, 1, 0.5)).branch == "strict"
    with pytest.raises(NonElliptic):
        classify(HyperbolicCylinder(3, 1, 0.8))


def test_classify_unduloid_surface_report():
    v = classify(Unduloid(1.0, 0.5))
    assert v.branch == "strict"
    assert v.inf_gauss == pytest.approx(-8.0, abs=1e-12)
    assert v.inf_gauss <= 0.0 and v.gauss_bound_ok
    assert v.sup_phi == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-9)
    assert v.gap_threshold == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert v.scalar_bound == 0.0
    assert v.inf_scalar == pytest.approx(2.0 * v.inf_gauss, rel=1e-9)


@pytest.mark.parametrize("h", [1.0, -1.0, 1.3])
@pytest.mark.parametrize("b", [0.001, 0.5, 0.9, 0.98])
def test_unduloid_sup_phi_matches_period_grid(h, b):
    # Independent of the closed form: sup |Phi| = sqrt(2 (H^2 - min K)) over
    # a uniform grid on one period plus the analytic minimizer of K.
    period = math.pi / abs(h)
    s_star = (3.0 if h > 0 else 1.0) * math.pi / (4.0 * abs(h))
    abscissae = list(np.linspace(0.0, period, 4096, endpoint=False)) + [s_star]
    k_min = min(unduloid_profile(h, b, s).K for s in abscissae)
    grid_sup = math.sqrt(2.0 * (h * h - k_min))
    # K at its minimum divides by q = (1 - B)^2 after cancellation, so its
    # rounding grows like ((1 + B) / (1 - B))^2 eps, about 2e-12 at B = 0.98.
    assert unduloid_sup_phi(h, b) == pytest.approx(grid_sup, rel=1e-11)
    assert classify(Unduloid(h, b)).sup_phi == pytest.approx(grid_sup, rel=1e-11)


def test_classify_flat_cylinder_n2():
    v = classify(EuclideanProduct(2, 1, 0.7))
    assert v.branch == "equality"
    assert v.inf_gauss == pytest.approx(0.0, abs=1e-12)
    assert v.gauss_bound_ok


def test_classify_agrees_with_closed_form_predictions():
    for model in default_model_grid():
        inv = closed_form_invariants(model)
        if inv.branch_prediction is None:
            with pytest.raises(NonElliptic):
                classify(model)
            continue
        assert classify(model).branch == inv.branch_prediction, model


def _alpha(model, inv):
    return gap_threshold(BoundContext(n=model.space.n, c=model.space.c, H=inv.abs_H))


def test_sphere_product_monotone_consistency():
    # equality exactly on r^2 <= (n-1)/n, strict beyond
    for n in (3, 4):
        boundary = (n - 1) / n
        for r2 in (0.3, 0.5, boundary - 0.05, boundary):
            model = SphereProduct(n, math.sqrt(r2))
            inv = closed_form_invariants(model)
            assert inv.phi_norm == pytest.approx(_alpha(model, inv), abs=1e-12), (n, r2)
            assert classify(model).branch == "equality"
        for r2 in (boundary + 0.05, 0.81, 0.9):
            model = SphereProduct(n, math.sqrt(r2))
            inv = closed_form_invariants(model)
            assert inv.phi_norm > _alpha(model, inv) + 1e-3, (n, r2)
            assert classify(model).branch == "strict"


def test_classify_tolerance_band_is_safe():
    # families stay at least 1e-3 away from the threshold unless exactly on it
    for model in default_model_grid():
        inv = closed_form_invariants(model)
        if inv.branch_prediction in (None, "umbilical"):
            continue
        gap = abs(inv.phi_norm - _alpha(model, inv))
        assert gap <= 1e-9 or gap > 1e-3, model


def test_clifford_equality_for_all_splits():
    for n in (3, 4, 5):
        for k in range(1, n):
            assert classify(CliffordTorus(n, k)).branch == "equality"
