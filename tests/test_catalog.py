import ast
import dataclasses
import math
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmcgeo.catalog as cat
from cmcgeo.bounds import BoundContext, classify, gap_threshold
from cmcgeo.errors import DomainError, InvalidParameters, NonElliptic, OutOfRange, ParseError
from cmcgeo.geometry import sample_points, shape_data_at
from cmcgeo.spaceform import validate_point


def test_every_family_chart_lands_on_its_space_form():
    for model in cat.default_model_grid():
        chart = cat.build_chart(model)
        for u in sample_points(chart, 2, max_points=8):
            assert validate_point(chart.space, chart.position(u), 1e-10), model


def test_sphere_product_points_on_unit_sphere():
    chart = cat.build_chart(cat.SphereProduct(3, 1.0 / math.sqrt(3.0)))
    for u in sample_points(chart, 3, max_points=12):
        x = chart.position(u)
        assert abs(np.dot(x, x) - 1.0) <= 1e-10


def test_hyperbolic_cylinder_points_on_hyperboloid():
    chart = cat.build_chart(cat.HyperbolicCylinder(3, 2, 1.0))
    for u in sample_points(chart, 3, max_points=12):
        x = chart.position(u)
        q = -x[0] ** 2 + np.dot(x[1:], x[1:])
        assert abs(q + 1.0) <= 1e-10
        assert x[0] > 0


# ---------------------------------------------------------------------------
# unduloid profile
# ---------------------------------------------------------------------------

def test_unduloid_profile_is_unit_speed():
    for s in np.linspace(0.0, math.pi, 17):
        p = cat.unduloid_profile(1.0, 0.5, float(s))
        assert p.x_prime**2 + p.y_prime**2 == pytest.approx(1.0, abs=1e-10)


def test_unduloid_profile_start_and_quarter():
    p0 = cat.unduloid_profile(1.0, 0.5, 0.0)
    assert p0.x == 0.0
    assert p0.y == pytest.approx(math.sqrt(1.25) / 2.0, abs=1e-14)
    pq = cat.unduloid_profile(1.0, 0.5, math.pi / 4.0)
    assert pq.y == pytest.approx(0.75, abs=1e-14)


def test_unduloid_axial_coordinate_increases():
    xs = [cat.unduloid_profile(1.0, 0.9, float(s)).x
          for s in np.linspace(0.0, 2.0 * math.pi, 25)]
    assert all(b > a for a, b in zip(xs, xs[1:]))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _reference_x(h, b, s):
    """x(s) by composite 20-point Gauss-Legendre on panels of at most T/256,
    independent of the elliptic-integral closed form under test.  The complex
    singularities of x' lie |log B| / (2|H|) off the real axis, so even at
    B=0.98 each panel converges far below 1e-13."""
    panels = max(1, math.ceil(abs(s) * abs(h) * 256 / math.pi))
    edges = np.linspace(0.0, s, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    sn = np.sin(2.0 * h * (mid[:, None] + half[:, None] * _GL_NODES))
    x_prime = (1.0 + b * sn) / np.sqrt(1.0 + b * b + 2.0 * b * sn)
    return float(np.sum(half[:, None] * _GL_WEIGHTS * x_prime))


@pytest.mark.parametrize("h", [1.0, -1.0, 1.3, -0.8, 2.0])
@pytest.mark.parametrize("b", [0.001, 0.5, 0.9, 0.98])
def test_unduloid_x_within_tolerance_of_reference_over_five_periods(h, b):
    period = math.pi / abs(h)
    chart = cat.build_chart(cat.Unduloid(h, b))
    for s in np.linspace(-2.0 * period, 3.0 * period, 41).tolist():
        ref = _reference_x(h, b, s)
        assert abs(chart.position(np.array([s, 0.4]))[0] - ref) <= 1e-12, s
        assert abs(cat.unduloid_profile(h, b, s).x - ref) <= 1e-12, s


@pytest.mark.parametrize("h, b, s", [(1.0, 0.98, 2.0 * math.pi),
                                     (-0.8, 0.98, 2.5 * math.pi),
                                     (-0.8, 0.98, -2.5 * math.pi)])
def test_unduloid_x_over_two_whole_periods(h, b, s):
    # Spans of whole periods: a rule that samples x' at one phase of the
    # period misses these integrals by about 0.3.
    ref = _reference_x(h, b, s)
    assert abs(cat.unduloid_profile(h, b, s).x - ref) <= 1e-12
    assert abs(cat.unduloid_profile(h, b, np.array([s])).x[0] - ref) <= 1e-12


def test_unduloid_scalar_x_steps_by_one_period():
    for h, b in ((1.0, 0.5), (-1.3, 0.9), (2.0, 0.98)):
        period = math.pi / abs(h)
        x_period = cat.unduloid_profile(h, b, period).x
        for s in (-2.2, -0.3, 0.0, 0.7, 1.9, 4.4):
            step = cat.unduloid_profile(h, b, s + period).x - cat.unduloid_profile(h, b, s).x
            assert abs(step - x_period) <= 1e-12, (h, b, s)


@pytest.mark.parametrize("h", [1.3, -0.8])
def test_unduloid_x_bit_equal_on_chart_batch_and_profile(h):
    b = 0.9
    s = np.linspace(-2.0 * math.pi, 3.0 * math.pi, 23)
    chart = cat.build_chart(cat.Unduloid(h, b))
    batched = chart.jets(np.stack([s, np.full_like(s, 0.4)]), batch=True)[0]
    table = cat.unduloid_profile(h, b, s)
    for i, si in enumerate(s.tolist()):
        scalar = chart.jets(np.array([si, 0.4]))[0]
        p = cat.unduloid_profile(h, b, si)
        assert scalar.value == batched.value[i] == table.x[i] == p.x, si
        # the x-jet's s-derivatives are the profile's x' and x''
        assert scalar.grad[0] == batched.grad[0][i] == table.x_prime[i] == p.x_prime, si
        assert (scalar.hess[0, 0] == batched.hess[0, 0][i] == table.x_second[i]
                == p.x_second), si


def _jet_bits(j, p=None) -> bytes:
    """The bytes of a jet's value, gradient and Hessian, at point p of a batch."""
    parts = (j.value, j.grad, j.hess) if p is None else (j.value[p], j.grad[:, p], j.hess[:, :, p])
    return b"".join(np.ascontiguousarray(x, dtype=float).tobytes() for x in parts)


@pytest.mark.parametrize("h, b", [(-1.3, 0.6), (0.8, 0.98)])
@pytest.mark.parametrize("count", [2, 5, 12, cat._X_ARRAY_MIN - 1, cat._X_ARRAY_MIN, 1024])
def test_unduloid_chart_batch_equals_single_points_bit_for_bit(h, b, count):
    # Below _X_ARRAY_MIN points x(s) is taken per point, from it in one array
    # pass; either way every component equals the single-point jets.
    rng = np.random.default_rng(count)
    u = np.stack([rng.uniform(-math.pi, 2.0 * math.pi, count),
                  rng.uniform(0.0, 2.0 * math.pi, count)])
    chart = cat.build_chart(cat.Unduloid(h, b))
    batched = chart.jets(u, batch=True)
    for p in range(count):
        single = chart.jets(u[:, p])
        assert [_jet_bits(j, p) for j in batched] == [_jet_bits(j) for j in single], p


def _complete_e(k):
    """Complete elliptic integral E(k) by the arithmetic-geometric mean,
    independent of the Carlson forms under test."""
    a, g, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    total, weight = 0.5 * c * c, 0.5
    while c > 1e-15 * a:  # c shrinks quadratically; stopping here leaves ~c^2 error
        a, g, c = 0.5 * (a + g), math.sqrt(a * g), 0.5 * (a - g)
        weight *= 2.0
        total += weight * c * c
    return math.pi / (2.0 * a) * (1.0 - total)


@pytest.mark.parametrize("b", [1e-20, 0.001, 0.5, 0.98, 0.999999, 1.0 - 1e-12,
                               1.0 - 2.0**-53])
def test_unduloid_x_over_one_period_is_twice_complete_e(b):
    # Landen's transformation turns x(T) = ((1+B) E(m) + (1-B) K(m)) / |H|
    # into 2 E(k=B) / |H|; this holds the closed form as B -> 1, where the
    # Gauss-Legendre reference no longer converges.
    for h in (1.0, -2.0):
        x_period = cat.unduloid_profile(h, b, math.pi / abs(h)).x
        assert x_period == pytest.approx(2.0 * _complete_e(b) / abs(h), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("h", [1.0, -1.0])
@pytest.mark.parametrize("b", [0.001, 0.5, 0.9, 0.98])
def test_unduloid_table_x_within_tolerance_of_reference(h, b):
    s = np.linspace(0.0, math.pi / abs(h), 64, endpoint=False)
    x = cat.unduloid_profile(h, b, s).x
    assert x[0] == 0.0
    assert np.all(np.diff(x) > 0.0)
    for si, xi in zip(s.tolist(), x.tolist()):
        assert abs(xi - _reference_x(h, b, si)) <= 1e-12


def test_unduloid_table_unsorted_duplicate_negative_abscissae():
    s = np.array([2.5, -0.7, 0.3, 2.5, 0.0, -3.1, 0.3, 1.2])
    x = cat.unduloid_profile(1.0, 0.9, s).x
    assert x.shape == s.shape
    for si, xi in zip(s.tolist(), x.tolist()):
        assert xi == cat.unduloid_profile(1.0, 0.9, si).x
    assert x[0] == x[3] and x[2] == x[6] and x[4] == 0.0


def test_unduloid_table_x_is_periodic_in_steps():
    h, b = -1.0, 0.75
    period = math.pi / abs(h)
    s = np.linspace(0.0, period, 16, endpoint=False)
    x = cat.unduloid_profile(h, b, np.concatenate([s, s + period, s + 2.0 * period, [period]])).x
    x_period = x[-1]
    for k in (1, 2):
        shifted = x[16 * k:16 * (k + 1)] - x[16 * (k - 1):16 * k]
        assert np.max(np.abs(shifted - x_period)) <= 1e-10


_PROFILE_FIELDS = [f.name for f in dataclasses.fields(cat.UnduloidProfile)]


@pytest.mark.parametrize("h", [1.3, -0.8, 2.0])
@pytest.mark.parametrize("b", [1e-3, 0.5, 0.98])
def test_unduloid_table_closed_forms_match_scalar(h, b):
    s = np.linspace(-1.0, 4.0, 41)
    table = cat.unduloid_profile(h, b, s)
    for i, si in enumerate(s.tolist()):
        p = cat.unduloid_profile(h, b, si)
        for field in _PROFILE_FIELDS:
            assert getattr(table, field)[i] == getattr(p, field), (field, si)


def test_unduloid_table_rejects_non_finite_abscissae():
    with pytest.raises(InvalidParameters):
        cat.unduloid_profile(1.0, 0.5, np.array([0.0, math.nan]))
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameters):
            cat.unduloid_profile(1.0, 0.5, s)


# Abscissae where an array pass that formed cos^2 as c * c, or through numpy's
# cos and power, would change x in the last bit (found by a random search).
_X_WITNESSES = {
    (1.3, 0.9): [12.075451564574323, 11.782369567939611, 13.601646912884817,
                 -4.97324828312137, -3.6607749345525242, 4.056779156440395],
    (-0.8, 0.5): [-2.534413819039635, -3.6312213019183446, 16.357232635025696],
    (2.0, 0.98): [-18.973055658545277, 0.17375403265201328, -11.2841944222853],
    (1.0, 0.999999): [7.791772498680768, -1.0935925735013754, -4.173591651994343,
                      -11.060152450272597, 2.6335863094005987, -6.0934213928065795,
                      8.120105938709163, -9.728548236477064],
}


@pytest.mark.parametrize("h, b", sorted(_X_WITNESSES))
def test_unduloid_array_x_bit_equal_to_scalar_at_witnesses(h, b):
    x_of = cat._unduloid_x(h, b)
    s = _X_WITNESSES[h, b]
    assert x_of(np.array(s)).tolist() == [x_of(t) for t in s]


@pytest.mark.parametrize("h", [1.0, -0.8, 1.3, 2.0, -1.25])
def test_unduloid_array_profile_bit_equal_to_scalar(h):
    rng = np.random.default_rng(7)
    for b in (1e-20, 1e-3, 0.5, 0.9, 0.98, 0.999999, 1.0 - 2.0**-53):
        s = rng.uniform(-20.0, 20.0, 200)
        x_of = cat._unduloid_x(h, b)
        assert x_of(s).tolist() == [x_of(t) for t in s.tolist()], b
        if b < 0.999:  # nearer 1, q can round to 0 (tested below)
            table = cat.unduloid_profile(h, b, s.reshape(20, 10))
            points = [cat.unduloid_profile(h, b, t) for t in s.tolist()]
            for field in _PROFILE_FIELDS:
                column = getattr(table, field)
                assert column.shape == (20, 10)
                assert column.ravel().tolist() == [getattr(p, field) for p in points], (b, field)


def test_unduloid_x_of_zero_is_positive_zero_for_both_signs_of_H():
    for h in (1.3, -0.8):
        x = cat.unduloid_profile(h, 0.5, np.array([0.0, 0.0])).x
        assert [math.copysign(1.0, v) for v in x.tolist()] == [1.0, 1.0]
        assert math.copysign(1.0, cat.unduloid_profile(h, 0.5, 0.0).x) == 1.0


def _chart_jets(h, b, s):
    """The unduloid chart at arclength s: one point, or a batch over an array."""
    chart = cat.build_chart(cat.Unduloid(h, b))
    if isinstance(s, np.ndarray):
        return chart.jets(np.stack([s, np.full_like(s, 0.4)]), batch=True)
    return chart.jets(np.array([s, 0.4]))


_S_HELPERS = {
    "profile": cat.unduloid_profile,
    "chart": _chart_jets,
}
_HELPERS = {
    **_S_HELPERS,
    "inf_gauss": lambda h, b, s: cat.unduloid_inf_gauss(h, b),
    "sup_phi": lambda h, b, s: cat.unduloid_sup_phi(h, b),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("s", [0.3, np.array([0.1, 0.3])], ids=["number", "array"])
@pytest.mark.parametrize("name", sorted(_HELPERS))
def test_unduloid_helpers_reject_non_finite_H_and_B(name, s, value):
    with pytest.raises(InvalidParameters, match=r"^H must be finite$"):
        _HELPERS[name](value, 0.5, s)
    with pytest.raises(InvalidParameters, match=r"^B must be finite$"):
        _HELPERS[name](1.0, value, s)


_NON_FINITE_S = {
    "profile": (InvalidParameters, r"^s must be finite$"),
    # ImmersionChart.jets rejects a non-finite point before the chart runs
    "chart": (DomainError, r"^chart point coordinates must be finite$"),
}


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("as_array", [False, True], ids=["number", "array"])
@pytest.mark.parametrize("name", sorted(_S_HELPERS))
def test_unduloid_helpers_reject_non_finite_s_without_warnings(name, as_array, value):
    s = np.array([0.2, value, 0.4]) if as_array else value
    error, message = _NON_FINITE_S[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            _S_HELPERS[name](1.0, 0.5, s)


@pytest.mark.parametrize("name", sorted(_S_HELPERS))
def test_unduloid_x_rejects_overflowing_phase(name):
    # H*s itself overflows, or only 2Hs does; at H = 1e300 the model is
    # rejected first, as 4H^2 overflows
    for h, s, message in ((1e150, 1e300, "H\\*s overflows"), (1.0, 1.5e308, "H\\*s overflows"),
                          (1e300, 1e10, r"^H is too large: 4H\^2 overflows$")):
        for arg in (s, np.array([0.0, s])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidParameters, match=message):
                    _S_HELPERS[name](h, 0.5, arg)


@pytest.mark.parametrize("name", sorted(_S_HELPERS))
def test_unduloid_profile_rejects_q_rounded_to_zero(name):
    # At B = 1 - 2^-53, 1 + B^2 + 2B sin(2Hs) rounds to 0 where the sine is -1.
    b = 1.0 - 2.0**-53
    s = 3.0 * math.pi / 4.0
    assert math.sin(2.0 * s) == -1.0
    for arg in (s, np.array([0.5, s])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameters, match="too close to 1"):
                _S_HELPERS[name](1.0, b, arg)
    # elsewhere the profile keeps its values, x included
    p = cat.unduloid_profile(1.0, b, np.array([0.5, math.pi / 4.0]))
    assert all(np.isfinite(getattr(p, field)).all() for field in _PROFILE_FIELDS)


def test_unduloid_phi_norm_rejects_K_rounded_above_H_squared():
    assert cat.unduloid_phi_norm(1.0, -7.0) == 4.0
    assert cat.unduloid_phi_norm(1.0, np.array([1.0, -7.0])).tolist() == [0.0, 4.0]
    for k in (1.0 + 2.0**-52, np.array([0.5, 1.0 + 2.0**-52])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameters, match=r"K rounds above H\^2$"):
                cat.unduloid_phi_norm(1.0, k)


@pytest.mark.parametrize("h, b, message", [
    (1e200, 0.3, r"^H is too large: 4H\^2 overflows$"),
    (-1e154, 0.5, r"^H is too large: 4H\^2 overflows$"),
    # 4H^2 = 6.1e307 and inf K = -8H^2 = -1.2e308 are finite, sup |Phi|^2 = 18H^2 is not
    (3.9e153, 0.5, r"^H is too large for B: sup \|Phi\|\^2 = 2H\^2 \(1\+B\)\^2/\(1-B\)\^2 overflows$"),
    (1e153, 0.99, r"^H is too large for B: sup \|Phi\|\^2 "),
    (1e-320, 0.5, r"^H is too small: the period pi/\|H\| overflows$"),
])
def test_unduloid_rejects_parameters_whose_closed_forms_overflow(h, b, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameters, match=message):
            cat.Unduloid(h, b)
        with pytest.raises(InvalidParameters, match=message):
            cat.parse_model(f"unduloid:H={h!r},B={b!r}")


@pytest.mark.parametrize("h, b", [(3.1e153, 0.5), (-6.7e153, 1e-300), (5e153, 0.1)])
def test_unduloid_admits_large_H_with_finite_closed_forms(h, b):
    model = cat.Unduloid(h, b)
    verdict = classify(model)
    assert all(math.isfinite(v) for v in (
        verdict.sup_phi, verdict.gap_threshold, verdict.inf_scalar, verdict.scalar_bound,
        verdict.inf_gauss))
    s = np.linspace(0.0, math.pi / abs(h), 64, endpoint=False)
    p = cat.unduloid_profile(h, b, s)
    assert np.isfinite(cat.unduloid_phi_norm(h, p.K)).all()
    assert all(np.isfinite(getattr(p, field)).all() for field in _PROFILE_FIELDS)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(1e-300, 1.0, exclude_max=True),
                 st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0**e),
                 st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k)),
       st.floats(0.9, 1.0 + 1e-9), st.booleans())
def test_unduloid_table_is_finite_or_rejected_without_warnings(b, edge, negative):
    # H up to just past where 4H^2 or sup |Phi|^2 overflows.  Where both are
    # finite, K near the neck can still round far below inf K for B near 1;
    # the profile and |Phi| reject that themselves.
    top = min(math.sqrt(sys.float_info.max / 4.0),
              math.sqrt(sys.float_info.max / 2.0) * (1.0 - b) / (1.0 + b))
    h = (-edge if negative else edge) * top
    s = np.linspace(0.0, math.pi / abs(h), 64, endpoint=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = cat.Unduloid(h, b)
            p = cat.unduloid_profile(h, b, s)
            phi = cat.unduloid_phi_norm(h, p.K)
        except InvalidParameters:
            return
        verdict = classify(model)
    assert np.isfinite([p.x, p.y, p.y_prime, p.y_second, p.K, phi]).all()
    assert math.isfinite(verdict.inf_scalar) and math.isfinite(verdict.scalar_bound)


def test_unduloid_profile_rejects_overflows_near_the_neck():
    # sup |Phi|^2 is finite for both; the rounding of q near the neck makes K
    # overflow, or |Phi|^2 = 2(H^2 - K) at the neck's sample
    for h, b, message in ((-8.728168203936594e145, 0.9999999815480792, r"K overflows$"),
                          (7.199063013322606e146, 0.9999998478070904,
                           r"^H is too large for B: \|Phi\|\^2 = 2\(H\^2 - K\) overflows$")):
        s = np.linspace(0.0, math.pi / abs(h), 64, endpoint=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameters, match=message):
                cat.unduloid_phi_norm(h, cat.unduloid_profile(h, b, s).K)
    for k in (-1.7e308, np.array([0.0, -1.7e308])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameters, match=r"2\(H\^2 - K\) overflows$"):
                cat.unduloid_phi_norm(1e154, k)


def test_unduloid_gauss_curvature_values():
    assert cat.unduloid_profile(1.0, 0.5, 3.0 * math.pi / 4.0).K == pytest.approx(-8.0, abs=1e-12)
    assert cat.unduloid_inf_gauss(1.0, 0.5) == -8.0
    # nearly-cylindrical limit: curvature uniformly tiny
    for s in np.linspace(0.0, math.pi, 50):
        assert abs(cat.unduloid_profile(1.0, 1e-6, float(s)).K) <= 5e-6
    # Gauss bound K <= H^2 for a flat ambient
    for s in np.linspace(0.0, math.pi, 100):
        assert cat.unduloid_profile(1.0, 0.5, float(s)).K <= 1.0


def test_unduloid_principal_curvatures_mean():
    for s in (0.0, 0.4, 1.3, 2.5):
        p = cat.unduloid_profile(1.0, 0.5, s)
        assert 0.5 * (p.kappa_mer + p.kappa_par) == pytest.approx(1.0, abs=1e-10)
        # |Phi| from the two curvatures agrees with the Gauss-curvature route
        phi = math.sqrt(2.0) * abs(p.kappa_par - 1.0)
        assert phi == pytest.approx(math.sqrt(2.0 * (1.0 - p.K)), abs=1e-10)
        # K = -y''/y, and the product of the principal curvatures
        assert p.K == pytest.approx(-p.y_second / p.y, abs=1e-12)
        assert p.K == pytest.approx(p.kappa_mer * p.kappa_par, abs=1e-12)


def test_unduloid_sup_phi_closed_form():
    assert cat.unduloid_sup_phi(1.0, 0.5) == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-14)
    assert cat.unduloid_sup_phi(1.0, 0.5) ** 2 == pytest.approx(
        2.0 * (1.0 - cat.unduloid_inf_gauss(1.0, 0.5)), abs=1e-12)


def test_solve_B_for_inf_gauss():
    assert cat.solve_B_for_inf_gauss(1.0, 8.0) == pytest.approx(0.5, abs=1e-14)
    for h, eps in ((2.0, 8.0), (0.7, 0.3), (1.0, 100.0)):
        b = cat.solve_B_for_inf_gauss(h, eps)
        assert 0.0 < b < 1.0
        assert cat.unduloid_inf_gauss(h, b) == pytest.approx(-eps, abs=1e-10 * max(1.0, eps))
    # eps -> 0 forces B -> 0, with no cancellation on the way
    for eps in (1e-6, 1e-9, 1e-12, 1e-20):
        b = cat.solve_B_for_inf_gauss(1.0, eps)
        assert 0.0 < b < eps
        assert cat.unduloid_inf_gauss(1.0, b) == pytest.approx(-eps, rel=1e-12, abs=0.0)
    bs = [cat.solve_B_for_inf_gauss(1.0, e) for e in (0.1, 1.0, 10.0, 100.0)]
    assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))


@pytest.mark.parametrize("h, eps, message", [
    (math.inf, 8.0, r"^H must be finite$"),
    (-math.inf, 8.0, r"^H must be finite$"),
    (math.nan, 8.0, r"^H must be finite$"),
    (0.0, 8.0, r"^H must be nonzero$"),
    # B = eps / (eps + 2H^2 + ...) rounds to 1
    (1e-200, 1e300, r"^B must lie in \(0,1\)$"),
])
def test_solve_B_for_inf_gauss_rejects_what_has_no_B_in_0_1(h, eps, message):
    with pytest.raises(InvalidParameters, match=message):
        cat.solve_B_for_inf_gauss(h, eps)


def test_unduloid_negative_H_matches_numerics_in_absolute_value():
    model = cat.Unduloid(-1.0, 0.5)
    sd = shape_data_at(cat.build_chart(model), [0.7, 0.4])
    assert sd.mean_curvature == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# closed-form invariants
# ---------------------------------------------------------------------------

def _alpha(model, inv):
    return gap_threshold(BoundContext(n=model.space.n, c=model.space.c, H=inv.abs_H))


def test_euclidean_product_invariants():
    model = cat.EuclideanProduct(3, 2, 1.0)
    inv = cat.closed_form_invariants(model)
    assert inv.abs_H == pytest.approx(2.0 / 3.0)
    assert inv.phi_norm == pytest.approx(math.sqrt(2.0 / 3.0))
    assert _alpha(model, inv) == pytest.approx(math.sqrt(2.0 / 3.0))
    assert inv.branch_prediction == "equality"
    model1 = cat.EuclideanProduct(3, 1, 1.0)
    inv1 = cat.closed_form_invariants(model1)
    assert inv1.abs_H == pytest.approx(1.0 / 3.0)
    assert inv1.phi_norm == pytest.approx(math.sqrt(6.0) / 3.0)
    assert _alpha(model1, inv1) == pytest.approx(1.0 / math.sqrt(6.0))
    assert inv1.phi_norm > _alpha(model1, inv1)
    assert inv1.branch_prediction == "strict"
    # |Phi| = sqrt(n(n-1)) |H| for the k=1 flat products
    assert inv1.phi_norm == pytest.approx(math.sqrt(6.0) * inv1.abs_H, abs=1e-14)


def test_sphere_product_invariants():
    model = cat.SphereProduct(3, 1.0 / math.sqrt(3.0))
    inv = cat.closed_form_invariants(model)
    assert inv.H_signed == pytest.approx(-1.0 / math.sqrt(2.0))
    assert inv.phi_norm == pytest.approx(math.sqrt(3.0))
    assert _alpha(model, inv) == pytest.approx(math.sqrt(3.0))
    assert inv.branch_prediction == "equality"
    strict_model = cat.SphereProduct(3, 0.9)
    strict = cat.closed_form_invariants(strict_model)
    assert strict.branch_prediction == "strict"
    assert strict.phi_norm > _alpha(strict_model, strict) + 1e-3


def test_clifford_invariants():
    model = cat.CliffordTorus(3, 1)
    inv = cat.closed_form_invariants(model)
    assert inv.H_signed == 0.0
    assert inv.phi_norm == pytest.approx(math.sqrt(3.0))
    assert _alpha(model, inv) == math.sqrt(3.0)
    assert inv.branch_prediction == "equality"


def test_hyperbolic_cylinder_invariants():
    model = cat.HyperbolicCylinder(3, 2, 1.0)
    inv = cat.closed_form_invariants(model)
    assert inv.abs_H == pytest.approx(5.0 / (3.0 * math.sqrt(2.0)))
    assert inv.phi_norm == pytest.approx(1.0 / math.sqrt(3.0))
    assert _alpha(model, inv) == pytest.approx(1.0 / math.sqrt(3.0))
    assert inv.branch_prediction == "equality"
    # equality-side display in terms of |H| for the large sphere factor
    n, h = 3, inv.abs_H
    disp = math.sqrt(n) / (2 * math.sqrt(n - 1)) * (
        math.sqrt(n * n * h * h - 4 * (n - 1)) - (n - 2) * h)
    assert inv.phi_norm == pytest.approx(disp, abs=1e-12)

    model1 = cat.HyperbolicCylinder(3, 1, 0.5)
    k1 = cat.closed_form_invariants(model1)
    assert k1.branch_prediction == "strict"
    h1 = k1.abs_H
    disp1 = math.sqrt(3.0) / (2 * math.sqrt(2.0)) * (
        (3 - 2) * h1 + math.sqrt(9 * h1 * h1 - 8))
    assert k1.phi_norm == pytest.approx(disp1, abs=1e-12)
    assert k1.phi_norm > _alpha(model1, k1)


def test_hyperbolic_k1_ellipticity_window():
    # H^2 > 1 exactly when r < 1/sqrt(n(n-2))
    n = 3
    r_crit = 1.0 / math.sqrt(n * (n - 2))
    assert cat.HyperbolicCylinder(n, 1, 0.9 * r_crit).mean_curvature_exceeds_one
    assert not cat.HyperbolicCylinder(n, 1, 1.1 * r_crit).mean_curvature_exceeds_one
    sub_model = cat.HyperbolicCylinder(n, 1, 1.1 * r_crit)
    sub = cat.closed_form_invariants(sub_model)
    assert sub.branch_prediction is None
    with pytest.raises(NonElliptic):
        _alpha(sub_model, sub)


def test_umbilical_sphere_invariants():
    inv = cat.closed_form_invariants(cat.UmbilicalSphere(3, 0, 2.0))
    assert inv.abs_H == 0.5 and inv.phi_norm == 0.0
    assert inv.branch_prediction == "umbilical"
    hyp = cat.closed_form_invariants(cat.UmbilicalSphere(3, -1, 1.2))
    assert hyp.abs_H**2 - 1.0 == pytest.approx(1.0 / 1.44, abs=1e-12)


def test_only_the_unduloid_has_a_gauss_infimum():
    for model in cat.default_model_grid():
        inv = cat.closed_form_invariants(model)
        if isinstance(model, cat.Unduloid):
            assert inv.inf_gauss == cat.unduloid_inf_gauss(model.H, model.B)
        else:
            assert inv.inf_gauss is None, model


def test_closed_form_at_follows_the_unduloid_profile():
    model = cat.Unduloid(-1.3, 0.6)
    inv = cat.closed_form_invariants(model)
    for s in (0.0, 0.7, 2.4):
        phi, kappas = cat.closed_form_at(model, inv, np.array([s, 0.3]))
        p = cat.unduloid_profile(-1.3, 0.6, s)
        assert phi == math.sqrt(2.0 * (1.3**2 - p.K))
        assert np.array_equal(kappas, np.sort([p.kappa_mer, p.kappa_par]))
        sd = shape_data_at(cat.build_chart(model), [s, 0.3])
        assert phi == pytest.approx(math.sqrt(sd.traceless_norm2), abs=1e-9)
        assert np.allclose(kappas, np.sort(sd.principal_curvatures), atol=1e-9)
    for model in (cat.SphereProduct(3, 0.55), cat.UmbilicalSphere(2, 0, 1.0)):
        inv = cat.closed_form_invariants(model)
        phi, kappas = cat.closed_form_at(model, inv, np.array([0.5] * model.space.n))
        assert phi == inv.phi_norm and kappas is inv.kappas


def test_numeric_matches_closed_forms_spot_checks():
    for model in (cat.EuclideanProduct(4, 2, 1.0), cat.SphereProduct(3, 0.55),
                  cat.CliffordTorus(4, 1), cat.HyperbolicCylinder(4, 3, 1.0),
                  cat.UmbilicalSphere(3, 1, 0.6)):
        inv = cat.closed_form_invariants(model)
        chart = cat.build_chart(model)
        sd = shape_data_at(chart, next(sample_points(chart, 1)))
        assert sd.mean_curvature == pytest.approx(inv.abs_H, abs=1e-9)
        assert math.sqrt(max(sd.traceless_norm2, 0.0)) == pytest.approx(
            inv.phi_norm, abs=1e-9)
        got = np.sort(sd.principal_curvatures)
        mismatch = min(np.max(np.abs(got - inv.kappas)),
                       np.max(np.abs(got + inv.kappas[::-1])))
        assert mismatch <= 1e-9


# ---------------------------------------------------------------------------
# closed-form inversions
# ---------------------------------------------------------------------------

def test_r_from_H_sphere_product():
    r = cat.r_from_H(1, 3, 1.0 / math.sqrt(2.0), "minus")
    assert r * r == pytest.approx(1.0 / 3.0, abs=1e-12)
    r0 = cat.r_from_H(1, 3, 0.0, "minus")
    assert r0 * r0 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert cat.r_from_H(1, 3, 0.0, "plus") == pytest.approx(r0, abs=1e-14)
    # forward consistency on both branches
    for sign, r_true in (("minus", 0.5), ("plus", 0.95)):
        h = abs(cat.sphere_product_mean_curvature(3, r_true))
        assert cat.r_from_H(1, 3, h, sign) == pytest.approx(r_true, abs=1e-10)


def test_r_from_H_hyperbolic():
    h = 5.0 / (3.0 * math.sqrt(2.0))
    assert cat.r_from_H(-1, 3, h, k=2) == pytest.approx(1.0, abs=1e-12)
    for k, r_true in ((1, 0.4), (2, 0.8)):
        h = cat.hyperbolic_cylinder_mean_curvature(3, k, r_true)
        assert cat.r_from_H(-1, 3, h, k=k) == pytest.approx(r_true, abs=1e-10)
    with pytest.raises(OutOfRange):
        cat.r_from_H(-1, 3, 0.9, k=2)


# ---------------------------------------------------------------------------
# parsing and parameter validation
# ---------------------------------------------------------------------------

def test_parse_round_trip():
    for model in cat.default_model_grid():
        assert cat.parse_model(cat.model_to_text(model)) == model


_FAMILY_TEXTS = [
    (cat.EuclideanProduct(3, 1, 1), "euclidean-product:n=3,k=1,r=1.0"),
    (cat.SphereProduct(3, 0.55), "sphere-product:n=3,r=0.55"),
    (cat.CliffordTorus(5, 2), "clifford:n=5,k=2"),
    (cat.HyperbolicCylinder(3, 1, 0.4), "hyperbolic-cylinder:n=3,k=1,r=0.4"),
    (cat.Unduloid(-1, 0.75), "unduloid:H=-1.0,B=0.75"),
    (cat.UmbilicalSphere(3, -1, 1.2), "umbilical-sphere:n=3,c=-1,r=1.2"),
]


def test_model_spec_lists_the_families_in_order():
    assert typing.get_args(cat.ModelSpec) == (
        cat.EuclideanProduct, cat.SphereProduct, cat.CliffordTorus,
        cat.HyperbolicCylinder, cat.Unduloid, cat.UmbilicalSphere)
    assert {type(m) for m, _ in _FAMILY_TEXTS} == set(typing.get_args(cat.ModelSpec))


@pytest.mark.parametrize("model, text", _FAMILY_TEXTS)
def test_canonical_text_round_trip_for_every_family(model, text):
    # A float field given as an int is written as a float: r=1.0, H=-1.0.
    assert cat.model_to_text(model) == text
    parsed = cat.parse_model(text)
    assert parsed == model
    for f in dataclasses.fields(parsed):
        assert type(getattr(parsed, f.name)).__name__ == f.type, f.name
    assert cat.model_to_text(parsed) == text


@pytest.mark.parametrize("text, message", [
    ("just-a-name", "expected 'family:params', got 'just-a-name'"),
    ("nonsense:a=1", "unknown family 'nonsense'"),
    ("nonsense:a", "unknown family 'nonsense'"),
    ("unduloid:", "expected 'key=value', got ''"),
    ("unduloid:H=1,B", "expected 'key=value', got 'B'"),
    ("unduloid:H=1, =2", "expected 'key=value', got ' =2'"),
    ("unduloid:H=1,radius=2", "unknown parameter 'radius' for family 'unduloid'"),
    ("unduloid:radius=2,H", "unknown parameter 'radius' for family 'unduloid'"),
    ("unduloid:H=1,H=2,B=0.5", "duplicate parameter 'H'"),
    ("unduloid:H=1,H=oops", "duplicate parameter 'H'"),
    ("unduloid:H=oops,B=0.5", "could not parse value 'oops' for 'H'"),
    ("unduloid:H=oops,H=1", "could not parse value 'oops' for 'H'"),
    ("unduloid:H= 1x ,B=0.5", "could not parse value '1x' for 'H'"),
    ("clifford:n=3.0,k=1", "could not parse value '3.0' for 'n'"),
    ("unduloid:H=1", "missing parameter(s) ['B'] for family 'unduloid'"),
    ("euclidean-product:r=1", "missing parameter(s) ['k', 'n'] for family 'euclidean-product'"),
])
def test_parse_errors_name_token(text, message):
    # Each message verbatim.  Where one input breaks two rules, the message
    # shows which rule is checked first.
    with pytest.raises(ParseError) as info:
        cat.parse_model(text)
    assert str(info.value) == message


def test_parse_checks_grammar_before_ranges_and_tolerates_spaces():
    with pytest.raises(InvalidParameters, match=r"^B must lie in \(0,1\)$"):
        cat.parse_model("unduloid:H=1,B=2")
    with pytest.raises(InvalidParameters, match=r"^k must lie in \[1, n-1\]$"):
        cat.parse_model("clifford:n=3,k=3")
    assert cat.parse_model(" unduloid : H = 1 , B=0.5 ") == cat.Unduloid(1.0, 0.5)


def _imported_names(path: Path) -> set[str]:
    """Last component of every module and name that ``path`` imports,
    at any depth (a lazy import inside a function counts)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rsplit(".", 1)[-1])
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return names


def _isinstance_targets(path: Path) -> set[str]:
    """Every name tested in an ``isinstance`` call of ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            for sub in ast.walk(node.args[1]):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    found.add(sub.id if isinstance(sub, ast.Name) else sub.attr)
    return found


def test_family_knowledge_stays_in_catalog():
    package = Path(cat.__file__).parent
    assert not _imported_names(package / "catalog.py") & {"bounds", "cli"}
    families = {cls.__name__ for cls in typing.get_args(cat.ModelSpec)}
    for module in ("bounds.py", "cli.py", "catalog.py"):
        assert not _isinstance_targets(package / module) & families, module


_N_FIELD_FAMILIES = [cls for cls in typing.get_args(cat.ModelSpec)
                     if "n" in {f.name for f in dataclasses.fields(cls)}]


@pytest.mark.parametrize("cls", _N_FIELD_FAMILIES, ids=lambda cls: cls.family)
def test_n_below_2_rejected(cls):
    valid = next(m for m in cat.default_model_grid() if isinstance(m, cls))
    with pytest.raises(InvalidParameters, match=r"^n must be >= 2$"):
        dataclasses.replace(valid, n=1)


def test_invalid_parameters():
    with pytest.raises(InvalidParameters, match=r"B must lie in \(0,1\)"):
        cat.Unduloid(1.0, 2.0)
    with pytest.raises(InvalidParameters):
        cat.Unduloid(0.0, 0.5)
    with pytest.raises(InvalidParameters):
        cat.EuclideanProduct(3, 3, 1.0)
    with pytest.raises(InvalidParameters):
        cat.EuclideanProduct(3, 1, -1.0)
    with pytest.raises(InvalidParameters):
        cat.SphereProduct(3, 1.0)
    with pytest.raises(InvalidParameters):
        cat.HyperbolicCylinder(4, 2, 1.0)  # k must be 1 or n-1
    with pytest.raises(InvalidParameters):
        cat.UmbilicalSphere(3, 1, 1.5)
    with pytest.raises(InvalidParameters):
        cat.CliffordTorus(3, 0)


_FLOAT_FIELDS = [(cls, f.name) for cls in typing.get_args(cat.ModelSpec)
                 for f in dataclasses.fields(cls) if f.type == "float"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("cls, name", _FLOAT_FIELDS,
                         ids=[f"{cls.family}-{name}" for cls, name in _FLOAT_FIELDS])
def test_non_finite_float_parameter_rejected(cls, name, value):
    valid = next(m for m in cat.default_model_grid() if isinstance(m, cls))
    kwargs = {f.name: getattr(valid, f.name) for f in dataclasses.fields(cls)}
    kwargs[name] = value
    message = rf"^{name} must be finite$"
    with pytest.raises(InvalidParameters, match=message):
        cls(**kwargs)
    text = f"{cls.family}:" + ",".join(f"{k}={v}" for k, v in kwargs.items())
    with pytest.raises(InvalidParameters, match=message):
        cat.parse_model(text)


def test_default_grid_covers_all_families():
    grid = cat.default_model_grid()
    families = {}
    for m in grid:
        families.setdefault(m.family, []).append(m)
    assert set(families) == {"euclidean-product", "sphere-product", "clifford",
                             "hyperbolic-cylinder", "unduloid", "umbilical-sphere"}
    assert all(len(v) >= 5 for v in families.values())
