import math

import numpy as np
import pytest

from cmcgeo.errors import SizeMismatch
from cmcgeo.spaceform import (AmbientSpace, bilinear_form, metric_weights, validate_point,
                              validate_points)


def test_ambient_dimensions():
    assert AmbientSpace(0, 3).ambient_dim == 4
    assert AmbientSpace(1, 3).ambient_dim == 5
    assert AmbientSpace(-1, 2).ambient_dim == 4
    with pytest.raises(ValueError):
        AmbientSpace(2, 3)
    with pytest.raises(ValueError):
        AmbientSpace(0, 1)


def test_euclidean_dot():
    sp = AmbientSpace(0, 2)
    assert bilinear_form(sp, [1, 2, 3], [4, 5, 6]) == 32.0


def test_lorentzian_form_values():
    sp = AmbientSpace(-1, 2)
    e0 = np.array([1.0, 0, 0, 0])
    assert bilinear_form(sp, e0, e0) == -1.0
    v = np.array([1.0, 1, 0, 0])
    w = np.array([1.0, -1, 0, 0])
    assert bilinear_form(sp, v, w) == -2.0


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        bilinear_form(AmbientSpace(0, 2), [1, 2], [3, 4])
    with pytest.raises(SizeMismatch):
        validate_point(AmbientSpace(1, 2), [1, 0, 0], 1e-10)


def test_form_symmetric_bilinear_property():
    rng = np.random.default_rng(9)
    for c in (-1, 0, 1):
        sp = AmbientSpace(c, 3)
        d = sp.ambient_dim
        for _ in range(30):
            u, v, w = rng.uniform(-2, 2, (3, d))
            a, b = rng.uniform(-2, 2, 2)
            assert abs(bilinear_form(sp, u, v) - bilinear_form(sp, v, u)) <= 1e-12
            lhs = bilinear_form(sp, a * u + b * v, w)
            rhs = a * bilinear_form(sp, u, w) + b * bilinear_form(sp, v, w)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_validate_point_sphere():
    sp = AmbientSpace(1, 2)
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert validate_point(sp, e1, 1e-10)
    assert not validate_point(sp, 1.1 * e1, 1e-10)


def test_validate_point_hyperboloid():
    sp = AmbientSpace(-1, 2)
    up = np.array([1.0, 0, 0, 0])
    assert validate_point(sp, up, 1e-10)
    assert not validate_point(sp, -up, 1e-10)  # wrong sheet
    x = np.array([math.sqrt(2.0), 1.0, 0, 0])
    assert validate_point(sp, x, 1e-10)


def test_validate_point_flat_always_true():
    assert validate_point(AmbientSpace(0, 2), [5.0, 6.0, 7.0], 1e-12)


def test_metric_weights():
    assert np.array_equal(metric_weights(AmbientSpace(0, 2)), [1, 1, 1])
    assert np.array_equal(metric_weights(AmbientSpace(-1, 2)), [-1, 1, 1, 1])


_TOL = 1e-10


def _rows_near_the_tolerance(c: int, n: int, rng) -> np.ndarray:
    """Rows with <x,x> - c at 0, +-0.5, +-1 and +-2 times the tolerance, at
    several sizes, each with its neighbours one and two ulps away in one
    coordinate; then rows on the wrong sheet and non-finite rows."""
    d = n + 2
    rows = []
    for size in (0.0, 0.3, 1.0, 1e3, 1e5, 1e7):
        for k in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
            v = rng.normal(size=d)
            if c == 1:
                x = v / np.linalg.norm(v) * math.sqrt(1.0 + k * _TOL)
            else:
                y = v[1:] / np.linalg.norm(v[1:]) * size
                x = np.r_[math.sqrt(1.0 + size * size - k * _TOL), y]
            rows.append(x)
            for steps in (1, 2):
                for toward in (math.inf, -math.inf):
                    nudged = x.copy()
                    for _ in range(steps):
                        nudged[0] = np.nextafter(nudged[0], toward)
                    rows.append(nudged)
    rows = np.array(rows)
    wrong_sheet = rows[:4] * np.r_[-1.0, np.ones(d - 1)]
    bad = np.ones((5, d))
    bad[0, 1], bad[1, 0], bad[2, 2] = math.nan, math.inf, -math.inf
    bad[3, :2] = math.inf, -math.inf
    bad[4] = math.nan
    return np.concatenate([rows, wrong_sheet, bad])


@pytest.mark.parametrize("c", [1, -1])
@pytest.mark.parametrize("n", [2, 3, 5, 6, 7])
def test_validate_points_equals_validate_point_at_every_row(c, n):
    space = AmbientSpace(c, n)
    rows = _rows_near_the_tolerance(c, n, np.random.default_rng(17 + n))
    with np.errstate(invalid="ignore"):  # <x,x> of a row with inf and -inf is NaN
        mask = validate_points(space, rows, _TOL)
        expected = [validate_point(space, x, _TOL) for x in rows]
    assert mask.dtype == bool
    assert mask.tolist() == expected
    assert mask.any() and not mask.all()


def test_validate_points_checks_few_rows_one_by_one():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(500, 5))
    on = v / np.linalg.norm(v, axis=1, keepdims=True)
    assert validate_points(AmbientSpace(1, 3), on, _TOL).all()
    assert not validate_points(AmbientSpace(1, 3), 1.1 * on, _TOL).any()
    rows = np.array([[1.0, 0, 0, 0], [math.nan, 0, 0, 0], [math.sqrt(1.0 + 0.9 * _TOL), 0, 0, 0]])
    assert validate_points(AmbientSpace(1, 2), rows, _TOL).tolist() == [True, False, True]


def test_validate_points_flat_and_bad_arguments():
    with pytest.raises(ValueError):
        validate_points(AmbientSpace(0, 2), [[5.0, 6.0, 7.0], [math.nan] * 3], _TOL)
    with pytest.raises(SizeMismatch):
        validate_points(AmbientSpace(1, 2), [[1.0, 0.0, 0.0]], _TOL)
    with pytest.raises(ValueError):
        validate_points(AmbientSpace(1, 2), [[1.0, 0.0, 0.0, 0.0]], 0.0)
