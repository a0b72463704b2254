import math

import numpy as np
import pytest

from cmcgeo import maxprinciple
from cmcgeo.catalog import EuclideanProduct, Unduloid, build_chart
from cmcgeo.errors import DomainError, DomainExceeded, SearchFailed
from cmcgeo.geometry import DEFAULT_FD_STEP, grad_norm, laplace_beltrami, sample_points, scalar_field
from cmcgeo.maxprinciple import (
    OYWitness,
    decay_admissible,
    verify_oy_points,
    weak_oy_search,
)

PHI2 = scalar_field("phi_norm2")
MAX_POINT = np.array([3.0 * math.pi / 4.0, 0.0])


def test_constant_sequence_at_unduloid_maximum():
    chart = build_chart(Unduloid(1.0, 0.5))
    # sup |Phi|^2 = 2 (H^2 - inf K) = 2 (1 + 8) = 18 at the neck
    witness = OYWitness([MAX_POINT.copy() for _ in range(6)], 18.0, mode="full")
    assert all(verify_oy_points(chart, PHI2, witness))
    for rec in witness.records:
        assert rec.value == pytest.approx(18.0, abs=1e-9)
        assert rec.grad_norm <= 1e-6
        assert rec.laplacian <= 0.0


def test_misdeclared_supremum_fails_first_condition():
    chart = build_chart(Unduloid(1.0, 0.5))
    witness = OYWitness([MAX_POINT.copy() for _ in range(4)], 19.0, mode="full")
    assert verify_oy_points(chart, PHI2, witness) == [False] * 4
    assert verify_oy_points(chart, PHI2, witness, mode="weak") == [False] * 4


def test_constant_field_on_product_passes_everywhere():
    chart = build_chart(EuclideanProduct(2, 1, 0.7))
    pts = [np.array([0.3, 1.0]), np.array([-0.5, 2.0]), np.array([0.0, 4.0])]
    sup = 1.0 / (2.0 * 0.49)  # |Phi|^2 = 1/(2 r^2)
    witness = OYWitness(pts, sup, mode="full")
    assert all(verify_oy_points(chart, PHI2, witness))


def test_full_mode_implies_weak_mode():
    chart = build_chart(Unduloid(1.0, 0.5))
    pts = [MAX_POINT.copy(), np.array([2.2, 1.0]), np.array([0.4, 0.2])]
    witness = OYWitness(pts, 18.0, mode="full")
    full = verify_oy_points(chart, PHI2, witness, mode="full")
    weak = verify_oy_points(chart, PHI2, witness, mode="weak")
    for f_ok, w_ok in zip(full, weak):
        assert not f_ok or w_ok


def test_weak_search_finds_the_neck():
    chart = build_chart(Unduloid(1.0, 0.5))
    witness = weak_oy_search(chart, PHI2, (256, 4), 10)
    assert witness.sup_estimate == pytest.approx(18.0, abs=1e-8)
    period = math.pi
    for p in witness.points:
        assert abs((p[0] - 3.0 * period / 4.0 + period / 2) % period - period / 2) <= 1e-9
    assert all(verify_oy_points(chart, PHI2, witness, mode="weak"))
    assert all(verify_oy_points(chart, PHI2, witness, mode="full"))


def test_weak_search_failure_carries_best_slack():
    chart = build_chart(Unduloid(1.0, 0.5))
    with pytest.raises(SearchFailed) as info:
        weak_oy_search(chart, PHI2, 2, 3)
    err = info.value
    assert err.best_gap == pytest.approx(0.0, abs=1e-12)
    assert err.best_laplacian > 1.0  # grid misses the neck; Laplacian positive


def test_verify_evaluates_each_stencil_point_once(counting_chart):
    chart, points = counting_chart(build_chart(Unduloid(1.0, 0.5)))
    pts = [MAX_POINT.copy(), np.array([2.2, 1.0]), np.array([0.4, 0.2])]
    verify_oy_points(chart, PHI2, OYWitness(pts, 18.0, mode="full"))
    n = 2
    assert len(set(points)) == len(points) == len(pts) * (2 * n * n + 1)


@pytest.mark.parametrize("witness_points, distinct", [
    ([MAX_POINT] * 6, 1),
    ([MAX_POINT, np.array([2.2, 1.0]), MAX_POINT, np.array([0.4, 0.2]),
      np.array([2.2, 1.0]), MAX_POINT], 3),
], ids=["six-copies", "mixed"])
def test_verify_evaluates_a_repeated_point_once(counting_chart, witness_points, distinct):
    chart, points = counting_chart(build_chart(Unduloid(1.0, 0.5)))
    pts = [p.copy() for p in witness_points]
    verify_oy_points(chart, PHI2, OYWitness(pts, 18.0, mode="full"))
    n = 2
    assert len(set(points)) == len(points) == distinct * (2 * n * n + 1)


def test_verify_checks_a_repeated_point_once(monkeypatch):
    chart = build_chart(Unduloid(1.0, 0.5))
    p, q = MAX_POINT, np.array([2.2, 1.0])
    alone = {}
    for pt in (p, q):
        single = OYWitness([pt], 18.0, mode="full")
        verify_oy_points(chart, PHI2, single)
        alone[pt.tobytes()] = single.records[0]
    calls = {"laplace_beltrami": 0, "grad_norm": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(maxprinciple, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(maxprinciple, name, counted)
    pts = [p.copy(), q.copy(), p.copy(), p.copy(), q.copy()]
    witness = OYWitness(pts, 18.0, mode="full")
    results = verify_oy_points(chart, PHI2, witness)
    assert calls == {"laplace_beltrami": 2, "grad_norm": 2}
    # Each k keeps its own record, on its own point, and its own 1/k test.
    for k, (rec, pt, ok) in enumerate(zip(witness.records, pts, results), start=1):
        ref = alone[pt.tobytes()]
        assert rec.point is pt
        assert (rec.value, rec.laplacian, rec.grad_norm) == (ref.value, ref.laplacian, ref.grad_norm)
        assert ok == (rec.value > 18.0 - 1.0 / k and rec.laplacian < 1.0 / k
                      and rec.grad_norm < 1.0 / k)
    assert results == [True, False, True, True, False]


def test_verify_records_equal_a_loop_of_shape_data_at_bit_for_bit(stencil_chart, looped_stencil):
    chart, h = stencil_chart, DEFAULT_FD_STEP
    grid = list(sample_points(chart, 3))
    p, q = grid[len(grid) // 2], grid[1]
    witness = OYWitness([p, q, p.copy(), q], 0.0, mode="full")
    verify_oy_points(chart, PHI2, witness)
    assert len(witness.records) == 4
    for rec, pt in zip(witness.records, witness.points):
        ref = looped_stencil(chart, pt, h, True)
        assert rec.point is pt
        assert rec.value == PHI2(ref.center)
        assert rec.laplacian == laplace_beltrami(chart, PHI2, pt, h, _stencil=ref)
        assert rec.grad_norm == grad_norm(chart, PHI2, pt, h, _stencil=ref)


@pytest.mark.parametrize("h", [math.nan, math.inf, 0.0])
def test_verify_keeps_the_records_when_it_raises(h):
    chart = build_chart(Unduloid(1.0, 0.5))
    witness = weak_oy_search(chart, PHI2, (16, 4), 3)
    before = list(witness.records)
    assert len(before) == 3
    with pytest.raises(ValueError):
        verify_oy_points(chart, PHI2, witness, h=h)
    assert len(witness.records) == len(before)
    assert all(r is b for r, b in zip(witness.records, before))


def test_verify_checks_every_domain_ball_before_evaluating(counting_chart):
    # The flat axis of EuclideanProduct(2, 1, 0.7) is [-2, 2]; only the last
    # point's 2h-ball leaves it.
    chart, points = counting_chart(build_chart(EuclideanProduct(2, 1, 0.7)))
    good = [np.array([0.3, 1.0]), np.array([-0.5, 2.0])]
    witness = OYWitness(good, 1.0 / 0.98, mode="full")
    assert all(verify_oy_points(chart, PHI2, witness))
    before = list(witness.records)
    points.clear()
    witness.points.append(np.array([2.0 - 1.5e-4, 1.0]))
    with pytest.raises(DomainExceeded):
        verify_oy_points(chart, PHI2, witness, h=1e-4)
    assert points == []
    assert len(witness.records) == len(before)
    assert all(r is b for r, b in zip(witness.records, before))


def test_weak_search_evaluates_each_point_once(counting_chart):
    chart, points = counting_chart(build_chart(Unduloid(1.0, 0.5)))
    weak_oy_search(chart, PHI2, (16, 4), 3)
    # The grid once, then the other 2n^2 = 8 points of each Laplacian stencil.
    assert len(set(points)) == len(points) > 16 * 4
    assert (len(points) - 16 * 4) % 8 == 0


@pytest.mark.parametrize("h", [0.0, math.nan, math.inf, 1e-300])
def test_weak_search_checks_the_step_before_evaluating(counting_chart, h):
    chart, points = counting_chart(build_chart(Unduloid(1.0, 0.5)))
    with pytest.raises(ValueError):
        weak_oy_search(chart, PHI2, (256, 4), 10, h=h)
    assert points == []


def test_verify_checks_step_and_domain_before_evaluating(counting_chart):
    # The flat axis of EuclideanProduct(2, 1, 0.7) is [-2, 2].
    chart, points = counting_chart(build_chart(EuclideanProduct(2, 1, 0.7)))
    with pytest.raises(ValueError):
        verify_oy_points(chart, PHI2, OYWitness([np.array([0.3, 1.0])], 1.0), h=math.nan)
    with pytest.raises(DomainExceeded):
        verify_oy_points(chart, PHI2, OYWitness([np.array([2.0 - 1.5e-4, 1.0])], 1.0), h=1e-4)
    assert points == []


def test_witness_validation():
    with pytest.raises(ValueError):
        OYWitness([], 1.0)
    with pytest.raises(ValueError):
        OYWitness([np.zeros(2)], 1.0, mode="sideways")


# ---------------------------------------------------------------------------
# decay admissibility
# ---------------------------------------------------------------------------

def test_decay_constant_profile_diverges():
    rep = decay_admissible(lambda t: 1.0, 10.0, 128)
    assert rep.G0 == 1.0 and rep.monotone_ok
    assert rep.integral_T == pytest.approx(10.0, abs=1e-9)
    assert rep.increment_ratio == pytest.approx(2.0, abs=1e-9)
    assert rep.verdict == "likely-divergent"
    assert rep.condition_iv_sup == pytest.approx(10.0, abs=1e-9)


def test_decay_quartic_profile_converges():
    rep = decay_admissible(lambda t: (1.0 + t) ** 4, 10.0, 128,
                           G_prime=lambda t: 4.0 * (1.0 + t) ** 3)
    assert rep.monotone_ok
    assert rep.integral_T == pytest.approx(10.0 / 11.0, abs=1e-9)
    assert rep.integral_2T == pytest.approx(20.0 / 21.0, abs=1e-9)
    assert rep.integral_4T == pytest.approx(40.0 / 41.0, abs=1e-9)
    assert rep.increment_ratio == pytest.approx((20.0 / 861.0) / (10.0 / 231.0), abs=1e-6)
    assert rep.verdict == "likely-convergent"


def test_decay_strong_quadratic_profile_diverges():
    g = lambda t: 1.0 + t * t * math.log(t + 2.0) ** 2
    rep = decay_admissible(g, 50.0, 128)
    assert rep.monotone_ok
    assert rep.verdict == "likely-divergent"
    assert math.isfinite(rep.condition_iv_sup)


def test_decay_scaling_invariance():
    g = lambda t: (1.0 + t) ** 4
    base = decay_admissible(g, 10.0, 128)
    scaled = decay_admissible(lambda t: 49.0 * g(t), 10.0, 128)
    assert scaled.verdict == base.verdict
    assert scaled.monotone_ok == base.monotone_ok
    assert scaled.increment_ratio == pytest.approx(base.increment_ratio, rel=1e-6)
    assert scaled.integral_T == pytest.approx(base.integral_T / 7.0, rel=1e-6)


def test_decay_rejects_bad_profiles():
    with pytest.raises(DomainError):
        decay_admissible(lambda t: 1.0 - t, 10.0, 128)  # goes negative
    with pytest.raises(ValueError):
        decay_admissible(lambda t: 1.0, 4.0, 128)  # T too small
    with pytest.raises(ValueError):
        decay_admissible(lambda t: 1.0, 10.0, 32)  # too few samples


def test_decay_detects_nonmonotone():
    rep = decay_admissible(lambda t: 2.0 + math.sin(t), 10.0, 256)
    assert not rep.monotone_ok
