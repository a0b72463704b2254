"""Acceptance suite: one test per certification criterion, each printing a
pass/fail line.  Tolerances are fixed here and nowhere else."""

import math

import numpy as np

import cmcgeo.catalog as cat
from cmcgeo.bounds import (
    BoundContext,
    bound_identity_check,
    classify,
    gap_threshold,
    okumura_check,
)
from cmcgeo.geometry import (
    intrinsic_gauss_n2,
    sample_points,
    scalar_field,
    shape_data_at,
    simons_residual,
)
from cmcgeo.maxprinciple import decay_admissible, verify_oy_points, weak_oy_search

PHI2 = scalar_field("phi_norm2")


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_clifford_constant():
    worst = 0.0
    exact_alpha = True
    for n in (3, 4, 5):
        for k in range(1, n):
            chart = cat.build_chart(cat.CliffordTorus(n, k))
            sd = shape_data_at(chart, next(sample_points(chart, 1)))
            worst = max(worst, abs(math.sqrt(sd.traceless_norm2) - math.sqrt(n)))
            exact_alpha &= gap_threshold(BoundContext(n, 1, 0.0)) == math.sqrt(n)
    _criterion(1, "minimal torus |Phi| = sqrt(n) to 1e-9 and threshold exact",
               worst <= 1e-9 and exact_alpha, f"max dev {worst:.2e}")


def _valid_H(c):
    if c == -1:
        return [1.05 + 0.35 * j for j in range(10)]
    if c == 0:
        return [0.1 + 0.45 * j for j in range(10)]
    return [0.0] + [0.3 * j for j in range(1, 10)]


def test_criterion_2_bound_identity():
    worst = 0.0
    for n in (3, 4, 5, 8):
        for c in (-1, 0, 1):
            for h in _valid_H(c):
                ctx = BoundContext(n, c, h)
                scale = max(1.0, n * n * (h * h + abs(c)))
                worst = max(worst, abs(bound_identity_check(ctx)) / scale)
    _criterion(2, "scalar bound vs threshold identity to 1e-10",
               worst <= 1e-10, f"max scaled residual {worst:.2e}")


def test_criterion_3_unduloid_infimum():
    worst = 0.0
    for h in (0.5, 1.0, 2.0):
        for b in (0.1, 0.5, 0.9):
            s = np.linspace(0.0, math.pi / h, 100_000, endpoint=False)
            sn = np.sin(2.0 * h * s)
            q = 1.0 + b * b + 2.0 * b * sn
            k = 4.0 * h * h * b * (b + sn) * (1.0 + b * sn) / (q * q)
            closed = cat.unduloid_inf_gauss(h, b)
            worst = max(worst, abs(float(k.min()) - closed) / abs(closed))
    _criterion(3, "grid minimum of K matches -4H^2B/(1-B)^2 to 1e-6 relative",
               worst <= 1e-6, f"max rel dev {worst:.2e}")


def test_criterion_4_cmc_certification():
    chart = cat.build_chart(cat.Unduloid(1.0, 0.5))
    hs = [shape_data_at(chart, [s, th]).mean_curvature
          for s, th in zip(np.linspace(0, math.pi, 32, endpoint=False),
                           np.linspace(0, 2 * math.pi, 32, endpoint=False))]
    spread = max(hs) - min(hs)
    dev = max(abs(h - 1.0) for h in hs)
    _criterion(4, "unduloid mean curvature constant (spread < 1e-7, = |H| to 1e-8)",
               spread < 1e-7 and dev <= 1e-8,
               f"spread {spread:.2e}, dev {dev:.2e}")


_SIMONS_MODELS = [
    cat.EuclideanProduct(3, 2, 1.0), cat.EuclideanProduct(3, 1, 1.0),
    cat.EuclideanProduct(4, 3, 2.0),
    cat.SphereProduct(3, 1.0 / math.sqrt(3.0)), cat.SphereProduct(3, 0.9),
    cat.CliffordTorus(3, 1), cat.CliffordTorus(4, 2),
    cat.HyperbolicCylinder(3, 2, 1.0), cat.HyperbolicCylinder(3, 1, 0.5),
    cat.HyperbolicCylinder(4, 3, 1.0),
    cat.UmbilicalSphere(2, 0, 2.0), cat.UmbilicalSphere(3, 1, 0.6),
    cat.UmbilicalSphere(3, -1, 1.2),
]


def test_criterion_5_simons_residuals():
    worst = 0.0
    worst_at = ""
    for model in _SIMONS_MODELS:
        chart = cat.build_chart(model)
        for u in sample_points(chart, 2, max_points=6):
            r = abs(simons_residual(chart, u))
            if r > worst:
                worst, worst_at = r, f"{model.family} at {np.round(u, 3)}"
    for h, b, npts in ((1.0, 0.5, 16), (1.0, 0.25, 8), (0.5, 0.5, 8)):
        chart = cat.build_chart(cat.Unduloid(h, b))
        for s in np.linspace(0.0, math.pi / h, npts, endpoint=False):
            r = abs(simons_residual(chart, [s, 0.5]))
            if r > worst:
                worst, worst_at = r, f"unduloid H={h} B={b} s={s:.3f}"
    _criterion(5, "Laplacian identity residual <= 1e-5 at every sampled point",
               worst <= 1e-5, f"max {worst:.2e} ({worst_at})")


def test_criterion_6_closed_form_match():
    worst = 0.0
    for model in cat.default_model_grid():
        chart = cat.build_chart(model)
        inv = cat.closed_form_invariants(model)
        for u in sample_points(chart, 2, max_points=2):
            sd = shape_data_at(chart, u)
            worst = max(worst, abs(sd.mean_curvature - inv.abs_H))
            if isinstance(model, cat.Unduloid):
                p = cat.unduloid_profile(model.H, model.B, float(u[0]))
                closed_kap = np.sort([p.kappa_mer, p.kappa_par])
                closed_phi = math.sqrt(2.0 * (model.H**2 - p.K))
            else:
                closed_kap = inv.kappas
                closed_phi = inv.phi_norm
            worst = max(worst, abs(math.sqrt(max(sd.traceless_norm2, 0.0)) - closed_phi))
            got = np.sort(sd.principal_curvatures)
            worst = max(worst, min(float(np.max(np.abs(got - closed_kap))),
                                   float(np.max(np.abs(got + closed_kap[::-1])))))
    _criterion(6, "numeric (|H|, |Phi|, kappas) match closed forms to 1e-9, "
                  "all six families, five parameters each",
               worst <= 1e-9, f"max dev {worst:.2e}")


def test_criterion_7_trichotomy_table():
    expectations = [
        (cat.EuclideanProduct(3, 2, 0.5), "equality"),
        (cat.EuclideanProduct(3, 2, 1.0), "equality"),
        (cat.EuclideanProduct(4, 3, 2.0), "equality"),
        (cat.EuclideanProduct(3, 1, 1.0), "strict"),
        (cat.EuclideanProduct(4, 2, 1.0), "strict"),
        (cat.SphereProduct(3, 0.40), "equality"),
        (cat.SphereProduct(3, 0.55), "equality"),
        (cat.SphereProduct(3, math.sqrt(2.0 / 3.0)), "equality"),
        (cat.SphereProduct(3, 0.9), "strict"),   # r^2 = 0.81 > 2/3
        (cat.SphereProduct(3, 0.95), "strict"),
        (cat.CliffordTorus(3, 1), "equality"),
        (cat.CliffordTorus(3, 2), "equality"),
        (cat.CliffordTorus(4, 2), "equality"),
        (cat.CliffordTorus(5, 3), "equality"),
        (cat.HyperbolicCylinder(3, 2, 0.7), "equality"),
        (cat.HyperbolicCylinder(3, 2, 1.0), "equality"),
        (cat.HyperbolicCylinder(4, 3, 1.0), "equality"),
        (cat.HyperbolicCylinder(3, 1, 0.40), "strict"),
        (cat.HyperbolicCylinder(3, 1, 0.50), "strict"),
        (cat.UmbilicalSphere(3, 0, 2.0), "umbilical"),
        (cat.UmbilicalSphere(3, 1, 0.6), "umbilical"),
        (cat.UmbilicalSphere(3, -1, 1.2), "umbilical"),
        (cat.Unduloid(1.0, 0.5), "strict"),
    ]
    mismatches = []
    for model, expected in expectations:
        got = classify(model).branch
        if got != expected:
            mismatches.append((model, expected, got))
    for model in cat.default_model_grid():
        inv = cat.closed_form_invariants(model)
        if inv.branch_prediction is None:
            continue
        got = classify(model).branch
        if got != inv.branch_prediction:
            mismatches.append((model, inv.branch_prediction, got))
    _criterion(7, "classifier reproduces every closed-form verdict",
               not mismatches, f"{len(mismatches)} mismatches")


def test_criterion_8_okumura_suite():
    rng = np.random.default_rng(20240229)
    trials_per_n = 100_000 // 6
    min_slack = math.inf
    for n in range(3, 9):
        draws = rng.uniform(-1.0, 1.0, size=(trials_per_n, n))
        draws -= draws.mean(axis=1, keepdims=True)
        s2 = np.sum(draws * draws, axis=1)
        s3 = np.sum(draws**3, axis=1)
        bound = (n - 2) / math.sqrt(n * (n - 1)) * s2**1.5
        min_slack = min(min_slack, float(np.min(bound - np.abs(s3))))
    sides_ok = True
    for n in range(3, 9):
        for t in (0.5, 1.0, 3.0):
            up = np.r_[np.full(n - 1, -t), [(n - 1) * t]]
            rep_u = okumura_check(up, tol=1e-12)
            rep_l = okumura_check(-up, tol=1e-12)
            sides_ok &= rep_u.equality_side in ("upper", "both")
            sides_ok &= rep_l.equality_side in ("lower", "both")
            sides_ok &= abs(rep_u.sum_cubes - rep_u.upper_bound) <= 1e-9 * max(1.0, rep_u.upper_bound)
            sides_ok &= abs(rep_l.sum_cubes - rep_l.lower_bound) <= 1e-9 * max(1.0, -rep_l.lower_bound)
    _criterion(8, "100k random trace-free tuples never violate the cubic "
                  "bound; constructed equality cases detected with side",
               min_slack >= -1e-12 and sides_ok, f"min slack {min_slack:.2e}")


def test_criterion_9_gauss_consistency_surfaces():
    worst = 0.0
    bound_violation = 0.0
    for model in (cat.Unduloid(1.0, 0.5), cat.EuclideanProduct(2, 1, 0.7)):
        chart = cat.build_chart(model)
        counts = (8, 2) if isinstance(model, cat.Unduloid) else (2, 4)
        for u in sample_points(chart, counts):
            sd = shape_data_at(chart, u)
            k = intrinsic_gauss_n2(chart, u)
            expected = (chart.space.c + sd.mean_curvature**2) - sd.traceless_norm2 / 2.0
            worst = max(worst, abs(k - expected))
            bound_violation = max(
                bound_violation, k - (sd.mean_curvature**2 + chart.space.c))
    _criterion(9, "intrinsic K = (c+H^2) - |Phi|^2/2 to 1e-6 and K <= H^2+c",
               worst <= 1e-6 and bound_violation <= 1e-9,
               f"max dev {worst:.2e}, max bound excess {bound_violation:.2e}")


def test_criterion_10_weak_maximum_principle_demo():
    chart = cat.build_chart(cat.Unduloid(1.0, 0.5))
    witness = weak_oy_search(chart, PHI2, (256, 4), 10)
    weak_ok = all(verify_oy_points(chart, PHI2, witness, mode="weak"))
    full_ok = all(verify_oy_points(chart, PHI2, witness, mode="full"))
    _criterion(10, "weak sequence search succeeds with K=10 and passes both "
                   "condition sets",
               weak_ok and full_ok,
               f"sup estimate {witness.sup_estimate:.6f}")


def test_criterion_11_decay_checker_calibration():
    flat = decay_admissible(lambda t: 1.0, 10.0, 128)
    quartic = decay_admissible(lambda t: (1.0 + t) ** 4, 10.0, 128)
    strong = decay_admissible(lambda t: 1.0 + t * t * math.log(t + 2.0) ** 2,
                              50.0, 128)
    ok = (flat.verdict == "likely-divergent"
          and quartic.verdict == "likely-convergent"
          and strong.verdict == "likely-divergent")
    _criterion(11, "decay heuristic: constant diverges, quartic converges, "
                   "quadratic-log-squared diverges",
               ok, f"ratios {flat.increment_ratio:.3f}/"
                   f"{quartic.increment_ratio:.3f}/{strong.increment_ratio:.3f}")
