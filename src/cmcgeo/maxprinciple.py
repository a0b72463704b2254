"""Desk-scale checkers for maximum-principle sequence conditions and for
the admissible radial curvature-decay criterion.

The sequence checkers demonstrate, on bounded or periodic charts, the
existence of points p_k with u(p_k) close to sup u, small gradient (full
mode) and small Laplacian.  Divergence of the improper decay integral is
undecidable from finite data, so the decay checker reports an explicitly
labeled heuristic verdict from the growth rate of partial integrals, never
a certainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, SearchFailed
from .geometry import (
    DEFAULT_FD_STEP,
    ImmersionChart,
    ScalarField,
    _check_step,
    _require_ball,
    _Stencil,
    grad_norm,
    laplace_beltrami,
    sample_points,
    shape_data_batch,
)
from .numeric import adaptive_quadrature

__all__ = [
    "OYRecord",
    "OYWitness",
    "DecayReport",
    "verify_oy_points",
    "weak_oy_search",
    "decay_admissible",
]


@dataclass(frozen=True)
class OYRecord:
    point: np.ndarray
    value: float
    grad_norm: float
    laplacian: float


@dataclass
class OYWitness:
    """Candidate maximizing sequence with a declared supremum estimate."""

    points: list[np.ndarray]
    sup_estimate: float
    mode: str = "weak"  # weak | full
    records: list[OYRecord] = field(default_factory=list)

    def __post_init__(self):
        if not self.points:
            raise ValueError("witness needs at least one point")
        if self.mode not in ("weak", "full"):
            raise ValueError("mode must be 'weak' or 'full'")


def verify_oy_points(chart: ImmersionChart, fld: ScalarField,
                     witness: OYWitness, mode: str | None = None,
                     h: float = DEFAULT_FD_STEP) -> list[bool]:
    """Check the sequence conditions at each witness point.

    For the k-th point (1-based) the full mode requires, with strict
    comparisons, u > sup - 1/k, |grad u| < 1/k and Lap u < 1/k; the weak
    mode drops the gradient condition.  Recomputed records replace those
    on the witness only when every point has been checked.

    The step and the domain ball of every point are checked before the
    first evaluation.  Each distinct point (equal float coordinates) is
    evaluated once, as one batched Laplacian stencil of 2n^2 + 1 points;
    its value, Laplacian and gradient norm are computed once from that
    stencil and reused for every k at that point.
    """
    mode = witness.mode if mode is None else mode
    if mode not in ("weak", "full"):
        raise ValueError("mode must be 'weak' or 'full'")
    _check_step(h)
    points = [np.asarray(p, dtype=float) for p in witness.points]
    for p in points:
        _require_ball(chart, p, 2.0 * h)
    checked: dict[bytes, tuple[float, float, float]] = {}
    results, records = [], []
    for k, p in enumerate(points, start=1):
        key = p.tobytes()
        if key not in checked:
            st = _Stencil(chart, p, h, mixed=True)
            checked[key] = (fld(st.center), laplace_beltrami(chart, fld, p, h, _stencil=st),
                            grad_norm(chart, fld, p, h, _stencil=st))
        value, lap, gn = checked[key]
        ok = value > witness.sup_estimate - 1.0 / k and lap < 1.0 / k
        if mode == "full":
            ok = ok and gn < 1.0 / k
        records.append(OYRecord(p, value, gn, lap))
        results.append(bool(ok))
    witness.records = records
    return results


def weak_oy_search(chart: ImmersionChart, fld: ScalarField, grid,
                   count: int, h: float = DEFAULT_FD_STEP) -> OYWitness:
    """Search a bounded grid for points satisfying the weak conditions.

    ``grid`` gives the resolution per axis (one int for all, or a sequence).
    The supremum is estimated as the grid maximum; for each k a grid point
    with u > sup - 1/k and Lap u < 1/k is selected, candidates ordered by
    decreasing field value.  Raises SearchFailed, carrying the slack at the
    grid maximizer, when some k admits no point.

    The FD step is checked before anything is evaluated.  The grid is
    evaluated in one batch (``shape_data_batch``); each Laplacian stencil
    then adds its other 2n^2 points in one more batch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_step(h)
    pts = list(sample_points(chart, grid))
    centres = shape_data_batch(chart, pts)
    values = np.array([fld(sd) for sd in centres])
    sup_est = float(values.max())
    order = np.argsort(-values, kind="stable")
    stencils: dict[int, _Stencil] = {}
    laplacians: dict[int, float] = {}

    def lap_at(i: int) -> float:
        if i not in laplacians:
            stencils[i] = _Stencil(chart, pts[i], h, mixed=True, center=centres[i])
            laplacians[i] = laplace_beltrami(chart, fld, pts[i], h, _stencil=stencils[i])
        return laplacians[i]

    chosen: list[int] = []
    for k in range(1, count + 1):
        found = None
        for i in order:
            if not values[i] > sup_est - 1.0 / k:
                break
            if lap_at(int(i)) < 1.0 / k:
                found = int(i)
                break
        if found is None:
            top = int(order[0])
            raise SearchFailed(
                f"no grid point satisfies the weak conditions for k={k}",
                best_gap=sup_est - float(values[top]),
                best_laplacian=lap_at(top),
            )
        chosen.append(found)

    witness = OYWitness([pts[i].copy() for i in chosen], sup_est, mode="weak")
    for k, i in enumerate(chosen, start=1):
        gn = grad_norm(chart, fld, pts[i], h, _stencil=stencils[i])
        witness.records.append(
            OYRecord(pts[i].copy(), float(values[i]), gn, laplacians[i]))
    return witness


# --------------------------------------------------------------------------
# radial decay admissibility
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    """Checks of the admissibility conditions for a decay profile G.

    ``increment_ratio`` compares consecutive doublings of the partial
    integral of 1/sqrt(G); a ratio staying near or above one signals a
    divergent improper integral, a ratio clearly below one a convergent
    tail.  ``condition_iv_sup`` samples sup of t G(sqrt(t)) / G(t).
    """

    G0: float
    monotone_ok: bool
    integral_T: float
    integral_2T: float
    integral_4T: float
    increment_ratio: float
    condition_iv_sup: float
    verdict: str  # likely-divergent | likely-convergent | inconclusive


_RATIO_DIVERGENT = 0.7
_RATIO_CONVERGENT = 0.55


def decay_admissible(G: Callable[[float], float], T: float, samples: int,
                     G_prime: Callable[[float], float] | None = None) -> DecayReport:
    """Check a candidate decay profile against the admissibility conditions.

    Exact checks: G(0) > 0 and monotone non-decreasing on a ``samples``-point
    grid over [0, 4T] (derivative also sampled when provided).  The
    improper-integral condition is heuristic: with I(t) the integral of
    1/sqrt(G) up to t, the ratio (I(4T)-I(2T))/(I(2T)-I(T)) is compared
    against thresholds 0.7 / 0.55 calibrated on constant, quartic and
    quadratic-log-squared profiles.
    """
    if T < 8:
        raise ValueError("T must be at least 8")
    if samples < 64:
        raise ValueError("samples must be at least 64")

    ts = np.linspace(0.0, 4.0 * T, samples)
    vals = np.array([float(G(t)) for t in ts])
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        bad = ts[int(np.argmin(vals))]
        raise DomainError(f"G must be positive and finite; fails near t={bad:.6g}")

    monotone = bool(np.all(np.diff(vals) >= -1e-12))
    if G_prime is not None:
        dvals = np.array([float(G_prime(t)) for t in ts])
        monotone = monotone and bool(np.all(dvals >= -1e-12))

    def integrand(t: float) -> float:
        g = float(G(t))
        if g <= 0.0:
            raise DomainError(f"G({t}) = {g} is not positive")
        return 1.0 / math.sqrt(g)

    scale = max(1.0, float(np.mean(1.0 / np.sqrt(vals))) * 4.0 * T)
    tol = 1e-11 * scale
    i_t = adaptive_quadrature(integrand, 0.0, T, tol)
    i_2t = i_t + adaptive_quadrature(integrand, T, 2.0 * T, tol)
    i_4t = i_2t + adaptive_quadrature(integrand, 2.0 * T, 4.0 * T, tol)

    denom = i_2t - i_t
    ratio = (i_4t - i_2t) / denom if denom > 0.0 else math.inf
    if ratio >= _RATIO_DIVERGENT:
        verdict = "likely-divergent"
    elif ratio <= _RATIO_CONVERGENT:
        verdict = "likely-convergent"
    else:
        verdict = "inconclusive"

    tq = np.linspace(1.0, T, samples)
    sup_iv = float(max(t * float(G(math.sqrt(t))) / float(G(t)) for t in tq))

    return DecayReport(
        G0=float(vals[0]),  # ts[0] is 0
        monotone_ok=monotone,
        integral_T=i_t,
        integral_2T=i_2t,
        integral_4T=i_4t,
        increment_ratio=float(ratio),
        condition_iv_sup=sup_iv,
        verdict=verdict,
    )
