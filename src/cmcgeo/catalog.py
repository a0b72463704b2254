"""Closed-form model hypersurfaces: product embeddings in the three space
forms, round spheres, and the rotational unduloid family in flat 3-space.

Each family is exposed two ways: as an ImmersionChart for the numerical
pipeline, and as exact invariants (principal curvatures, mean curvature,
traceless norm, branch prediction) that the numerics are tested against.
Closed forms are authoritative; the numeric geometry is the thing under
test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidParameters, OutOfRange, ParseError
from .geometry import ImmersionChart, Interval
from .numeric import Jet2, adaptive_quadrature
from .spaceform import AmbientSpace

__all__ = [
    "EuclideanProduct",
    "SphereProduct",
    "CliffordTorus",
    "HyperbolicCylinder",
    "Unduloid",
    "UmbilicalSphere",
    "ModelSpec",
    "ClosedFormInvariants",
    "build_chart",
    "closed_form_invariants",
    "UnduloidProfile",
    "unduloid_profile",
    "unduloid_gauss_curvature",
    "unduloid_inf_gauss",
    "unduloid_sup_phi",
    "unduloid_principal_curvatures",
    "solve_B_for_inf_gauss",
    "sphere_product_mean_curvature",
    "hyperbolic_cylinder_mean_curvature",
    "r_from_H",
    "parse_model",
    "default_model_grid",
]

_POLAR_MARGIN = 1e-3
_DEFAULT_X_TOL = 1e-10
_KNOTS = 64  # knots per period in the unduloid axial-coordinate table


# --------------------------------------------------------------------------
# model specs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EuclideanProduct:
    """R^(n-k) x S^k(r) inside R^(n+1)."""

    n: int
    k: int
    r: float

    family = "euclidean-product"

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameters("n must be >= 2")
        if not 1 <= self.k <= self.n - 1:
            raise InvalidParameters("k must lie in [1, n-1]")
        if self.r <= 0:
            raise InvalidParameters("r must be positive")

    @property
    def space(self) -> AmbientSpace:
        return AmbientSpace(0, self.n)

    def params_text(self) -> str:
        return f"n={self.n},k={self.k},r={_fmt(self.r)}"


@dataclass(frozen=True)
class SphereProduct:
    """S^1(sqrt(1-r^2)) x S^(n-1)(r) inside S^(n+1)."""

    n: int
    r: float

    family = "sphere-product"

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameters("n must be >= 2")
        if not 0 < self.r < 1:
            raise InvalidParameters("r must lie in (0,1)")

    @property
    def space(self) -> AmbientSpace:
        return AmbientSpace(1, self.n)

    def params_text(self) -> str:
        return f"n={self.n},r={_fmt(self.r)}"


@dataclass(frozen=True)
class CliffordTorus:
    """Minimal S^k(sqrt(k/n)) x S^(n-k)(sqrt((n-k)/n)) inside S^(n+1)."""

    n: int
    k: int

    family = "clifford"

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameters("n must be >= 2")
        if not 1 <= self.k <= self.n - 1:
            raise InvalidParameters("k must lie in [1, n-1]")

    @property
    def space(self) -> AmbientSpace:
        return AmbientSpace(1, self.n)

    def params_text(self) -> str:
        return f"n={self.n},k={self.k}"


@dataclass(frozen=True)
class HyperbolicCylinder:
    """H^(n-k)(-sqrt(1+r^2)) x S^k(r) inside H^(n+1), k = 1 or n-1."""

    n: int
    k: int
    r: float

    family = "hyperbolic-cylinder"

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameters("n must be >= 2")
        if self.k not in (1, self.n - 1):
            raise InvalidParameters("k must be 1 or n-1")
        if self.r <= 0:
            raise InvalidParameters("r must be positive")

    @property
    def space(self) -> AmbientSpace:
        return AmbientSpace(-1, self.n)

    @property
    def mean_curvature_exceeds_one(self) -> bool:
        """H^2 > 1; automatic for k = n-1, and for k = 1 exactly when
        r < 1/sqrt(n(n-2))."""
        h = hyperbolic_cylinder_mean_curvature(self.n, self.k, self.r)
        return h * h > 1.0

    def params_text(self) -> str:
        return f"n={self.n},k={self.k},r={_fmt(self.r)}"


@dataclass(frozen=True)
class Unduloid:
    """Rotational Delaunay surface in R^3 with constant mean curvature H."""

    H: float
    B: float

    family = "unduloid"

    def __post_init__(self):
        if self.H == 0:
            raise InvalidParameters("H must be nonzero")
        if not 0 < self.B < 1:
            raise InvalidParameters("B must lie in (0,1)")

    @property
    def space(self) -> AmbientSpace:
        return AmbientSpace(0, 2)

    def params_text(self) -> str:
        return f"H={_fmt(self.H)},B={_fmt(self.B)}"


@dataclass(frozen=True)
class UmbilicalSphere:
    """Totally umbilical distance sphere; r is the slice radius
    (Euclidean radius for c=0, sin/sinh of the geodesic radius for c=+1/-1).
    """

    n: int
    c: int
    r: float

    family = "umbilical-sphere"

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameters("n must be >= 2")
        if self.c not in (-1, 0, 1):
            raise InvalidParameters("c must be -1, 0 or 1")
        if self.r <= 0:
            raise InvalidParameters("r must be positive")
        if self.c == 1 and self.r > 1:
            raise InvalidParameters("r must lie in (0,1] when c=1")

    @property
    def space(self) -> AmbientSpace:
        return AmbientSpace(self.c, self.n)

    def params_text(self) -> str:
        return f"n={self.n},c={self.c},r={_fmt(self.r)}"


ModelSpec = Union[EuclideanProduct, SphereProduct, CliffordTorus,
                  HyperbolicCylinder, Unduloid, UmbilicalSphere]


def _fmt(x: float) -> str:
    return repr(float(x))


def model_to_text(model: ModelSpec) -> str:
    return f"{model.family}:{model.params_text()}"


# --------------------------------------------------------------------------
# chart builders
# --------------------------------------------------------------------------

def _variables(u: np.ndarray) -> list[Jet2]:
    n = u.shape[0]
    return [Jet2.variable(u[i], i, n) for i in range(n)]


def _sphere_jets(angles: list[Jet2], radius: float) -> list[Jet2]:
    """Nested spherical-angle embedding of S^m(radius) into R^(m+1)."""
    comps: list[Jet2] = []
    prefix: Jet2 | None = None
    for th in angles:
        c, s = th.cos(), th.sin()
        comps.append(c if prefix is None else prefix * c)
        prefix = s if prefix is None else prefix * s
    comps.append(prefix)
    return [radius * c for c in comps]


def _sphere_domain(m: int) -> list[Interval]:
    polar = [Interval(_POLAR_MARGIN, math.pi - _POLAR_MARGIN) for _ in range(m - 1)]
    return polar + [Interval(0.0, 2.0 * math.pi, periodic=True)]


def build_chart(model: ModelSpec) -> ImmersionChart:
    """Immersion chart of a catalog model, with angle coordinates on sphere
    factors and hyperbolic-angle coordinates on hyperbolic factors."""
    if isinstance(model, EuclideanProduct):
        return _euclidean_product_chart(model)
    if isinstance(model, SphereProduct):
        return _sphere_product_chart(model)
    if isinstance(model, CliffordTorus):
        return _clifford_chart(model)
    if isinstance(model, HyperbolicCylinder):
        return _hyperbolic_cylinder_chart(model)
    if isinstance(model, Unduloid):
        return _unduloid_chart(model)
    if isinstance(model, UmbilicalSphere):
        return _umbilical_sphere_chart(model)
    raise InvalidParameters(f"unknown model type {type(model).__name__}")


def _euclidean_product_chart(m: EuclideanProduct) -> ImmersionChart:
    n, k, r = m.n, m.k, m.r

    def ev(u: np.ndarray) -> list[Jet2]:
        jets = _variables(u)
        return jets[: n - k] + _sphere_jets(jets[n - k:], r)

    domain = [Interval(-2.0, 2.0) for _ in range(n - k)] + _sphere_domain(k)
    return ImmersionChart(m.space, tuple(domain), ev, name=model_to_text(m))


def _sphere_product_chart(m: SphereProduct) -> ImmersionChart:
    n, r = m.n, m.r
    rho = math.sqrt(1.0 - r * r)

    def ev(u: np.ndarray) -> list[Jet2]:
        jets = _variables(u)
        phi = jets[0]
        return [rho * phi.cos(), rho * phi.sin()] + _sphere_jets(jets[1:], r)

    domain = [Interval(0.0, 2.0 * math.pi, periodic=True)] + _sphere_domain(n - 1)
    return ImmersionChart(m.space, tuple(domain), ev, name=model_to_text(m))


def _clifford_chart(m: CliffordTorus) -> ImmersionChart:
    n, k = m.n, m.k
    a = math.sqrt(k / n)
    b = math.sqrt((n - k) / n)

    def ev(u: np.ndarray) -> list[Jet2]:
        jets = _variables(u)
        return _sphere_jets(jets[:k], a) + _sphere_jets(jets[k:], b)

    domain = _sphere_domain(k) + _sphere_domain(n - k)
    return ImmersionChart(m.space, tuple(domain), ev, name=model_to_text(m))


def _hyperbolic_cylinder_chart(m: HyperbolicCylinder) -> ImmersionChart:
    n, k, r = m.n, m.k, m.r
    rho = math.sqrt(1.0 + r * r)
    mh = n - k  # hyperbolic factor dimension

    def ev(u: np.ndarray) -> list[Jet2]:
        jets = _variables(u)
        chi = jets[0]
        if mh == 1:
            hyp = [rho * chi.cosh(), rho * chi.sinh()]
        else:
            sh = chi.sinh()
            unit = _sphere_jets(jets[1:mh], 1.0)
            hyp = [rho * chi.cosh()] + [rho * (sh * w) for w in unit]
        return hyp + _sphere_jets(jets[mh:], r)

    if mh == 1:
        domain_h = [Interval(-1.5, 1.5)]
    else:
        domain_h = [Interval(0.25, 1.75)] + _sphere_domain(mh - 1)
    domain = domain_h + _sphere_domain(k)
    return ImmersionChart(m.space, tuple(domain), ev, name=model_to_text(m))


def _umbilical_sphere_chart(m: UmbilicalSphere) -> ImmersionChart:
    n, c, r = m.n, m.c, m.r

    def ev(u: np.ndarray) -> list[Jet2]:
        jets = _variables(u)
        sphere = _sphere_jets(jets, r)
        if c == 0:
            return sphere
        x0 = math.sqrt(1.0 - r * r) if c == 1 else math.sqrt(1.0 + r * r)
        return [Jet2.constant(x0, n)] + sphere

    return ImmersionChart(m.space, tuple(_sphere_domain(n)), ev,
                          name=model_to_text(m))


def _unduloid_chart(m: Unduloid) -> ImmersionChart:
    h, b = m.H, m.B
    abs_h = abs(h)
    knot_tables: dict[int, list[float]] = {}  # filled on first evaluation

    def x_parts(s: float) -> tuple[float, float, float]:
        return (_unduloid_x(h, b, s, _DEFAULT_X_TOL, knot_tables),
                _unduloid_x_prime(h, b, s), _unduloid_x_second(h, b, s))

    def ev(u: np.ndarray) -> list[Jet2]:
        s, theta = u[0], u[1]
        if u.ndim == 1:
            x, xp, xpp = x_parts(float(s))
            zero = 0.0
        else:  # one knot-table integral per point
            x, xp, xpp = np.array([x_parts(t) for t in s.tolist()]).T
            zero = np.zeros_like(x)
        xj = Jet2(x, np.array([xp, zero]), np.array([[xpp, zero], [zero, zero]]))
        sj = Jet2.variable(s, 0, 2)
        tj = Jet2.variable(theta, 1, 2)
        q = 1.0 + b * b + 2.0 * b * (2.0 * h * sj).sin()
        yj = q.sqrt() / (2.0 * abs_h)
        return [xj, yj * tj.cos(), yj * tj.sin()]

    domain = (Interval(0.0, math.pi / abs_h, periodic=True),
              Interval(0.0, 2.0 * math.pi, periodic=True))
    return ImmersionChart(m.space, domain, ev, name=model_to_text(m))


# --------------------------------------------------------------------------
# unduloid closed forms
# --------------------------------------------------------------------------

def _unduloid_q(h: float, b: float, s: float) -> float:
    return 1.0 + b * b + 2.0 * b * math.sin(2.0 * h * s)


def _unduloid_x_prime(h: float, b: float, s: float) -> float:
    return (1.0 + b * math.sin(2.0 * h * s)) / math.sqrt(_unduloid_q(h, b, s))


def _unduloid_x_second(h: float, b: float, s: float) -> float:
    q = _unduloid_q(h, b, s)
    sn, cs = math.sin(2.0 * h * s), math.cos(2.0 * h * s)
    return 2.0 * h * b * cs * (b + sn) * b / q**1.5


def _unduloid_x(h: float, b: float, s: float, tol: float,
                tables: dict[int, list[float]]) -> float:
    """x(s) to ``tol`` from one period's knot table and one short integral.

    With T = pi/|H| and k = floor(s/T), x(s) = k x(T) + x(t_j) + the
    integral of x' from t_j to r = s - kT, where t_j is the knot nearest r.
    Half of ``tol`` goes to that integral, over at most T/(2 _KNOTS); the
    other half to the |k| + 1 table values the sum uses.  ``tables`` maps a
    reach R (a power of two >= |k|) to x at the knots to tol / (2(R + 1))
    and is filled on first use.
    """
    if not math.isfinite(s):
        raise InvalidParameters("s must be finite")
    period = math.pi / abs(h)
    step = period / _KNOTS  # exact (_KNOTS is a power of two): the last knot is T
    k = math.floor(s / period)
    reach = 1 << (max(abs(k), 1) - 1).bit_length()
    f = lambda t: _unduloid_x_prime(h, b, t)
    knot_x = tables.get(reach)
    if knot_x is None:  # plain floats: numpy's sort would add ~0.5 MB of code pages
        gap_tol = tol / (2.0 * (reach + 1) * _KNOTS)
        knot_x = tables[reach] = list(itertools.accumulate(
            (adaptive_quadrature(f, i * step, (i + 1) * step, gap_tol) for i in range(_KNOTS)),
            initial=0.0))
    r = s - k * period
    j = min(max(round(r / step), 0), _KNOTS)
    a = j * step
    if r >= a:
        gap = adaptive_quadrature(f, a, r, 0.5 * tol)
    else:
        gap = -adaptive_quadrature(f, r, a, 0.5 * tol)
    return k * knot_x[-1] + knot_x[j] + gap


def _unduloid_x_table(h: float, b: float, s: np.ndarray, tol: float) -> np.ndarray:
    """x at every abscissa of ``s`` from one sweep: the distinct abscissae
    and 0, sorted, every gap longer than the knot spacing T/_KNOTS split at
    the knots inside it, each gap integrated at tolerance tol * gap / span.
    The shares add up to ``tol``, so every x(s) keeps the scalar bound."""
    if not np.all(np.isfinite(s)):
        raise InvalidParameters("s must be finite")
    points = np.append(s, 0.0)
    knots, where = np.unique(points, return_inverse=True)
    step = math.pi / abs(h) / _KNOTS
    long = np.flatnonzero(np.diff(knots) > step).tolist()
    if long:  # a long gap would let Simpson's first samples alias the period
        points = np.append(points, [j * step for i in long for j in range(
            math.floor(knots[i] / step) + 1, math.ceil(knots[i + 1] / step))])
        knots, where = np.unique(points, return_inverse=True)
    lo, hi = knots[:-1].tolist(), knots[1:].tolist()  # Python floats: faster Simpson loop
    span = float(knots[-1] - knots[0])
    f = lambda t: _unduloid_x_prime(h, b, t)
    gaps = [adaptive_quadrature(f, a, c, tol * (c - a) / span) for a, c in zip(lo, hi)]
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    x -= x[where[s.size]]  # re-zero at s = 0
    return x[where[:s.size]].reshape(s.shape)


@dataclass(frozen=True)
class UnduloidProfile:
    """Profile data at one arclength, or arrays of it over an array of them."""

    x: float
    x_prime: float
    y: float
    y_prime: float
    y_second: float


def unduloid_profile(H: float, B: float, s,
                     tol: float = _DEFAULT_X_TOL) -> UnduloidProfile:
    """Profile curve data at arclength s: the axial coordinate by adaptive
    quadrature to ``tol``, the radius and its derivatives in closed form.

    ``s`` is a number or an array; the closed forms are evaluated by numpy
    for either.  For a number the axial coordinate comes from one period's
    knot table and one short integral, as on the chart.  For an array every
    field is an array of the same shape, and the axial coordinate of all
    abscissae comes from one quadrature sweep over the sorted abscissae,
    split at the knots where they lie further apart.
    """
    if H == 0:
        raise InvalidParameters("H must be nonzero")
    if not 0 < B < 1:
        raise InvalidParameters("B must lie in (0,1)")
    if tol <= 0:
        raise InvalidParameters("tol must be positive")
    s_arr = np.asarray(s, dtype=float)
    if s_arr.ndim:  # first: both reject a non-finite s
        x = _unduloid_x_table(H, B, s_arr, tol)
    else:
        x = _unduloid_x(H, B, float(s_arr), tol, {})
    sn, cs = np.sin(2.0 * H * s_arr), np.cos(2.0 * H * s_arr)
    q = 1.0 + B * B + 2.0 * B * sn
    root_q = np.sqrt(q)
    abs_h = abs(H)
    return UnduloidProfile(
        x=x,
        x_prime=(1.0 + B * sn) / root_q,
        y=root_q / (2.0 * abs_h),
        y_prime=(H / abs_h) * B * cs / root_q,
        y_second=-2.0 * abs_h * B * (sn * q + B * cs * cs) / q**1.5,
    )


def unduloid_gauss_curvature(H: float, B: float, s: float) -> float:
    """Gauss curvature K(s) = -y''/y of the unduloid profile."""
    if H == 0 or not 0 < B < 1:
        raise InvalidParameters("need H != 0 and B in (0,1)")
    sn = math.sin(2.0 * H * s)
    q = _unduloid_q(H, B, s)
    return 4.0 * H * H * B * (B + sn) * (1.0 + B * sn) / (q * q)


def unduloid_inf_gauss(H: float, B: float) -> float:
    """Infimum of the Gauss curvature over the period: -4 H^2 B / (1-B)^2,
    attained where sin(2Hs) = -1."""
    if H == 0 or not 0 < B < 1:
        raise InvalidParameters("need H != 0 and B in (0,1)")
    return -4.0 * H * H * B / (1.0 - B) ** 2


def unduloid_sup_phi(H: float, B: float) -> float:
    """Supremum of |Phi| over the surface: sqrt(2)|H|(1+B)/(1-B)."""
    if H == 0 or not 0 < B < 1:
        raise InvalidParameters("need H != 0 and B in (0,1)")
    return math.sqrt(2.0) * abs(H) * (1.0 + B) / (1.0 - B)


def unduloid_principal_curvatures(H: float, B: float, s: float) -> tuple[float, float]:
    """(meridian, parallel) principal curvatures at arclength s, oriented so
    their mean is |H|.  Needs no axial integral, only profile derivatives."""
    if H == 0 or not 0 < B < 1:
        raise InvalidParameters("need H != 0 and B in (0,1)")
    q = _unduloid_q(H, B, s)
    sn, cs = math.sin(2.0 * H * s), math.cos(2.0 * H * s)
    abs_h = abs(H)
    x_p = _unduloid_x_prime(H, B, s)
    y = math.sqrt(q) / (2.0 * abs_h)
    y_p = (H / abs_h) * B * cs / math.sqrt(q)
    y_pp = -2.0 * abs_h * B * (sn * q + B * cs * cs) / q**1.5
    k_par = x_p / y
    k_mer = _unduloid_x_second(H, B, s) * y_p - x_p * y_pp
    return k_mer, k_par


def solve_B_for_inf_gauss(H: float, eps: float) -> float:
    """The B in (0,1) with inf K = -eps: root of eps B^2 - (2 eps + 4 H^2) B
    + eps = 0 on the unit interval."""
    if H == 0:
        raise InvalidParameters("H must be nonzero")
    if eps <= 0:
        raise InvalidParameters("eps must be positive")
    h2 = H * H
    b = (eps + 2.0 * h2 - 2.0 * math.sqrt(h2 * h2 + eps * h2)) / eps
    return b


# --------------------------------------------------------------------------
# closed-form invariants
# --------------------------------------------------------------------------

def sphere_product_mean_curvature(n: int, r: float) -> float:
    """Signed H(r) of S^1(sqrt(1-r^2)) x S^(n-1)(r); negative for
    r^2 < (n-1)/n."""
    return (n * r * r - (n - 1)) / (n * r * math.sqrt(1.0 - r * r))


def hyperbolic_cylinder_mean_curvature(n: int, k: int, r: float) -> float:
    """H(r) of H^(n-k)(-sqrt(1+r^2)) x S^k(r); always positive."""
    return (n * r * r + k) / (n * r * math.sqrt(1.0 + r * r))


@dataclass(frozen=True)
class ClosedFormInvariants:
    """Exact invariants of a catalog model.

    ``kappas`` is the signed principal-curvature multiset (ascending) for
    the constant-curvature families and None for the unduloid, whose
    curvatures vary along the profile; ``phi_norm`` is sup |Phi| there.
    ``alpha_H`` and ``branch_prediction`` are None when H^2 + c <= 0.
    """

    kappas: np.ndarray | None
    H_signed: float
    abs_H: float
    phi_norm: float
    alpha_H: float | None
    branch_prediction: str | None


def _alpha_or_none(n: int, c: int, abs_h: float) -> float | None:
    from .bounds import BoundContext, gap_threshold
    from .errors import NonElliptic
    try:
        return gap_threshold(BoundContext(n=n, c=c, H=abs_h))
    except NonElliptic:
        return None


def closed_form_invariants(model: ModelSpec) -> ClosedFormInvariants:
    """Exact (H, |Phi|, kappa) data and the predicted classification branch."""
    if isinstance(model, EuclideanProduct):
        n, k, r = model.n, model.k, model.r
        kappas = np.sort(np.r_[np.zeros(n - k), np.full(k, 1.0 / r)])
        h = k / (n * r)
        phi = math.sqrt(k * (n - k)) / (math.sqrt(n) * r)
        return ClosedFormInvariants(
            kappas=kappas, H_signed=h, abs_H=h, phi_norm=phi,
            alpha_H=_alpha_or_none(n, 0, h),
            branch_prediction="equality" if k == n - 1 else "strict")

    if isinstance(model, SphereProduct):
        n, r = model.n, model.r
        rho = math.sqrt(1.0 - r * r)
        kappas = np.sort(np.r_[np.full(n - 1, -rho / r), [r / rho]])
        h = sphere_product_mean_curvature(n, r)
        phi = math.sqrt(n - 1) / (r * math.sqrt(n) * rho)
        branch = "equality" if r * r <= (n - 1) / n else "strict"
        return ClosedFormInvariants(
            kappas=kappas, H_signed=h, abs_H=abs(h), phi_norm=phi,
            alpha_H=_alpha_or_none(n, 1, abs(h)), branch_prediction=branch)

    if isinstance(model, CliffordTorus):
        n, k = model.n, model.k
        kappas = np.sort(np.r_[np.full(n - k, -math.sqrt(k / (n - k))),
                               np.full(k, math.sqrt((n - k) / k))])
        return ClosedFormInvariants(
            kappas=kappas, H_signed=0.0, abs_H=0.0, phi_norm=math.sqrt(n),
            alpha_H=_alpha_or_none(n, 1, 0.0), branch_prediction="equality")

    if isinstance(model, HyperbolicCylinder):
        n, k, r = model.n, model.k, model.r
        rho = math.sqrt(1.0 + r * r)
        kappas = np.sort(np.r_[np.full(n - k, r / rho), np.full(k, rho / r)])
        h = hyperbolic_cylinder_mean_curvature(n, k, r)
        phi = math.sqrt((n - k) * (r / rho) ** 2 + k * (rho / r) ** 2 - n * h * h)
        alpha = _alpha_or_none(n, -1, h)
        branch = None if alpha is None else ("equality" if k == n - 1 else "strict")
        return ClosedFormInvariants(
            kappas=kappas, H_signed=h, abs_H=h, phi_norm=phi,
            alpha_H=alpha, branch_prediction=branch)

    if isinstance(model, Unduloid):
        abs_h = abs(model.H)
        return ClosedFormInvariants(
            kappas=None, H_signed=abs_h, abs_H=abs_h,
            phi_norm=unduloid_sup_phi(model.H, model.B),
            alpha_H=_alpha_or_none(2, 0, abs_h), branch_prediction="strict")

    if isinstance(model, UmbilicalSphere):
        n, c, r = model.n, model.c, model.r
        if c == 0:
            kappa = 1.0 / r
        elif c == 1:
            kappa = math.sqrt(1.0 - r * r) / r
        else:
            kappa = math.sqrt(1.0 + r * r) / r
        return ClosedFormInvariants(
            kappas=np.full(n, kappa), H_signed=kappa, abs_H=kappa, phi_norm=0.0,
            alpha_H=_alpha_or_none(n, c, kappa), branch_prediction="umbilical")

    raise InvalidParameters(f"unknown model type {type(model).__name__}")


def r_from_H(c: int, n: int, abs_H: float, sign_choice: str = "minus",
             k: int | None = None) -> float:
    """Invert the closed-form H(r) of the product families.

    For c=1 the quadratic has two admissible roots; ``sign_choice`` picks
    "minus" (r^2 <= (n-1)/n) or "plus".  For c=-1 the branch is determined
    by the sphere-factor dimension ``k`` in {1, n-1} and needs H^2 > 1.
    """
    if abs_H < 0:
        raise OutOfRange("abs_H must be nonnegative")
    h2 = abs_H * abs_H
    if c == 1:
        disc = n * n * h2 + 4.0 * (n - 1)
        if sign_choice == "minus":
            num = 2.0 * (n - 1) + n * h2 - abs_H * math.sqrt(disc)
        elif sign_choice == "plus":
            num = 2.0 * (n - 1) + n * h2 + abs_H * math.sqrt(disc)
        else:
            raise ValueError("sign_choice must be 'minus' or 'plus'")
        r2 = num / (2.0 * n * (1.0 + h2))
    elif c == -1:
        if h2 <= 1.0:
            raise OutOfRange("c=-1 inversion needs H^2 > 1")
        if k not in (1, n - 1):
            raise ValueError("k must be 1 or n-1 for c=-1")
        disc = n * n * h2 - 4.0 * (n - 1)
        lead = 2.0 * (n - 1) if k == n - 1 else 2.0
        r2 = (lead - n * h2 + abs_H * math.sqrt(disc)) / (2.0 * n * (h2 - 1.0))
    else:
        raise ValueError("r_from_H applies to c = +1 or c = -1 families")
    if r2 <= 0.0:
        raise OutOfRange(f"no positive radius for |H| = {abs_H}")
    return math.sqrt(r2)


# --------------------------------------------------------------------------
# canonical textual form
# --------------------------------------------------------------------------

_FIELDS = {
    "euclidean-product": (EuclideanProduct, {"n": int, "k": int, "r": float}),
    "sphere-product": (SphereProduct, {"n": int, "r": float}),
    "clifford": (CliffordTorus, {"n": int, "k": int}),
    "hyperbolic-cylinder": (HyperbolicCylinder, {"n": int, "k": int, "r": float}),
    "unduloid": (Unduloid, {"H": float, "B": float}),
    "umbilical-sphere": (UmbilicalSphere, {"n": int, "c": int, "r": float}),
}


def parse_model(text: str) -> ModelSpec:
    """Parse the canonical form ``family:key=value,...``.

    Raises ParseError (naming the offending token) on grammar problems and
    InvalidParameters on out-of-range values.
    """
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError(f"expected 'family:params', got {text!r}")
    head = head.strip()
    if head not in _FIELDS:
        raise ParseError(f"unknown family {head!r}")
    cls, fields = _FIELDS[head]
    kwargs = {}
    for item in tail.split(","):
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ParseError(f"expected 'key=value', got {item!r}")
        if key not in fields:
            raise ParseError(f"unknown parameter {key!r} for family {head!r}")
        if key in kwargs:
            raise ParseError(f"duplicate parameter {key!r}")
        caster = fields[key]
        try:
            kwargs[key] = caster(val.strip()) if caster is int else caster(val)
        except ValueError:
            raise ParseError(f"could not parse value {val.strip()!r} for {key!r}") from None
    missing = set(fields) - set(kwargs)
    if missing:
        raise ParseError(f"missing parameter(s) {sorted(missing)} for family {head!r}")
    return cls(**kwargs)


def default_model_grid() -> list[ModelSpec]:
    """Parameter grid covering all six families (five members each)."""
    models: list[ModelSpec] = []
    models += [EuclideanProduct(3, 1, 1.0), EuclideanProduct(3, 2, 0.5),
               EuclideanProduct(3, 2, 1.0), EuclideanProduct(4, 2, 1.0),
               EuclideanProduct(4, 3, 2.0)]
    models += [SphereProduct(3, 0.40), SphereProduct(3, 0.55),
               SphereProduct(3, math.sqrt(2.0 / 3.0)), SphereProduct(3, 0.90),
               SphereProduct(3, 0.95)]
    models += [CliffordTorus(3, 1), CliffordTorus(3, 2), CliffordTorus(4, 1),
               CliffordTorus(4, 2), CliffordTorus(5, 2)]
    models += [HyperbolicCylinder(3, 2, 0.7), HyperbolicCylinder(3, 2, 1.0),
               HyperbolicCylinder(4, 3, 1.0), HyperbolicCylinder(3, 1, 0.40),
               HyperbolicCylinder(3, 1, 0.50)]
    models += [UmbilicalSphere(3, 0, 2.0), UmbilicalSphere(3, 1, 0.6),
               UmbilicalSphere(3, -1, 1.2), UmbilicalSphere(2, 0, 1.0),
               UmbilicalSphere(4, 0, 1.0)]
    models += [Unduloid(1.0, 0.25), Unduloid(1.0, 0.5), Unduloid(1.0, 0.75),
               Unduloid(2.0, 0.5), Unduloid(0.5, 0.5)]
    return models
