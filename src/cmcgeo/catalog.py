"""Closed-form model hypersurfaces: product embeddings in the three space
forms, round spheres, and the rotational unduloid family in flat 3-space.

Each family is exposed two ways: as an ImmersionChart for the numerical
pipeline, and as exact invariants (principal curvatures, mean curvature,
traceless norm, branch prediction) that the numerics are tested against.
Closed forms are authoritative; the numeric geometry is the thing under
test.  A family is one class that holds its parameters, space, range
checks, chart and closed forms; ``build_chart``, ``closed_form_invariants``
and ``closed_form_at`` each call one of its methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Union

import numpy as np

from .errors import InvalidParameters, OutOfRange, ParseError
from .geometry import ImmersionChart, Interval
# adaptive_quadrature is not called here; it stays imported because
# perfbench/tracing.py patches it by name here.
from .numeric import Jet2, _each, adaptive_quadrature
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
    "closed_form_at",
    "UnduloidProfile",
    "unduloid_profile",
    "unduloid_phi_norm",
    "unduloid_inf_gauss",
    "unduloid_sup_phi",
    "solve_B_for_inf_gauss",
    "sphere_product_mean_curvature",
    "hyperbolic_cylinder_mean_curvature",
    "r_from_H",
    "parse_model",
    "default_model_grid",
]

_POLAR_MARGIN = 1e-3


# --------------------------------------------------------------------------
# model specs
# --------------------------------------------------------------------------

class _Family:
    """Base of the model classes; each family is one subclass, listed once
    in ``_FAMILIES``.

    A family's parameters are its dataclass fields, each declared ``int`` or
    ``float``: the parser and the canonical text read them from there, in
    declaration order.  ``c`` and ``n`` are class constants unless they are
    fields.  Every ``float`` field must be finite and ``n`` at least 2;
    ``_check`` then validates the family's own ranges.  Last, a radius
    field ``r`` must be positive with 2 (n r)^2 and 2 (n/r)^2 finite: no
    closed form of these families, nor a number that ``bounds.classify``
    computes from them, exceeds the larger of (n r)^2 and (n/r)^2 by more
    than rounding.  ``_chart`` builds its ImmersionChart, ``_invariants``
    its ClosedFormInvariants, and ``_closed_form_at`` the pointwise |Phi|
    and curvatures, by default the invariants' constants."""

    family: ClassVar[str]
    c: int
    n: int

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise InvalidParameters(f"{f.name} must be finite")
        n = self.n
        if n < 2:
            raise InvalidParameters("n must be >= 2")
        self._check()  # each family's range checks
        if hasattr(self, "r"):  # the radius rule; floats overflow to inf, with no warning
            r = self.r
            if r <= 0:
                raise InvalidParameters("r must be positive")
            if not math.isfinite(2.0 * (n / r) * (n / r)):
                raise InvalidParameters("r is too small: 2 (n/r)^2 overflows")
            if not math.isfinite(2.0 * (n * r) * (n * r)):
                raise InvalidParameters("r is too large: 2 (n r)^2 overflows")

    @property
    def space(self) -> AmbientSpace:
        return AmbientSpace(self.c, self.n)

    def params_text(self) -> str:
        return ",".join(
            f"{f.name}={(_fmt if f.type == 'float' else str)(getattr(self, f.name))}"
            for f in fields(self))

    def _closed_form_at(self, inv: ClosedFormInvariants, u) -> tuple[float, np.ndarray]:
        return inv.phi_norm, inv.kappas


@dataclass(frozen=True)
class EuclideanProduct(_Family):
    """R^(n-k) x S^k(r) inside R^(n+1)."""

    n: int
    k: int
    r: float

    family = "euclidean-product"
    c = 0

    def _check(self) -> None:
        if not 1 <= self.k <= self.n - 1:
            raise InvalidParameters("k must lie in [1, n-1]")

    def _chart(self) -> ImmersionChart:
        n, k, r = self.n, self.k, self.r

        def ev(u: np.ndarray) -> list[Jet2]:
            jets = _variables(u)
            return jets[: n - k] + _sphere_jets(jets[n - k:], r)

        domain = [Interval(-2.0, 2.0) for _ in range(n - k)] + _sphere_domain(k)
        return ImmersionChart(self.space, tuple(domain), ev, name=model_to_text(self))

    def _invariants(self) -> ClosedFormInvariants:
        n, k, r = self.n, self.k, self.r
        kappas = np.sort(np.r_[np.zeros(n - k), np.full(k, 1.0 / r)])
        h = k / (n * r)
        phi = math.sqrt(k * (n - k)) / (math.sqrt(n) * r)
        return ClosedFormInvariants(
            kappas=kappas, H_signed=h, abs_H=h, phi_norm=phi,
            branch_prediction="equality" if k == n - 1 else "strict")


@dataclass(frozen=True)
class SphereProduct(_Family):
    """S^1(sqrt(1-r^2)) x S^(n-1)(r) inside S^(n+1)."""

    n: int
    r: float

    family = "sphere-product"
    c = 1

    def _check(self) -> None:
        if not 0 < self.r < 1:
            raise InvalidParameters("r must lie in (0,1)")

    def _chart(self) -> ImmersionChart:
        n, r = self.n, self.r
        rho = math.sqrt(1.0 - r * r)

        def ev(u: np.ndarray) -> list[Jet2]:
            jets = _variables(u)
            phi = jets[0]
            return [rho * phi.cos(), rho * phi.sin()] + _sphere_jets(jets[1:], r)

        domain = [Interval(0.0, 2.0 * math.pi, periodic=True)] + _sphere_domain(n - 1)
        return ImmersionChart(self.space, tuple(domain), ev, name=model_to_text(self))

    def _invariants(self) -> ClosedFormInvariants:
        n, r = self.n, self.r
        rho = math.sqrt(1.0 - r * r)
        kappas = np.sort(np.r_[np.full(n - 1, -rho / r), [r / rho]])
        h = sphere_product_mean_curvature(n, r)
        phi = math.sqrt(n - 1) / (r * math.sqrt(n) * rho)
        branch = "equality" if r * r <= (n - 1) / n else "strict"
        return ClosedFormInvariants(
            kappas=kappas, H_signed=h, abs_H=abs(h), phi_norm=phi, branch_prediction=branch)


@dataclass(frozen=True)
class CliffordTorus(_Family):
    """Minimal S^k(sqrt(k/n)) x S^(n-k)(sqrt((n-k)/n)) inside S^(n+1)."""

    n: int
    k: int

    family = "clifford"
    c = 1

    def _check(self) -> None:
        if not 1 <= self.k <= self.n - 1:
            raise InvalidParameters("k must lie in [1, n-1]")

    def _chart(self) -> ImmersionChart:
        n, k = self.n, self.k
        a = math.sqrt(k / n)
        b = math.sqrt((n - k) / n)

        def ev(u: np.ndarray) -> list[Jet2]:
            jets = _variables(u)
            return _sphere_jets(jets[:k], a) + _sphere_jets(jets[k:], b)

        domain = _sphere_domain(k) + _sphere_domain(n - k)
        return ImmersionChart(self.space, tuple(domain), ev, name=model_to_text(self))

    def _invariants(self) -> ClosedFormInvariants:
        n, k = self.n, self.k
        kappas = np.sort(np.r_[np.full(n - k, -math.sqrt(k / (n - k))),
                               np.full(k, math.sqrt((n - k) / k))])
        return ClosedFormInvariants(
            kappas=kappas, H_signed=0.0, abs_H=0.0, phi_norm=math.sqrt(n),
            branch_prediction="equality")


@dataclass(frozen=True)
class HyperbolicCylinder(_Family):
    """H^(n-k)(-sqrt(1+r^2)) x S^k(r) inside H^(n+1), k = 1 or n-1."""

    n: int
    k: int
    r: float

    family = "hyperbolic-cylinder"
    c = -1

    def _check(self) -> None:
        if self.k not in (1, self.n - 1):
            raise InvalidParameters("k must be 1 or n-1")

    @property
    def mean_curvature_exceeds_one(self) -> bool:
        """H^2 > 1; automatic for k = n-1, and for k = 1 exactly when
        r < 1/sqrt(n(n-2))."""
        h = hyperbolic_cylinder_mean_curvature(self.n, self.k, self.r)
        return h * h > 1.0

    def _chart(self) -> ImmersionChart:
        n, k, r = self.n, self.k, self.r
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
        return ImmersionChart(self.space, tuple(domain), ev, name=model_to_text(self))

    def _invariants(self) -> ClosedFormInvariants:
        n, k, r = self.n, self.k, self.r
        rho = math.sqrt(1.0 + r * r)
        kappas = np.sort(np.r_[np.full(n - k, r / rho), np.full(k, rho / r)])
        h = hyperbolic_cylinder_mean_curvature(n, k, r)
        phi = math.sqrt((n - k) * (r / rho) ** 2 + k * (rho / r) ** 2 - n * h * h)
        branch = (("equality" if k == n - 1 else "strict")
                  if self.mean_curvature_exceeds_one else None)
        return ClosedFormInvariants(
            kappas=kappas, H_signed=h, abs_H=h, phi_norm=phi, branch_prediction=branch)


# From this many points on, the unduloid chart takes x(s), x' and x'' in one
# array pass; below, one point at a time.  Both give the same bits.  The
# pass has a fixed cost of about 30 scalar calls: on a 2-core Xeon (best of
# 200) the two paths cost the same at 28-36 points.
_X_ARRAY_MIN = 32


@dataclass(frozen=True)
class Unduloid(_Family):
    """Rotational Delaunay surface in R^3 with constant mean curvature H."""

    H: float
    B: float

    family = "unduloid"
    c = 0
    n = 2

    def _check(self) -> None:
        if self.H == 0:
            raise InvalidParameters("H must be nonzero")
        if not 0 < self.B < 1:
            raise InvalidParameters("B must lie in (0,1)")
        # The period, 4H^2 and sup |Phi|^2 must be finite.  Then so are inf K
        # (|inf K| is at most half of sup |Phi|^2), sup |Phi| and classify's
        # bound (0 times 2H^2 + |H| sqrt(4H^2), which is 4H^2 exactly).  Python
        # floats overflow to inf here without a warning; ** would raise.
        h, b = self.H, self.B
        if not math.isfinite(math.pi / abs(h)):
            raise InvalidParameters("H is too small: the period pi/|H| overflows")
        if not math.isfinite(4.0 * h * h):
            raise InvalidParameters("H is too large: 4H^2 overflows")
        sup_phi = _sup_phi(h, b)
        if not math.isfinite(sup_phi * sup_phi):
            raise InvalidParameters(
                "H is too large for B: sup |Phi|^2 = 2H^2 (1+B)^2/(1-B)^2 overflows")

    def _chart(self) -> ImmersionChart:
        h, b = self.H, self.B
        abs_h = abs(h)
        x_of = _unduloid_x(h, b)

        def x_parts(s):
            x = x_of(s)  # first: x_of rejects a non-finite s
            xp, xpp, _ = _unduloid_x_derivatives(h, b, s)
            return x, xp, xpp

        def ev(u: np.ndarray) -> list[Jet2]:
            s, theta = u[0], u[1]
            if u.ndim == 1:
                x, xp, xpp = x_parts(float(s))
                zero = 0.0
            else:
                x, xp, xpp = (x_parts(s) if s.size >= _X_ARRAY_MIN
                              else np.array([x_parts(t) for t in s.tolist()]).T)
                zero = np.zeros_like(x)
            xj = Jet2(x, np.array([xp, zero]), np.array([[xpp, zero], [zero, zero]]))
            sj = Jet2.variable(s, 0, 2)
            tj = Jet2.variable(theta, 1, 2)
            q = 1.0 + b * b + 2.0 * b * (2.0 * h * sj).sin()
            yj = q.sqrt() / (2.0 * abs_h)
            return [xj, yj * tj.cos(), yj * tj.sin()]

        domain = (Interval(0.0, math.pi / abs_h, periodic=True),
                  Interval(0.0, 2.0 * math.pi, periodic=True))
        return ImmersionChart(self.space, domain, ev, name=model_to_text(self))

    def _invariants(self) -> ClosedFormInvariants:
        abs_h = abs(self.H)
        return ClosedFormInvariants(
            kappas=None, H_signed=abs_h, abs_H=abs_h,
            phi_norm=unduloid_sup_phi(self.H, self.B), branch_prediction="strict",
            inf_gauss=unduloid_inf_gauss(self.H, self.B))

    def _closed_form_at(self, inv: ClosedFormInvariants, u) -> tuple[float, np.ndarray]:
        s = float(u[0])
        _phase(self.H, s)  # rejects s as x(s) would
        p = _profile_with(self.H, self.B, s, None)
        return unduloid_phi_norm(self.H, p.K), np.sort([p.kappa_mer, p.kappa_par])


@dataclass(frozen=True)
class UmbilicalSphere(_Family):
    """Totally umbilical distance sphere; r is the slice radius
    (Euclidean radius for c=0, sin/sinh of the geodesic radius for c=+1/-1).
    """

    n: int
    c: int
    r: float

    family = "umbilical-sphere"

    def _check(self) -> None:
        if self.c not in (-1, 0, 1):
            raise InvalidParameters("c must be -1, 0 or 1")
        if self.c == 1 and self.r > 1:
            raise InvalidParameters("r must lie in (0,1] when c=1")

    def _chart(self) -> ImmersionChart:
        n, c, r = self.n, self.c, self.r

        def ev(u: np.ndarray) -> list[Jet2]:
            jets = _variables(u)
            sphere = _sphere_jets(jets, r)
            if c == 0:
                return sphere
            x0 = math.sqrt(1.0 - r * r) if c == 1 else math.sqrt(1.0 + r * r)
            return [Jet2.constant(x0, n)] + sphere

        return ImmersionChart(self.space, tuple(_sphere_domain(n)), ev,
                              name=model_to_text(self))

    def _invariants(self) -> ClosedFormInvariants:
        n, c, r = self.n, self.c, self.r
        if c == 0:
            kappa = 1.0 / r
        elif c == 1:
            kappa = math.sqrt(1.0 - r * r) / r
        else:
            kappa = math.sqrt(1.0 + r * r) / r
        return ClosedFormInvariants(
            kappas=np.full(n, kappa), H_signed=kappa, abs_H=kappa, phi_norm=0.0,
            branch_prediction="umbilical")


_FAMILIES = (EuclideanProduct, SphereProduct, CliffordTorus,
             HyperbolicCylinder, Unduloid, UmbilicalSphere)
ModelSpec = Union[_FAMILIES]


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
    return model._chart()


# --------------------------------------------------------------------------
# unduloid closed forms
# --------------------------------------------------------------------------

def _unduloid_x_derivatives(h: float, b: float, s) -> tuple:
    """x'(s) and x''(s), then the terms (sin 2Hs, cos 2Hs, q, sqrt q, q^1.5)
    with q = 1 + B^2 + 2B sin(2Hs), at a number s (a ``float``) or at each
    entry of an array.

    Both take one arithmetic: sin, cos and q ** 1.5 through ``math`` per
    entry, and otherwise + - * / and a correctly rounded sqrt, so each entry
    of an array equals the scalar result bit for bit."""
    number = isinstance(s, float)
    two_hs = 2.0 * h * s
    if number:
        sn, cs = math.sin(two_hs), math.cos(two_hs)
    else:
        sn, cs = _each(math.sin, two_hs), _each(math.cos, two_hs)
    q = 1.0 + b * b + 2.0 * b * sn  # (1-B)^2 + 2B(1 + sn), rounded
    if q == 0.0 if number else (q == 0.0).any():  # only for B within about 1e-8 of 1
        raise InvalidParameters("B is too close to 1: 1 + B^2 + 2B sin(2Hs) rounds to 0")
    if number:
        root_q, q_15 = math.sqrt(q), q ** 1.5
    else:
        root_q, q_15 = np.sqrt(q), _each(lambda v: v ** 1.5, q)
    x_p = (1.0 + b * sn) / root_q
    x_pp = 2.0 * h * b * cs * (b + sn) * b / q_15
    return x_p, x_pp, (sn, cs, q, root_q, q_15)


def _carlson_rf_rd(x, y, z, steps: int, sqrt=math.sqrt) -> tuple:
    """Carlson's R_F(x, y, z) and R_D(x, y, z), for x, y >= 0 and z > 0, from
    ``steps`` shared duplication steps and the fifth-order series of DLMF
    19.36.1-2 (Carlson, Numer. Algorithms 10, 1995).

    The arithmetic serves numbers and arrays alike; pass ``sqrt=np.sqrt`` for
    arrays.  Both square roots are correctly rounded, so an array gives each
    entry's scalar result bit for bit."""
    tail, scale = 0.0, 1.0
    for _ in range(steps):
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        tail += scale / (sz * (z + lam))
        scale *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    a = (x + y + z) / 3.0
    dx, dy = 1.0 - x / a, 1.0 - y / a
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(a)
    a = (x + y + 3.0 * z) / 5.0
    dx, dy = 1.0 - x / a, 1.0 - y / a
    dz = -(dx + dy) / 3.0
    xy, z2 = dx * dy, dz * dz
    e2, e3 = xy - 6.0 * z2, (3.0 * xy - 8.0 * z2) * dz
    e4, e5 = 3.0 * (xy - z2) * z2, xy * z2 * dz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return rf, 3.0 * tail + scale * series / (a * sqrt(a))


def _unduloid_x(h: float, b: float) -> Callable:
    """The axial coordinate s -> x(s), x(0) = 0, in closed form, at a number
    s (a ``float``) or elementwise over a 1-D array of them.

    With m = 4B/(1+B)^2, chi = pi/4 - Hs and D = sqrt(1 - m sin^2 chi),
    x' = ((1+B) D + (1-B)/D) / 2, so x(s) = (G(pi/4) - G(chi)) / (2H) for
    G = (1+B) E(.|m) + (1-B) F(.|m).  G(phi + j pi) = G(phi) + 2j G(pi/2),
    and for |phi| <= pi/2, G(phi) = sin phi (2 R_F - 4B/(3(1+B)) sin^2 phi R_D)
    at (cos^2 phi, D^2, 1) (DLMF 19.25.5, 19.25.7).  D^2 is formed as
    ((1-B)^2 + 4B cos^2 phi) / (1+B)^2, which stays accurate as B -> 1.

    An array takes one pass of the same arithmetic, with sin phi and
    cos(phi) ** 2 per entry through ``math``, so each entry equals the
    scalar result bit for bit.
    """
    m = 4.0 * b / (1.0 + b) ** 2
    m1 = ((1.0 - b) / (1.0 + b)) ** 2  # 1 - m
    w = 4.0 * b / (3.0 * (1.0 + b))
    # 7 duplications reach rounding level while ln(1/m1) <= 16 (B <= 0.999). At the
    # slowest arguments, (0, m1, 1), each step first halves ln(1/y): one more per doubling.
    steps = 7 + math.ceil(math.log2(max(-math.log(m1), 16.0) / 16.0))

    def g(phi):
        if isinstance(phi, float):
            sn, cs2, sqrt = math.sin(phi), math.cos(phi) ** 2, math.sqrt
        else:  # cos(phi) ** 2 per entry as well: c ** 2 and c * c can differ
            sn, cs2 = _each(math.sin, phi), _each(lambda p: math.cos(p) ** 2, phi)
            sqrt = np.sqrt
        rf, rd = _carlson_rf_rd(cs2, m1 + m * cs2, 1.0, steps, sqrt)
        return sn * (2.0 * rf - w * sn * sn * rd)

    g_start, g_half = g(math.pi / 4.0), g(math.pi / 2.0)

    def x(s):
        chi = _phase(h, s)
        # np.round rounds half to even, as round does
        j = round(chi / math.pi) if isinstance(s, float) else np.round(chi / math.pi)
        # + 0.0: x(0) for H < 0 is -0.0 otherwise
        return (g_start - g(chi - j * math.pi) - 2 * j * g_half) / (2.0 * h) + 0.0

    return x


def _phase(h: float, s):
    """chi = pi/4 - Hs at a number s (a ``float``) or over an array.

    Raises InvalidParameters where s is not finite or 2 chi overflows: x(s)
    adds 2j G(pi/2) with j near chi/pi, and the rest of the profile takes
    sin(2Hs)."""
    if isinstance(s, float):
        if not math.isfinite(s):
            raise InvalidParameters("s must be finite")
        chi = math.pi / 4.0 - h * s
        if not math.isfinite(2.0 * chi):
            raise InvalidParameters("H*s overflows")
        return chi
    if not np.isfinite(s).all():
        raise InvalidParameters("s must be finite")
    with np.errstate(over="ignore"):  # rejected on the next line
        chi = math.pi / 4.0 - h * s
        two_chi = 2.0 * chi
    if not np.isfinite(two_chi).all():
        raise InvalidParameters("H*s overflows")
    return chi


@dataclass(frozen=True)
class UnduloidProfile:
    """The unduloid's pointwise closed forms at one arclength, or arrays of
    them over an array of arclengths: the profile curve (x, y) and its first
    two derivatives, the Gauss curvature K = -y''/y, and the meridian and
    parallel principal curvatures, oriented so that their mean is |H|."""

    x: float
    x_prime: float
    x_second: float
    y: float
    y_prime: float
    y_second: float
    K: float
    kappa_mer: float
    kappa_par: float


def unduloid_profile(H: float, B: float, s) -> UnduloidProfile:
    """The profile record at arclength s, all in closed form: x by the
    chart's elliptic-integral x(s), the rest from x', x'' and the terms of
    ``_unduloid_x_derivatives``.

    ``s`` is a number or an array; for an array every field is an array of
    the same shape, each entry equal to the record at that number bit for
    bit.  Raises InvalidParameters where 1 + B^2 + 2B sin(2Hs) rounds to 0.
    """
    Unduloid(H, B)  # rejects H = 0, B outside (0,1) and non-finite values
    s_arr = np.asarray(s, dtype=float)
    x_of = _unduloid_x(H, B)  # first: x_of rejects a non-finite s
    if s_arr.ndim:
        s, x = s_arr, x_of(s_arr.ravel()).reshape(s_arr.shape)
    else:
        s = float(s_arr)
        x = x_of(s)
    return _profile_with(H, B, s, x)


def _profile_with(H: float, B: float, s, x) -> UnduloidProfile:
    """``unduloid_profile`` at a checked s, given its x: every other field
    from x', x'' and the terms of ``_unduloid_x_derivatives``.
    ``closed_form_at`` passes x=None, as it reads no x."""
    x_p, x_pp, (sn, cs, q, root_q, q_15) = _unduloid_x_derivatives(H, B, s)
    abs_h = abs(H)
    y = root_q / (2.0 * abs_h)
    y_p = (H / abs_h) * B * cs / root_q
    y_pp = -2.0 * abs_h * B * (sn * q + B * cs * cs) / q_15
    with np.errstate(over="ignore"):  # rejected below
        k = 4.0 * H * H * B * (B + sn) * (1.0 + B * sn) / (q * q)
    if not np.isfinite(k).all():  # the rounding of q near the neck, for B near 1
        raise InvalidParameters("B is too close to 1: K overflows")
    return UnduloidProfile(
        x=x, x_prime=x_p, x_second=x_pp, y=y, y_prime=y_p, y_second=y_pp, K=k,
        kappa_mer=x_pp * y_p - x_p * y_pp, kappa_par=x_p / y)


def unduloid_phi_norm(H: float, K):
    """|Phi| = sqrt(2 (H^2 - K)) from the unduloid's Gauss curvature K, a
    number or an array (``unduloid_profile(...).K``)."""
    with np.errstate(over="ignore"):  # rejected below
        phi2 = 2.0 * (H * H - K)
    if np.any(phi2 < 0.0):  # only for B within about 1e-8 of 1
        raise InvalidParameters("B is too close to 1: K rounds above H^2")
    if not np.isfinite(phi2).all():  # K near the neck may round below inf K
        raise InvalidParameters("H is too large for B: |Phi|^2 = 2(H^2 - K) overflows")
    return np.sqrt(phi2) if isinstance(phi2, np.ndarray) else math.sqrt(phi2)


def unduloid_inf_gauss(H: float, B: float) -> float:
    """Infimum of the Gauss curvature over the period: -4 H^2 B / (1-B)^2,
    attained where sin(2Hs) = -1."""
    Unduloid(H, B)
    return -4.0 * H * H * B / (1.0 - B) ** 2


def unduloid_sup_phi(H: float, B: float) -> float:
    """Supremum of |Phi| over the surface: sqrt(2)|H|(1+B)/(1-B)."""
    Unduloid(H, B)
    return _sup_phi(H, B)


def _sup_phi(H: float, B: float) -> float:
    """``unduloid_sup_phi`` unchecked, for ``Unduloid._check``."""
    return math.sqrt(2.0) * abs(H) * (1.0 + B) / (1.0 - B)


def solve_B_for_inf_gauss(H: float, eps: float) -> float:
    """The B in (0,1) with inf K = -eps: root of eps B^2 - (2 eps + 4 H^2) B + eps,
    as eps over the other root's numerator (the roots multiply to 1).

    B is returned through ``Unduloid``, which rejects H = 0 or non-finite and
    a B that rounds to 0 or 1 (H^2 overflows, or eps dwarfs H^2)."""
    if not 0 < eps < math.inf:
        raise InvalidParameters("eps must be positive and finite")
    h2 = H * H
    return Unduloid(H, eps / (eps + 2.0 * h2 + 2.0 * abs(H) * math.sqrt(h2 + eps))).B


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
    ``branch_prediction`` is None when H^2 + c <= 0.  ``inf_gauss`` is the
    unduloid's infimum of the Gauss curvature and None for every other
    family.
    """

    kappas: np.ndarray | None
    H_signed: float
    abs_H: float
    phi_norm: float
    branch_prediction: str | None
    inf_gauss: float | None = None


def closed_form_invariants(model: ModelSpec) -> ClosedFormInvariants:
    """Exact (H, |Phi|, kappa) data and the predicted classification branch."""
    return model._invariants()


def closed_form_at(model: ModelSpec, inv: ClosedFormInvariants, u) -> tuple[float, np.ndarray]:
    """Closed-form |Phi| and ascending principal curvatures at chart point
    ``u``, given ``inv = closed_form_invariants(model)``: its constants, or
    for the unduloid the profile values at arclength u[0]."""
    return model._closed_form_at(inv, u)


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

_BY_FAMILY = {cls.family: cls for cls in _FAMILIES}
_CASTS = {"int": int, "float": float}  # keyed by Field.type: annotations are strings here


def parse_model(text: str) -> ModelSpec:
    """Parse the canonical form ``family:key=value,...``.

    Raises ParseError (naming the offending token) on grammar problems and
    InvalidParameters on out-of-range values.
    """
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError(f"expected 'family:params', got {text!r}")
    head = head.strip()
    if head not in _BY_FAMILY:
        raise ParseError(f"unknown family {head!r}")
    cls = _BY_FAMILY[head]
    casts = {f.name: _CASTS[f.type] for f in fields(cls)}
    kwargs = {}
    for item in tail.split(","):
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ParseError(f"expected 'key=value', got {item!r}")
        if key not in casts:
            raise ParseError(f"unknown parameter {key!r} for family {head!r}")
        if key in kwargs:
            raise ParseError(f"duplicate parameter {key!r}")
        caster = casts[key]
        try:
            kwargs[key] = caster(val.strip()) if caster is int else caster(val)
        except ValueError:
            raise ParseError(f"could not parse value {val.strip()!r} for {key!r}") from None
    missing = set(casts) - set(kwargs)
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
