"""Sharp algebraic bounds for constant-mean-curvature hypersurfaces.

Contents: the trace-free cubic-sum inequality with its equality
characterization, the gap polynomial whose unique positive root separates
umbilical from non-umbilical models, the matching upper bound for the
infimum of the scalar curvature, the algebraic identity tying the two
together, and the classifier that assigns every catalog model its branch
of the umbilical / equality / strict trichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ClosedFormInvariants, ModelSpec, closed_form_invariants
from .errors import NonElliptic, NotTraceFree

__all__ = [
    "BoundContext",
    "OkumuraReport",
    "ClassificationVerdict",
    "okumura_check",
    "gap_polynomial",
    "gap_threshold",
    "scalar_curvature_bound",
    "bound_identity_check",
    "classify",
]


@dataclass(frozen=True)
class BoundContext:
    """Dimension, ambient curvature and mean curvature entering the bounds."""

    n: int
    c: int
    H: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.c not in (-1, 0, 1):
            raise ValueError("c must be -1, 0 or 1")

    @property
    def elliptic(self) -> bool:
        return self.H * self.H + self.c > 0


def _require_elliptic(ctx: BoundContext) -> None:
    if not ctx.elliptic:
        raise NonElliptic(f"H^2 + c = {ctx.H**2 + ctx.c:.3e} is not positive")


# --------------------------------------------------------------------------
# trace-free cubic-sum inequality
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OkumuraReport:
    values: tuple[float, ...]
    sum_cubes: float
    upper_bound: float
    lower_bound: float
    equality_side: str  # none | upper | lower | both


def okumura_check(values, tol: float = 1e-9) -> OkumuraReport:
    """Evaluate the sharp cubic-sum bound for a trace-free tuple.

    For numbers a_1..a_n with zero sum, |sum a_i^3| is at most
    (n-2)/sqrt(n(n-1)) times (sum a_i^2)^(3/2).  Equality on the upper
    (lower) side holds exactly when n-1 of the entries are nonpositive
    (nonnegative) and mutually equal, which is what ``equality_side``
    detects, to within ``tol``.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("need a flat tuple of length >= 2")
    n = a.size
    scale = max(1.0, float(np.abs(a).sum()))
    if abs(float(a.sum())) > tol * scale:
        raise NotTraceFree(f"sum {a.sum():.3e} exceeds {tol * scale:.3e}")

    s2 = float(np.dot(a, a))
    s3 = float(np.dot(a * a, a))
    upper = (n - 2) / math.sqrt(n * (n - 1)) * s2**1.5

    srt = np.sort(a)
    upper_eq = srt[n - 2] <= tol and srt[n - 2] - srt[0] <= tol
    lower_eq = srt[1] >= -tol and srt[n - 1] - srt[1] <= tol
    if upper_eq and lower_eq:
        side = "both"
    elif upper_eq:
        side = "upper"
    elif lower_eq:
        side = "lower"
    else:
        side = "none"
    return OkumuraReport(tuple(float(v) for v in a), s3, upper, -upper, side)


# --------------------------------------------------------------------------
# gap polynomial, its positive root, and the scalar-curvature bound
# --------------------------------------------------------------------------

def gap_polynomial(ctx: BoundContext, x: float) -> float:
    """x^2 + n(n-2)/sqrt(n(n-1)) |H| x - n(c + H^2)."""
    n = ctx.n
    return (x * x
            + n * (n - 2) / math.sqrt(n * (n - 1)) * abs(ctx.H) * x
            - n * (ctx.c + ctx.H**2))


def gap_threshold(ctx: BoundContext) -> float:
    """Unique positive root of the gap polynomial, defined for H^2 + c > 0.

    Evaluated as sqrt(n) * (sqrt(n^2 H^2 + 4(n-1)c) - (n-2)|H|) / (2 sqrt(n-1)),
    grouped so that the minimal case H = 0, c = 1 returns sqrt(n) exactly.
    """
    _require_elliptic(ctx)
    n, c = ctx.n, ctx.c
    abs_h = abs(ctx.H)
    disc = n * n * abs_h * abs_h + 4.0 * (n - 1) * c
    root = math.sqrt(disc)
    return math.sqrt(n) * ((root - (n - 2) * abs_h) / (2.0 * math.sqrt(n - 1)))


def scalar_curvature_bound(ctx: BoundContext) -> float:
    """Upper bound for the infimum of the scalar curvature of a
    non-umbilical model:
    n(n-2)/(2(n-1)) * (2(n-1)c + n H^2 + |H| sqrt(n^2 H^2 + 4(n-1)c)).
    Vanishes identically for n = 2."""
    _require_elliptic(ctx)
    n, c = ctx.n, ctx.c
    abs_h = abs(ctx.H)
    disc = n * n * abs_h * abs_h + 4.0 * (n - 1) * c
    return (n * (n - 2) / (2.0 * (n - 1))
            * (2.0 * (n - 1) * c + n * abs_h * abs_h + abs_h * math.sqrt(disc)))


def bound_identity_check(ctx: BoundContext) -> float:
    """Residual of n(n-1)(c+H^2) - threshold^2 - scalar bound, which is an
    algebraic identity; magnitudes above 1e-10 of the natural scale would
    flag an implementation bug."""
    _require_elliptic(ctx)
    n, c, h = ctx.n, ctx.c, ctx.H
    alpha = gap_threshold(ctx)
    return n * (n - 1) * (c + h * h) - alpha * alpha - scalar_curvature_bound(ctx)


# --------------------------------------------------------------------------
# trichotomy classifier
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationVerdict:
    """Branch of the trichotomy realized by a catalog model.

    ``inf_gauss`` and ``gauss_bound_ok`` are populated for surfaces (n = 2)
    only: the infimum of the Gauss curvature, and whether it obeys the
    two-dimensional dichotomy (equal to H^2 + c for umbilical surfaces,
    otherwise nonpositive).
    """

    branch: str  # umbilical | equality | strict
    sup_phi: float
    gap_threshold: float
    inf_scalar: float
    scalar_bound: float
    inf_gauss: float | None = None
    gauss_bound_ok: bool | None = None


_TOL_CLASS = 1e-7  # sup |Phi| this close to 0 is umbilical, this close to alpha_H equality


def classify(model: ModelSpec,
             inv: ClosedFormInvariants | None = None) -> ClassificationVerdict:
    """Decide which branch of the trichotomy a catalog model realizes.

    sup |Phi| is the closed-form ``phi_norm`` of every family: the constant
    |Phi|, or for the unduloid its value where the Gauss curvature is least.
    The supremum is always attained, since |Phi| is either constant or
    periodic with a compact fundamental domain.  ``inv`` is
    ``closed_form_invariants(model)``, computed here when not given.
    """
    if inv is None:
        inv = closed_form_invariants(model)
    space = model.space
    n, c = space.n, space.c
    ctx = BoundContext(n=n, c=c, H=inv.abs_H)
    _require_elliptic(ctx)
    alpha = gap_threshold(ctx)
    bound = scalar_curvature_bound(ctx)

    sup_phi = inv.phi_norm

    if sup_phi <= _TOL_CLASS:
        branch = "umbilical"
    elif abs(sup_phi - alpha) <= _TOL_CLASS:
        branch = "equality"
    else:
        branch = "strict"

    inf_scalar = n * (n - 1) * (c + inv.abs_H**2) - sup_phi**2

    inf_gauss = None
    gauss_ok = None
    if n == 2:
        inf_gauss = inv.inf_gauss if inv.inf_gauss is not None else 0.5 * inf_scalar
        if branch == "umbilical":
            gauss_ok = abs(inf_gauss - (inv.abs_H**2 + c)) <= 1e-9
        else:
            gauss_ok = inf_gauss <= 1e-9

    return ClassificationVerdict(
        branch=branch,
        sup_phi=sup_phi,
        gap_threshold=alpha,
        inf_scalar=inf_scalar,
        scalar_bound=bound,
        inf_gauss=inf_gauss,
        gauss_bound_ok=gauss_ok,
    )
