"""Numerical kernel: second-order jets, small symmetric eigenproblems,
adaptive quadrature, and form-orthogonal unit vectors.

Jets propagate value, gradient and Hessian exactly through elementary
operations, so first and second fundamental forms downstream carry no
truncation error beyond machine rounding.  Anything of third differential
order is obtained elsewhere by finite differences of jet-exact quantities.

Eigenproblems go to LAPACK (``np.linalg.eigh``); the form-orthogonal unit
normal is the generalized cross product (cofactor vector) of the
form-weighted rows, whose sign the determinant rule fixes by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonConvergence, RankDeficient

__all__ = ["Jet2", "jacobi_eigh", "adaptive_quadrature", "nullspace_unit"]


# --------------------------------------------------------------------------
# second-order jets
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _basis(nvars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero gradient, zero Hessian and unit vectors (rows of the identity),
    read-only because every constant and variable jet shares them."""
    arrays = (np.zeros(nvars), np.zeros((nvars, nvars)), np.eye(nvars))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _each(f: Callable[[float], float], a):
    """f(a) at a number; over an array, f at each entry through Python
    floats, as at a number: numpy's own sin, cos, sinh, cosh and powers can
    differ from libm's in the last bit."""
    if not isinstance(a, np.ndarray):
        return f(a)
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _reciprocal_coeffs(v: float) -> tuple[float, float, float]:
    if v == 0.0:
        raise DomainError("division by a jet with zero value")
    return 1.0 / v, -1.0 / v**2, 2.0 / v**3


def _sqrt_coeffs(v: float) -> tuple[float, float, float]:
    if v <= 0.0:
        raise DomainError(f"sqrt of a jet with non-positive value {v}")
    r = math.sqrt(v)
    return r, 0.5 / r, -0.25 / (v * r)


def _pow_coeffs(v: float, m: int) -> tuple[float, float, float]:
    if m < 0 and v == 0.0:
        raise DomainError("negative integer power of a jet with zero value")
    f1 = m * v ** (m - 1) if m != 0 else 0.0
    f2 = m * (m - 1) * v ** (m - 2) if m not in (0, 1) else 0.0
    return v**m, f1, f2


@dataclass(frozen=True, slots=True)
class Jet2:
    """Truncated second-order Taylor data of a scalar quantity.

    ``value`` is the quantity itself, ``grad`` its gradient with respect to
    the chart variables and ``hess`` the (exactly symmetric) Hessian.
    Arithmetic combines jets by the exact product/chain rules; the Hessian
    stays bit-symmetric because every update is built from symmetric terms.
    A plain number takes a scalar path equal to the one through ``constant``.

    A jet is scalar (``value`` a float, ``grad`` of shape (n,), ``hess``
    (n, n)) or batched over P points by a trailing point axis (``value``
    (P,), ``grad`` (n, P), ``hess`` (n, n, P)); ``variable`` makes a batched
    jet from an array of values.  One arithmetic serves both, and each point
    of a batched result equals the scalar result at that point bit for bit.
    sqrt, sin, cos, sinh and cosh take a batched jet's values as one array,
    with no Python step per point beyond the libm calls.  Operands of one
    operation are both scalar or both batched, so a constant inside batched
    arithmetic is a plain number; ``constant`` jets have no point axis.
    """

    value: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    @staticmethod
    def constant(value: float, nvars: int) -> "Jet2":
        return Jet2(float(value), *_basis(nvars)[:2])

    @staticmethod
    def variable(value, index: int, nvars: int) -> "Jet2":
        _, zero_hess, units = _basis(nvars)
        if isinstance(value, np.ndarray) and value.ndim:
            value = np.array(value, dtype=float)
            return Jet2(value, np.broadcast_to(units[index][:, None], (nvars, *value.shape)),
                        np.broadcast_to(zero_hess[..., None], (nvars, nvars, *value.shape)))
        return Jet2(float(value), units[index], zero_hess)

    @property
    def nvars(self) -> int:
        return self.grad.shape[0]

    # -- ring operations ----------------------------------------------------

    def _scaled(self, k: float) -> "Jet2":
        return Jet2(self.value * k, k * self.grad, k * self.hess)

    def __add__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value + float(other), self.grad, self.hess)
        return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value - float(other), self.grad, self.hess)
        return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __rsub__(self, other) -> "Jet2":
        return Jet2(float(other) - self.value, -self.grad, -self.hess)

    def __mul__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return self._scaled(float(other))
        cross = self.grad[:, None] * other.grad
        return Jet2(
            self.value * other.value,
            self.value * other.grad + other.value * self.grad,
            self.value * other.hess + other.value * self.hess + cross + cross.swapaxes(0, 1),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        if other == 0.0:
            raise DomainError("division by a jet with zero value")
        return self._scaled(1.0 / float(other))

    def __rtruediv__(self, other) -> "Jet2":
        return self._reciprocal()._scaled(float(other))

    # -- elementary functions -----------------------------------------------

    def _chain(self, coeffs, *args) -> "Jet2":
        """Jet of f(self), where ``coeffs(v, *args)`` gives f, f', f'' at a
        float v.  A batched jet calls it at each point's value, in the same
        float arithmetic as a scalar jet, so the two agree bit for bit:
        the zero checks and Python's float ``**`` (which raises on overflow,
        where numpy's power need not match libm) act on numbers, and the
        first bad point raises what it raises alone."""
        v = self.value
        if isinstance(v, np.ndarray):
            f0, f1, f2 = np.array([coeffs(x, *args) for x in v.tolist()]).T
        else:
            f0, f1, f2 = coeffs(v, *args)
        return self._compose(f0, f1, f2)

    def _compose(self, f0, f1, f2) -> "Jet2":
        """Jet of f(self) from f, f', f'' at the value: numbers, or arrays
        over a batched jet's points."""
        g = self.grad
        return Jet2(f0, f1 * g, f1 * self.hess + f2 * (g[:, None] * g))

    def _reciprocal(self) -> "Jet2":
        return self._chain(_reciprocal_coeffs)

    def sqrt(self) -> "Jet2":
        # Over an array whose entries all exceed 1e-200, at once: np.sqrt is
        # correctly rounded, as math.sqrt is, and v * sqrt(v) cannot
        # underflow to 0, so each point equals the scalar jet bit for bit.
        # Otherwise (a non-positive, NaN or tinier entry) one point at a time.
        v = self.value
        if isinstance(v, np.ndarray) and (v > 1e-200).all():
            r = np.sqrt(v)
            return self._compose(r, 0.5 / r, -0.25 / (v * r))
        return self._chain(_sqrt_coeffs)

    def sin(self) -> "Jet2":
        s, c = _each(math.sin, self.value), _each(math.cos, self.value)
        return self._compose(s, c, -s)

    def cos(self) -> "Jet2":
        s, c = _each(math.sin, self.value), _each(math.cos, self.value)
        return self._compose(c, -s, -c)

    def sinh(self) -> "Jet2":
        s, c = _each(math.sinh, self.value), _each(math.cosh, self.value)
        return self._compose(s, c, s)

    def cosh(self) -> "Jet2":
        s, c = _each(math.sinh, self.value), _each(math.cosh, self.value)
        return self._compose(c, s, c)

    def pow_int(self, exponent: int) -> "Jet2":
        return self._chain(_pow_coeffs, int(exponent))


# --------------------------------------------------------------------------
# small symmetric matrices
# --------------------------------------------------------------------------

def jacobi_eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a small symmetric matrix,
    by LAPACK through ``np.linalg.eigh``."""
    return np.linalg.eigh(np.asarray(matrix, dtype=float))


# --------------------------------------------------------------------------
# adaptive quadrature
# --------------------------------------------------------------------------

def _simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _eval(f: Callable[[float], float], x: float) -> float:
    y = float(f(x))
    if not math.isfinite(y):
        raise DomainError(f"integrand not finite at {x}")
    return y


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float,
                        tol: float, max_subdivisions: int = 1_000_000) -> float:
    """Integrate f over [a, b] by adaptive Simpson bisection.

    An interval is accepted when the Richardson error estimate is below its
    tolerance share; otherwise it splits, each half inheriting half the
    tolerance.  Raises NonConvergence once ``max_subdivisions`` splits have
    been spent (rough integrands), DomainError on non-finite values.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if a > b:
        raise ValueError("requires a <= b")
    if a == b:
        return 0.0

    fa, fb = _eval(f, a), _eval(f, b)
    m = 0.5 * (a + b)
    fm = _eval(f, m)
    stack = [(a, b, fa, fm, fb, _simpson(a, b, fa, fm, fb), tol)]
    total = 0.0
    splits = 0
    while stack:
        x0, x1, f0, fmid, f1, s_whole, t = stack.pop()
        xm = 0.5 * (x0 + x1)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x1)
        fl, fr = _eval(f, xl), _eval(f, xr)
        s_left = _simpson(x0, xm, f0, fl, fmid)
        s_right = _simpson(xm, x1, fmid, fr, f1)
        err = s_left + s_right - s_whole
        if abs(err) <= 15.0 * t:
            total += s_left + s_right + err / 15.0
        else:
            splits += 1
            if splits > max_subdivisions:
                raise NonConvergence(
                    f"no convergence after {max_subdivisions} subdivisions")
            half = 0.5 * t
            stack.append((x0, xm, f0, fl, fmid, s_left, half))
            stack.append((xm, x1, fmid, fr, f1, s_right, half))
    return total


# --------------------------------------------------------------------------
# form-orthogonal unit vectors
# --------------------------------------------------------------------------

_RANK_RTOL = 1e-10


@functools.lru_cache(maxsize=None)
def _cofactor_plan(dim: int, form: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Form weights, the columns of each minor (row j: every column but j)
    and the cofactor signs for dim - 1 rows."""
    weights = np.ones(dim)
    if form == "lorentzian":
        weights[0] = -1.0
    elif form != "euclidean":
        raise ValueError(f"unknown bilinear form {form!r}")
    k = np.arange(dim - 1)
    keep = k + (k >= np.arange(dim)[:, None])
    return weights, keep, (-1.0) ** (dim - 1 + np.arange(dim))


def _sum_sq(cols, lorentzian: bool = False):
    """Sum of the squares of ``cols``, the first negated if ``lorentzian``,
    added left to right: ``cols`` is one point's floats or a batch's columns,
    and each point gets the same bits from both (numpy's own sums take
    another order over a row of 8 or more entries than over a 1-D array)."""
    cols = iter(cols)
    c = next(cols)
    t = -(c * c) if lorentzian else c * c
    for c in cols:
        t = t + c * c
    return t


def _rank_deficient(v, a):
    """|v| <= 1e-10 prod |a_i| (the Hadamard bound), compared squared, as
    ``_sum_sq`` for one point or a batch; each |a_i|^2 >= 1 (entry 1)."""
    bound = _RANK_RTOL * _RANK_RTOL
    for r in a:
        bound = bound * _sum_sq(r)
    return _sum_sq(v) <= bound


def _cofactors(rows: np.ndarray, form: str) -> tuple[np.ndarray, np.ndarray]:
    """The form-weighted rows a_i, each scaled to largest entry 1, and their
    cofactor vector, over any leading axes of ``rows`` (..., dim - 1, dim)."""
    dim = rows.shape[-1]
    weights, keep, signs = _cofactor_plan(dim, form)
    if rows.shape[-2] != dim - 1:
        raise RankDeficient(f"{rows.shape[-2]} rows in dimension {dim}, expected {dim - 1}")
    # A positive scale keeps direction and sign, and it halves the minors'
    # rounding, which the identity residual's second differences amplify.
    peak = np.abs(rows).max(axis=-1, keepdims=True)
    a = rows * weights / np.where(peak > 0.0, peak, 1.0)
    return a, np.linalg.det(a[..., keep].swapaxes(-3, -2)) * signs


def nullspace_unit(rows: Sequence[np.ndarray], form: str = "euclidean") -> np.ndarray:
    """Unit vector orthogonal, under the given bilinear form, to every row.

    There must be exactly dim - 1 rows, spanning a codimension-one subspace;
    otherwise RankDeficient is raised (the cofactor vector below must exceed
    1e-10 of its Hadamard bound, the product of the scaled row norms).  The
    result v has form(v, v) = +1 and its sign makes the determinant of
    [rows; v] positive, computed with the time coordinate negated in the
    Lorentzian case.

    v is the generalized cross product of the form-weighted rows a_i, each
    W r_i divided by its largest entry: the signed minors c_j with
    det([a_1; ...; a_{d-1}; x]) = c . x for every x.  Hence form(r_i, c) = 0
    (a determinant with a repeated row), and the sign rule holds by
    construction: det([rows W; v W]) is a positive multiple of
    form(c, v) = sqrt(form(c, c)).
    """
    mat = np.array(rows, dtype=float)
    if mat.ndim != 2:
        raise ValueError("rows must form a 2-d array")
    a, v = _cofactors(mat, form)
    entries = v.tolist()
    if _rank_deficient(entries, a.tolist()):
        raise RankDeficient("rows do not span a codimension-one subspace")
    norm2 = _sum_sq(entries, form == "lorentzian")
    if norm2 <= 0.0:
        raise DomainError("orthogonal complement is not spacelike")
    return v / math.sqrt(norm2)


def _nullspace_batch(rows: np.ndarray, form: str) -> tuple[np.ndarray, np.ndarray]:
    """``nullspace_unit`` over a leading point axis.

    ``rows`` of shape (P, dim - 1, dim) give unit vectors (P, dim), each
    equal bit for bit to ``nullspace_unit`` of its rows, and a mask of the
    points where that raises, from the same sums (vectors meaningless).
    """
    a, v = _cofactors(rows, form)
    bad = _rank_deficient(v.T, a.transpose(1, 2, 0))
    norm2 = _sum_sq(v.T, form == "lorentzian")
    bad |= norm2 <= 0.0
    return v / np.sqrt(np.where(bad, 1.0, norm2))[:, None], bad
