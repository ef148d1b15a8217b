"""Thermal-bath data: spectral densities, occupation numbers, and the
frequency-domain coefficients entering the master equations.

Two coefficient families live here, each over an array of frequencies
(``gamma_xi_ohmic`` and ``redfield_coefficients`` return their tuples at one x):
``gamma_xi_arrays``, the Ohmic rate gamma and shift xi, and
``redfield_arrays``, the N1/N2 rates and C1/C2 shifts of the dipole-coupled
equations.  The vacuum part of C2 diverges with the radiation cutoff W; it is
regularized by dropping the self-energy and low-intensity terms, keeping
``-x^2 W - x^3 ln(W/|x|)``.  Coefficients are stored as real numbers; the
generator assembly applies the factor i that C1/C2 carry.

A bath's shifts at all its frequencies are one checked ``pv_quadrature``
call, and nothing is cached: xi integrates F = J (nbar + 1), smooth through
nu = 0, over (-W, W) with pole -x; C1 integrates nu^3 nbar over (0, W) with
pole x.  A pole inside the interval is subtracted (Davis & Rabinowitz,
Methods of Numerical Integration, 2nd ed., 1984),
``PV int_lo^hi f/(nu-c) = int_lo^hi (f(nu)-f(c))/(nu-c) dnu + f(c) ln((hi-c)/(c-lo))``,
on Gauss-Legendre panels whose widths triple outward from 0, the first
min(0.25, 1/beta, omega_c) wide.  The grid does not depend on the pole, so
f is evaluated once per Gauss order for all of them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class OhmicSpec:
    """Ohmic spectral density J(x) = j0 * x * exp(-x^2 / omega_cutoff^2).

    j0 = 0 is allowed as the decoupled boundary case.
    """

    j0: float
    omega_cutoff: float

    def __post_init__(self):
        if not (math.isfinite(self.j0) and self.j0 >= 0):
            raise ValidationError(f"j0 must be finite and >= 0, got {self.j0}")
        if not (math.isfinite(self.omega_cutoff) and self.omega_cutoff > 0):
            raise ValidationError(f"omega_cutoff must be finite and > 0, got {self.omega_cutoff}")


@dataclass(frozen=True)
class BathSpec:
    """A thermal bath: inverse temperature, Ohmic spectrum, coupled transitions.

    ``transitions`` lists (upper, lower) level-index pairs this bath drives.
    """

    name: str
    beta: float
    spectral: OhmicSpec
    transitions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValidationError(f"beta must be finite and > 0, got {self.beta}")
        object.__setattr__(self, "transitions", tuple(tuple(t) for t in self.transitions))
        if len(set(self.transitions)) != len(self.transitions):
            raise ValidationError("bath transitions must be pairwise distinct")
        for up, lo in self.transitions:
            if up == lo:
                raise ValidationError(f"transition ({up},{lo}) couples a level to itself")


@dataclass(frozen=True)
class LambIntegralParams:
    """Controls of the principal-value (Lamb-shift) integrals.

    ``w_cutoff`` is the radiation cutoff W bounding every coefficient
    integral; the default follows the value used to keep the Redfield
    dynamics positive.  The Gauss order is not a setting: it doubles until
    two orders agree."""

    w_cutoff: float = 4.0e4

    def __post_init__(self):
        if not (math.isfinite(self.w_cutoff) and self.w_cutoff > 0):
            raise ValidationError(f"w_cutoff must be finite and > 0, got {self.w_cutoff}")


def thermal_occupation(omega: float, beta: float) -> float:
    """Bose occupation 1/(exp(beta*omega) - 1); negative for omega < 0.

    omega = 0 is a domain error: callers use dedicated zero-frequency
    branches instead of this function.
    """
    if omega == 0:
        raise ValidationError("thermal_occupation undefined at omega = 0")
    with np.errstate(over="ignore"):
        return float(1.0 / np.expm1(beta * omega))


def spectral_density(spec: OhmicSpec, x) -> np.ndarray | float:
    """Ohmic spectral density with Gaussian cutoff; odd in x by construction.
    A cutoff whose square overflows is the omega_cutoff -> inf limit, j0 * x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        out = spec.j0 * x * np.exp(-(x**2) / np.square(spec.omega_cutoff))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# composite Gauss-Legendre machinery


def _graded_edges(lo: float, hi: float, first: float):
    """Panel edges on [lo, hi], the widths tripling from lo, or outward from 0
    where 0 lies inside."""
    if lo < 0 < hi:
        return np.concatenate([-_graded_edges(0.0, -lo, first)[:0:-1],
                               _graded_edges(0.0, hi, first)])
    length = hi - lo
    widths = []
    w = min(first, length)
    total = 0.0
    while total + w < length:
        widths.append(w)
        total += w
        w *= 3.0
    widths.append(length - total)
    return lo + np.concatenate([[0.0], np.cumsum(widths)])


#: entries of the (nodes x cosines) arrays of one ``_leggauss`` product
_GAUSS_BLOCK = 1 << 16


@lru_cache(maxsize=16)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order, read-only.

    The nodes x = cos(theta), theta in (0, pi/2], are three Newton steps in
    theta on the Fourier series P_n(cos theta) = sum_k a_k a_{n-k} cos((n - 2k) theta),
    a_k = C(2k, k)/4^k (P. N. Swarztrauber, SIAM J. Sci. Comput. 24, 945 (2002)),
    from Tricomi's estimate (1 - (n - 1)/(8 n^3)) cos(pi (k - 1/4)/(n + 1/2))
    (F. G. Tricomi, Ann. Mat. Pura Appl. 31, 93 (1950)), mirrored, with 0 for odd
    n.  Each step evaluates the series and its derivative at once, as cos and
    sin of the (nodes x terms) arguments times the coefficients, the node rows
    in blocks of ``_GAUSS_BLOCK`` entries.  Theta is first rounded to a multiple
    of 2^(bits(n) - 52), so that every argument (n - 2k) theta is exact; the
    step from there is as accurate as from theta.  The weights are
    2/(dP_n/dtheta)^2 at the nodes, the derivative carried across the last step
    by Legendre's equation, P'' = -cot(theta) P' - n (n + 1) P.
    """
    a = np.cumprod(np.r_[1.0, 1.0 - 0.5 / np.arange(1.0, order + 1)])
    k = np.arange((order + 1) // 2)    # the terms k and n - k are equal: paired
    m = order - 2.0 * k
    c = 2.0 * a[k] * a[order - k]
    c0 = a[order // 2] ** 2 if order % 2 == 0 else 0.0
    j = np.arange(1.0, order // 2 + 1)
    theta = np.arccos((1.0 - (order - 1.0) / (8.0 * order**3))
                      * np.cos(np.pi * (j - 0.25) / (order + 0.5)))
    theta = np.r_[theta, [0.5 * np.pi] * (order % 2)]
    grid = 2.0 ** (52 - order.bit_length())
    rows = max(1, _GAUSS_BLOCK // len(m))
    p, dp = np.empty((2, len(theta)))
    for _ in range(3):
        theta = np.rint(theta * grid) / grid
        for lo in range(0, len(theta), rows):
            arg = theta[lo:lo + rows, None] * m
            p[lo:lo + rows] = np.cos(arg) @ c
            dp[lo:lo + rows] = np.sin(arg) @ (-m * c)
        step = (p + c0) / dp
        node, theta = theta, theta - step
    # dP/dtheta moved from the last node to theta, P'' from Legendre's equation
    dp -= step * (-dp * np.cos(node) / np.sin(node) - order * (order + 1.0) * (p + c0))
    half = order // 2
    x = np.cos(theta[:half])
    x = np.concatenate([-x, [0.0] * (order % 2), x[::-1]])
    w = 2.0 / (dp * dp)
    w = np.concatenate([w, w[:half][::-1]])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


#: ``_checked``'s first and last Gauss order per panel, the least pole-node distance in panel
#: half-widths (closer, (f(nu) - f(c))/(nu - c) cancels), and the poles per quotient array.
GAUSS_ORDER_START, GAUSS_ORDER_CAP, NODE_GUARD, POLE_BLOCK = 96, 1536, 1e-5, 8
#: Relative agreement of two successive Gauss orders that ``_checked`` accepts.
QUADRATURE_REL_TOL = 1e-6


def _checked(f, edges: np.ndarray, poles: np.ndarray, fc: np.ndarray) -> np.ndarray:
    """int (f(nu) - fc_i)/(nu - c_i) dnu on the panels at every pole c_i, f evaluated
    once per Gauss order, the orders doubling from ``GAUSS_ORDER_START``.  A pole's
    value is the finer of two successive orders that agree, with c_i ``NODE_GUARD``
    clear of every node of the finer one; only the poles still open are refined."""
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    value = np.full(len(poles), np.nan)  # at the last order; a NaN fails the check
    todo, order = np.arange(len(poles)), GAUSS_ORDER_START
    while True:
        x, w = _leggauss(order)
        nodes, weights = (half * x + mid).ravel(), (half * w).ravel()
        guard = np.repeat(NODE_GUARD * half.ravel(), order)
        fine, scale = np.empty((2, len(todo)))
        clear = np.empty(len(todo), dtype=bool)
        with np.errstate(all="ignore"):
            vals = np.asarray(f(nodes), dtype=float)
            for lo in range(0, len(todo), POLE_BLOCK):
                block, rows = slice(lo, lo + POLE_BLOCK), todo[lo:lo + POLE_BLOCK]
                gap, terms = nodes - poles[rows, None], vals - fc[rows, None]
                terms /= gap
                terms *= weights  # in place: two (poles x nodes) arrays at a time
                fine[block], scale[block] = terms.sum(axis=1), np.abs(terms, out=terms).sum(axis=1)
                clear[block] = np.all(np.abs(gap, out=gap) >= guard, axis=1)
        tol = QUADRATURE_REL_TOL * np.maximum(np.maximum(np.abs(fine), 1e-9 * scale),
                                                     1e-300)
        done = (np.abs(fine - value[todo]) <= tol) & clear
        if order >= GAUSS_ORDER_CAP and not done.all():
            i = np.flatnonzero(~done)[0]
            raise NumericalError(
                f"quadrature for pv(pole {poles[todo[i]]:g}) did not converge: order "
                f"{order // 2} -> {value[todo[i]]:.12e}, order {order} -> {fine[i]:.12e}")
        value[todo] = fine
        todo, order = todo[~done], 2 * order
        if not todo.size:
            return value


def pv_quadrature(f, poles, interval, first: float = 0.25):
    """Cauchy principal value of ``int f(nu)/(nu - c) dnu`` over ``interval`` at
    every pole c of ``poles``: an array of their shape, or a float for a scalar.

    A pole c inside the open interval is subtracted,
    ``int (f(nu) - f(c))/(nu - c) dnu + f(c) ln((hi - c)/(c - lo))``.  All run in
    one ``_checked`` call, on panels whose widths triple outward from 0 starting
    at ``first``; equal poles, found by sorting, are integrated once.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise ValidationError(f"empty integration interval [{lo}, {hi}]")
    c = np.asarray(poles, dtype=float)
    order = np.argsort(c, axis=None)
    new = np.diff(c.ravel()[order], prepend=np.nan) != 0
    distinct, inverse = c.ravel()[order][new], np.empty(c.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    inside = (lo < distinct) & (distinct < hi)
    fc = np.zeros_like(distinct)
    with np.errstate(all="ignore"):
        fc[inside] = f(distinct[inside])
    total = _checked(f, _graded_edges(lo, hi, first), distinct, fc)
    total[inside] += fc[inside] * np.log((hi - distinct[inside]) / (distinct[inside] - lo))
    out = total[inverse].reshape(c.shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Ohmic gamma / xi


def _bose_times(spec: OhmicSpec, beta: float):
    """F(nu) = J(nu)*(nbar(nu)+1), smooth through nu = 0 where it is j0/beta.

    Written J(|nu|)*(nbar(|nu|) + [nu > 0]), so that F(-nu) = J(nu)*nbar(nu)
    loses no digits to 1 + nbar(-nu) -> 0.
    """

    def f(nu):
        a = np.abs(nu)
        return np.where(nu == 0, spec.j0 / beta,
                        spectral_density(spec, a) * (1.0 / np.expm1(beta * a) + (nu > 0)))

    return f


def gamma_ohmic(spec: OhmicSpec, beta: float, x):
    """Closed-form rate 4*pi*nbar(x)*J(x), with the 4*pi*j0/beta limit at x=0;
    elementwise on an array."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.where(x == 0, 4.0 * np.pi * spec.j0 / beta,
                       4.0 * np.pi * (1.0 / np.expm1(beta * x)) * spectral_density(spec, x))
    return float(out) if out.ndim == 0 else out


def gamma_xi_arrays(spec: OhmicSpec, beta: float, x, params: LambIntegralParams,
                    lamb_shift: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """gamma and xi of an Ohmic bath at every frequency of the 1-D array ``x``.

    xi(x) = -2 PV int_{-W}^{W} F(nu)/(nu + x) dnu, F = J (nbar + 1), for all
    of ``x`` in one ``pv_quadrature`` call; it is 0 without ``lamb_shift``.
    """
    x = np.asarray(x, dtype=float)
    xi = np.zeros_like(x)
    if lamb_shift:
        w = params.w_cutoff
        xi = -2.0 * pv_quadrature(_bose_times(spec, beta), -x, (-w, w),
                                  min(0.25, 1.0 / beta, spec.omega_cutoff))
    return gamma_ohmic(spec, beta, x), xi


def gamma_xi_ohmic(spec: OhmicSpec, beta: float, x: float,
                   params: LambIntegralParams) -> tuple[np.ndarray, np.ndarray]:
    """(gamma, xi) of an Ohmic bath at frequency x, Gamma(x) = gamma/2 + i*xi: the
    one-element arrays of :func:`gamma_xi_arrays`."""
    return gamma_xi_arrays(spec, beta, [x], params)


def qubit_dipole_calibration(spec: OhmicSpec, omega10: float) -> float:
    """Dipole magnitude making the Redfield qubit decay match the Lindblad one.

    Equating the two emission rates at the transition gap gives
    mu^2 = 6*pi^2*J(omega10)/omega10^3 in natural units (J >= 0 for a gap
    > 0); a gap whose cube overflows a float raises OverflowError, and one
    whose cube underflows to 0 ValidationError.
    """
    if omega10 <= 0:
        raise ValidationError("omega10 must be positive")
    cube = float(omega10)**3
    if cube == 0:
        raise ValidationError(f"omega10 = {omega10!r} has a cube that underflows to 0")
    return float(np.sqrt(6.0 * np.pi**2 * spectral_density(spec, omega10) / cube))


# ---------------------------------------------------------------------------
# Redfield N / C coefficients


def _vacuum_replacement(x: np.ndarray, w_cutoff: float) -> np.ndarray:
    """Regularized PV int_0^W nu^3/(x - nu) dnu.

    The -W^3/3 piece cancels against the dipole self-energy and the
    -x*W^2/2 piece drops in the low-intensity regime; the surviving terms
    are -x^2*W - x^3*ln(W/|x|) for either sign of x, the log term being
    x^3 PV int_0^W dnu/(x - nu) = -x^3 ln((W - x)/|x|) for |x| << W.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, -x * x * w_cutoff - x**3 * np.log(w_cutoff / np.abs(x)))


def redfield_arrays(x, beta: float, params: LambIntegralParams, lamb_shift: bool = True):
    """N1, N2 rates and C1, C2 shift magnitudes at every frequency of the 1-D array ``x``.

    N1 = x^3*nbar(x), N2 = x^3*(nbar(x)+1), both -> 0 as x -> 0.
    C1 = (1/pi) PV int_0^W nu^3*nbar(nu)/(x-nu) dnu, for all of ``x`` in one
    ``pv_quadrature`` call; C2 adds the regularized vacuum part.  C1 and C2
    are 0 without ``lamb_shift``.  The stored values are the real
    magnitudes; the master equations multiply them by i.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        occ = 1.0 / np.expm1(beta * x)
        n1, n2 = (np.where(x == 0, 0.0, x**3 * n) for n in (occ, occ + 1.0))

    c1 = c2 = np.zeros_like(x)
    if lamb_shift:
        c1 = -pv_quadrature(lambda nu: nu**3 / np.expm1(beta * nu), x, (0.0, params.w_cutoff),
                            min(0.25, 1.0 / beta)) / np.pi
        c2 = c1 + _vacuum_replacement(x, params.w_cutoff) / np.pi
    return n1, n2, c1, c2


def redfield_coefficients(x: float, beta: float, params: LambIntegralParams):
    """(N1, N2, C1, C2) at frequency x: the one-element arrays of :func:`redfield_arrays`."""
    return redfield_arrays([x], beta, params)
