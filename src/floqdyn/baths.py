"""Thermal-bath data: spectral densities, occupation numbers, and the
frequency-domain coefficients entering the master equations.

Two coefficient families live here:

* ``gamma_xi_ohmic`` -- the real/imaginary parts of the one-sided Fourier
  transform of the bath correlation functions for an Ohmic bath with a
  Gaussian cutoff.  ``gamma`` is the closed-form rate; ``xi`` requires a
  Cauchy principal-value integral.
* ``redfield_coefficients`` -- the N1/N2 rates and C1/C2 level-shift
  integrals of the dipole-coupled (Redfield-type) equations.  The vacuum
  part of C2 diverges with the radiation cutoff W and is regularized by
  dropping the self-energy and low-intensity terms, keeping
  ``-x^2 W - x^3 ln(W/|x|)``.

Sign convention: coefficients are stored as real numbers.  C1/C2 carry an
explicit factor i in the master equations; the generator assembly applies
it, which keeps Hermiticity of the resulting Lamb commutators auditable.

Every Lamb-shift coefficient is one ``pv_quadrature`` call: ``xi`` over
(-W, W) of F = J (nbar + 1), which is smooth through nu = 0, with pole -x;
``C1`` over (0, W) of nu^3 nbar with pole x.  A pole inside the interval is
subtracted,
``PV int_lo^hi f/(nu-c) = int_lo^hi (f(nu)-f(c))/(nu-c) dnu + f(c) ln((hi-c)/(c-lo))``,
so every integral left is regular.  It runs on composite Gauss-Legendre
panels whose widths triple outward from 0, the first as wide as the bath's
scale, min(0.25, 1/beta, omega_c); the grid does not depend on the pole.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NumericalError, ValidationError
from .tolerances import TOLERANCES


@dataclass(frozen=True)
class OhmicSpec:
    """Ohmic spectral density J(x) = j0 * x * exp(-x^2 / omega_cutoff^2).

    j0 = 0 is allowed as the decoupled boundary case.
    """

    j0: float
    omega_cutoff: float

    def __post_init__(self):
        if self.j0 < 0:
            raise ValidationError(f"j0 must be >= 0, got {self.j0}")
        if self.omega_cutoff <= 0:
            raise ValidationError(f"omega_cutoff must be > 0, got {self.omega_cutoff}")


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
        if self.beta <= 0:
            raise ValidationError(f"beta must be > 0, got {self.beta}")
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
        if self.w_cutoff <= 0:
            raise ValidationError("w_cutoff must be positive")


@dataclass(frozen=True)
class CorrelationCoefficients:
    """Real decomposition Gamma(x) = gamma/2 + i*xi of a bath correlation FT."""

    gamma: float
    xi: float


@dataclass(frozen=True)
class RedfieldCoefficients:
    """Rates N1/N2 and Lamb integrals C1/C2 (imaginary magnitudes) at one x."""

    n1: float
    n2: float
    c1_imag: float
    c2_imag: float


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
    """Ohmic spectral density with Gaussian cutoff; odd in x by construction."""
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = spec.j0 * x * np.exp(-(x**2) / spec.omega_cutoff**2)
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


@lru_cache(maxsize=16)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order, read-only."""
    x, w = leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


#: Gauss orders per panel at which ``_checked`` starts and stops doubling, and the least
#: distance, in panel half-widths, from pole to node before (f(nu) - f(c))/(nu - c) cancels.
GAUSS_ORDER_START, GAUSS_ORDER_CAP, NODE_GUARD = 96, 1536, 1e-5


def _checked(f, edges: np.ndarray, pole: float, label: str) -> float:
    """Integrate on the panels at Gauss orders doubling from ``GAUSS_ORDER_START``
    until two successive orders agree and ``pole`` is ``NODE_GUARD`` clear of
    every node of the finer one, whose value is returned."""
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    order, coarse = GAUSS_ORDER_START, np.nan  # a NaN fails the check
    while True:
        x, w = _leggauss(order)
        nodes = half * x + mid
        weights = (half * w).ravel()
        with np.errstate(all="ignore"):
            vals = np.asarray(f(nodes.ravel()), dtype=float)
        fine = float(np.dot(weights, vals))
        scale = float(np.dot(np.abs(weights), np.abs(vals)))
        tol = TOLERANCES.quadrature_rel * max(abs(fine), 1e-9 * scale, 1e-300)
        if abs(fine - coarse) <= tol and np.all(np.abs(nodes - pole) >= NODE_GUARD * half):
            return fine
        if order >= GAUSS_ORDER_CAP:
            raise NumericalError(f"quadrature for {label} did not converge: order "
                                 f"{order // 2} -> {coarse:.12e}, order {order} -> {fine:.12e}")
        order, coarse = 2 * order, fine


def pv_quadrature(f, pole: float, interval, first: float = 0.25) -> float:
    """Cauchy principal value of ``int f(nu)/(nu - pole) dnu`` over ``interval``.

    A pole c inside the open interval is subtracted,
    ``int (f(nu) - f(c))/(nu - c) dnu + f(c) ln((hi - c)/(c - lo))``; any
    other pole leaves a regular integrand.  Either integral runs on panels
    whose widths triple outward from 0 starting at ``first``.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise ValidationError(f"empty integration interval [{lo}, {hi}]")
    c = float(pole)
    inside = lo < c < hi
    fc = float(f(c)) if inside else 0.0

    def g(nu):
        return (np.asarray(f(nu), dtype=float) - fc) / (nu - c)

    total = _checked(g, _graded_edges(lo, hi, first), c, f"pv(pole {c:g})")
    return total + fc * np.log((hi - c) / (c - lo)) if inside else total


# ---------------------------------------------------------------------------
# Ohmic gamma / xi


def _bose_times(spec: OhmicSpec, beta: float):
    """F(nu) = J(nu)*(nbar(nu)+1), smooth through nu = 0 where it is j0/beta.

    Written J(|nu|)*(nbar(|nu|) + [nu > 0]), so that F(-nu) = J(nu)*nbar(nu)
    loses no digits to 1 + nbar(-nu) -> 0.
    """

    def f(nu):
        nu = np.asarray(nu, dtype=float)
        a = np.abs(nu)
        with np.errstate(under="ignore", over="ignore", divide="ignore", invalid="ignore"):
            out = spectral_density(spec, a) * (1.0 / np.expm1(beta * a) + (nu > 0))
        return np.where(nu == 0, spec.j0 / beta, out)

    return f


def gamma_ohmic(spec: OhmicSpec, beta: float, x: float) -> float:
    """Closed-form rate 4*pi*nbar(x)*J(x), with the 4*pi*j0/beta limit at x=0."""
    if x == 0:
        return 4.0 * np.pi * spec.j0 / beta
    return 4.0 * np.pi * thermal_occupation(x, beta) * spectral_density(spec, x)


@lru_cache(maxsize=4096)
def _xi_ohmic_cached(spec: OhmicSpec, beta: float, x: float,
                     params: LambIntegralParams, quadrature_rel: float) -> float:
    # quadrature_rel only keys the cache; the checks read TOLERANCES themselves
    w = params.w_cutoff
    return -2.0 * pv_quadrature(_bose_times(spec, beta), -x, (-w, w),
                                min(0.25, 1.0 / beta, spec.omega_cutoff))


def gamma_xi_ohmic(spec: OhmicSpec, beta: float, x: float,
                   params: LambIntegralParams) -> CorrelationCoefficients:
    """Diagonal correlation coefficients of an Ohmic bath at frequency x."""
    return CorrelationCoefficients(
        gamma=gamma_ohmic(spec, beta, x),
        xi=_xi_ohmic_cached(spec, float(beta), float(x), params, TOLERANCES.quadrature_rel),
    )


# ---------------------------------------------------------------------------
# Redfield N / C coefficients


def _vacuum_replacement(x: float, w_cutoff: float) -> float:
    """Regularized PV int_0^W nu^3/(x - nu) dnu.

    The -W^3/3 piece cancels against the dipole self-energy and the
    -x*W^2/2 piece drops in the low-intensity regime; the surviving terms
    are -x^2*W - x^3*ln(W/|x|) for either sign of x, the log term being
    x^3 PV int_0^W dnu/(x - nu) = -x^3 ln((W - x)/|x|) for |x| << W.
    """
    if x == 0:
        return 0.0
    return -x * x * w_cutoff - x**3 * np.log(w_cutoff / abs(x))


@lru_cache(maxsize=4096)
def _c1_imag_cached(x: float, beta: float, params: LambIntegralParams,
                    quadrature_rel: float) -> float:
    # quadrature_rel only keys the cache, as in _xi_ohmic_cached
    def h(nu):
        nu = np.asarray(nu, dtype=float)
        with np.errstate(under="ignore", over="ignore"):
            return nu**3 / np.expm1(beta * nu)

    return -pv_quadrature(h, x, (0.0, params.w_cutoff), min(0.25, 1.0 / beta)) / np.pi


def redfield_coefficients(x: float, beta: float,
                          params: LambIntegralParams) -> RedfieldCoefficients:
    """N1, N2 rates and C1/C2 shift magnitudes at frequency x.

    N1 = x^3*nbar(x), N2 = x^3*(nbar(x)+1), both -> 0 as x -> 0.
    C1 = (1/pi) PV int_0^W nu^3*nbar(nu)/(x-nu) dnu; C2 adds the regularized
    vacuum part.  The stored values are the real magnitudes; the master
    equations multiply them by i.
    """
    x = float(x)
    if x == 0:
        n1 = n2 = 0.0
    else:
        occ = thermal_occupation(x, beta)
        n1 = x**3 * occ
        n2 = x**3 * (occ + 1.0)
    c1 = _c1_imag_cached(x, float(beta), params, TOLERANCES.quadrature_rel)
    c2 = c1 + _vacuum_replacement(x, params.w_cutoff) / np.pi
    return RedfieldCoefficients(n1=n1, n2=n2, c1_imag=c1, c2_imag=c2)
