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
  ``-x^2 W + |x|^3 ln(W/|x|)``.

Sign convention: coefficients are stored as real numbers.  C1/C2 carry an
explicit factor i in the master equations; the generator assembly applies
it, which keeps Hermiticity of the resulting Lamb commutators auditable.

All principal-value integrals use a symmetric window around the pole whose
interior is handled exactly through the odd-part cancellation
``PV int_{c-w}^{c+w} f/(nu-c) = int_0^w [f(c+u)-f(c-u)]/u du``,
plus composite Gauss-Legendre panels (log-graded toward the pole and the
Bose scale 1/beta) on the rest of the interval.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    """Quadrature controls for the principal-value (Lamb-shift) integrals.

    ``w_cutoff`` is the radiation cutoff W bounding every coefficient
    integral; the default follows the value used to keep the Redfield
    dynamics positive.  ``pv_window`` is the half-width excluded
    symmetrically around the pole (treated analytically via the odd part).
    """

    w_cutoff: float = 4.0e4
    quadrature_points: int = 96
    pv_window: float = 0.1

    def __post_init__(self):
        if self.w_cutoff <= 0:
            raise ValidationError("w_cutoff must be positive")
        if self.quadrature_points < 64:
            raise ValidationError("quadrature_points must be >= 64")
        if not (0 < self.pv_window < self.w_cutoff / 10):
            raise ValidationError("pv_window must lie in (0, w_cutoff/10)")


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


def _graded_edges(lo: float, hi: float, dense_at: str, first: float, growth: float = 3.0):
    """Panel edges on [lo, hi], geometrically graded from the dense end."""
    length = hi - lo
    if length <= 0:
        return np.array([lo, hi])
    widths = []
    w = min(first, length)
    total = 0.0
    while total + w < length:
        widths.append(w)
        total += w
        w *= growth
    widths.append(length - total)
    if dense_at == "hi":
        widths = widths[::-1]
    return lo + np.concatenate([[0.0], np.cumsum(widths)])


@lru_cache(maxsize=16)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl_nodes_weights(edges: np.ndarray, order: int):
    x, w = _leggauss(order)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * x[None, :] + 0.5 * (b + a)
    weights = 0.5 * (b - a) * w[None, :]
    return nodes.ravel(), weights.ravel()


def _integrate_panels(f, edges: np.ndarray, order: int) -> float:
    nodes, weights = _gl_nodes_weights(edges, order)
    with np.errstate(under="ignore", over="ignore"):
        vals = np.asarray(f(nodes), dtype=float)
    return float(np.dot(weights, vals))


def _checked(f, edges: np.ndarray, order: int, label: str) -> float:
    """Integrate at two Gauss orders and demand relative agreement."""
    nodes, weights = _gl_nodes_weights(edges, order)
    with np.errstate(under="ignore", over="ignore"):
        vals = np.asarray(f(nodes), dtype=float)
    coarse = float(np.dot(weights, vals))
    scale = float(np.dot(np.abs(weights), np.abs(vals)))
    fine = _integrate_panels(f, edges, 2 * order)
    tol = TOLERANCES.quadrature_rel * max(abs(fine), 1e-9 * scale, 1e-300)
    if abs(fine - coarse) > tol:
        raise NumericalError(
            f"quadrature for {label} did not converge: "
            f"order {order} -> {coarse:.12e}, order {2*order} -> {fine:.12e}"
        )
    return fine


def _regular_interval(f, lo: float, hi: float, order: int, label: str,
                      dense_at: str = "lo", first: float = 0.25) -> float:
    edges = _graded_edges(lo, hi, dense_at, first)
    return _checked(f, edges, order, label)


def pv_quadrature(f, pole: float, interval, params: LambIntegralParams) -> float:
    """Cauchy principal value of ``int f(nu)/(nu - pole) dnu`` over ``interval``.

    If the pole lies outside the (open) interval the integral is regular and
    evaluated directly.  Otherwise a symmetric window of half-width
    ``params.pv_window`` (shrunk to fit) around the pole is mapped to the
    odd-part integral, and the remaining panels are integrated with
    log-graded composite Gauss-Legendre rules densest near the pole.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise ValidationError(f"empty integration interval [{lo}, {hi}]")
    order = params.quadrature_points
    c = float(pole)

    def g(nu):
        return np.asarray(f(nu), dtype=float) / (nu - c)

    if not (lo < c < hi):
        return _regular_interval(g, lo, hi, order, "pv(regular)", dense_at="lo",
                                 first=min(0.25, (hi - lo) / 8))

    w = min(params.pv_window, 0.45 * (c - lo), 0.45 * (hi - c))

    def odd_part(u):
        return (np.asarray(f(c + u), dtype=float) - np.asarray(f(c - u), dtype=float)) / u

    total = _checked(odd_part, np.array([0.0, w]), order, "pv(window)")
    total += _regular_interval(g, lo, c - w, order, "pv(left)", dense_at="hi", first=w)
    total += _regular_interval(g, c + w, hi, order, "pv(right)", dense_at="lo", first=w)
    return total


# ---------------------------------------------------------------------------
# Ohmic gamma / xi


def _bose_times(spec: OhmicSpec, beta: float, plus_one: bool):
    """J(nu)*nbar(nu) or J(nu)*(nbar(nu)+1), regular at nu = 0."""

    def f(nu):
        nu = np.asarray(nu, dtype=float)
        with np.errstate(under="ignore", over="ignore"):
            occ = 1.0 / np.expm1(beta * nu)
            if plus_one:
                occ = occ + 1.0
            return spectral_density(spec, nu) * occ

    return f


def gamma_ohmic(spec: OhmicSpec, beta: float, x: float) -> float:
    """Closed-form rate 4*pi*nbar(x)*J(x), with the 4*pi*j0/beta limit at x=0."""
    if x == 0:
        return 4.0 * np.pi * spec.j0 / beta
    return 4.0 * np.pi * thermal_occupation(x, beta) * spectral_density(spec, x)


@lru_cache(maxsize=4096)
def _xi_ohmic_cached(spec: OhmicSpec, beta: float, x: float,
                     params: LambIntegralParams) -> float:
    order = params.quadrature_points
    w_hi = params.w_cutoff
    g_em = _bose_times(spec, beta, plus_one=False)   # J*nbar, pole at nu = x for x > 0
    g_ab = _bose_times(spec, beta, plus_one=True)    # J*(nbar+1), pole at nu = -x for x < 0
    first = min(0.25, 1.0 / beta, spec.omega_cutoff)

    if x == 0:
        # both 1/(x -+ nu) poles merge into J(nu)/nu, which is regular
        def integrand(nu):
            nu = np.asarray(nu, dtype=float)
            with np.errstate(under="ignore"):
                return spec.j0 * np.exp(-(nu**2) / spec.omega_cutoff**2)

        total = _regular_interval(integrand, 0.0, w_hi, order, "xi(x=0)", first=first)
        return -2.0 * total

    if x > 0:
        part_pv = -pv_quadrature(g_em, x, (0.0, w_hi), params)

        def reg(nu):
            return g_ab(nu) / (x + nu)

        part_reg = _regular_interval(reg, 0.0, w_hi, order, "xi(reg+)", first=first)
    else:
        part_pv = pv_quadrature(g_ab, -x, (0.0, w_hi), params)

        def reg(nu):
            return g_em(nu) / (x - nu)

        part_reg = _regular_interval(reg, 0.0, w_hi, order, "xi(reg-)", first=first)

    return -2.0 * (part_pv + part_reg)


def gamma_xi_ohmic(spec: OhmicSpec, beta: float, x: float,
                   params: LambIntegralParams) -> CorrelationCoefficients:
    """Diagonal correlation coefficients of an Ohmic bath at frequency x."""
    return CorrelationCoefficients(
        gamma=gamma_ohmic(spec, beta, x),
        xi=_xi_ohmic_cached(spec, float(beta), float(x), params),
    )


def gamma_xi_ohmic_cross(spec: OhmicSpec, beta: float, x: float) -> CorrelationCoefficients:
    """Cross coefficients between the two quadrature couplings of one bath.

    For an odd spectral density the two-sided integrals fold onto each other
    exactly (substituting nu -> -nu and using nbar(-nu) = -(nbar(nu)+1)), so
    both the cross rate and the cross shift vanish identically.
    """
    return CorrelationCoefficients(gamma=0.0, xi=0.0)


# ---------------------------------------------------------------------------
# Redfield N / C coefficients


def _vacuum_replacement(x: float, w_cutoff: float) -> float:
    """Regularized PV int_0^W nu^3/(x - nu) dnu.

    The -W^3/3 piece cancels against the dipole self-energy and the
    -x*W^2/2 piece drops in the low-intensity regime; the surviving terms
    are -x^2*W + |x|^3*ln(W/|x|) (even continuation for x < 0).
    """
    if x == 0:
        return 0.0
    ax = abs(x)
    return -x * x * w_cutoff + ax**3 * np.log(w_cutoff / ax)


@lru_cache(maxsize=4096)
def _c1_imag_cached(x: float, beta: float, params: LambIntegralParams) -> float:
    order = params.quadrature_points
    w_hi = params.w_cutoff
    first = min(0.25, 1.0 / beta)

    def h(nu):
        nu = np.asarray(nu, dtype=float)
        with np.errstate(under="ignore", over="ignore"):
            return nu**3 / np.expm1(beta * nu)

    if x > 0:
        return -pv_quadrature(h, x, (0.0, w_hi), params) / np.pi

    def reg(nu):
        return h(nu) / (x - nu)

    return _regular_interval(reg, 0.0, w_hi, order, "c1(x<=0)", first=first) / np.pi


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
    c1 = _c1_imag_cached(x, float(beta), params)
    c2 = c1 + _vacuum_replacement(x, params.w_cutoff) / np.pi
    return RedfieldCoefficients(n1=n1, n2=n2, c1_imag=c1, c2_imag=c2)
