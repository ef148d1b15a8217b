import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from floqdyn.baths import (
    BathSpec,
    LambIntegralParams,
    OhmicSpec,
    gamma_ohmic,
    gamma_xi_ohmic,
    pv_quadrature,
    redfield_coefficients,
    spectral_density,
    thermal_occupation,
)
from floqdyn.errors import ValidationError
from floqdyn.scenarios import PRESETS, REFERENCE_DRIVE, TABLE_BATHS

from conftest import XI_ORACLE_RTOL, quad_cauchy, xi_oracle

HOT = OhmicSpec(4e-4, np.sqrt(2.0))
COLD = OhmicSpec(4e-3, np.sqrt(0.2))
PARAMS = LambIntegralParams()


class TestThermalOccupation:
    def test_direct_value(self):
        assert thermal_occupation(1.0, 1.0) == pytest.approx(1 / (np.e - 1), rel=1e-12)

    def test_zero_temperature_limit(self):
        assert thermal_occupation(1.0, 1e3) < 1e-300

    def test_reflection_identity(self):
        n = thermal_occupation(1.0, 1.0)
        assert thermal_occupation(-1.0, 1.0) == pytest.approx(-(n + 1), abs=1e-12)

    def test_zero_frequency_is_domain_error(self):
        with pytest.raises(ValidationError):
            thermal_occupation(0.0, 1.0)


class TestSpectralDensity:
    def test_zero_at_origin(self):
        assert spectral_density(COLD, 0.0) == 0.0

    def test_hot_bath_value(self):
        # direct evaluation with the hot-bath constants at x = 1
        assert spectral_density(HOT, 1.0) == pytest.approx(4e-4 * np.exp(-0.5), rel=1e-12)
        assert spectral_density(HOT, 1.0) == pytest.approx(2.4261e-4, rel=1e-4)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10))
    def test_oddness(self, x):
        assert spectral_density(HOT, -x) == -spectral_density(HOT, x)


class TestPvQuadrature:
    def test_constant_integrand(self):
        w = PARAMS.w_cutoff
        for c in (0.5, 2.5, 40.0):
            got = pv_quadrature(lambda nu: np.ones_like(nu), c, (0.0, w), PARAMS)
            assert got == pytest.approx(np.log((w - c) / c), rel=1e-10)

    def test_linear_integrand(self):
        w = PARAMS.w_cutoff
        c = 2.5
        got = pv_quadrature(lambda nu: np.asarray(nu, float), c, (0.0, w), PARAMS)
        assert got == pytest.approx(w + c * np.log((w - c) / c), rel=1e-10)

    def test_pole_outside_interval_is_regular(self):
        got = pv_quadrature(lambda nu: np.ones_like(nu), -1.0, (0.0, 1.0), PARAMS)
        assert got == pytest.approx(np.log(2.0), rel=1e-10)

    def test_window_stability(self):
        # even integrand around a mid-interval pole, window halved twice
        f = lambda nu: np.exp(-((nu - 5.0) ** 2))
        vals = [pv_quadrature(f, 5.0, (0.0, 10.0),
                              LambIntegralParams(w_cutoff=4e4, pv_window=w))
                for w in (0.2, 0.1, 0.05)]
        assert abs(vals[0] - vals[2]) < 1e-8

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.025, 0.4))
    def test_window_independence_property(self, window):
        f = lambda nu: np.asarray(nu, float) ** 3 / np.expm1(0.25 * np.asarray(nu, float))
        base = pv_quadrature(f, 3.0, (0.0, 100.0), LambIntegralParams(w_cutoff=4e4, pv_window=0.1))
        got = pv_quadrature(f, 3.0, (0.0, 100.0), LambIntegralParams(w_cutoff=4e4, pv_window=window))
        assert got == pytest.approx(base, rel=1e-7)

    def test_against_quadpack_cauchy(self):
        f_arr = lambda nu: np.exp(-0.1 * np.asarray(nu, float)) * np.asarray(nu, float)
        f_sca = lambda nu: np.exp(-0.1 * nu) * nu
        got = pv_quadrature(f_arr, 7.0, (0.0, 200.0), PARAMS)
        want = quad_cauchy(f_sca, 7.0, 200.0)
        assert got == pytest.approx(want, rel=1e-8)


class TestGammaXi:
    def test_gamma_zero_frequency(self):
        spec = OhmicSpec(4e-4, np.sqrt(2.0))
        assert gamma_ohmic(spec, 4.0, 0.0) == pytest.approx(4 * np.pi * 1e-4, rel=1e-12)
        assert gamma_ohmic(spec, 4.0, 0.0) == pytest.approx(1.25664e-3, rel=1e-4)

    @pytest.mark.parametrize("x", [0.5, 3.0])
    @pytest.mark.parametrize("beta", [1 / 30, 1 / 4])
    def test_kms_detailed_balance(self, x, beta):
        ratio = gamma_ohmic(HOT, beta, -x) / gamma_ohmic(HOT, beta, x)
        assert ratio == pytest.approx(np.exp(beta * x), rel=1e-9)

    @pytest.mark.parametrize("x", [0.0, 0.5, -0.5, 3.0, -3.0, 7.25])
    def test_xi_against_quadpack_oracle(self, x):
        cc = gamma_xi_ohmic(HOT, 1 / 30, x, PARAMS)
        assert cc.xi == pytest.approx(xi_oracle(HOT, 1 / 30, x), rel=XI_ORACLE_RTOL, abs=1e-12)

    def test_xi_decay_far_above_cutoff(self):
        # xi has an algebraic 1/x tail: assert strong decay against the
        # independent oracle, and the Gaussian-suppressed gamma decays
        # below 1e-6 relative.
        x_ref = HOT.omega_cutoff
        x_far = 100 * HOT.omega_cutoff
        xi_ref = gamma_xi_ohmic(HOT, 1 / 30, x_ref, PARAMS).xi
        xi_far = gamma_xi_ohmic(HOT, 1 / 30, x_far, PARAMS).xi
        assert abs(xi_far) < 0.05 * abs(xi_ref)
        assert xi_far == pytest.approx(xi_oracle(HOT, 1 / 30, x_far), rel=XI_ORACLE_RTOL)
        g_ratio = abs(gamma_ohmic(HOT, 1 / 30, x_far) / gamma_ohmic(HOT, 1 / 30, x_ref))
        assert g_ratio < 1e-6

    def test_cross_coefficients_vanish(self):
        # the sigma_x/sigma_y cross coefficients the secular generators omit
        # vanish by a folding identity of the odd spectral density: the
        # nu<0 half of the nbar piece equals the nu>0 half of the (nbar+1)
        # piece, so their difference in the cross rate cancels
        beta, x = 1 / 4, 1.3
        left = scipy.integrate.quad(
            lambda w: spectral_density(HOT, -w) * (-(1 / np.expm1(beta * w) + 1)) / (x + w),
            0, 80, limit=200)[0]
        right = scipy.integrate.quad(
            lambda w: spectral_density(HOT, w) * (1 / np.expm1(beta * w) + 1) / (x + w),
            0, 80, limit=200)[0]
        assert left == pytest.approx(right, rel=1e-10)


class TestRedfieldCoefficients:
    def test_zero_frequency_rates_vanish(self):
        rc = redfield_coefficients(0.0, 4.0, PARAMS)
        assert rc.n1 == 0.0 and rc.n2 == 0.0

    def test_rate_difference_identity(self):
        for x in (0.5, 2.5, -1.0):
            rc = redfield_coefficients(x, 4.0, PARAMS)
            assert rc.n2 - rc.n1 == pytest.approx(x**3, rel=1e-12)

    def test_continuity_near_zero(self):
        # N1(x) -> x^2/beta as x -> 0, so |N1(1e-6)| ~ 2.5e-13 at beta = 4
        # (a tighter bound of 1e-17 would be below this limit law)
        for x in (1e-6, -1e-6):
            rc = redfield_coefficients(x, 4.0, PARAMS)
            assert abs(rc.n1) < 1e-12
            assert rc.n1 == pytest.approx(x**2 / 4.0, rel=1e-5)

    def test_reflection_n1_n2(self):
        rc_p = redfield_coefficients(2.5, 4.0, PARAMS)
        rc_m = redfield_coefficients(-2.5, 4.0, PARAMS)
        assert rc_m.n1 == pytest.approx(rc_p.n2, rel=1e-12)
        assert rc_m.n2 == pytest.approx(rc_p.n1, rel=1e-12)

    def test_c2_against_brute_force_and_refinement(self):
        # oracle: QUADPACK thermal PV plus mpmath's regularized vacuum PV
        x, beta, w = 2.5, 4.0, PARAMS.w_cutoff

        def thermal_integrand(nu):
            return nu**3 / np.expm1(beta * nu) if 0 < beta * nu < 700 else 0.0

        rc = redfield_coefficients(x, beta, PARAMS)
        thermal = -quad_cauchy(thermal_integrand, x, 120.0)
        want = thermal / np.pi + float(vacuum_mpmath(x, w))
        assert rc.c2_imag == pytest.approx(want, rel=1e-6)
        fine = redfield_coefficients(x, beta, LambIntegralParams(quadrature_points=192))
        assert rc.c2_imag == pytest.approx(fine.c2_imag, rel=1e-6)

    def test_c1_negative_argument_no_pole(self):
        rc = redfield_coefficients(-1.5, 4.0, PARAMS)
        want = scipy.integrate.quad(
            lambda nu: nu**3 / np.expm1(4.0 * nu) / (-1.5 - nu), 0, 60, limit=200)[0] / np.pi
        assert rc.c1_imag == pytest.approx(want, rel=1e-7)


class TestSpecValidation:
    def test_bath_invariants(self):
        with pytest.raises(ValidationError):
            BathSpec("x", beta=-1.0, spectral=HOT)
        with pytest.raises(ValidationError):
            BathSpec("x", beta=1.0, spectral=HOT, transitions=((1, 0), (1, 0)))
        with pytest.raises(ValidationError):
            OhmicSpec(-1.0, 1.0)

    def test_lamb_params_invariants(self):
        with pytest.raises(ValidationError):
            LambIntegralParams(quadrature_points=32)
        with pytest.raises(ValidationError):
            LambIntegralParams(pv_window=5e3)
        with pytest.raises(ValidationError):
            LambIntegralParams(w_cutoff=-1.0)


class TestQuadratureConvergenceGuard:
    def test_non_convergence_raises_with_diagnostics(self):
        from floqdyn.errors import NumericalError
        from floqdyn.tolerances import tolerance_overrides

        with tolerance_overrides(quadrature_rel=1e-18):
            with pytest.raises(NumericalError, match="did not converge"):
                pv_quadrature(lambda nu: np.exp(-np.asarray(nu, float)), 3.0,
                              (0.0, 1.0e4), PARAMS)


    @pytest.mark.parametrize("coefficients", [
        lambda x: gamma_xi_ohmic(HOT, 1.3, x, PARAMS),
        lambda x: redfield_coefficients(x, 1.3, PARAMS),
    ], ids=["xi", "c1"])
    def test_cached_coefficient_rechecked_under_tighter_tolerance(self, coefficients):
        from floqdyn.errors import NumericalError
        from floqdyn.tolerances import tolerance_overrides

        x = 0.7371  # a frequency no other test asks for
        want = coefficients(x)  # fills the cache at the default tolerance
        with tolerance_overrides(quadrature_rel=1e-300):
            with pytest.raises(NumericalError, match="did not converge"):
                coefficients(x)
        assert coefficients(x) == want


class TestGaussLegendreRules:
    def test_cached_rule_is_read_only_and_exact(self):
        from floqdyn.baths import _leggauss

        x, w = _leggauss(96)
        want_x, want_w = np.polynomial.legendre.leggauss(96)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
        assert _leggauss(96)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_checked_evaluates_each_order_once(self):
        from floqdyn.baths import _checked

        orders = []

        def f(nu):
            orders.append(len(nu))
            return np.exp(-nu)

        value = _checked(f, np.array([0.0, 1.0, 3.0]), 64, "exp")
        assert orders == [128, 256]
        assert value == pytest.approx(1.0 - np.exp(-3.0), rel=1e-14)


# ---------------------------------------------------------------------------
# high-precision oracle: mpmath's tanh-sinh quadrature at 20 digits


def _mp_pv(f, c, top):
    """PV int_0^top f(nu)/(nu - c) dnu for 0 < c < top, split at the pole:
    f(c) is subtracted from the integrand and its log term added back."""
    fc = f(c)
    return (mpmath.quad(lambda nu: (f(nu) - fc) / (nu - c), [0, c, top])
            + fc * mpmath.log((top - c) / c))


def xi_mpmath(spec, beta, x):
    """xi(x) = -2 [PV int J nbar/(x - nu) + PV int J (nbar + 1)/(x + nu)] over [0, W].

    The integrands hold the Gaussian cutoff, so the span stops at
    |x| + 12 omega_c, where they are below 1e-60 of their peak.
    """
    j0, wc, beta, x = (mpmath.mpf(v) for v in (spec.j0, spec.omega_cutoff, beta, x))
    top = abs(x) + 12 * wc

    def em(nu):
        return j0 * nu * mpmath.exp(-(nu / wc) ** 2) / mpmath.expm1(beta * nu)

    def ab(nu):
        return em(nu) + j0 * nu * mpmath.exp(-(nu / wc) ** 2)

    if x == 0:
        return -2 * mpmath.quad(lambda nu: j0 * mpmath.exp(-(nu / wc) ** 2), [0, top])
    if x > 0:
        return -2 * (-_mp_pv(em, x, top) + mpmath.quad(lambda nu: ab(nu) / (x + nu), [0, top]))
    return -2 * (_mp_pv(ab, -x, top) + mpmath.quad(lambda nu: em(nu) / (x - nu), [0, top]))


def c1_mpmath(beta, x):
    """C1(x) = (1/pi) PV int_0^W nu^3 nbar(nu)/(x - nu) dnu; the span stops
    at |x| + 100/beta, where the integrand is below 1e-40 of its peak."""
    beta, x = mpmath.mpf(beta), mpmath.mpf(x)

    def h(nu):
        return nu ** 3 / mpmath.expm1(beta * nu)

    top = abs(x) + 100 / beta
    if x > 0:
        return -_mp_pv(h, x, top) / mpmath.pi
    return mpmath.quad(lambda nu: h(nu) / (x - nu), [0, top]) / mpmath.pi


def vacuum_mpmath(x, w):
    """(1/pi) PV int_0^W [nu^3/(x - nu) + nu^2 + x nu] dnu: the vacuum part of
    C2 less the -W^3/3 and -x W^2/2 pieces the model drops.  The integrand
    equals x^2 nu/(x - nu), whose pole for x > 0 is split off as in _mp_pv."""
    x, w = mpmath.mpf(x), mpmath.mpf(w)
    if x > 0:
        return -x ** 2 * _mp_pv(lambda nu: nu, x, w) / mpmath.pi
    return mpmath.quad(lambda nu: nu ** 3 / (x - nu) + nu ** 2 + x * nu, [0, -x, w]) / mpmath.pi


def _preset_frequencies():
    """Every preset transition gap, both signs, shifted by q*Omega for q = -1, 0, 1;
    x -> 0; and poles at and beside 0.45 x = pv_window, where the window stops shrinking."""
    gaps = {abs(cfg.energies[up] - cfg.energies[lo])
            for cfg in (make() for make in PRESETS.values())
            for bath in cfg.baths for up, lo in bath.transitions}
    omega = REFERENCE_DRIVE["omega"]
    edge = PARAMS.pv_window / 0.45
    xs = {s * g + q * omega for g in gaps for s in (1, -1) for q in (-1, 0, 1)}
    return sorted(xs | {0.0, 1e-3, -1e-3, 0.9 * edge, edge, 1.1 * edge, -edge})


MPMATH_FREQUENCIES = _preset_frequencies()
#: relative agreement demanded against the 20-digit oracle (measured <= 3.2e-11)
MPMATH_RTOL = 1e-9


class TestMpmathOracle:
    @pytest.fixture(autouse=True)
    def _digits(self):
        with mpmath.workdps(20):
            yield

    @pytest.mark.parametrize("bath", sorted(TABLE_BATHS))
    def test_xi_at_preset_frequencies(self, bath):
        spec = OhmicSpec(TABLE_BATHS[bath]["j0"], TABLE_BATHS[bath]["omega_cutoff"])
        beta = TABLE_BATHS[bath]["beta"]
        for x in MPMATH_FREQUENCIES:
            want = float(xi_mpmath(spec, beta, x))
            assert gamma_xi_ohmic(spec, beta, x, PARAMS).xi == pytest.approx(
                want, rel=MPMATH_RTOL), x

    @pytest.mark.parametrize("bath", sorted(TABLE_BATHS))
    @pytest.mark.parametrize("x", [1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4])
    def test_xi_near_zero_frequency(self, bath, x):
        # below the first panel xi is folded about its pole into a regular
        # integral; split at the pole, its two parts each grow as ln|x|.
        # The oracle's pole sits |x| from the end of its first interval,
        # where 20 digits leave it 2e-10 off at |x| = 1e-12; it runs at 40
        spec = OhmicSpec(TABLE_BATHS[bath]["j0"], TABLE_BATHS[bath]["omega_cutoff"])
        beta = TABLE_BATHS[bath]["beta"]
        with mpmath.workdps(40):
            want = float(xi_mpmath(spec, beta, x))
        assert gamma_xi_ohmic(spec, beta, x, PARAMS).xi == pytest.approx(want, rel=MPMATH_RTOL)

    @pytest.mark.parametrize("bath", sorted(TABLE_BATHS))
    def test_c1_at_positive_preset_frequencies(self, bath):
        beta = TABLE_BATHS[bath]["beta"]
        for x in (x for x in MPMATH_FREQUENCIES if x > 0):
            assert redfield_coefficients(x, beta, PARAMS).c1_imag == pytest.approx(
                float(c1_mpmath(beta, x)), rel=MPMATH_RTOL), x

    def test_c2_at_non_positive_preset_frequencies(self):
        # the closed form keeps |x|^3 ln(W/|x|) of |x|^3 ln((W + |x|)/|x|),
        # which leaves out |x|^3 ln(1 + |x|/W) <= x^4/W
        beta, w = TABLE_BATHS["cold"]["beta"], PARAMS.w_cutoff
        for x in (x for x in MPMATH_FREQUENCIES if x <= 0):
            want = float(c1_mpmath(beta, x) + vacuum_mpmath(x, w))
            got = redfield_coefficients(x, beta, PARAMS).c2_imag
            assert abs(got - want) <= MPMATH_RTOL * abs(want) + x**4 / (np.pi * w), x

    @pytest.mark.parametrize("bath", sorted(TABLE_BATHS))
    def test_c2_at_positive_preset_frequencies(self, bath):
        # the closed form keeps -x^3 ln(W/x) of -x^3 ln((W - x)/x),
        # which leaves out x^3 ln(W/(W - x)) ~ x^4/W
        beta, w = TABLE_BATHS[bath]["beta"], PARAMS.w_cutoff
        for x in (x for x in MPMATH_FREQUENCIES if x > 0):
            want = float(c1_mpmath(beta, x) + vacuum_mpmath(x, w))
            got = redfield_coefficients(x, beta, PARAMS).c2_imag
            assert abs(got - want) <= MPMATH_RTOL * abs(want) + x**4 / (np.pi * w), x
