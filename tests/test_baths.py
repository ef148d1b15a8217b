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
    gamma_xi_ohmic_cross,
    pv_quadrature,
    redfield_coefficients,
    spectral_density,
    thermal_occupation,
)
from floqdyn.errors import ValidationError

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
        cc = gamma_xi_ohmic_cross(HOT, 1 / 4, 1.3)
        assert cc.gamma == 0.0 and cc.xi == 0.0
        # numerical witness of the folding identity behind the zero:
        # the nu<0 half of the nbar piece equals the nu>0 half of the
        # (nbar+1) piece, so their difference in the cross rate cancels
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
        # oracle: QUADPACK thermal PV plus the regularized vacuum replacement
        x, beta, w = 2.5, 4.0, PARAMS.w_cutoff

        def thermal_integrand(nu):
            return nu**3 / np.expm1(beta * nu) if 0 < beta * nu < 700 else 0.0

        rc = redfield_coefficients(x, beta, PARAMS)
        thermal = -quad_cauchy(thermal_integrand, x, 120.0)
        vac = -x**2 * w + x**3 * np.log(w / x)
        want = (thermal + vac) / np.pi
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
