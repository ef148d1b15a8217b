from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from floqdyn import baths
from floqdyn.baths import (
    BathSpec,
    gamma_ohmic,
    gamma_xi_ohmic,
    pv_quadrature,
    qubit_dipole_calibration,
    redfield_coefficients,
    spectral_density,
    thermal_occupation,
)
from floqdyn.errors import ValidationError
from floqdyn.scenarios import (
    PRESETS,
    REFERENCE_DRIVE,
    TABLE_BATHS,
    ScenarioConfig,
    build_generator,
    evolve,
)

from conftest import XI_ORACLE_RTOL, quad_cauchy, xi_oracle

HOT = BathSpec("hot", **TABLE_BATHS["hot"])
COLD = BathSpec("cold", **TABLE_BATHS["cold"])
W_CUTOFF = ScenarioConfig.w_cutoff


def ohmic(j0: float, omega_cutoff: float) -> BathSpec:
    """A bath of the Ohmic spectrum (j0, omega_cutoff) and no transitions; the
    spectral functions take their inverse temperature as an argument of their
    own, so its beta (1) is unused."""
    return BathSpec("ohmic", 1.0, j0, omega_cutoff)


def _record_orders(monkeypatch) -> list:
    """Patch ``baths._leggauss`` to append every Gauss order asked for to the list returned."""
    orders, leggauss = [], baths._leggauss

    def recording(n):
        orders.append(n)
        return leggauss(n)

    monkeypatch.setattr(baths, "_leggauss", recording)
    return orders


def _near_node(order, panel, node, delta, side):
    """A pole ``delta`` panel half-widths to one ``side`` of a Gauss node of ``order``
    on a panel of pv_quadrature's grid on (0, 200); delta = 0 puts it on the node."""
    edges = baths._graded_edges(0.0, 200.0, 0.25)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    x, _ = baths._leggauss(order)
    p = panel % len(half)
    return half[p] * (x[node % order] + side * delta) + mid[p]


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

    @pytest.mark.parametrize("cutoff", [1e155, 1e300, 1.7976931348623157e308])
    def test_cutoff_whose_square_overflows_is_the_infinite_cutoff_limit(self, cutoff):
        x = np.array([-3.0, 0.5, 40.0])
        assert np.array_equal(spectral_density(ohmic(2e-3, cutoff), x), 2e-3 * x)
        assert spectral_density(ohmic(2e-3, cutoff), 0.5) == 1e-3

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10))
    def test_oddness(self, x):
        assert spectral_density(HOT, -x) == -spectral_density(HOT, x)


class TestPvQuadrature:
    def test_constant_integrand(self):
        w = W_CUTOFF
        for c in (0.5, 2.5, 40.0):
            got = pv_quadrature(lambda nu: np.ones_like(nu), c, (0.0, w))
            assert got == pytest.approx(np.log((w - c) / c), rel=1e-10)

    def test_linear_integrand(self):
        w = W_CUTOFF
        c = 2.5
        got = pv_quadrature(lambda nu: np.asarray(nu, float), c, (0.0, w))
        assert got == pytest.approx(w + c * np.log((w - c) / c), rel=1e-10)

    def test_pole_outside_interval_is_regular(self):
        got = pv_quadrature(lambda nu: np.ones_like(nu), -1.0, (0.0, 1.0))
        assert got == pytest.approx(np.log(2.0), rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(pole=st.floats(1e-6, 199.9999)
           | st.sampled_from([0.25, 1.0, 3.25, 10.0, 30.25, 91.0])
           | st.floats(1e-3, 0.25, exclude_max=True)
           | st.builds(_near_node, st.sampled_from([96, 192]), st.integers(0, 6),
                       st.integers(0, 191), st.sampled_from([0.0, 1e-13, 1e-10, 1e-8, 1e-6]),
                       st.sampled_from([-1.0, 1.0])),
           bose=st.booleans())
    def test_against_quadpack_cauchy_at_any_pole(self, pole, bose):
        # the grid on (0, 200) has edges 0.25 (3^k - 1)/2 whatever the pole,
        # so poles on those edges, inside the first panel and on or near the
        # nodes of orders 96 and 192 are drawn too.  QUADPACK's Cauchy weight
        # loses digits for a pole within ~1e-11 relative of the upper end
        # (1.7e-8 at 199.99999999999994, where pv_quadrature is within 2e-15
        # of a 40-digit mpmath value), so the uniform draw stops short of it
        if bose:
            f_arr = lambda nu: np.asarray(nu, float) ** 3 / np.expm1(0.25 * np.asarray(nu, float))
            f_sca = lambda nu: nu ** 3 / np.expm1(0.25 * nu) if nu > 0 else 0.0
        else:
            f_arr = lambda nu: np.exp(-0.1 * np.asarray(nu, float)) * np.asarray(nu, float)
            f_sca = lambda nu: np.exp(-0.1 * nu) * nu
        got = pv_quadrature(f_arr, pole, (0.0, 200.0))
        assert got == pytest.approx(quad_cauchy(f_sca, pole, 200.0), rel=1e-12)

    def test_against_quadpack_cauchy(self):
        f_arr = lambda nu: np.exp(-0.1 * np.asarray(nu, float)) * np.asarray(nu, float)
        f_sca = lambda nu: np.exp(-0.1 * nu) * nu
        got = pv_quadrature(f_arr, 7.0, (0.0, 200.0))
        want = quad_cauchy(f_sca, 7.0, 200.0)
        assert got == pytest.approx(want, rel=1e-8)


class TestGammaXi:
    def test_gamma_zero_frequency(self):
        spec = ohmic(4e-4, np.sqrt(2.0))
        assert gamma_ohmic(spec, 4.0, 0.0) == pytest.approx(4 * np.pi * 1e-4, rel=1e-12)
        assert gamma_ohmic(spec, 4.0, 0.0) == pytest.approx(1.25664e-3, rel=1e-4)

    @pytest.mark.parametrize("x", [0.5, 3.0])
    @pytest.mark.parametrize("beta", [1 / 30, 1 / 4])
    def test_kms_detailed_balance(self, x, beta):
        ratio = gamma_ohmic(HOT, beta, -x) / gamma_ohmic(HOT, beta, x)
        assert ratio == pytest.approx(np.exp(beta * x), rel=1e-9)

    @pytest.mark.parametrize("x", [0.0, 0.5, -0.5, 3.0, -3.0, 7.25])
    def test_xi_against_quadpack_oracle(self, x):
        _, xi = gamma_xi_ohmic(HOT, 1 / 30, x, W_CUTOFF)
        assert xi == pytest.approx(xi_oracle(HOT, 1 / 30, x), rel=XI_ORACLE_RTOL, abs=1e-12)

    def test_xi_decay_far_above_cutoff(self):
        # xi has an algebraic 1/x tail: assert strong decay against the
        # independent oracle, and the Gaussian-suppressed gamma decays
        # below 1e-6 relative.
        x_ref = HOT.omega_cutoff
        x_far = 100 * HOT.omega_cutoff
        _, xi_ref = gamma_xi_ohmic(HOT, 1 / 30, x_ref, W_CUTOFF)
        _, xi_far = gamma_xi_ohmic(HOT, 1 / 30, x_far, W_CUTOFF)
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
        n1, n2, _, _ = redfield_coefficients(0.0, 4.0, W_CUTOFF)
        assert n1 == 0.0 and n2 == 0.0

    def test_rate_difference_identity(self):
        for x in (0.5, 2.5, -1.0):
            n1, n2, _, _ = redfield_coefficients(x, 4.0, W_CUTOFF)
            assert n2 - n1 == pytest.approx(x**3, rel=1e-12)

    def test_continuity_near_zero(self):
        # N1(x) -> x^2/beta as x -> 0, so |N1(1e-6)| ~ 2.5e-13 at beta = 4
        # (a tighter bound of 1e-17 would be below this limit law)
        for x in (1e-6, -1e-6):
            n1, _, _, _ = redfield_coefficients(x, 4.0, W_CUTOFF)
            assert abs(n1) < 1e-12
            assert n1 == pytest.approx(x**2 / 4.0, rel=1e-5)

    def test_reflection_n1_n2(self):
        n1_p, n2_p, _, _ = redfield_coefficients(2.5, 4.0, W_CUTOFF)
        n1_m, n2_m, _, _ = redfield_coefficients(-2.5, 4.0, W_CUTOFF)
        assert n1_m == pytest.approx(n2_p, rel=1e-12)
        assert n2_m == pytest.approx(n1_p, rel=1e-12)

    def test_c2_against_brute_force_and_refinement(self, monkeypatch):
        # oracle: QUADPACK thermal PV plus mpmath's regularized vacuum PV
        x, beta, w = 2.5, 4.0, W_CUTOFF

        def thermal_integrand(nu):
            return nu**3 / np.expm1(beta * nu) if 0 < beta * nu < 700 else 0.0

        *_, c2 = redfield_coefficients(x, beta, W_CUTOFF)
        thermal = -quad_cauchy(thermal_integrand, x, 120.0)
        want = thermal / np.pi + float(vacuum_mpmath(x, w))
        assert c2 == pytest.approx(want, rel=1e-6)
        # start the doubling one order up, at a tighter tolerance
        monkeypatch.setattr(baths, "GAUSS_ORDER_START", 2 * baths.GAUSS_ORDER_START)
        with mock.patch.object(baths, "QUADRATURE_REL_TOL", 1e-7):
            *_, c2_fine = redfield_coefficients(x, beta, W_CUTOFF)
        assert c2 == pytest.approx(c2_fine, rel=1e-6)

    def test_c1_negative_argument_no_pole(self):
        _, _, c1, _ = redfield_coefficients(-1.5, 4.0, W_CUTOFF)
        want = scipy.integrate.quad(
            lambda nu: nu**3 / np.expm1(4.0 * nu) / (-1.5 - nu), 0, 60, limit=200)[0] / np.pi
        assert c1 == pytest.approx(want, rel=1e-7)


class TestSpecValidation:
    def test_bath_invariants(self):
        with pytest.raises(ValidationError):
            replace(HOT, beta=-1.0)
        with pytest.raises(ValidationError):
            replace(HOT, transitions=((1, 0), (1, 0)))
        with pytest.raises(ValidationError):
            # so no coupling operator is ever built for a level and itself
            replace(HOT, transitions=((1, 1),))
        with pytest.raises(ValidationError):
            replace(HOT, j0=-1.0)
        with pytest.raises(ValidationError):
            replace(HOT, omega_cutoff=0.0)


class TestDipoleCalibration:
    def test_zero_spectral_density_boundary(self):
        assert qubit_dipole_calibration(ohmic(0.0, 1.0), 1.0) == 0.0

    @pytest.mark.parametrize("gap,error", [(0.0, ValidationError), (-0.5, ValidationError),
                                           (5e-324, ValidationError), (1e-110, ValidationError),
                                           (1e200, OverflowError)])
    def test_gap_without_a_dipole(self, gap, error):
        # a gap of 0 has no dipole, one of 1e-110 or less underflows omega10**3 to 0,
        # and one of 1e200 overflows it
        with pytest.raises(error):
            qubit_dipole_calibration(COLD, gap)

    def test_cold_bath_value(self):
        spec = ohmic(4e-3, np.sqrt(0.2))
        j = 4e-3 * 0.5 * np.exp(-1.25)
        want = np.sqrt(6 * np.pi**2 * j / 0.125)
        assert qubit_dipole_calibration(spec, 0.5) == pytest.approx(want, rel=1e-12)

    def test_rate_match_on_population_decay(self):
        # calibrated qubit: Lindblad and Redfield relaxation rates within 1%
        bath = BathSpec("cold", beta=1 / 4, j0=4e-3, omega_cutoff=np.sqrt(0.2),
                        transitions=((1, 0),))
        common = dict(energies=(0.0, 0.5), target_level=1, baths=(bath,),
                      initial_level=1)
        tl = evolve(ScenarioConfig(label="l", kind="lindblad", **common), 40.0, dt=0.02)
        tr = evolve(ScenarioConfig(label="r", kind="redfield", **common), 40.0, dt=0.02)

        def fit_rate(traj):
            p = traj.populations[:, 1]
            p_inf = p[-1]
            y = np.log(np.abs(p[:-200] - p_inf))
            return -np.polyfit(traj.times[:-200], y, 1)[0]

        assert fit_rate(tl) == pytest.approx(fit_rate(tr), rel=0.01)


class TestBatchedQuadrature:
    """One pv_quadrature call over an array of poles: f once per Gauss order, a
    (poles x nodes) array of subtracted quotients, and every check kept per pole."""

    @staticmethod
    def f(nu):
        return np.exp(-0.1 * np.asarray(nu, float))

    def test_pole_on_an_order_96_node_refines_only_its_own_row(self, monkeypatch):
        # the node pole gives 0/0 at order 96, so it alone needs order 384; a
        # row refined with it would carry its order-384 value, not the
        # order-192 value of its one-element call
        node = _near_node(96, 4, 10, 0.0, 1.0)
        poles = np.array([0.5, 3.0, node, 7.5, 30.25, 91.0, 120.0, 150.0, 170.0, 199.0])
        orders = _record_orders(monkeypatch)
        assert pv_quadrature(self.f, node, (0.0, 200.0)) is not None and orders == [96, 192, 384]
        singles = []
        for c in poles[poles != node]:
            orders.clear()
            singles.append(pv_quadrature(self.f, c, (0.0, 200.0)))
            assert orders == [96, 192], c
        orders.clear()
        got = pv_quadrature(self.f, poles, (0.0, 200.0))
        assert orders == [96, 192, 384]
        assert np.array_equal(got[poles != node], singles)
        assert got[poles == node][0] == pytest.approx(
            quad_cauchy(lambda nu: np.exp(-0.1 * nu), node, 200.0), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(poles=st.lists(st.floats(1e-6, 199.9999), min_size=1, max_size=12),
           bose=st.booleans())
    def test_array_call_matches_quadpack_at_every_pole(self, poles, bose):
        if bose:
            f_arr = lambda nu: np.asarray(nu, float) ** 3 / np.expm1(0.25 * np.asarray(nu, float))
            f_sca = lambda nu: nu ** 3 / np.expm1(0.25 * nu) if nu > 0 else 0.0
        else:
            f_arr = lambda nu: np.exp(-0.1 * np.asarray(nu, float)) * np.asarray(nu, float)
            f_sca = lambda nu: np.exp(-0.1 * nu) * nu
        got = pv_quadrature(f_arr, np.array(poles), (0.0, 200.0))
        assert got.shape == (len(poles),)
        for c, value in zip(poles, got):
            assert value == pytest.approx(quad_cauchy(f_sca, c, 200.0), rel=1e-12), c

    def test_equal_poles_share_one_value_in_the_callers_shape(self):
        poles = np.array([[3.0, -1.0], [3.0, 250.0]])
        got = pv_quadrature(self.f, poles, (0.0, 200.0))
        assert got.shape == (2, 2) and got[0, 0] == got[1, 0]
        assert got[0, 1] == pv_quadrature(self.f, -1.0, (0.0, 200.0))

    def test_a_row_that_does_not_converge_names_its_own_pole(self):
        # f(c) is NaN at c = 7 only, so that row's quotients are NaN at every order
        from floqdyn.errors import NumericalError

        def f(nu):
            return np.where(nu == 7.0, np.nan, self.f(nu))

        with pytest.raises(NumericalError, match=r"pv\(pole 7\) did not converge: "
                                                 r"order 768 -> nan, order 1536 -> nan"):
            pv_quadrature(f, np.array([3.0, 7.0, 12.0]), (0.0, 200.0))
        assert np.all(np.isfinite(pv_quadrature(f, np.array([3.0, 12.0]), (0.0, 200.0))))


class TestQuadratureConvergenceGuard:
    def test_non_convergence_raises_with_diagnostics(self):
        # a square-root kink inside a panel: Gauss orders converge only
        # algebraically there, so 768 and 1536 still differ by 6e-6 relative
        from floqdyn.errors import NumericalError

        def f(nu):
            nu = np.asarray(nu, float)
            return np.sqrt(np.abs(nu - 2.0)) * np.exp(-nu)

        with pytest.raises(NumericalError, match="order 768 -> .*, order 1536 -> "):
            pv_quadrature(f, 3.0, (0.0, 1.0e4))

    def test_pole_on_a_gauss_node_refines_past_it(self, monkeypatch):
        # the subtracted quotient (f(nu) - f(c))/(nu - c) is 0/0 at a node equal
        # to the pole: order 192 gives NaN, which fails against 96 and 384, and
        # order 768, clear of the pole, is checked against 384
        pole = _near_node(192, 4, 10, 0.0, 1.0)
        orders = _record_orders(monkeypatch)
        got = pv_quadrature(lambda nu: np.exp(-0.1 * np.asarray(nu, float)), pole, (0.0, 200.0))
        assert orders == [96, 192, 384, 768]
        assert got == pytest.approx(quad_cauchy(lambda nu: np.exp(-0.1 * nu), pole, 200.0),
                                    rel=1e-12)

    @pytest.mark.parametrize("coefficients", [
        lambda x: gamma_xi_ohmic(HOT, 1.3, x, W_CUTOFF),
        lambda x: redfield_coefficients(x, 1.3, W_CUTOFF),
    ], ids=["xi", "c1"])
    def test_cached_coefficient_rechecked_under_tighter_tolerance(self, coefficients):
        from floqdyn.errors import NumericalError

        # a negative tolerance, which no two orders meet, not even two that
        # agree to the last bit (a smooth integrand's orders can)
        x = 0.7371
        want = coefficients(x)
        with mock.patch.object(baths, "QUADRATURE_REL_TOL", -1.0):
            with pytest.raises(NumericalError, match="did not converge"):
                coefficients(x)
        assert coefficients(x) == want


def _mp_gauss_weight(x: float, n: int) -> float:
    """The Gauss-Legendre weight 2/((1 - x^2) P_n'(x)^2) of the node of order n
    next to ``x``, the node refined by Newton steps at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        for _ in range(2):
            p0, p1 = mpmath.mpf(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            dp = n * (p0 - x * p1) / (1 - x * x)
            x -= p1 / dp
        return float(2 / ((1 - x * x) * dp * dp))


#: the Gauss orders ``_checked`` uses, GAUSS_ORDER_START doubled up to GAUSS_ORDER_CAP
GAUSS_ORDERS = (96, 192, 384, 768, 1536)


class TestGaussLegendreRules:
    def test_cached_rule_is_read_only_and_exact(self):
        # exactly symmetric about 0, cached, and not writable
        x, w = baths._leggauss(96)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert baths._leggauss(96)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0

    @pytest.mark.parametrize("order", GAUSS_ORDERS)
    def test_rule_against_leggauss_and_a_40_digit_oracle(self, order):
        # the nodes within 4 eps of numpy's leggauss; the weights against the
        # 40-digit weight at the ends, the middle and every 64th node.  The
        # series in theta keeps them within 2.2e-14 relative at every order, and
        # leggauss's own weights are off by up to 1.5e-8 at the ends of order
        # 1536, so leggauss is no reference for the weights
        eps = np.finfo(float).eps
        x, w = baths._leggauss(order)
        want_x, want_w = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(x - want_x)) <= 4 * eps
        picks = np.unique(np.r_[0:3, order // 2 - 1:order // 2 + 1, 0:order:64])
        want = np.array([_mp_gauss_weight(x[i], order) for i in picks])
        ours = np.abs(w[picks] / want - 1)
        assert np.max(ours) <= 1e-12
        assert np.max(ours) <= np.max(np.abs(want_w[picks] / want - 1))

    @pytest.mark.parametrize("order", GAUSS_ORDERS)
    def test_rule_integrates_even_powers_exactly(self, order):
        # an n-point rule is exact for x^(2j), j < n: the integral 2/(2j + 1),
        # from the positive nodes and the symmetry.  The rule keeps every moment
        # within 4e-14 relative; the powers' own rounding grows with j
        x, w = baths._leggauss(order)
        positive = x > 0
        j = np.arange(order)
        moments = 2.0 * (w[positive, None] * (x[positive, None] ** 2) ** j).sum(axis=0)
        assert np.max(np.abs(moments * (2 * j + 1) / 2 - 1)) <= 1e-12

    def test_checked_evaluates_each_order_once(self):
        # once per order for all poles: (f(nu) - 0)/(nu - c) = exp(-nu) (nu + 2) at
        # c = -1 and exp(-nu) (nu + 1) at c = -2
        from floqdyn.baths import _checked

        orders = []

        def f(nu):
            orders.append(len(nu))
            return np.exp(-nu) * (nu + 1.0) * (nu + 2.0)

        value = _checked(f, np.array([0.0, 1.0, 3.0]), np.array([-1.0, -2.0]), np.zeros(2))
        assert orders == [192, 384]
        assert value == pytest.approx([3.0 - 6.0 * np.exp(-3.0), 2.0 - 5.0 * np.exp(-3.0)],
                                      rel=1e-14)

    def test_no_preset_coefficient_refines_past_order_192(self, monkeypatch):
        # every preset generator of every kind its drive allows, from cold caches
        orders = _record_orders(monkeypatch)
        for make in PRESETS.values():
            cfg = make()
            for kind in ("floquet_lindblad", "floquet_redfield") if cfg.drive \
                    else ("lindblad", "redfield"):
                build_generator(replace(cfg, kind=kind))
        assert orders and max(orders) == 192


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
    x -> 0; and four poles 0.2 to 0.245 from 0, about the widest first panel
    (0.25) of pv_quadrature's grid."""
    gaps = {abs(cfg.energies[up] - cfg.energies[lo])
            for cfg in (make() for make in PRESETS.values())
            for bath in cfg.baths for up, lo in bath.transitions}
    omega = REFERENCE_DRIVE["omega"]
    xs = {s * g + q * omega for g in gaps for s in (1, -1) for q in (-1, 0, 1)}
    return sorted(xs | {0.0, 1e-3, -1e-3, 0.2, 0.22222222222222224, 0.2444444444444445,
                        -0.22222222222222224})


MPMATH_FREQUENCIES = _preset_frequencies()
#: relative agreement demanded against the 20-digit oracle (measured <= 3.2e-11)
MPMATH_RTOL = 1e-9
#: the table baths and a colder, sharper one whose 1/beta and omega_c lie below
#: 0.25, so the first panel of xi's and C1's grids is narrower than 0.25
ORACLE_BATHS = {**TABLE_BATHS, "sharp": {"beta": 20.0, "j0": 1e-3, "omega_cutoff": 0.2}}


class TestMpmathOracle:
    @pytest.fixture(autouse=True)
    def _digits(self):
        with mpmath.workdps(20):
            yield

    @pytest.mark.parametrize("bath", sorted(ORACLE_BATHS))
    def test_xi_at_preset_frequencies(self, bath):
        spec = BathSpec(bath, **ORACLE_BATHS[bath])
        beta = ORACLE_BATHS[bath]["beta"]
        for x in MPMATH_FREQUENCIES:
            want = float(xi_mpmath(spec, beta, x))
            assert gamma_xi_ohmic(spec, beta, x, W_CUTOFF)[1] == pytest.approx(
                want, rel=MPMATH_RTOL), x

    @pytest.mark.parametrize("bath", sorted(TABLE_BATHS))
    @pytest.mark.parametrize("x", [1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4])
    def test_xi_near_zero_frequency(self, bath, x):
        # the pole -x sits |x| from the panel edge at 0, where F(-x) is
        # subtracted; split at the pole, the oracle's two parts each grow as
        # ln|x|.  The oracle's pole sits |x| from the end of its first interval,
        # where 20 digits leave it 2e-10 off at |x| = 1e-12; it runs at 40
        spec = BathSpec(bath, **TABLE_BATHS[bath])
        beta = TABLE_BATHS[bath]["beta"]
        with mpmath.workdps(40):
            want = float(xi_mpmath(spec, beta, x))
        assert gamma_xi_ohmic(spec, beta, x, W_CUTOFF)[1] == pytest.approx(want, rel=MPMATH_RTOL)

    @pytest.mark.parametrize("bath", sorted(ORACLE_BATHS))
    def test_c1_at_positive_preset_frequencies(self, bath):
        beta = ORACLE_BATHS[bath]["beta"]
        for x in (x for x in MPMATH_FREQUENCIES if x > 0):
            assert redfield_coefficients(x, beta, W_CUTOFF)[2] == pytest.approx(
                float(c1_mpmath(beta, x)), rel=MPMATH_RTOL), x

    @pytest.mark.parametrize("bath", sorted(ORACLE_BATHS))
    def test_c1_at_non_positive_preset_frequencies(self, bath):
        beta = ORACLE_BATHS[bath]["beta"]
        for x in (x for x in MPMATH_FREQUENCIES if x <= 0):
            assert redfield_coefficients(x, beta, W_CUTOFF)[2] == pytest.approx(
                float(c1_mpmath(beta, x)), rel=MPMATH_RTOL), x

    @pytest.mark.parametrize("bath", ["cold", "hot"])
    def test_refined_coefficients_stay_on_the_oracle(self, bath, monkeypatch):
        # at 1e-13 some xi and C1 need orders past 192 (up to 768), not the cap
        spec = BathSpec(bath, **ORACLE_BATHS[bath])
        beta = ORACLE_BATHS[bath]["beta"]
        orders = _record_orders(monkeypatch)
        refined = []
        with mock.patch.object(baths, "QUADRATURE_REL_TOL", 1e-13):
            for x in MPMATH_FREQUENCIES:
                for name, get in (("xi", lambda: gamma_xi_ohmic(spec, beta, x, W_CUTOFF)[1]),
                                  ("c1", lambda: redfield_coefficients(x, beta, W_CUTOFF)[2])):
                    orders.clear()
                    got = get()
                    if max(orders) > 192:
                        refined.append((name, x, got))
        assert {name for name, _, _ in refined} == {"xi", "c1"}
        for name, x, got in refined:
            want = xi_mpmath(spec, beta, x) if name == "xi" else c1_mpmath(beta, x)
            assert got == pytest.approx(float(want), rel=MPMATH_RTOL), (name, x)

    def test_c2_at_non_positive_preset_frequencies(self):
        # the closed form keeps |x|^3 ln(W/|x|) of |x|^3 ln((W + |x|)/|x|),
        # which leaves out |x|^3 ln(1 + |x|/W) <= x^4/W
        beta, w = TABLE_BATHS["cold"]["beta"], W_CUTOFF
        for x in (x for x in MPMATH_FREQUENCIES if x <= 0):
            want = float(c1_mpmath(beta, x) + vacuum_mpmath(x, w))
            got = redfield_coefficients(x, beta, W_CUTOFF)[3]
            assert abs(got - want) <= MPMATH_RTOL * abs(want) + x**4 / (np.pi * w), x

    @pytest.mark.parametrize("bath", sorted(TABLE_BATHS))
    def test_c2_at_positive_preset_frequencies(self, bath):
        # the closed form keeps -x^3 ln(W/x) of -x^3 ln((W - x)/x),
        # which leaves out x^3 ln(W/(W - x)) ~ x^4/W
        beta, w = TABLE_BATHS[bath]["beta"], W_CUTOFF
        for x in (x for x in MPMATH_FREQUENCIES if x > 0):
            want = float(c1_mpmath(beta, x) + vacuum_mpmath(x, w))
            got = redfield_coefficients(x, beta, W_CUTOFF)[3]
            assert abs(got - want) <= MPMATH_RTOL * abs(want) + x**4 / (np.pi * w), x
