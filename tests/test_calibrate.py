import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdecide import (CalibrationTarget, GaussianPosterior, LossSpec,
                         ValidationError, calibrate_linex, calibrate_quantile,
                         linex_action_approx, optimize)

Z97 = 1.8807936081512495


class TestQuantileCalibration:
    def test_three_percent_prevention(self):
        assert calibrate_quantile(0.03) == pytest.approx(0.97)

    def test_share_out_of_range(self):
        for s in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                calibrate_quantile(s)

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_level_complements_share(self, s):
        assert calibrate_quantile(s) == pytest.approx(1.0 - s)


class TestTarget:
    def test_tail_mass_to_multiple(self):
        t = CalibrationTarget(posterior_sd=1.0, tail_mass=0.03)
        assert t.multiple() == pytest.approx(Z97, abs=1e-9)

    def test_rounded_reading(self):
        t = CalibrationTarget(posterior_sd=1.0, tail_mass=0.03, rounded=True)
        assert t.multiple() == 1.88

    def test_direct_multiple_passthrough(self):
        t = CalibrationTarget(posterior_sd=2.0, gaussian_multiple=1.5)
        assert t.multiple() == 1.5

    def test_exactly_one_target_form(self):
        with pytest.raises(ValidationError):
            CalibrationTarget(posterior_sd=1.0)
        with pytest.raises(ValidationError):
            CalibrationTarget(posterior_sd=1.0, gaussian_multiple=1.0,
                              tail_mass=0.05)

    def test_symmetric_target_rejected(self):
        t = CalibrationTarget(posterior_sd=1.0, tail_mass=0.5)
        with pytest.raises(ValidationError):
            t.multiple()

    def test_sd_must_be_positive(self):
        with pytest.raises(ValidationError):
            CalibrationTarget(posterior_sd=0.0, tail_mass=0.03)

    @pytest.mark.parametrize("mass", [0.0, 1.0, 1.5])
    def test_tail_mass_must_lie_in_the_unit_interval(self, mass):
        with pytest.raises(ValidationError, match="tail mass must lie in"):
            CalibrationTarget(posterior_sd=1.0, tail_mass=mass)


class TestLinexCalibration:
    def test_rounded_three_percent_unit_sd(self):
        t = CalibrationTarget(posterior_sd=1.0, tail_mass=0.03, rounded=True)
        assert calibrate_linex(t) == pytest.approx(-3.76)

    def test_scales_inversely_with_sd(self):
        t1 = CalibrationTarget(posterior_sd=1.0, gaussian_multiple=1.88)
        t2 = CalibrationTarget(posterior_sd=2.0, gaussian_multiple=1.88)
        assert calibrate_linex(t2) == pytest.approx(calibrate_linex(t1) / 2.0)

    @given(st.floats(0.1, 3.0), st.floats(0.2, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_second_order_action_hits_target_quantile(self, z, sd):
        t = CalibrationTarget(posterior_sd=sd, gaussian_multiple=z)
        psi = calibrate_linex(t)
        _, second = linex_action_approx(psi, mu=0.0, sigma2=sd * sd)
        assert second == pytest.approx(z * sd, rel=1e-12)


class TestActionApprox:
    def test_second_order_exact_for_gaussian(self):
        psi = -3.76
        post = GaussianPosterior(2.0, 1.0)
        exact = optimize(LossSpec.linex(psi), post).action
        _, second = linex_action_approx(psi, 2.0, 1.0)
        assert second == pytest.approx(exact, abs=1e-12)

    def test_hand_values_at_unit_sd(self):
        first, second = linex_action_approx(-3.76, 0.0, 1.0)
        assert second == pytest.approx(1.88)
        assert first == pytest.approx(math.log(1 + 3.76 ** 2 / 2) / 3.76)

    def test_orders_converge_for_small_psi(self):
        first, second = linex_action_approx(-0.01, 0.0, 1.0)
        assert first == pytest.approx(second, abs=1e-4)

    def test_first_order_below_second_for_negative_psi(self):
        # log(1 + x) < x, so the first-order shift is always the smaller
        first, second = linex_action_approx(-2.0, 0.0, 1.0)
        assert first < second

    def test_zero_psi_rejected(self):
        with pytest.raises(ValidationError):
            linex_action_approx(0.0, 0.0, 1.0)

    def test_bad_variance_rejected(self):
        with pytest.raises(ValidationError):
            linex_action_approx(1.0, 0.0, 0.0)


class TestEndToEnd:
    def test_calibrated_linex_reproduces_quantile_prediction(self):
        # the whole chain: 3% prevention share -> q = 0.97 -> z (rounded)
        # -> psi -> LINEX optimum on the matching Gaussian posterior
        post = GaussianPosterior(10.0, 1.0)
        q = calibrate_quantile(0.03)
        t = CalibrationTarget(posterior_sd=1.0, tail_mass=1.0 - q, rounded=True)
        psi = calibrate_linex(t)
        linex_action = optimize(LossSpec.linex(psi), post).action
        quantile_action = optimize(LossSpec.qtl(q), post).action
        assert linex_action == pytest.approx(10.0 + 1.88, abs=1e-12)
        assert abs(linex_action - quantile_action) < 0.01
