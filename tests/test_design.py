import dataclasses
from collections import Counter

import numpy as np
import pytest

from bayesdecide import (BetaPosterior, CostFunction, GammaPosterior, GaussianPosterior,
                         JointModel, LossSpec, NumericError, ValidationError, beta_bernoulli,
                         expected_joint_loss, gaussian_known_variance,
                         neg_posterior_variance, optimal_sample_size, voi)

SEED = 20220901


def _exact_beta_bernoulli_voi(a, b, n_existing, n_extra):
    """The drop in E Var(Y | s successes of n) from n = n_existing to
    n_existing + n_extra, as E Var(Y | s, n) = Var(Y) (a + b) / (a + b + n)."""
    m = a + b
    prior_var = a * b / (m * m * (m + 1.0))
    return prior_var * m * (1.0 / (m + n_existing) - 1.0 / (m + n_existing + n_extra))


class TestCostFunction:
    def test_affine(self):
        c = CostFunction(c0=1.0, per_unit=2.0)
        assert c(0) == 1.0
        assert c(5) == 11.0

    def test_table(self):
        c = CostFunction(table={0: 0.0, 5: 3.0, 10: 9.0})
        assert c(5) == 3.0
        with pytest.raises(ValidationError):
            c(7)

    def test_table_is_a_read_only_copy(self):
        # an entry set to -7 after construction used to be returned as the cost
        table = {0: 0.0, 1: 2.0}
        c = CostFunction(table=table)
        table[1] = -7.0
        assert c(1) == 2.0
        with pytest.raises(TypeError):
            c.table[1] = -7.0

    def test_table_must_be_nondecreasing(self):
        with pytest.raises(ValidationError):
            CostFunction(table={0: 5.0, 1: 2.0})

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            CostFunction(c0=-1.0)


class TestVoi:
    def test_conjugate_gaussian_exact_value(self):
        # posterior variance drops from 1/2 (one obs) to 1/3 (two obs)
        # regardless of the data, so every replicate's gain is exactly 1/6
        model = gaussian_known_variance(0.0, 1.0, 1.0, n_existing=1, n_extra=1)
        est, se = voi(model, neg_posterior_variance, n_mc=50, seed=SEED)
        assert est == pytest.approx(1.0 / 2.0 - 1.0 / 3.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_perfect_information_arm(self):
        # a noiseless extra arm collapses the posterior: gain = 1/2 exactly
        model = gaussian_known_variance(0.0, 1.0, 1.0, extra_noise_sd=0.0)
        est, se = voi(model, neg_posterior_variance, n_mc=50, seed=SEED)
        assert est == pytest.approx(0.5, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_ignored_arm_is_exactly_zero(self):
        base = gaussian_known_variance(0.0, 1.0, 1.0)
        blind = JointModel(
            prior_sampler=base.prior_sampler,
            data_sampler=base.data_sampler,
            posterior_builder=lambda z, z_extra=None: base.posterior_builder(z, None),
            extra_data_sampler=base.extra_data_sampler,
        )
        est, se = voi(blind, neg_posterior_variance, n_mc=50, seed=SEED)
        assert est == 0.0
        assert se == 0.0

    def test_reproducible_for_fixed_seed(self):
        model = beta_bernoulli(2.0, 2.0, n_existing=3, n_extra=3)
        a = voi(model, neg_posterior_variance, n_mc=40, seed=7)
        b = voi(model, neg_posterior_variance, n_mc=40, seed=7)
        assert a == b

    @pytest.mark.parametrize("a, b, n_existing, n_extra",
                             [(5, 1, 2, 3), (0.5, 0.5, 1, 2), (2, 2, 1, 1), (2, 2, 3, 4)])
    def test_beta_bernoulli_matches_conjugate_value(self, a, b, n_existing, n_extra):
        # the exact posterior leaves the replicates as the only error
        model = beta_bernoulli(a, b, n_existing=n_existing, n_extra=n_extra)
        est, se = voi(model, neg_posterior_variance, n_mc=4000, seed=7)
        assert abs(est - _exact_beta_bernoulli_voi(a, b, n_existing, n_extra)) <= 3.0 * se

    def test_beta_bernoulli_gain_positive(self):
        model = beta_bernoulli(2.0, 2.0, n_existing=2, n_extra=10)
        est, se = voi(model, neg_posterior_variance, n_mc=60, seed=3)
        assert est > 0
        assert est > 2 * se

    def test_requires_extra_arm(self):
        base = gaussian_known_variance(0.0, 1.0, 1.0)
        no_extra = JointModel(base.prior_sampler, base.data_sampler,
                              base.posterior_builder)
        with pytest.raises(ValidationError):
            voi(no_extra, neg_posterior_variance, n_mc=10, seed=1)

    def test_needs_replicates(self):
        model = gaussian_known_variance(0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            voi(model, neg_posterior_variance, n_mc=1, seed=1)


class TestExpectedJointLoss:
    def test_zero_observations_gives_prior_variance(self):
        model = gaussian_known_variance(0.0, 1.0, 1.0)
        ejl = expected_joint_loss(model, LossSpec.sel(), n=0, n_mc=3000, seed=SEED)
        assert ejl == pytest.approx(1.0, abs=0.1)

    def test_matches_conjugate_posterior_variance(self):
        # E over (y, z) of (posterior mean - y)^2 is the posterior
        # variance 1/(1+n) for a unit-information Gaussian pair
        model = gaussian_known_variance(0.0, 1.0, 1.0)
        ejl = expected_joint_loss(model, LossSpec.sel(), n=4, n_mc=3000, seed=SEED)
        assert ejl == pytest.approx(1.0 / 5.0, abs=0.02)

    def test_decreasing_in_n_on_shared_draws(self):
        model = gaussian_known_variance(0.0, 1.0, 1.0)
        out = [expected_joint_loss(model, LossSpec.sel(), n, 800, SEED, max_n=16)
               for n in (0, 1, 4, 16)]
        assert out[0] > out[1] > out[2] > out[3]

    def test_reproducible(self):
        model = beta_bernoulli(1.5, 1.5)
        a = expected_joint_loss(model, LossSpec.sel(), n=3, n_mc=50, seed=11)
        b = expected_joint_loss(model, LossSpec.sel(), n=3, n_mc=50, seed=11)
        assert a == b

    def test_non_finite_realised_loss_refused(self):
        model = JointModel(prior_sampler=lambda rng: np.inf,
                           data_sampler=lambda rng, y, n: np.zeros(n),
                           posterior_builder=lambda z, z_extra: GaussianPosterior(0.0, 1.0))
        with pytest.raises(NumericError, match="non-finite loss in replicate 0 .*n=1"):
            expected_joint_loss(model, LossSpec.sel(), n=1, n_mc=2, seed=SEED)


class TestOptimalSampleSize:
    def test_conjugate_oracle_n_star(self):
        # objective tau/(1+n) + c0 + n has its exact minimum over the grid
        # at n = 9 for tau = 100, unit costs; the Monte Carlo estimate of
        # E_JL(n) = 1/(1+n) must land on the same argmin
        model = gaussian_known_variance(0.0, 1.0, 1.0)
        cost = CostFunction(c0=1.0, per_unit=1.0)
        n_star, curve = optimal_sample_size(
            model, LossSpec.sel(), tau=100.0, cost=cost,
            n_grid=[1, 3, 9, 27, 81], n_mc=400, seed=SEED)
        assert n_star == 9
        objective = {row[0]: row[1] for row in curve}
        for n in (1, 3, 9, 27, 81):
            # Monte Carlo SE of the objective is tau * sqrt(2) / ((1+n) sqrt(R))
            tol = 5.0 * 100.0 * 2 ** 0.5 / ((1 + n) * 400 ** 0.5)
            assert objective[n] == pytest.approx(100.0 / (1 + n) + 1 + n, abs=tol)

    def test_curve_rows_are_consistent(self):
        model = gaussian_known_variance(0.0, 1.0, 1.0)
        cost = CostFunction(c0=0.5, per_unit=0.25)
        _, curve = optimal_sample_size(
            model, LossSpec.sel(), tau=10.0, cost=cost,
            n_grid=[0, 2, 4], n_mc=100, seed=1)
        for n, obj, ejl, c in curve:
            assert obj == pytest.approx(10.0 * ejl + c)
            assert c == cost(n)

    def test_tie_goes_to_smallest_n(self):
        # free sampling and a flat (ignored-data) posterior: every n ties
        flat = JointModel(
            prior_sampler=lambda rng: rng.normal(),
            data_sampler=lambda rng, y, n: np.zeros(n),
            posterior_builder=lambda z, z_extra=None: __import__(
                "bayesdecide").GaussianPosterior(0.0, 1.0),
        )
        n_star, _ = optimal_sample_size(
            flat, LossSpec.sel(), tau=1.0, cost=CostFunction(),
            n_grid=[2, 5, 3], n_mc=30, seed=2)
        assert n_star == 2

    def test_validation(self):
        model = gaussian_known_variance(0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            optimal_sample_size(model, LossSpec.sel(), 1.0, CostFunction(),
                                [], 10, 1)
        with pytest.raises(ValidationError):
            optimal_sample_size(model, LossSpec.sel(), 1.0, CostFunction(),
                                [-1, 2], 10, 1)
        with pytest.raises(ValidationError):
            optimal_sample_size(model, LossSpec.sel(), 0.0, CostFunction(),
                                [1], 10, 1)


class TestTemplates:
    def test_gaussian_builder_matches_conjugate_algebra(self):
        model = gaussian_known_variance(1.0, 2.0, 1.0)
        z = np.array([3.0, 5.0])
        post = model.posterior_builder(z, None)
        prec = 1 / 4 + 2 / 1
        mean = (1.0 / 4 + 8.0) / prec
        assert post.mean == pytest.approx(mean)
        assert post.sd == pytest.approx(prec ** -0.5)

    def test_beta_builder_moments(self):
        model = beta_bernoulli(2.0, 3.0)
        post = model.posterior_builder(np.array([1.0, 1.0, 0.0]), None)
        # Beta(4, 4): mean 1/2, variance 16 / (64 * 9)
        assert post.moments() == (0.5, 1.0 / 36.0)

    def test_beta_builder_deterministic(self):
        model = beta_bernoulli(2.0, 3.0)
        z = np.array([1.0, 0.0])
        p1 = model.posterior_builder(z, None)
        p2 = model.posterior_builder(z, None)
        assert p1 == p2 == BetaPosterior(3.0, 4.0)

    def test_beta_builder_counts_both_arms(self):
        model = beta_bernoulli(2.0, 3.0)
        post = model.posterior_builder(np.array([1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
        assert isinstance(post, BetaPosterior)
        assert (post.a, post.b) == (5.0, 5.0)
        assert model.posterior_builder(None, None) == BetaPosterior(2.0, 3.0)

    def test_beta_builder_keeps_a_tiny_b(self):
        # (1e-300 + 2) - 2 would be 0: failures are counted before b is added
        post = beta_bernoulli(1.0, 1e-300).posterior_builder(np.ones(2), None)
        assert (post.a, post.b) == (3.0, 1e-300)

    def test_template_validation(self):
        with pytest.raises(ValidationError):
            gaussian_known_variance(0.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            beta_bernoulli(0.0, 1.0)
        for a, b in ((np.inf, 1.0), (1.0, np.nan), (1e308, 1e308)):
            with pytest.raises(ValidationError, match="a and b must be finite"):
                beta_bernoulli(a, b)


# ---------------------------------------------------------------------------
# one pass over replicates: pinned streams, shared draws and call counts

COST = CostFunction(c0=0.1, per_unit=0.02)


def _gkv():
    return gaussian_known_variance(0.5, 2.0, 1.5, n_existing=2, n_extra=3)


def _bb():
    return beta_bernoulli(2.0, 3.0, n_existing=2, n_extra=3)


def _poisson_gamma():
    """A custom pair: Poisson counts, conjugate Gamma(3, 2) prior on the rate."""
    def build(z, z_extra=None):
        arms = [arm for arm in (z, z_extra) if arm is not None]
        return GammaPosterior(3.0 + sum(float(np.sum(arm)) for arm in arms),
                              2.0 + sum(len(arm) for arm in arms))
    return JointModel(
        prior_sampler=lambda rng: rng.gamma(3.0, 0.5),
        data_sampler=lambda rng, y, n: rng.poisson(y, size=n).astype(float),
        posterior_builder=build,
        extra_data_sampler=lambda rng, y, n: rng.poisson(y, size=n).astype(float),
        n_existing=2, n_extra=2)


def _median_error(post, truth):
    """VOI value function read off the sorted cloud, with no BLAS reduction."""
    return -abs(post.quantile(0.5) - truth)


# (case, seed) -> result, recorded when each replicate first drew its prior
# value, data and extra arm from one generator (the "bb" rows when the
# beta-bernoulli template first built its exact Beta posterior).  The losses
# and value functions use arithmetic, sqrt and order statistics only, so the
# pins do not depend on the last bits of exp or a BLAS dot product, which vary
# with the library build and the CPU; the one special function they rest on
# is betaincinv, in the Beta quantiles of "bb-n" (QTL) and "bb-voi" (median).
PINNED = {
    ("gkv-n", 5): (8, [
        (0, 27.722283765654392, 2.762228376565439, 0.1),
        (1, 17.885689625922296, 1.7765689625922294, 0.12000000000000001),
        (3, 6.346636964405496, 0.6186636964405496, 0.16),
        (8, 2.963374605683409, 0.27033746056834096, 0.26)]),
    ("gkv-n", 20220901): (8, [
        (0, 38.36377700421973, 3.826377700421973, 0.1),
        (1, 14.64843825004683, 1.4528438250046831, 0.12000000000000001),
        (3, 6.01347327885529, 0.585347327885529, 0.16),
        (8, 3.6697645636339216, 0.34097645636339213, 0.26)]),
    ("bb-n", 5): (5, [
        (0, 0.7140478848530204, 0.06140478848530204, 0.1),
        (2, 0.6966164329366912, 0.055661643293669114, 0.14),
        (5, 0.6788561186518045, 0.04788561186518046, 0.2)]),
    ("bb-n", 20220901): (0, [
        (0, 0.6754997965527881, 0.05754997965527882, 0.1),
        (2, 0.7056104303272909, 0.05656104303272909, 0.14),
        (5, 0.6821462204035991, 0.04821462204035991, 0.2)]),
    ("custom-n", 5): (4, [
        (0, 3.9664529088959344, 0.7732905817791869, 0.1),
        (1, 3.0175100199384413, 0.5795020039876883, 0.12000000000000001),
        (4, 2.820979844917374, 0.5281959689834748, 0.18)]),
    ("custom-n", 20220901): (4, [
        (0, 2.5255606735158818, 0.4851121347031763, 0.1),
        (1, 1.4436756264522919, 0.26473512529045834, 0.12000000000000001),
        (4, 0.5038316425639044, 0.0647663285127809, 0.18)]),
    ("gkv-voi", 5): (0.4735543984653331, 2.54702629954375e-17),
    ("gkv-voi", 20220901): (0.4735543984653331, 2.54702629954375e-17),
    ("bb-voi", 5): (0.02270988192733373, 0.02451956410664549),
    ("bb-voi", 20220901): (0.023776688834237353, 0.021092592785096155),
    ("custom-voi", 5): (0.16493055555555555, 0.02130370035799262),
    ("custom-voi", 20220901): (0.11689814814814815, 0.01637193215313136),
    ("gkv-ejl", 5): [1.4501886483597553, 0.6918705076259343, 0.41318757002038864],
    ("gkv-ejl", 20220901): [1.504247461373336, 0.9224740891168653, 0.5006886005559387],
    ("bb-ejl", 5): [0.0284968326130214, 0.022456474766910015],
    ("bb-ejl", 20220901): [0.027882189537919138, 0.01654491718998023],
}

RUNS = {
    "gkv-n": lambda seed: optimal_sample_size(
        _gkv(), LossSpec.sel(), 10.0, COST, [0, 1, 3, 8], 30, seed),
    "bb-n": lambda seed: optimal_sample_size(
        _bb(), LossSpec.qtl(0.7), 10.0, COST, [0, 2, 5], 20, seed),
    "custom-n": lambda seed: optimal_sample_size(
        _poisson_gamma(), LossSpec.sel(), 5.0, COST, [0, 1, 4], 12, seed),
    "gkv-voi": lambda seed: voi(_gkv(), neg_posterior_variance, 20, seed),
    "bb-voi": lambda seed: voi(_bb(), _median_error, 20, seed),
    "custom-voi": lambda seed: voi(_poisson_gamma(), neg_posterior_variance, 12, seed),
    "gkv-ejl": lambda seed: [expected_joint_loss(_gkv(), LossSpec.mtc(1.0), n, 15, seed,
                                                 max_n=6) for n in (0, 2, 6)],
    "bb-ejl": lambda seed: [expected_joint_loss(_bb(), LossSpec.sel(), n, 15, seed)
                            for n in (0, 4)],
}


class TestPinnedStreams:
    @pytest.mark.parametrize("case, seed", sorted(PINNED))
    def test_repr_identical_to_recorded(self, case, seed):
        assert repr(RUNS[case](seed)) == repr(PINNED[case, seed])


def _counting(model):
    """The model with its prior and data samplers counting their calls."""
    calls = Counter()

    def count(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped
    counted = dataclasses.replace(
        model, prior_sampler=count("prior", model.prior_sampler),
        data_sampler=count("data", model.data_sampler))
    return counted, calls


class TestOnePass:
    GRID = [0, 1, 3, 7]

    @pytest.mark.parametrize("make, loss", [(_gkv, LossSpec.sel()),
                                            (_bb, LossSpec.qtl(0.7)),
                                            (_poisson_gamma, LossSpec.mtc(1.0))])
    def test_rows_equal_expected_joint_loss_bit_for_bit(self, make, loss):
        _, curve = optimal_sample_size(make(), loss, 3.0, COST, self.GRID, 25, 9)
        for n, _, ejl, _ in curve:
            assert ejl == expected_joint_loss(make(), loss, n, 25, 9, max_n=7)

    @pytest.mark.parametrize("make", [_gkv, _bb])
    def test_samplers_run_once_per_replicate(self, make):
        model, calls = _counting(make())
        optimal_sample_size(model, LossSpec.sel(), 1.0, COST, self.GRID, 17, 3)
        assert calls == {"prior": 17, "data": 17}

    def test_no_data_draw_when_every_n_is_zero(self):
        model, calls = _counting(_gkv())
        optimal_sample_size(model, LossSpec.sel(), 1.0, COST, [0], 5, 3)
        assert calls == {"prior": 5}

    def test_draws_are_shared_read_only(self):
        base = _gkv()
        seen = []

        def build(z, z_extra=None):
            if z is not None:
                seen.append(z.flags.writeable)
            return base.posterior_builder(z, z_extra)
        model = dataclasses.replace(base, posterior_builder=build)
        optimal_sample_size(model, LossSpec.sel(), 1.0, COST, [0, 2, 4], 6, 1)
        assert seen and not any(seen)


class TestReplicateBudget:
    @pytest.mark.parametrize("n_mc", [0, -1])
    def test_expected_joint_loss_needs_a_replicate(self, n_mc):
        with pytest.raises(ValidationError, match="n_mc"):
            expected_joint_loss(_gkv(), LossSpec.sel(), 2, n_mc, 1)

    @pytest.mark.parametrize("n_mc", [0, -1])
    def test_optimal_sample_size_needs_a_replicate(self, n_mc):
        with pytest.raises(ValidationError, match="n_mc"):
            optimal_sample_size(_gkv(), LossSpec.sel(), 1.0, COST, [0, 2], n_mc, 1)

    def test_max_n_below_n_rejected(self):
        with pytest.raises(ValidationError, match="max_n"):
            expected_joint_loss(_gkv(), LossSpec.sel(), 5, 10, 1, max_n=3)
