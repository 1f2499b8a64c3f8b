import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _search import searched
from bayesdecide import (EnsembleMember, GammaPosterior, GaussianPosterior,
                         GeneralizedGaussian, LossSpec, ModelEnsemble, NumericError,
                         SamplePosterior, TailRiskCurve, ValidationError, Weight,
                         bma_predict, bma_predict_general, compose, epl, losses,
                         lower_envelope, optimize, optimize_functional, posteriors,
                         tail_risk_curve)
from bayesdecide.engine import _bracket, _golden, minimize, unimodal_epl
from bayesdecide.losses import EXP_LIMIT, CustomPotentialDensity

Z97 = 1.8807936081512495


class TestEpl:
    def test_two_point_variance(self):
        post = SamplePosterior([0.0, 2.0], [0.5, 0.5])
        assert epl(LossSpec.sel(), post, 1.0) == pytest.approx(1.0)

    def test_qtl_minimum_at_quantile(self):
        post = GaussianPosterior(0, 1)
        spec = LossSpec.qtl(0.97)
        best = post.quantile(0.97)
        grid = np.linspace(-3, 3, 121)
        values = [epl(spec, post, a) for a in grid]
        assert epl(spec, post, best) <= min(values) + 1e-9

    def test_zero_one_on_continuous_posterior_is_one(self):
        post = GaussianPosterior(0, 1)
        assert epl(LossSpec.zero_one(), post, 0.3) == pytest.approx(1.0)

    def test_positive_domain_guard(self):
        with pytest.raises(ValidationError):
            epl(LossSpec.gam(1, 2), GaussianPosterior(0, 1), 1.0)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_positive_domain_action_guard(self, a):
        with pytest.raises(ValidationError, match="requires action > 0"):
            epl(LossSpec.gam(1, 2), GammaPosterior(3, 1), a)

    @pytest.mark.parametrize("spec", [
        LossSpec.gam(1, 2), LossSpec.pwd(1.0), LossSpec.pwd(0.5),
        LossSpec.weighted(Weight.power(1.0), LossSpec.gam(1, 2)),
    ], ids=["gam", "pwd-1", "pwd-half", "weighted-gam"])
    def test_positive_domain_on_gaussian_refused_before_any_epl(self, monkeypatch, spec):
        # the 1e-10 quantile of N(10, 1) is positive, yet the density is not
        post = GaussianPosterior(10.0, 1.0)
        assert post.support()[0] > 0
        monkeypatch.setattr(GaussianPosterior, "expect", None)  # no EPL may run
        with pytest.raises(ValidationError, match="support reaches down to -inf"):
            optimize(spec, post)
        with pytest.raises(ValidationError, match="support reaches down to -inf"):
            epl(spec, post, 10.0)


class TestOptimizeDispatch:
    def test_sel_posterior_mean(self):
        d = optimize(LossSpec.sel(), GaussianPosterior(1.5, 0.2))
        assert d.action == 1.5
        assert d.method.kind == "closed_form"
        assert d.method.name == "posterior_mean"

    def test_linex_gaussian_mgf(self):
        d = optimize(LossSpec.linex(-2), GaussianPosterior(0, 1))
        assert d.action == pytest.approx(1.0, abs=1e-12)
        # exceeds the posterior mean for psi < 0 (Jensen direction)
        assert d.action > 0.0

    def test_gam_on_gamma(self):
        # 1 / E(1/Y) = (shape - 1) / rate
        d = optimize(LossSpec.gam(5, 2), GammaPosterior(3, 1))
        assert d.action == pytest.approx(2.0, abs=1e-6)

    def test_qtl_gaussian_quantile(self):
        d = optimize(LossSpec.qtl(0.97), GaussianPosterior(0, 1))
        assert d.action == pytest.approx(Z97, abs=1e-9)

    def test_mtc1_median(self):
        d = optimize(LossSpec.mtc(1), GammaPosterior(3, 1))
        assert d.action == pytest.approx(GammaPosterior(3, 1).quantile(0.5))

    def test_zero_one_mode(self):
        d = optimize(LossSpec.zero_one(), GammaPosterior(3, 1))
        assert d.action == pytest.approx(2.0)

    def test_pwd_minus_one_mean(self):
        d = optimize(LossSpec.pwd(-1.0), GammaPosterior(3, 1))
        assert d.action == pytest.approx(3.0)
        assert d.method.name == "posterior_mean"

    def test_identity_weighted_gam_mean(self):
        # w(y) = y is read off the weight's kind and parameter
        d = optimize(LossSpec.weighted(Weight.power(1.0), LossSpec.gam(1, 2)),
                     GammaPosterior(3, 1))
        assert d.action == pytest.approx(3.0)
        assert d.method.name == "posterior_mean"

    def test_weighted_sel_reweighted_mean(self):
        rng = np.random.default_rng(3)
        post = SamplePosterior(rng.gamma(3.0, 1.0, size=100_000))
        spec = LossSpec.weighted(Weight.power(1.0), LossSpec.sel())
        d = optimize(spec, post)
        assert d.action == pytest.approx(4.0, abs=0.05)  # size-biased mean

    def test_weighted_sel_with_nonpositive_weight_mass_raises(self):
        # w(y) = y is <= 0 on most of N(-1, 0.5): the reweighted mean checks
        # its weight where it evaluates it, as every other weighted loss does
        spec = LossSpec.weighted(Weight.power(1), LossSpec.sel())
        with pytest.raises(ValidationError, match="weight function must be finite and > 0"):
            optimize(spec, GaussianPosterior(-1.0, 0.5))

    def test_weighted_sel_with_underflowing_weight_mass_raises(self):
        # e^-745 is the least subnormal: positive, but half of it rounds to 0
        spec = LossSpec.weighted(Weight.exp(-1.0), LossSpec.sel())
        with pytest.raises(NumericError, match="nonpositive posterior mass"):
            optimize(spec, SamplePosterior([745.0, 745.0]))

    @pytest.mark.parametrize("base", [LossSpec.sel(), LossSpec.mtc(1.5)],
                             ids=["closed-form", "numeric"])
    def test_weight_nan_below_zero_is_refused_on_every_path(self, base):
        # y^0.5 is NaN on the negative half of N(0, 1)
        spec = LossSpec.weighted(Weight.power(0.5), base)
        with pytest.raises(ValidationError, match="weight function must be finite and > 0"):
            optimize(spec, GaussianPosterior(0.0, 1.0))

    def test_fractional_power_of_pwd_on_draws(self):
        # PWD rounds below 0 near a = y, where its square root was NaN
        spec = LossSpec.power_of(LossSpec.pwd(0.5), 0.5)
        for seed in range(40):
            draws = np.random.default_rng(seed).lognormal(0.5, 0.4, 500)
            assert math.isfinite(optimize(spec, SamplePosterior(draws)).epl)

    def test_epl_self_consistency(self):
        post = GammaPosterior(3, 1)
        for spec in (LossSpec.sel(), LossSpec.qtl(0.8), LossSpec.gam(1, 2)):
            d = optimize(spec, post)
            assert d.epl == pytest.approx(epl(spec, post, d.action), abs=1e-10)


NUMERIC_CASES = [
    LossSpec.sel(),
    LossSpec.mtc(1),
    LossSpec.qtl(0.25),
    LossSpec.qtl(0.97),
    LossSpec.linex(-0.5),
    LossSpec.linex(0.5),
]


class TestNumericAgreement:
    @pytest.mark.parametrize("spec", NUMERIC_CASES)
    @pytest.mark.parametrize("post", [GaussianPosterior(0, 1),
                                      GammaPosterior(3, 1)])
    def test_matches_closed_form(self, spec, post):
        closed = optimize(spec, post)
        numeric = searched(spec, post)
        assert numeric.method.kind == "numeric"
        lo, hi = numeric.method.bracket
        assert lo <= numeric.action <= hi
        tol = 1e-6 * (1 + abs(closed.action))
        assert abs(numeric.action - closed.action) <= tol

    def test_local_optimality_probe(self):
        post = GammaPosterior(3, 1)
        spec = LossSpec.linex(0.5)
        d = optimize(spec, post)
        for delta in (1e-3, 1e-2, 1e-1):
            assert d.epl <= epl(spec, post, d.action + delta) + 1e-12
            assert d.epl <= epl(spec, post, d.action - delta) + 1e-12

    def test_unbounded_epl_reported(self):
        # an objective decreasing without bound on either side: no EPL is,
        # but the bracket expansion must diagnose it rather than spin
        for slope, side in ((1.0, "left"), (-1.0, "right")):
            with pytest.raises(NumericError, match=rf"\({side}\): EPL appears unbounded below"):
                minimize(lambda a: slope * a, 0.5, False)


class TestOrderingProperties:
    def test_mode_median_mean_on_skewed_gamma(self):
        post = GammaPosterior(3, 1)
        mode = optimize(LossSpec.zero_one(), post).action
        median = optimize(LossSpec.mtc(1), post).action
        mean = optimize(LossSpec.sel(), post).action
        assert mode < median < mean

    @pytest.mark.parametrize("post", [GaussianPosterior(0, 1),
                                      GaussianPosterior(3, 2),
                                      GammaPosterior(3, 1)])
    def test_linex_negative_psi_exceeds_mean(self, post):
        mean = post.moments()[0]
        action = optimize(LossSpec.linex(-0.5), post).action
        assert action > mean

    def test_qtl_action_nondecreasing_in_q(self):
        post = GammaPosterior(3, 1)
        actions = [optimize(LossSpec.qtl(q), post).action
                   for q in np.linspace(0.1, 0.9, 9)]
        assert all(b >= a for a, b in zip(actions, actions[1:]))


class TestFunctional:
    def test_affine_commutes(self):
        post = GaussianPosterior(0, 1)
        g = lambda y: 2.0 * y + 1.0
        direct = optimize(LossSpec.sel(), post).action
        through = optimize_functional(LossSpec.sel(), post, g).action
        assert through == pytest.approx(g(direct), abs=1e-8)

    def test_square_does_not_commute(self):
        post = GaussianPosterior(0, 1)
        d = optimize_functional(LossSpec.sel(), post, lambda y: y ** 2)
        assert d.action == pytest.approx(1.0, abs=1e-8)  # E(Y^2), not (E Y)^2
        assert abs(d.action - optimize(LossSpec.sel(), post).action ** 2) >= 0.5

    def test_indicator_gives_tail_probability(self):
        post = GaussianPosterior(0, 1)
        g = lambda y: (np.asarray(y) > 0).astype(float)
        d = optimize_functional(LossSpec.sel(), post, g)
        assert d.action == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("spec", [LossSpec.gam(1, 2), LossSpec.pwd(1.0)],
                             ids=["gam", "pwd-1"])
    def test_inverse_mean_reciprocal_on_draws(self, spec):
        y = np.random.default_rng(7).lognormal(0.2, 0.5, size=2_000)
        d = optimize(spec, SamplePosterior(y))
        assert d.method.name == "inverse_mean_reciprocal"
        assert d.action == pytest.approx(1.0 / np.mean(1.0 / y), rel=1e-12)

    def test_sample_pushforward(self):
        rng = np.random.default_rng(5)
        post = SamplePosterior(rng.normal(0, 1, size=50_000))
        d = optimize_functional(LossSpec.sel(), post, lambda y: y ** 2)
        assert d.action == pytest.approx(1.0, abs=0.05)


class TestFunctionalJump:
    """g = I(Y > kappa) jumps at kappa; every expectation is cut there."""

    POST = GammaPosterior(13.390230504285748, 3.924224014410591)
    KAPPA = 3.781119781620137

    @pytest.fixture(autouse=True)
    def no_fallback(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the rule's first pass did not certify its sum")
        monkeypatch.setattr(posteriors, "_refine", refuse)

    def g(self, y):
        return (np.asarray(y, dtype=float) > self.KAPPA).astype(float)

    def test_sel_is_the_tail_probability(self):
        d = optimize_functional(LossSpec.sel(), self.POST, self.g)
        assert self.POST.tail_prob(self.KAPPA) == 0.31822242500251646
        assert abs(d.action - 0.31822242500251646) <= 1e-12
        p = 0.31822242500251646  # E (p - I)^2 = p (1 - p)
        assert d.epl == pytest.approx(p * (1.0 - p), rel=1e-10)

    def test_absolute_loss_picks_the_likelier_value(self):
        # E|a - I| = (1 - p)|a| + p|1 - a| is least at a = 0 when p < 1/2
        d = optimize_functional(LossSpec.mtc(1), self.POST, self.g)
        assert abs(d.action) <= 1e-9
        assert d.epl == pytest.approx(0.31822242500251646, rel=1e-8)


class TestBrent:
    @staticmethod
    def counted(f):
        calls = []

        def wrapped(x):
            calls.append(x)
            return f(x)
        return wrapped, calls

    CLOUD = SamplePosterior(np.random.default_rng(17).lognormal(0.5, 0.6, 301),
                            np.random.default_rng(18).uniform(0.5, 1.5, 301))

    # a minimum value of 0 keeps f's rounding below 1e-9 in x: with f(x*) = c
    # no search on values alone resolves x* better than sqrt(eps |c|)
    @pytest.mark.parametrize("f,x0,want", [
        (lambda x: 2.5 * (x - 3.7) ** 2, 0.0, 3.7),
        (lambda x: abs(x + 2.3), 1.0, -2.3),
        (lambda x: epl(LossSpec.qtl(0.3), TestBrent.CLOUD, x), 1.0,
         CLOUD.quantile(0.3)),
    ], ids=["quadratic", "absolute", "pinball-on-draws"])
    def test_finds_the_minimiser(self, f, x0, want):
        x, fx, path = minimize(f, x0, False)
        assert path.name == "brent"
        assert abs(x - want) <= 1e-9 * (1.0 + abs(x))
        assert fx == f(x)
        lo, hi = path.bracket
        assert lo < x < hi

    def test_quadratic_costs_at_most_8_steps_after_the_bracket(self):
        # values near x* = 3.7 tie to rounding with the minimum 1.2 > 0, so
        # the search stops at the first short step that finds such a tie
        g, calls = self.counted(lambda x: (x - 3.7) ** 2 + 1.2)
        _bracket(g, 0.0, False)
        n_bracket = len(calls)
        calls.clear()
        x, fx, path = minimize(g, 0.0, False)
        assert len(calls) - n_bracket == path.iterations <= 8
        assert abs(x - 3.7) <= 1e-8

    def test_positive_domain_stays_positive(self):
        f, calls = self.counted(lambda x: x - math.log(x))  # least at x = 1
        x, fx, path = minimize(f, 40.0, True)
        assert abs(x - 1.0) <= 1e-9 * 2.0
        assert min(calls) > 0.0

    def test_numeric_optimize_reports_brent_and_its_epl(self):
        post = GammaPosterior(3.0, 1.5)
        # PWD(0.5) has its power mean in closed form, so its search is forced
        for spec, solve in ((LossSpec.mtc(1.5), optimize), (LossSpec.pwd(0.5), searched),
                            (LossSpec.power_of(LossSpec.qtl(0.6), 1.5), optimize)):
            d = solve(spec, post)
            assert d.method.name == "brent"
            assert d.epl == epl(spec, post, d.action)


class TestGoldenPath:
    """A nonconvex loss on draws keeps golden section, digit for digit."""

    rng = np.random.default_rng(2024)
    CLOUD = SamplePosterior(rng.lognormal(1.0, 0.45, 2000), rng.uniform(0.5, 1.5, 2000))

    @pytest.mark.parametrize("rho,action,value", [
        (0.5, 2.5128932806578135, 0.9172338313729298),
        (0.8, 2.639569347648405, 0.9747130018133487),
    ])
    def test_mtc_below_one_on_draws(self, rho, action, value):
        d = optimize(LossSpec.mtc(rho), self.CLOUD)
        assert d.method.name == "golden_section"
        assert d.method.iterations == 47
        assert (d.action, d.epl) == (action, value)

    def test_same_loss_on_a_gaussian_uses_brent(self):
        # unforced, a radial loss takes the Gaussian's centre
        post = GaussianPosterior(1.0, 2.0)
        assert optimize(LossSpec.mtc(0.5), post).method.name == "symmetric_centre"
        assert searched(LossSpec.mtc(0.5), post).method.name == "brent"


def _positive_weighted(spec):
    return LossSpec.weighted(Weight.power(0.5), spec)


LEAVES = st.one_of(
    st.just(LossSpec.sel()), st.just(LossSpec.zero_one()),
    st.floats(0.2, 3.0).map(LossSpec.mtc),
    st.floats(0.05, 0.95).map(LossSpec.qtl),
    st.sampled_from([-1.0, -0.3, 0.2, 0.9]).map(LossSpec.linex),
    st.floats(0.3, 3.0).map(lambda w: LossSpec.potential(GeneralizedGaussian(w))),
    st.just(LossSpec.potential(CustomPotentialDensity(
        lambda u: 1.0 / (1.0 + np.asarray(u) ** 2)))),
    st.floats(-2.0, 2.0).map(LossSpec.pwd),
    st.tuples(st.floats(0.5, 3.0), st.floats(1.1, 4.0)).map(lambda p: LossSpec.gam(*p)),
)
SPECS = st.recursive(LEAVES, lambda parts: st.one_of(
    st.lists(parts, min_size=1, max_size=3).map(lambda ps: LossSpec.sum_of(*ps)),
    st.lists(parts, min_size=1, max_size=2).map(lambda ps: LossSpec.product_of(*ps)),
    st.tuples(parts, st.floats(0.3, 3.0)).map(lambda t: LossSpec.power_of(*t)),
    parts.map(LossSpec.exp_minus_one),
    parts.map(_positive_weighted),
), max_leaves=4)


class TestCompiledSpec:
    """A spec is compiled when built; its derived evaluator and tags are not
    part of its value."""

    GRID_A = np.linspace(0.2, 4.0, 9)[:, None]
    GRID_Y = np.linspace(0.3, 5.0, 7)[None, :]
    TAGS = ("differentiable", "positive_domain", "convex", "radial")

    @settings(max_examples=100, deadline=None)
    @given(spec=SPECS)
    def test_a_compiled_spec_is_a_value(self, spec):
        twin = copy.deepcopy(spec)  # rebuilt, components and all
        assert twin == spec and repr(twin) == repr(spec)
        assert twin.evaluate is not spec.evaluate
        assert [getattr(twin, t) for t in self.TAGS] == [getattr(spec, t) for t in self.TAGS]
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(twin(self.GRID_A, self.GRID_Y),
                                          spec(self.GRID_A, self.GRID_Y))
        assert compose(spec) is spec

    @settings(max_examples=100, deadline=None)
    @given(spec=SPECS)
    def test_equal_specs_hash_equal(self, spec):
        twin = copy.deepcopy(spec)
        assert hash(twin) == hash(spec)
        assert {spec: "value"}[twin] == "value"

    def test_nested_weighted_and_ptl_specs_key_a_dict(self):
        ptl = LossSpec.potential(CustomPotentialDensity(lambda u: 1.0 / (1.0 + np.asarray(u) ** 2)))
        specs = [LossSpec.sel(), ptl, _positive_weighted(LossSpec.gam(1.0, 2.0)),
                 LossSpec.sum_of(LossSpec.qtl(0.3), LossSpec.product_of(LossSpec.mtc(1.5), ptl))]
        table = {spec: i for i, spec in enumerate(specs)}
        assert [table[copy.deepcopy(spec)] for spec in specs] == [0, 1, 2, 3]

    def test_equality_and_repr_read_only_the_declared_fields(self):
        declared = ["family", "params", "compose", "components"]
        assert [f.name for f in dataclasses.fields(LossSpec) if f.compare] == declared
        assert [f.name for f in dataclasses.fields(LossSpec) if f.repr] == declared
        assert "evaluate" not in repr(LossSpec.sum_of(LossSpec.sel(), LossSpec.qtl(0.3)))

    def test_the_names_perfbench_traces_stay(self):
        assert losses.LossFunction is LossSpec
        assert "__call__" in vars(LossSpec)
        assert LossSpec.gam(1.0, 2.0).differentiable


GAUSS = GaussianPosterior(0.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: optimize("SEL", GAUSS),
    lambda: epl(None, GAUSS, 0.0),
    lambda: lower_envelope(3, GAUSS, [0.0], [0.0]),
    lambda: optimize_functional(2.0, GAUSS, np.exp),
    lambda: LossSpec.sum_of("SEL"),
    lambda: bma_predict(ModelEnsemble(
        [EnsembleMember("a", GAUSS, LossSpec.sel()), EnsembleMember("b", GAUSS, "SEL")],
        [0.5, 0.5])),
], ids=["optimize", "epl", "lower_envelope", "optimize_functional", "sum_of", "bma_predict"])
def test_a_non_loss_is_an_input_error(call):
    with pytest.raises(ValidationError, match="must be a LossSpec"):
        call()


class TestConvexTag:
    @settings(max_examples=400, deadline=None)
    @given(spec=SPECS, a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0), y=st.floats(0.1, 5.0))
    def test_tagged_losses_are_midpoint_convex(self, spec, a, b, y):
        lossfn = compose(spec)
        assume(lossfn.convex)
        with np.errstate(over="ignore"):
            la, lb, lm = (float(lossfn(x, y)) for x in (a, b, 0.5 * (a + b)))
        assume(math.isfinite(la) and math.isfinite(lb))
        assert lm <= 0.5 * (la + lb) + 1e-10 * (abs(la) + abs(lb)) + 1e-12

    @pytest.mark.parametrize("spec", [
        LossSpec.mtc(0.5), LossSpec.zero_one(), LossSpec.power_of(LossSpec.sel(), 0.5),
        LossSpec.power_of(LossSpec.mtc(1), 0.5),
        LossSpec.potential(CustomPotentialDensity(lambda u: np.exp(-np.abs(u)))),
        LossSpec.sum_of(LossSpec.sel(), LossSpec.mtc(0.5)),
    ], ids=["mtc-half", "zero-one", "sqrt-sel", "sqrt-abs", "custom-ptl", "sum-with-mtc-half"])
    def test_nonconvex_losses_are_not_tagged(self, spec):
        assert not compose(spec).convex

    @pytest.mark.parametrize("spec", [
        LossSpec.mtc(1), LossSpec.qtl(0.2), LossSpec.potential(GeneralizedGaussian(1.0)),
        LossSpec.product_of(LossSpec.qtl(0.7), LossSpec.sel()),
        LossSpec.power_of(LossSpec.qtl(0.6), 1.5),
    ], ids=["mtc-1", "qtl", "ptl-omega-1", "product", "power"])
    def test_kinked_convex_losses_are_tagged(self, spec):
        assert compose(spec).convex


def _cloud(p):
    loc, spread, n, seed, weighted = p
    rng = np.random.default_rng(seed)
    return SamplePosterior(loc + spread * rng.lognormal(0.0, 0.6, n),
                           rng.uniform(0.5, 1.5, n) if weighted else None)


# posteriors narrow against their distance from 0 as well as wide ones: the
# bracket's scale sets the short step, so a narrow posterior far from 0 is
# where a tie tolerance looser than rounding would stop Brent early
POSTERIORS = st.one_of(
    st.tuples(st.sampled_from([0.0, 10.0, 1000.0]), st.sampled_from([1e-3, 0.1, 1.0]),
              st.integers(2, 300), st.integers(0, 2 ** 32 - 1), st.booleans()).map(_cloud),
    st.tuples(st.sampled_from([-1000.0, -3.0, 0.5, 100.0]),
              st.sampled_from([1e-3, 0.1, 2.0])).map(lambda p: GaussianPosterior(*p)),
    st.tuples(st.floats(1.5, 1e4), st.floats(0.3, 4.0)).map(lambda p: GammaPosterior(*p)),
)


class TestBrentStop:
    """Brent stops on a short step whose EPL ties the best one to rounding;
    that must cost nothing golden section's full-width search would find."""

    @settings(max_examples=40, deadline=None)
    @given(spec=SPECS, post=POSTERIORS)
    def test_no_worse_than_golden_section_on_the_same_bracket(self, spec, post):
        lossfn = compose(spec)
        assume(unimodal_epl(lossfn, post))
        f = lambda a: epl(lossfn, post, a)
        try:
            with np.errstate(all="ignore"):
                x, fx, path = minimize(f, post.quantile(0.5), lossfn.positive_domain)
                xg, _ = _golden(f, *path.bracket)
                g = f(xg)
                # an EPL flat to rounding over the bracket (0-1 loss on a
                # density) has no minimum for either search to find
                assume(min(f(path.bracket[0]), f(path.bracket[1])) > g * (1.0 + 1e-9))
                # how far the EPL moves within golden section's own stop
                # width, rounding included: neither search can decide there
                w = 1e-10 * (1.0 + 2.0 * abs(xg))
                near = [f(xg + k * w) for k in (-1.0, -0.5, 0.5, 1.0)] + [g]
        except (NumericError, ValidationError):
            assume(False)
        assert fx <= g * (1.0 + 1e-14) + (max(near) - min(near))

    def test_a_value_tied_across_a_kink_does_not_stop_the_search(self):
        # from 1.875, Brent's steps on 4|a + 1| reach a point whose value
        # equals the best one's on the other side of the kink; a tie that
        # far from the best point says nothing about the minimum between them
        x, fx, path = minimize(lambda a: 4.0 * abs(a + 1.0), 1.875, False)
        assert abs(x + 1.0) <= 1e-9


class TestNumericEdges:
    @pytest.mark.parametrize("y", [1e-3, 2.5, 1234.5678])
    def test_single_draw_under_mtc_returns_the_draw(self, y):
        d = optimize(LossSpec.mtc(1.5), SamplePosterior([y]))
        assert d.method.name == "brent"
        assert (d.action, d.epl) == (y, 0.0)

    @pytest.mark.parametrize("y", [1e-3, 2.5, 1234.5678])
    def test_single_draw_under_pwd_returns_the_draw(self, y):
        # the power mean of one draw is exp(log y); near a = y the loss is a
        # difference of terms of size a, so its value carries a rounding
        # error of about eps * a
        d = optimize(LossSpec.pwd(0.5), SamplePosterior([y]))
        assert d.method.name == "power_mean"
        assert abs(d.action - y) <= 4e-16 * y
        assert abs(d.epl) <= 1e-15 * y

    PARETO = SamplePosterior(1.0 + np.random.default_rng(7).pareto(1.2, 3000),
                             np.random.default_rng(8).uniform(0.2, 5.0, 3000))

    @pytest.mark.parametrize("spec", [
        LossSpec.mtc(1.5), LossSpec.pwd(0.5), LossSpec.gam(1.0, 2.0),
        LossSpec.potential(GeneralizedGaussian(1.5)),
        LossSpec.sum_of(LossSpec.pwd(-0.5), LossSpec.qtl(0.8)),
    ], ids=["mtc-1.5", "pwd-0.5", "gam", "ptl-1.5", "pwd-plus-qtl"])
    def test_heavy_tailed_cloud_matches_golden_section(self, spec):
        lossfn = compose(spec)
        f = lambda a: epl(lossfn, self.PARETO, a)
        d = searched(spec, self.PARETO)
        xg, _ = _golden(f, *d.method.bracket)
        assert d.method.name == "brent"
        assert d.epl <= f(xg) * (1.0 + 1e-14)

    DRAWS = (0.0, 1.0, 3.0)

    @settings(max_examples=60, deadline=None)
    @given(psi=st.sampled_from([0.5, 1.0, -2.0]), u=st.floats(600.0, 800.0))
    def test_linex_up_to_the_exponent_limit(self, psi, u):
        # psi (a - y) = u at the draw farthest on the side psi points away from
        y_far = min(self.DRAWS) if psi > 0 else max(self.DRAWS)
        a = y_far + u / psi
        z = [psi * (a - y) for y in self.DRAWS]
        assume(abs(max(z) - EXP_LIMIT) > 1e-9)
        spec, post = LossSpec.linex(psi), SamplePosterior(list(self.DRAWS))
        if max(z) > EXP_LIMIT:
            with pytest.raises(NumericError, match="LINEX overflow"):
                epl(spec, post, a)
            return
        want = math.fsum(math.expm1(t) - t for t in z) / len(z)
        assert epl(spec, post, a) == pytest.approx(want, rel=1e-12)


class TestTailRisk:
    def test_below_support_prob_one(self):
        post = GaussianPosterior(0, 1)
        curve = tail_risk_curve(LossSpec.sel(), post, 0.0, [-30.0, 0.0])
        assert curve.points[0][1] == pytest.approx(1.0)

    def test_tail_prob_at_frozen_quantile(self):
        post = GaussianPosterior(0, 1)
        curve = tail_risk_curve(LossSpec.sel(), post, 0.0, [Z97])
        assert curve.points[0][1] == pytest.approx(0.03, abs=1e-9)

    def test_monotone_tail_probs(self):
        post = GammaPosterior(3, 1)
        curve = tail_risk_curve(LossSpec.sel(), post, 2.0, np.linspace(0.1, 9, 40))
        tps = [p[1] for p in curve.points]
        assert all(b <= a for a, b in zip(tps, tps[1:]))

    def test_envelope_zero_when_actions_cover_thresholds(self):
        post = GaussianPosterior(0, 1)
        kappas = np.linspace(-2, 2, 21)
        env = lower_envelope(LossSpec.sel(), post, kappas, kappas)
        assert all(p[2] == 0.0 for p in env.points)

    def test_envelope_below_any_curve(self):
        post = GaussianPosterior(0, 1)
        kappas = np.linspace(-2, 2, 21)
        a_grid = np.linspace(-3, 3, 61)
        env = lower_envelope(LossSpec.sel(), post, kappas, a_grid)
        curve = tail_risk_curve(LossSpec.sel(), post, 0.7, kappas)
        for e, c in zip(env.points, curve.points):
            assert e[2] <= c[2] + 1e-12

    def test_envelope_positive_with_gapped_actions(self):
        post = GaussianPosterior(0, 1)
        kappas = [0.0]
        a_grid = [-3.0, -2.0, 2.0, 3.0]  # excludes [kappa-1, kappa+1]
        env = lower_envelope(LossSpec.sel(), post, kappas, a_grid)
        assert env.points[0][2] > 0.0

    @pytest.mark.parametrize("name", ["kappa_grid", "a_grid"])
    def test_empty_grid_rejected(self, name):
        grids = {"kappa_grid": [1.0], "a_grid": [1.0], name: []}
        with pytest.raises(ValidationError, match=f"{name} must be nonempty"):
            lower_envelope(LossSpec.sel(), GaussianPosterior(0, 1), **grids)


class TestOneHomePins:
    """The draw EPL, weighted SEL and risk curves each have a single code path."""

    CLOUD = SamplePosterior(np.random.default_rng(8).lognormal(0.3, 0.5, 500),
                            np.random.default_rng(9).uniform(0.5, 1.5, 500))

    # SEL, QTL and a sum with either as a part are read, at least in part,
    # off the cloud's running sums, which round differently; a loss without
    # such a row is the weighted sum itself
    ROW_BACKED = (LossSpec.sel(), LossSpec.qtl(0.8),
                  LossSpec.sum_of(LossSpec.qtl(0.3), LossSpec.linex(-1)),
                  LossSpec.sum_of(LossSpec.qtl(0.3), LossSpec.sel()))

    @pytest.mark.parametrize("spec", [LossSpec.sel(), LossSpec.mtc(0.5), LossSpec.qtl(0.8),
                                      LossSpec.linex(0.7), LossSpec.pwd(0.5),
                                      LossSpec.sum_of(LossSpec.qtl(0.3), LossSpec.linex(-1)),
                                      LossSpec.sum_of(LossSpec.qtl(0.3), LossSpec.sel())])
    def test_epl_on_draws_is_the_weighted_sum(self, spec):
        post, lossfn = self.CLOUD, compose(spec)
        for a in (0.4, 1.3, 3.0):
            want = float(np.dot(post.weights, lossfn(a, post.values)))
            if spec in self.ROW_BACKED:
                assert abs(epl(spec, post, a) - want) <= 1e-12 * want
            else:
                assert epl(spec, post, a) == want

    @pytest.mark.parametrize("post", [CLOUD, GaussianPosterior(0.4, 1.1),
                                      GammaPosterior(3.0, 1.2)], ids=["draws", "gaussian", "gamma"])
    def test_a_sums_epl_is_the_sum_of_its_parts_epls(self, post):
        # each part takes its own route: QTL a row, LINEX a row or the weighted
        # sum, MTC(1.5) the weighted sum or quadrature
        parts = (LossSpec.qtl(0.3), LossSpec.linex(-1), LossSpec.mtc(1.5))
        for a in (0.4, 1.3, 3.0):
            assert epl(LossSpec.sum_of(*parts), post, a) == sum(epl(p, post, a) for p in parts)

    def test_weighted_sel_on_draws_matches_reweight(self):
        w = Weight.power(0.5)
        d = optimize(LossSpec.weighted(w, LossSpec.sel()), self.CLOUD)
        assert d.method.name == "reweighted_mean"
        expected = SamplePosterior(self.CLOUD.values,
                                   self.CLOUD.weights * w.fn(self.CLOUD.values)).moments()[0]
        assert d.action == pytest.approx(expected, rel=1e-14, abs=0)

    @pytest.mark.parametrize("spec", [
        LossSpec.qtl(0.9), LossSpec.linex(1.2),
        LossSpec.weighted(Weight.exp(0.3), LossSpec.qtl(0.2)),
        # a user pdf sees the 2-d (actions x kappas) grid
        LossSpec.potential(CustomPotentialDensity(lambda u: 1.0 / (1.0 + np.asarray(u) ** 2))),
    ], ids=["qtl", "linex", "weighted", "custom-ptl"])
    @pytest.mark.parametrize("post", [GaussianPosterior(1.0, 1.3), GammaPosterior(3.0, 1.2),
                                      CLOUD], ids=["gaussian", "gamma", "draws"])
    def test_risk_curves_match_the_per_kappa_formulas(self, spec, post):
        lossfn = compose(spec)
        kappas = np.linspace(-2.0, 6.0, 17)
        actions = np.linspace(-1.0, 5.0, 13)
        curve = [(float(k), post.tail_prob(k), float(lossfn(1.37, k))) for k in kappas]
        env = [(float(k), post.tail_prob(k), float(np.min(lossfn(actions, float(k)))))
               for k in kappas]
        assert list(tail_risk_curve(spec, post, 1.37, kappas).points) == curve
        assert list(lower_envelope(spec, post, kappas, actions).points) == env


class TestPositiveSupport:
    """GAM and PWD need Y > 0 almost surely; epl, optimize and the BMA
    mixture ask the one rule, and each error names where the support starts."""

    @pytest.mark.parametrize("post, lower", [
        (GaussianPosterior(10.0, 1.0), "-inf"),
        # cdf(0) underflows to 0 here, so the rule must not rest on it
        (GaussianPosterior(40.0, 1.0), "-inf"),
        (GammaPosterior(1.5, 1.0), None),
        (SamplePosterior([0.0, 1.0, 2.0]), "0.0"),
        (SamplePosterior([1e-300, 1.0, 2.0], [1e-300, 1.0, 1.0]), None),
    ], ids=["N(10,1)", "N(40,1)", "Gamma(1.5,1)", "draws-from-0", "draws-from-1e-300"])
    @pytest.mark.parametrize("spec", [LossSpec.gam(1, 2), LossSpec.pwd(-1.0)],
                             ids=["gam", "pwd-minus-1"])
    def test_refused_exactly_when_the_support_reaches_zero(self, post, lower, spec):
        ens = ModelEnsemble([EnsembleMember("ratio", post, spec),
                             EnsembleMember("loc", GammaPosterior(5.0, 1.0), LossSpec.sel())],
                            [0.5, 0.5])
        if lower is None:
            assert math.isfinite(epl(spec, post, 1.0))
            for d in (optimize(spec, post), bma_predict_general(ens)):
                assert d.action > 0 and math.isfinite(d.epl)
            return
        for call in (lambda: epl(spec, post, 1.0), lambda: optimize(spec, post)):
            with pytest.raises(ValidationError, match=f"support reaches down to {lower}$"):
                call()
        with pytest.raises(ValidationError, match=f"member 'ratio'.*reaches {lower};"):
            bma_predict_general(ens)

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_pwd_near_a_zero_draw_stays_finite(self, lam):
        # (a/y)^(lam + 1) overflows at y = 1e-300, but y phi_lam(a/y) does not
        post = SamplePosterior([1e-300, 1.0, 2.0], [1e-300, 1.0, 1.0])
        value = epl(LossSpec.pwd(lam), post, 1.0)
        if lam == 1.0:  # y phi_1(a/y) = (a - y)^2 / (2y)
            w = post.weights
            assert value == pytest.approx(w[0] * 0.5e300 + w[2] * 0.25, rel=1e-15)
        d = optimize(LossSpec.pwd(lam), post)
        assert math.isfinite(value) and d.action > 0 and math.isfinite(d.epl)

    def test_far_gaussian_has_no_mass_below_zero_in_floats(self):
        assert GaussianPosterior(40.0, 1.0).cdf(0.0) == 0.0


class TestGuards:
    def test_increasing_tail_probabilities_refused(self):
        with pytest.raises(ValidationError, match="nonincreasing in kappa"):
            TailRiskCurve(((0.0, 0.2, 1.0), (1.0, 0.5, 1.0)))

    @pytest.mark.parametrize("spec", [LossSpec.gam(1, 2), LossSpec.pwd(1.0)],
                             ids=["gam", "pwd-plus-1"])
    def test_ratio_predictor_refuses_a_negative_cloud(self, spec):
        # 1/E(1/Y) is the optimal action; the domain check comes before it
        with pytest.raises(ValidationError, match="support reaches down to -2.0$"):
            optimize(spec, SamplePosterior([-2.0, -1.0]))
