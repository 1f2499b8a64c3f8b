"""Bayes actions with a formula, which no search has to find.

- PWD(lam) takes the power mean (E Y^-lam)^(-1/lam), exp(E log Y) at lam = 0,
  checked against a 50-digit oracle (``_oracle_mp``), as is ``log_moment``
  itself; GAM and PWD(1) take 1/E(1/Y) from it.
- A radial loss phi(|a - y|) takes the centre of a symmetric unimodal
  posterior (Anderson 1955), checked by metamorphic relations: shifting the
  posterior shifts the action, and everything else still searches.
- QTL and MTC(1) of a monotone g(Y) take g at the posterior's quantile.
Each closed form is also checked against the numeric search on its EPL.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import _oracle_mp as mp
from _search import searched
from bayesdecide import (BetaPosterior, GammaPosterior, GaussianPosterior, GeneralizedGaussian,
                         LossSpec, NumericError, SamplePosterior, SolverPath, Weight, compose,
                         epl, optimize, optimize_functional)
# the action alone: optimize also integrates the EPL at it, and a narrow
# posterior far from 0 is not these tests' subject
from bayesdecide.engine import _power_mean, minimize
from bayesdecide.losses import CustomPotentialDensity

L = LossSpec
REL = 1e-10

# shapes 1.01 to 1e6, log-uniform; lam in [-3, 3] with a share near and at 0
SHAPES = st.floats(math.log(1.01), math.log(1e6)).map(math.exp)
LAMS = st.one_of(st.floats(-3.0, 3.0), st.floats(-0.05, 0.05),
                 st.sampled_from([0.0, 1e-12, -1e-9, 0.05, -0.05, 0.5, 1.0, -1.0]))


def _rel(got, want):
    return abs(got - want) / abs(want)


@given(shape=SHAPES, rate=st.floats(math.log(0.01), math.log(100.0)).map(math.exp), lam=LAMS)
@settings(max_examples=150, deadline=None)
@example(shape=1e6, rate=3.7, lam=0.05)
@example(shape=9999.7, rate=0.3, lam=-0.051)
@example(shape=1.01, rate=2.0, lam=1.0)
def test_gamma_power_mean_matches_fifty_digits(shape, rate, lam):
    assume(lam < shape)  # E Y^-lam diverges from lam = shape on
    post = GammaPosterior(shape, rate)
    want = mp.power_mean(lambda p: mp.gamma_moment(shape, rate, p),
                         lambda: mp.gamma_mean_log(shape, rate), lam)
    got = _power_mean(post, {"lam": lam})
    assert _rel(got, want) <= REL, (got, want)


@given(a=SHAPES, b=SHAPES, lam=LAMS)
@settings(max_examples=150, deadline=None)
@example(a=1e6, b=1.01, lam=0.05)
@example(a=1.01, b=1e6, lam=-3.0)
def test_beta_power_mean_matches_fifty_digits(a, b, lam):
    assume(lam < a)
    want = mp.power_mean(lambda p: mp.beta_moment(a, b, p), lambda: mp.beta_mean_log(a, b), lam)
    got = _power_mean(BetaPosterior(a, b), {"lam": lam})
    assert _rel(got, want) <= REL, (got, want)


@pytest.mark.parametrize("a, b, lam", [
    (0.05, 1.0, 0.05 * (1.0 - 1e-8)), (0.3, 2.0, 0.3 * (1.0 - 1e-9)), (0.01, 0.02, -2.5),
])
def test_beta_power_mean_near_the_pole_of_its_moment(a, b, lam):
    # E Y^-lam grows without bound as lam nears a; a shape below 1 is
    # shifted up through log((x + p) / x), which keeps the digits of a + p
    want = mp.power_mean(lambda p: mp.beta_moment(a, b, p), lambda: mp.beta_mean_log(a, b), lam)
    assert _rel(_power_mean(BetaPosterior(a, b), {"lam": lam}), want) <= REL


CLOUDS = [(1.0, 0.5), (1e6, 0.01), (1e-6, 2.0), (3.0, 1e-4)]  # (median, log-spread)


@pytest.mark.parametrize("lam", [-3.0, -0.7, -0.05, -1e-9, 0.0, 1e-12, 0.03, 0.5, 2.0, 3.0])
@pytest.mark.parametrize("cloud", CLOUDS, ids=["unit", "1e6", "1e-6-wide", "narrow"])
def test_draws_power_mean_matches_fifty_digits(cloud, lam):
    centre, spread = cloud
    rng = np.random.default_rng(5)
    y = centre * rng.lognormal(0.0, spread, 200)
    w = rng.uniform(0.2, 5.0, 200)
    post = SamplePosterior(y, w)
    want = mp.power_mean(lambda p: mp.draws_moment(y, w, p), lambda: mp.draws_mean_log(y, w),
                         lam)
    d = optimize(L.pwd(lam), post)
    assert d.method.name == "power_mean"
    assert _rel(d.action, want) <= REL, (d.action, want)


@pytest.mark.parametrize("post, lam", [
    (GammaPosterior(3.2, 1.1), 0.5), (GammaPosterior(7.5, 2.0), -0.5),
    (BetaPosterior(2.0, 5.0), 0.3), (BetaPosterior(4.0, 1.5), 2.0),
    (SamplePosterior(np.random.default_rng(3).lognormal(0.4, 0.6, 3000)), 0.5),
])
def test_power_mean_agrees_with_the_search(post, lam):
    closed = optimize(L.pwd(lam), post)
    numeric = searched(L.pwd(lam), post)
    assert closed.method.name == "power_mean" and numeric.method.kind == "numeric"
    assert _rel(closed.action, numeric.action) <= 1e-7
    assert closed.epl <= numeric.epl * (1.0 + 1e-13)


@pytest.mark.parametrize("post, lam", [
    (GammaPosterior(2.0, 1.0), 2.0), (GammaPosterior(2.5, 3.0), 2.7),
    (BetaPosterior(0.5, 2.0), 0.5), (BetaPosterior(1.5, 2.0), 2.0),
])
def test_power_mean_refuses_a_divergent_moment(post, lam):
    with pytest.raises(NumericError, match=rf"E\(Y\^{-lam!r}\) diverges"):
        optimize(L.pwd(lam), post)


def _cancelling_lgamma_region(seed, n):
    """n points (x, p), x > 1, 0.01 <= |p| <= 3, where x and log Gamma(x) and
    log Gamma(x + p) all lie within 200 |p|: there the lgamma difference
    keeps only about 1e-13 of max(|p|, its value)."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        p = rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(math.log(0.01), math.log(3.0)))
        x = math.exp(rng.uniform(0.0, math.log(200.0 * abs(p))))
        if (x > 1.0 and x + p > 0.0
                and max(abs(math.lgamma(x)), abs(math.lgamma(x + p))) <= 200.0 * abs(p)):
            points.append((x, p))
    return points


@pytest.mark.parametrize("family", ["gamma", "beta"])
def test_log_moment_matches_fifty_digits_where_lgamma_cancels(family):
    rng = np.random.default_rng(8)
    worst = 0.0
    for x, p in _cancelling_lgamma_region(7, 400):
        if family == "gamma":
            got, moment = GammaPosterior(x, 1.0).log_moment(p), mp.gamma_moment(x, 1.0, p)
        else:
            b = math.exp(rng.uniform(math.log(0.1), math.log(1e3)))
            got, moment = BetaPosterior(x, b).log_moment(p), mp.beta_moment(x, b, p)
        with mpmath.workdps(mp.DPS):
            want = float(mpmath.log(moment))
        worst = max(worst, abs(got - want) / max(abs(p), abs(want)))
    assert worst <= 5e-15


@pytest.mark.parametrize("spec", [L.gam(1.0, 2.0), L.pwd(1.0)], ids=["gam", "pwd+1"])
@pytest.mark.parametrize("a, b", [(1.05, 2.0), (200.0, 300.0), (3e4, 2.0)])
def test_beta_inverse_mean_reciprocal_matches_its_formula(spec, a, b):
    # 1/E(1/Y) on Beta(a, b) is (a - 1)/(a + b - 1), read off log_moment(-1)
    d = optimize(spec, BetaPosterior(a, b))
    want = (a - 1.0) / (a + b - 1.0)
    assert d.method.name == "inverse_mean_reciprocal"
    assert _rel(d.action, want) <= 2e-15, (d.action, want)


@pytest.mark.parametrize("spec", [L.gam(1.0, 2.0), L.pwd(1.0)], ids=["gam", "pwd+1"])
def test_beta_inverse_mean_reciprocal_refuses_a_divergent_moment(spec):
    # E(1/Y) is infinite on Beta(a, b) with a <= 1
    with pytest.raises(NumericError, match="diverges"):
        optimize(spec, BetaPosterior(0.8, 2.0))


def test_power_tilt_reads_the_same_moment():
    for post, p in ((GammaPosterior(4.0, 2.0), 0.7), (BetaPosterior(2.0, 3.0), -0.5)):
        assert post.tilt("power", p)[0] == post.log_moment(p)


# ---------------------------------------------------------------------------
# the centre of a symmetric unimodal posterior under a radial loss

RADIAL = st.one_of(
    st.floats(0.2, 3.0).map(L.mtc),
    st.floats(0.3, 3.0).map(lambda w: L.potential(GeneralizedGaussian(w))),
    st.floats(0.3, 3.0).map(lambda p: L.power_of(L.mtc(1), p)),
    st.just(L.sum_of(L.mtc(0.5), L.sel())),
    st.just(L.product_of(L.mtc(0.5), L.mtc(1.5))),
    st.just(L.exp_minus_one(L.mtc(0.7))),
)


_RADIAL_TREES = st.recursive(
    st.one_of(st.just(L.sel()), st.just(L.zero_one()), st.floats(0.2, 3.0).map(L.mtc),
              st.floats(0.3, 3.0).map(lambda w: L.potential(GeneralizedGaussian(w)))),
    lambda parts: st.one_of(
        st.lists(parts, min_size=1, max_size=3).map(lambda ps: L.sum_of(*ps)),
        st.lists(parts, min_size=1, max_size=2).map(lambda ps: L.product_of(*ps)),
        st.tuples(parts, st.floats(0.3, 3.0)).map(lambda t: L.power_of(*t)),
        parts.map(L.exp_minus_one)),
    max_leaves=4)


@given(spec=_RADIAL_TREES, y=st.floats(-5.0, 5.0), t=st.floats(0.0, 2.0),
       dt=st.floats(0.0, 2.0))
@settings(max_examples=200, deadline=None)
@example(spec=L.sel(), y=1.0, t=5.486361628792359e-15, dt=0.0)
def test_tagged_losses_are_nondecreasing_in_the_distance(spec, y, t, dt):
    lossfn = compose(spec)
    assert lossfn.radial
    # y + t and y - t may round to different distances from y; a displacement
    # taken away from 0, where the spacing of floats is the coarser, is exact
    # on both sides of y while it is below |y|
    t = abs((y + math.copysign(t, y)) - y)
    with np.errstate(over="ignore"):
        near, mirror, far = (float(lossfn(a, y)) for a in (y + t, y - t, y + t + dt))
    assume(math.isfinite(far))
    assert near == pytest.approx(mirror, rel=1e-12, abs=1e-300)
    assert far >= near * (1.0 - 1e-12)


@pytest.mark.parametrize("spec", [
    L.qtl(0.3), L.linex(0.5), L.pwd(0.5), L.gam(1.0, 2.0),
    L.potential(CustomPotentialDensity(lambda u: np.exp(-np.abs(u)))),
    L.weighted(Weight.exp(0.2), L.sel()), L.sum_of(L.sel(), L.qtl(0.5)),
], ids=["qtl", "linex", "pwd", "gam", "custom-ptl", "weighted", "sum-with-qtl"])
def test_other_losses_are_not_tagged_radial(spec):
    assert not compose(spec).radial


@given(spec=RADIAL, mean=st.floats(-5.0, 5.0), sd=st.floats(0.01, 0.5),
       shift=st.floats(-1e3, 1e3))
@settings(max_examples=60, deadline=None)
def test_shifting_a_gaussian_shifts_a_radial_action(spec, mean, sd, shift):
    assert compose(spec).radial
    base = optimize(spec, GaussianPosterior(mean, sd))
    moved = optimize(spec, GaussianPosterior(mean + shift * sd, sd))
    assert moved.method == base.method
    assert abs((moved.action - shift * sd) - base.action) <= 1e-9 * sd


@pytest.mark.parametrize("spec", [L.mtc(0.5), L.potential(GeneralizedGaussian(1.5)),
                                  L.power_of(L.mtc(1), 1.5)], ids=["mtc-half", "ptl", "power"])
@pytest.mark.parametrize("a", [1.0, 2.0, 40.0])
def test_a_symmetric_beta_returns_one_half(spec, a):
    d = optimize(spec, BetaPosterior(a, a))
    assert (d.action, d.method.name) == (0.5, "symmetric_centre")
    assert d.epl == epl(spec, BetaPosterior(a, a), 0.5)


@pytest.mark.parametrize("spec, post", [
    (L.mtc(0.5), GaussianPosterior(1.0, 2.0)),
    (L.potential(GeneralizedGaussian(1.5)), GaussianPosterior(0.0, 1.0)),
    (L.weighted(Weight.exp(0.4), L.mtc(0.5)), GaussianPosterior(-1.0, 0.7)),
])
def test_the_centre_agrees_with_the_search(spec, post):
    closed = optimize(spec, post)
    numeric = searched(spec, post)
    assert closed.method.name.endswith("symmetric_centre")
    sd = math.sqrt(post.moments()[1])
    assert abs(closed.action - numeric.action) <= 1e-7 * sd
    assert closed.epl <= numeric.epl * (1.0 + 1e-13)


@pytest.mark.parametrize("post", [
    GammaPosterior(5.2, 1.05),
    SamplePosterior(np.random.default_rng(5).gamma(5.2, 1.0 / 1.05, size=401)),
], ids=["gamma", "draws"])
@pytest.mark.parametrize("omega, name", [(1.0, "posterior_median"), (2.0, "posterior_mean")])
def test_ptl_of_a_generalized_gaussian_takes_the_mtc_rows(post, omega, name):
    # PTL(GG 2) on this Gamma used to be searched to 4.95238095209709, off
    # its mean 4.9523809523809526
    d = optimize(L.potential(GeneralizedGaussian(omega)), post)
    assert d == optimize(L.mtc(omega), post)
    assert d.method == SolverPath("closed_form", name)


@pytest.mark.parametrize("spec, post", [
    (L.power_of(L.qtl(0.3), 1.5), GaussianPosterior(0.0, 1.0)),
    (L.weighted(Weight(lambda y: 1.0 + np.asarray(y) ** 2), L.mtc(0.5)),
     GaussianPosterior(0.5, 1.0)),
    (L.potential(CustomPotentialDensity(lambda u: 1.0 / (1.0 + np.asarray(u) ** 2))),
     GaussianPosterior(0.0, 1.0)),
    (L.mtc(0.5), GammaPosterior(3.0, 1.0)),
    (L.mtc(0.5), BetaPosterior(2.0, 3.0)),
    (L.mtc(0.5), BetaPosterior(0.5, 0.5)),
], ids=["qtl-power", "weighted", "custom-ptl", "gamma", "beta-2-3", "beta-u-shaped"])
def test_everything_else_still_searches(spec, post):
    assert optimize(spec, post).method.kind == "numeric"


def test_a_centre_whose_epl_diverges_raises():
    # E exp(|a - Y|^2) - 1 is infinite on N(0, 1) at every a; the loss
    # overflows on the way there, as it does for the search, and no numpy
    # warning escapes first
    with pytest.raises(NumericError):
        optimize(L.exp_minus_one(L.sel()), GaussianPosterior(0.0, 1.0))


def test_an_overflowing_loss_on_draws_raises():
    # expm1((a - y)^2) overflows at the far draws; no numpy warning escapes
    with pytest.raises(NumericError, match="not finite"):
        optimize(L.exp_minus_one(L.sel()), SamplePosterior(np.linspace(-40.0, 40.0, 101)))


# ---------------------------------------------------------------------------
# the quantile of a monotone g(Y)

def _functional_brent(spec, post, g, g_inverse):
    """Brent on E L(a, g(Y)), cut where g(y) = a; g > 0, so only an a > 0 has a cut."""
    lossfn = compose(spec)
    f = lambda a: post.expect(lambda y: lossfn(a, g(np.asarray(y))),
                              breakpoints=(g_inverse(a),) if a > 0 else ())
    return minimize(f, float(g(np.array([post.quantile(0.5)]))[0]), False)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.83])
def test_a_decreasing_g_takes_the_upper_quantile(q):
    post = GaussianPosterior(0.3, 0.8)
    g = lambda y: np.exp(-np.asarray(y))
    d = optimize_functional(L.qtl(q), post, g)
    assert d.method.name == "pushforward_quantile"
    assert d.action == math.exp(-post.quantile(1.0 - q))
    x, fx, _ = _functional_brent(L.qtl(q), post, g, lambda a: -math.log(a))
    assert _rel(d.action, x) <= 1e-7
    assert d.epl <= fx * (1.0 + 1e-12)


def test_an_increasing_g_agrees_with_brent():
    post = GaussianPosterior(-0.2, 1.1)
    d = optimize_functional(L.mtc(1), post, np.exp)
    assert (d.action, d.method.name) == (math.exp(post.quantile(0.5)), "pushforward_quantile")
    x, fx, _ = _functional_brent(L.mtc(1), post, np.exp, math.log)
    assert _rel(d.action, x) <= 1e-7
    assert d.epl <= fx * (1.0 + 1e-12)


@pytest.mark.parametrize("g", [np.square, lambda y: np.minimum(np.asarray(y), 0.5)],
                         ids=["square", "flat-above"])
def test_a_non_monotone_g_still_searches(g):
    d = optimize_functional(L.qtl(0.7), GaussianPosterior(0.0, 1.0), g)
    assert d.method.kind == "numeric"


def test_the_square_of_a_standard_gaussian_is_chi_squared():
    # Y^2 is chi^2_1, whose 0.7-quantile is Phi^-1(0.85)^2
    d = optimize_functional(L.qtl(0.7), GaussianPosterior(0.0, 1.0), np.square)
    assert _rel(d.action, float(ndtri(0.85)) ** 2) <= 1e-7
