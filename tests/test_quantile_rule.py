"""The tanh-sinh rule behind parametric ``expect`` against independent oracles.

``posteriors._quad_expect`` integrates h(F^-1(u)) over (0, 1) with a fixed
tanh-sinh rule and, when its first pass cannot certify the sum, refines
itself in ``posteriors._refine``: a finer step and cuts, a shorter reach
where h raises or is not finite, and a power law at a singular end.  The
refinement answers or raises; nothing else integrates.  The oracles are
``scipy.integrate.quad`` on h(y) p(y) directly, with the density written
out below, split at the action and at the 1e-10 tail quantiles, closed
forms, and 50-digit moments (``_oracle_mp``).  Refinements are counted by
wrapping ``_refine``; the tests keep the "fallback" names they had when a
QUADPACK fallback stood there.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import expit, gammaincinv, logit, ndtri

import _oracle_mp as mp
from _search import searched
from bayesdecide import (BetaPosterior, GammaPosterior, GaussianPosterior,
                         GeneralizedGaussian, LossSpec as L, NumericError, Weight, compose,
                         epl, optimize, optimize_functional)
from bayesdecide import posteriors

REL = 1e-9


def _density(post):
    if isinstance(post, GaussianPosterior):
        m, s = post.mean, post.sd
        return lambda y: math.exp(-0.5 * ((y - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
    k, r = post.shape, post.rate
    log_norm = k * math.log(r) - math.lgamma(k)
    return lambda y: math.exp(log_norm + (k - 1) * math.log(y) - r * y)


def _oracle(post, h, breakpoints=()):
    """E h(Y) by scipy.integrate.quad of h(y) p(y), one call per piece."""
    pdf = _density(post)
    if isinstance(post, GaussianPosterior):
        tail = -float(ndtri(1e-10)) * post.sd
        edges = [-np.inf, post.mean - tail, post.mean + tail, np.inf]
    else:
        edges = [0.0, float(gammaincinv(post.shape, 1 - 1e-10)) / post.rate, np.inf]
    edges = sorted(set(edges) | {float(b) for b in breakpoints if edges[0] < b})

    def integrand(y):
        p = pdf(y)  # h is not asked where the density underflows
        return 0.0 if p == 0.0 else float(h(y)) * p

    return sum(integrate.quad(integrand, a, b, limit=200, epsabs=1e-13, epsrel=1e-11)[0]
               for a, b in zip(edges, edges[1:]))


class _FellBack(Exception):
    pass


def _rule(post, h, breakpoints=()):
    """The first pass's sum, or None where it hands over to ``_refine``."""
    def refuse(*args):
        raise _FellBack

    with mock.patch.object(posteriors, "_refine", refuse):
        try:
            return posteriors._quad_expect(post, h, breakpoints)
        except _FellBack:
            return None


@pytest.fixture
def fallbacks(monkeypatch):
    """The list of arguments of every call to ``_refine``, the rule's
    fallback once its first pass cannot certify the sum."""
    calls, fallback = [], posteriors._refine

    def counted(*args):
        calls.append(args)
        return fallback(*args)

    monkeypatch.setattr(posteriors, "_refine", counted)
    return calls


def _assert_close(got, want):
    assert abs(got - want) <= REL * abs(want), (got, want)


def _check_against_quad(spec, post, t):
    lossfn = compose(spec)
    a = post.quantile(t)
    h = lambda y: lossfn(a, y)
    want = _oracle(post, h, (a,))
    got = _rule(post, h, (a,))
    if got is None:  # rare: the answer is the refinement's
        got = posteriors._quad_expect(post, h, (a,))
    _assert_close(got, want)



def test_node_table_is_the_expit_formula():
    # the node fractions and weights, built on first use, are this formula's
    # exact bytes: t = k/16 for |t| <= 6, with expit from scipy.special
    t = np.arange(-96, 97) / 16.0
    from_lo, from_hi = expit(np.pi * np.sinh(t)), expit(-np.pi * np.sinh(t))
    w = np.pi * np.cosh(t) * from_lo * from_hi / 16.0
    table = posteriors._ts_rule()
    for got, want in zip(table, (from_lo, from_hi, w)):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert posteriors._ts_rule() is table


# losses without a closed-form EPL on either posterior
_ANY = st.one_of(
    st.floats(0.2, 3.0).map(L.mtc),
    st.floats(0.05, 0.95).map(L.qtl),
    st.floats(0.5, 3.0).map(lambda w: L.potential(GeneralizedGaussian(w))),
    st.floats(0.5, 3.0).map(lambda p: L.power_of(L.mtc(1), p)),
    st.floats(0.2, 3.0).map(lambda rho: L.product_of(L.mtc(rho), L.qtl(0.4))),
)


@given(spec=st.one_of(_ANY, st.tuples(st.floats(0.05, 0.5), st.sampled_from([-1.0, 1.0]))
                      .map(lambda c: ("LNX", c[0] * c[1]))),
       mean=st.floats(-5.0, 5.0), sd=st.floats(0.05, 5.0), t=st.floats(0.02, 0.98))
@settings(max_examples=80, deadline=None)
def test_gaussian_grid_matches_quad(spec, mean, sd, t):
    if isinstance(spec, tuple):  # psi scaled to the posterior's spread
        spec = L.sum_of(L.qtl(0.3), L.linex(spec[1] / sd))
    _check_against_quad(spec, GaussianPosterior(mean, sd), t)


@given(spec=st.one_of(
           _ANY,
           # y phi_lam(a / y) grows like y^-lam at 0: lam <= 1 < shape keeps it integrable
           st.floats(-2.0, 1.0).map(L.pwd),
           st.floats(1.1, 5.0).map(lambda nu: L.gam(1.0, nu)),
           st.floats(0.05, 1.0).map(lambda psi: L.sum_of(L.qtl(0.3), L.linex(psi))),
           st.floats(0.5, 3.0).map(lambda rho: L.product_of(L.mtc(rho), L.gam(1.0, 2.0)))),
       shape=st.floats(1.5, 30.0), rate=st.floats(0.1, 10.0), t=st.floats(0.02, 0.98))
@settings(max_examples=80, deadline=None)
# the noise of a cancelling r^lam - 1 near lam = 0 made QUADPACK warn of roundoff here
@example(spec=L.pwd(1e-06), shape=6.0, rate=3.0, t=0.6875)
def test_gamma_grid_matches_quad(spec, shape, rate, t):
    _check_against_quad(spec, GammaPosterior(shape, rate), t)


@given(shape=st.floats(1.02, 2.5), rate=st.floats(0.05, 10.0))
@settings(max_examples=60, deadline=None)
# the first pass fails here and the end's power law y^-1 ~ u^(-1/shape) answers
@example(shape=1.02, rate=7.576822738050073)
def test_inverse_mean_on_gamma_matches_closed_form(shape, rate):
    # y^(shape - 2) is unbounded at 0 for shape < 2
    post = GammaPosterior(shape, rate)
    if shape >= 1.1:
        assert _rule(post, lambda y: 1.0 / y) is not None
    _assert_close(post.expect(lambda y: 1.0 / y), rate / (shape - 1.0))


@pytest.mark.parametrize("spec, post", [
    (L.mtc(0.5), GaussianPosterior(1.0, 2.0)),
    (L.potential(GeneralizedGaussian(1.5)), GaussianPosterior(0.0, 1.0)),
    (L.pwd(0.5), GammaPosterior(3.0, 2.0)),
    (L.sum_of(L.qtl(0.7), L.linex(0.3)), GaussianPosterior(1.0, 2.0)),
    (L.product_of(L.mtc(1.5), L.gam(1.0, 2.0)), GammaPosterior(3.0, 1.0)),
    (L.power_of(L.mtc(1), 1.5), GaussianPosterior(0.0, 1.0)),
    (L.mtc(1.5), GammaPosterior(1.5, 2.0)),
], ids=["mtc-half", "ptl", "pwd-half", "sum", "product", "power", "mtc-gamma"])
def test_numeric_search_needs_no_fallback(fallbacks, spec, post):
    # forced: PWD takes its power mean, and a radial loss the Gaussian's centre
    decision = searched(spec, post)
    assert decision.method.kind == "numeric"
    assert fallbacks == []
    lossfn = compose(spec)
    a = decision.action
    _assert_close(decision.epl, _oracle(post, lambda y: lossfn(a, y), (a,)))


def test_functional_quantile_needs_no_fallback(fallbacks):
    # the kink of the pinball loss at y = log a is a breakpoint of every EPL
    decision = optimize_functional(L.qtl(0.7), GaussianPosterior(0.0, 0.5), np.exp)
    assert fallbacks == []
    assert decision.action == pytest.approx(math.exp(0.5 * float(ndtri(0.7))), rel=1e-7)


def _affine(slope, intercept):
    return lambda y: slope * np.asarray(y, dtype=float) + intercept


# (posterior, g, g increasing): the q-quantile of g(Y) is g(F^-1(q)) for an
# increasing g and g(F^-1(1 - q)) for a decreasing one
_SLOPE = st.floats(0.2, 5.0) | st.floats(-5.0, -0.2)
_GAUSS = st.builds(GaussianPosterior, st.floats(-2.0, 2.0), st.floats(0.1, 1.5))
_GAMMA = st.builds(GammaPosterior, st.floats(1.5, 30.0), st.floats(0.2, 10.0))
_BETA = st.builds(BetaPosterior, st.floats(0.5, 20.0), st.floats(0.5, 20.0))
# a Gaussian whose support() (6.4 sd each side of the mean) keeps clear of 0,
# where y^2 is monotone
_OFF_ZERO = st.builds(lambda sd, k: GaussianPosterior(k * sd, sd), st.floats(0.05, 1.5),
                      st.floats(6.5, 40.0) | st.floats(-40.0, -6.5))
_CASES = st.one_of(
    st.tuples(st.builds(GaussianPosterior, st.floats(-2.0, 2.0), st.floats(0.1, 4.0)),
              st.just(np.exp), st.just(True)),
    st.tuples(_GAUSS | _GAMMA, _SLOPE, st.floats(-5.0, 5.0)).map(
        lambda c: (c[0], _affine(c[1], c[2]), c[1] > 0)),
    st.tuples(_GAMMA, st.just(np.square), st.just(True)),
    _OFF_ZERO.map(lambda post: (post, np.square, post.mean > 0)),
    # steep by 0 but continuous: no cell of the grid is a jump
    st.tuples(_GAMMA | _BETA, st.sampled_from([np.sqrt, np.log]), st.just(True)),
)


@given(case=_CASES, q=st.floats(0.05, 0.95), median=st.booleans())
@example(case=(GammaPosterior(2.0, 9.5), _affine(-2.0, -2.0), False), q=0.0625, median=False)
# g finite and monotone on support() only, or steep by 0
@example(case=(GaussianPosterior(0.0, 2.5), np.exp, True), q=0.7, median=False)
@example(case=(GaussianPosterior(0.0, 3.0), np.exp, True), q=0.7, median=False)
@example(case=(GaussianPosterior(-2.9, 0.16), np.square, False), q=0.7, median=False)
@example(case=(GammaPosterior(3.0, 1.0), np.sqrt, True), q=0.7, median=False)
@example(case=(GammaPosterior(3.0, 1.0), np.log, True), q=0.7, median=False)
@example(case=(BetaPosterior(2.0, 3.0), np.sqrt, True), q=0.7, median=False)
@example(case=(BetaPosterior(2.0, 3.0), np.log, True), q=0.7, median=False)
@example(case=(BetaPosterior(2.0, 3.0), np.sin, True), q=0.7, median=False)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_functional_quantile_is_g_of_the_quantile(fallbacks, case, q, median):
    post, g, increasing = case
    fallbacks.clear()
    spec, q = (L.mtc(1), 0.5) if median else (L.qtl(q), q)
    want = float(g(np.array([post.quantile(q if increasing else 1.0 - q)]))[0])
    decision = optimize_functional(spec, post, g)
    assert decision.method.name == "pushforward_quantile"
    assert fallbacks == []
    assert abs(decision.action - want) <= 1e-6 * max(abs(want), 1.0), (decision.action, want)


def test_a_quantile_outside_the_support_is_searched():
    # y^2 is monotone on support() of N(6.5, 1), [0.14, 12.86], but the 1e-12
    # quantile -0.53 lies below it: its square 0.28 is far above the 1e-12
    # quantile of Y^2 (3.5e-6), since Pr(Y^2 <= 0.28) is 1.2e-9
    spec, post = L.qtl(1e-12), GaussianPosterior(6.5, 1.0)
    decision = optimize_functional(spec, post, np.square)
    assert decision.method.name == "brent"
    off = np.square(post.quantile(1e-12))
    assert decision.epl < 0.5 * post.expect(lambda y: spec(off, np.square(y)))


def test_logit_of_a_beta_takes_the_quantile():
    # logit y is finite and increasing on support(); the rule's outermost
    # nodes round onto 1.0, where it is inf, so the one EPL is refined
    spec, post = L.qtl(0.7), BetaPosterior(2.0, 3.0)
    y_q = post.quantile(0.7)
    decision = optimize_functional(spec, post, logit)
    assert decision.method.name == "pushforward_quantile"
    assert decision.action == logit(y_q)
    a = decision.action
    integrand = lambda y: spec(a, float(logit(y))) * 12.0 * y * (1.0 - y) ** 2  # Beta(2, 3)
    want = sum(integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
               for lo, hi in ((0.0, y_q), (y_q, 1.0)))
    _assert_close(decision.epl, want)


@given(post=_GAUSS | _GAMMA, t=st.floats(0.02, 0.98),
       loss=st.sampled_from(["SEL", "MTC1", "MTC1.5"]) | st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_indicator_functional_is_a_two_point_decision(fallbacks, post, t, loss):
    # g(Y) = I(Y > kappa) takes 1 with probability p = Pr(Y > kappa): SEL
    # gives p, MTC(1) the likelier value, QTL(q) 0 when 1 - p >= q, and
    # MTC(1.5) minimises (1 - p)|a|^1.5 + p|1 - a|^1.5 at p^2 / (p^2 + (1 - p)^2)
    kappa = post.quantile(t)
    p = post.tail_prob(kappa)
    if loss == "SEL":
        spec, want = L.sel(), p
    elif loss == "MTC1":
        assume(abs(p - 0.5) > 1e-3)
        spec, want = L.mtc(1), float(p > 0.5)
    elif loss == "MTC1.5":
        spec, want = L.mtc(1.5), p * p / (p * p + (1.0 - p) ** 2)
    else:
        assume(abs(1.0 - p - loss) > 1e-3)
        spec, want = L.qtl(loss), float(1.0 - p < loss)
    fallbacks.clear()
    g = lambda y: (np.asarray(y, dtype=float) > kappa).astype(float)
    decision = optimize_functional(spec, post, g)
    assert fallbacks == []
    assert abs(decision.action - want) <= 1e-6, (decision.action, want)


# ---------------------------------------------------------------------------
# each way the first pass hands over to the refinement, and what that answers


def test_unlisted_interior_kink_fails_the_nested_difference(fallbacks):
    # QTL of exp(Y) kinks at y = log a, which is not passed as a breakpoint
    post, lossfn, a = GaussianPosterior(0.0, 0.5), compose(L.qtl(0.7)), 1.3
    h = lambda y: lossfn(a, np.exp(y))
    got = post.expect(h)
    assert len(fallbacks) == 1
    _assert_close(got, _oracle(post, h, (math.log(a),)))


def test_endpoint_singularity_fails_the_outermost_term_test(fallbacks):
    # y^-1.44 on Gamma(1.5, 1): the sum passes the nested difference, but
    # its outermost term shows the integrand is not yet negligible there
    post, p = GammaPosterior(1.5, 1.0), 1.44
    assert _rule(post, lambda y: y ** -p) is None
    got = post.expect(lambda y: y ** -p)
    assert len(fallbacks) == 1
    _assert_close(got, math.gamma(1.5 - p) / math.gamma(1.5))


def test_non_finite_extreme_node_falls_back(fallbacks):
    # y phi_0.5(a / y) written with (a / y)^1.5, which overflows at the
    # rule's smallest nodes although the product with y is finite there
    post, a = GammaPosterior(1.2, 0.3), 2.0
    h = lambda y: y * ((a / y) ** 1.5 - a / y + 0.5 * (1.0 - a / y)) / 0.75
    got = post.expect(h, breakpoints=(a,))
    assert len(fallbacks) == 1
    _assert_close(got, _oracle(post, h, (a,)))


def test_pwd_stays_finite_at_the_extreme_nodes(fallbacks):
    # the loss itself never forms (a / y)^1.5, so the rule keeps its sum
    post, lossfn, a = GammaPosterior(1.2, 0.3), compose(L.pwd(0.5)), 2.0
    h = lambda y: lossfn(a, y)
    got = post.expect(h, breakpoints=(a,))
    assert fallbacks == []
    _assert_close(got, _oracle(post, h, (a,)))


@pytest.mark.parametrize("lam", [2.0, 3.0])
def test_divergent_integral_raises_from_the_fallback(fallbacks, lam):
    # PWD(lam) with lam >= shape: y phi_lam(a / y) grows like y^(1 - lam) at 0,
    # so E Y^-lam diverges on Gamma(2, 1); the rule refuses the sum
    post, lossfn = GammaPosterior(2.0, 1.0), compose(L.pwd(lam))
    with pytest.raises(NumericError, match=r"the tanh-sinh rule cannot certify E h\(Y\) "
                                           r"on GammaPosterior\(shape=2.0, rate=1.0\): "):
        post.expect(lambda y: lossfn(2.0, y), breakpoints=(2.0,))
    assert len(fallbacks) == 1


def test_scalar_only_h_falls_back(fallbacks):
    # h must take a float array: one written for scalars raises its own error
    with pytest.raises(TypeError):
        GaussianPosterior(0.0, 1.0).expect(math.exp)
    assert len(fallbacks) == 1


@pytest.mark.parametrize("a, b", [(1, 2), (2, 3), (0.5, 0.5), (30, 1.2), (5, 0.7), (0.7, 5),
                                  (200, 300)])
def test_the_fallback_keeps_a_betas_upper_mass(a, b):
    # nodes whose y rounds to 1.0 keep their mass in the refinement too,
    # since h is the same at the next y below, so none of it goes missing
    post = BetaPosterior(a, b)
    for got in (post.expect(lambda y: 1.0), posteriors._refine(post, lambda y: 1.0, ())):
        assert abs(got - 1.0) <= 1e-12, got


def test_a_beta_weight_the_rule_refuses_keeps_its_digits(fallbacks):
    # Weight.__call__ refuses y^2 where it underflows to 0 at the rule's
    # nodes near 0, so the refinement shortens its reach, and answers
    # E Y^2 = a (a + 1) / ((a + b)(a + b + 1))
    got = BetaPosterior(1, 2).expect(Weight.power(2.0))
    assert len(fallbacks) == 1
    assert abs(got - 1.0 / 6.0) <= 1e-12 / 6.0, got


@pytest.mark.parametrize("a", [664.8, 670.0])
def test_h_raising_at_an_extreme_node_keeps_quadpack_answer(fallbacks, a):
    # LINEX refuses psi (a - y) > EXP_LIMIT, which the rule's lowest node
    # (about 35 sd below the mean) reaches first; the refinement shortens
    # its reach and answers what the closed forms of the sum's parts give
    post, spec = GaussianPosterior(0.0, 1.0), L.sum_of(L.qtl(0.3), L.linex(1.0))
    h = lambda y: spec(a, y)
    assert _rule(post, h, (a,)) is None
    fallbacks.clear()
    _assert_close(post.expect(h, breakpoints=(a,)), epl(spec, post, a))
    assert len(fallbacks) == 1


@pytest.mark.parametrize("a, b", [(0.2, 0.2), (0.5, 0.5), (0.3, 2.0), (2.0, 0.3), (0.7, 0.9)])
@pytest.mark.parametrize("rho", [0.3, 1.5])
def test_mtc_at_either_end_of_a_beta_with_a_shape_below_one(a, b, rho):
    # E|0 - Y|^rho = E Y^rho, and E|1 - Y|^rho is E Y^rho on Beta(b, a): by 1
    # the nodes' y round to 1.0 and the refinement continues the end past them
    post, spec = BetaPosterior(a, b), L.mtc(rho)
    _assert_close(post.expect(lambda y: spec(0.0, y), breakpoints=(0.0,)),
                  float(mp.beta_moment(a, b, rho)))
    _assert_close(post.expect(lambda y: spec(1.0, y), breakpoints=(1.0,)),
                  float(mp.beta_moment(b, a, rho)))


def test_a_concave_loss_on_a_u_shaped_beta(fallbacks):
    # MTC(0.3) on Beta(0.2, 0.2): each EPL's integrand is singular at both
    # ends, where the first pass leaves mass.  The oracle is mpmath at 30
    # digits after y = s^5 below 1/2 and 1 - y = s^5 above, which take
    # y^-0.8 dy and (1 - y)^-0.8 dy to 5 ds, split where |a - y| kinks
    post, spec = BetaPosterior(0.2, 0.2), L.mtc(0.3)
    decision = optimize(spec, post)
    assert len(fallbacks) > 0
    a = decision.action
    with mpmath.workdps(30):
        m, half = mpmath.mpf(a), mpmath.mpf(0.5) ** 0.2
        f = lambda y: (abs(m - y) ** mpmath.mpf(0.3) * 5 * (1 - y if y < 0.5 else y) ** -0.8
                       / mpmath.beta(0.2, 0.2))
        cuts = lambda c: [0] + ([c ** 0.2] if 0 < c < 0.5 else []) + [half]
        want = (mpmath.quad(lambda s: f(s ** 5), cuts(m))
                + mpmath.quad(lambda s: f(1 - s ** 5), cuts(1 - m)))
    _assert_close(decision.epl, float(want))
    for b in (a - 1e-3, a + 1e-3):
        assert epl(spec, post, b) > decision.epl


@pytest.mark.parametrize("a, b", [(0.05, 0.1), (0.2, 0.2), (0.3, 0.8)])
def test_a_search_on_a_beta_tries_the_ends_of_its_support(a, b):
    # a shape below 1 piles the mass up at 0, where the EPL of MTC(0.3) has a
    # cusp that Brent only narrows towards; there EPL(0) = E Y^0.3
    post = BetaPosterior(a, b)
    decision = optimize(L.mtc(0.3), post)
    assert decision.action == 0.0
    lo, hi = decision.method.bracket
    assert lo <= decision.action <= hi
    assert decision.epl == pytest.approx(math.exp(post.log_moment(0.3)), rel=1e-12)


def test_an_oscillation_the_rule_cannot_resolve_raises():
    # E cos(200 Y) on N(0, 1) is e^-20000; h never raises, so when the nested
    # difference stays open the refinement must raise, not return a number
    with pytest.raises(NumericError, match="the nested difference"):
        GaussianPosterior(0.0, 1.0).expect(lambda y: np.cos(200.0 * y))


def test_a_kink_no_breakpoint_names(fallbacks):
    # g = min(y, 0.5) kinks at 0.5, which no cut names: the 0.7-quantile of
    # g(Y) is min(Phi^-1(0.7), 0.5) = 0.5
    post, spec = GaussianPosterior(0.0, 1.0), L.qtl(0.7)
    g = lambda y: np.minimum(y, 0.5)
    decision = optimize_functional(spec, post, g)
    assert len(fallbacks) > 0
    a = decision.action
    assert a == pytest.approx(0.5, rel=1e-7)
    _assert_close(decision.epl, _oracle(post, lambda y: spec(a, g(y)), (a, 0.5)))


def test_a_linex_sum_needs_no_fallback(fallbacks):
    # the rule's lowest nodes, about 35 sd below the mean, would trip the
    # LINEX overflow guard at the search's actions; but a sum's EPL is its
    # parts' EPLs, so only MTC(1.5) is integrated and LINEX takes its row
    post = GaussianPosterior(0.0, 20.0)
    spec = L.sum_of(L.mtc(1.5), L.linex(1.0))
    decision = optimize(spec, post)
    assert fallbacks == []
    lossfn, a = compose(spec), decision.action
    _assert_close(decision.epl, _oracle(post, lambda y: lossfn(a, y), (a,)))
    for b in (a - 0.01, a + 0.01):
        assert _oracle(post, lambda y: lossfn(b, y), (b,)) > decision.epl


def test_a_linex_product_reaches_the_fallback(fallbacks):
    # a product has no closed-form EPL, so the whole loss is integrated; the
    # rule's lowest nodes trip the LINEX overflow guard at the search's
    # actions, and the refinement answers those EPLs on a shorter reach,
    # with the step in t refined over the integrand's peak 20 sd below 0
    post = GaussianPosterior(0.0, 20.0)
    spec = L.product_of(L.mtc(1.5), L.linex(1.0))
    decision = optimize(spec, post)
    assert len(fallbacks) > 0
    lossfn, a = compose(spec), decision.action
    _assert_close(decision.epl, _oracle(post, lambda y: lossfn(a, y), (a,)))
    for b in (a - 0.01, a + 0.01):
        assert _oracle(post, lambda y: lossfn(b, y), (b,)) > decision.epl


def test_a_sum_of_closed_forms_needs_no_quadrature(fallbacks):
    # each part of QTL(0.3) + LINEX(1) has a closed-form EPL, so the sum's
    # EPL is theirs: no rule, and so no refinement, at any of the search's actions
    post = GaussianPosterior(0.0, 20.0)
    decision = optimize(L.sum_of(L.qtl(0.3), L.linex(1.0)), post)
    assert len(fallbacks) == 0
    a, z = decision.action, decision.action / 20.0
    pdf, cdf = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi), 0.5 * math.erfc(-z / math.sqrt(2))
    # closed forms on N(0, 20^2): E QTL(0.3) and E LINEX(1) = e^(a + 200) - a - 1
    qtl, linex = a * (cdf - 0.3) + 20.0 * pdf, math.expm1(a + 200.0) - a
    _assert_close(decision.epl, qtl + linex)
    # their derivative in a, F(a) - 0.3 + e^(a + 200) - 1, vanishes there
    assert abs(cdf - 0.3 + math.expm1(a + 200.0)) < 1e-8
