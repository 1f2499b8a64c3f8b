"""Closed-form expected posterior losses against quadrature.

Every (posterior type, loss family) pair whose EPL the engine reports in
closed form is checked against the adaptive quadrature of the loss over
the posterior density, or on draws against the weighted sum of the loss
over the cloud, and the scipy.special densities behind both are checked
against scipy.stats.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import _oracle_mp as mp
from _search import searched
from bayesdecide import (BetaPosterior, DivergentMgfError, GammaPosterior,
                         GaussianPosterior, LossSpec, NumericError, SamplePosterior,
                         ValidationError, compose, epl, optimize)
from bayesdecide import engine, posteriors

REL = 1e-9


def _spec(key, q=0.3, psi=0.5, nu=2.0):
    return {
        "SEL": LossSpec.sel(),
        "MTC1": LossSpec.mtc(1),
        "ZERO_ONE": LossSpec.zero_one(),
        "QTL": LossSpec.qtl(q),
        "LNX": LossSpec.linex(psi),
        "GAM": LossSpec.gam(1.0, nu),
        "PWD+1": LossSpec.pwd(1),
        "PWD-1": LossSpec.pwd(-1),
    }[key]


def _quadrature(spec, post, a):
    lossfn = compose(spec)
    return post.expect(lambda y: lossfn(a, y), breakpoints=(a,))


def _assert_close(got, want):
    assert abs(got - want) <= REL * abs(want), (got, want)


GAUSS_KEYS = ["SEL", "MTC1", "ZERO_ONE", "QTL", "LNX"]
GAMMA_KEYS = GAUSS_KEYS + ["GAM", "PWD+1", "PWD-1"]
BETA_KEYS = GAUSS_KEYS
DRAW_KEYS = ["SEL", "MTC1", "QTL"]


@given(key=st.sampled_from(GAUSS_KEYS), mean=st.floats(-5.0, 5.0),
       sd=st.floats(0.1, 5.0), q=st.floats(0.01, 0.99),
       psi_sd=st.floats(0.05, 3.0), sign=st.sampled_from([-1.0, 1.0]),
       t=st.floats(-4.0, 4.0))
@settings(max_examples=300, deadline=None)
def test_gaussian_entries_match_quadrature(key, mean, sd, q, psi_sd, sign, t):
    post = GaussianPosterior(mean, sd)
    spec = _spec(key, q=q, psi=sign * psi_sd / sd)
    a = mean + t * sd
    _assert_close(epl(spec, post, a), _quadrature(spec, post, a))


@given(key=st.sampled_from(GAMMA_KEYS), shape=st.floats(2.0, 30.0),
       rate=st.floats(0.1, 10.0), q=st.floats(0.01, 0.99),
       psi_mag=st.floats(0.05, 3.0), psi_frac=st.floats(0.05, 0.5),
       negative=st.booleans(), nu=st.floats(1.1, 5.0), f=st.floats(0.05, 4.0))
@settings(max_examples=300, deadline=None)
def test_gamma_entries_match_quadrature(key, shape, rate, q, psi_mag, psi_frac,
                                        negative, nu, f):
    post = GammaPosterior(shape, rate)
    mean, var = post.moments()
    # psi > -rate keeps E exp(-psi Y) finite; past -rate/2 the quadrature's
    # far tail nodes can trip the LINEX evaluator's own overflow guard
    psi = -psi_frac * rate if negative else psi_mag / math.sqrt(var)
    spec = _spec(key, q=q, psi=psi, nu=nu)
    a = f * mean
    _assert_close(epl(spec, post, a), _quadrature(spec, post, a))


@given(key=st.sampled_from(BETA_KEYS), al=st.floats(0.3, 40.0), be=st.floats(0.3, 40.0),
       q=st.floats(0.01, 0.99), psi=st.floats(-20.0, 20.0).filter(lambda p: abs(p) > 0.05),
       t=st.floats(-0.5, 1.5))
@settings(max_examples=300, deadline=None)
def test_beta_entries_match_quadrature(key, al, be, q, psi, t):
    # t spans actions below 0 and above 1, where a partial expectation is 0
    post = BetaPosterior(al, be)
    spec = _spec(key, q=q, psi=psi)
    # 0-1 EPL is exactly 1: no point carries mass
    want = 1.0 if key == "ZERO_ONE" else _beta_quadrature(spec, post, t)
    _assert_close(epl(spec, post, t), want)


def _beta_quadrature(spec, post, t):
    """E L(t, Y) on a Beta by QUADPACK, an oracle apart from the posterior's
    own quadrature.  Each half of [0, 1] is integrated in s = d^p, where d is
    the distance to its end and p = min(shape, 1) that end's shape: there
    the density's factor d^(shape - 1) dd becomes d^(shape - p) ds / p,
    which is bounded, so neither end is singular.  The kink at y = t is a
    breakpoint."""
    lossfn = compose(spec)
    al, be = post.a, post.b
    norm = math.exp(-special.betaln(al, be))
    total = 0.0
    for shape, other, to_y in ((al, be, lambda d: d), (be, al, lambda d: 1.0 - d)):
        p = min(shape, 1.0)

        def f(s):
            d = s ** (1.0 / p)
            return (norm * float(lossfn(t, to_y(d))) * d ** (shape - p)
                    * (1.0 - d) ** (other - 1.0) / p)
        kink = to_y(t)  # t's distance from this end
        total += integrate.quad(f, 0.0, 0.5 ** p, points=[kink ** p] if 0 < kink < 0.5 else None,
                                epsabs=1e-15, epsrel=1e-11, limit=200)[0]
    return total


@pytest.mark.parametrize("key", ["SEL", "MTC1", "QTL", "LNX"])
@pytest.mark.parametrize("al, be", [(4.0, 4.0), (0.5, 0.5), (0.7, 12.0), (30.0, 1.5)])
def test_beta_closed_forms_match_the_numeric_search(key, al, be):
    post = BetaPosterior(al, be)
    closed = optimize(_spec(key, psi=-3.0), post)
    numeric = searched(_spec(key, psi=-3.0), post)
    assert (closed.method.kind, numeric.method.kind) == ("closed_form", "numeric")
    assert abs(closed.action - numeric.action) <= 1e-8
    assert abs(closed.epl - numeric.epl) <= 1e-8


@pytest.mark.parametrize("key", ["SEL", "MTC1", "QTL", "LNX"])
@pytest.mark.parametrize("a", [-3.0, 0.0])
def test_gamma_actions_at_or_below_zero(key, a):
    post = GammaPosterior(3.0, 1.5)
    spec = _spec(key, q=0.7)
    _assert_close(epl(spec, post, a), _quadrature(spec, post, a))


@pytest.mark.parametrize("key", ["GAM", "PWD+1", "PWD-1"])
@pytest.mark.parametrize("shape", [1.1, 1.2, 1.5, 1.9])
@pytest.mark.parametrize("f", [0.1, 1.0, 3.0])
def test_ratio_losses_near_shape_one(key, shape, f):
    # an oracle apart from the posterior's own quadrature: the ratio losses
    # grow like y^(shape - 2) near zero, and in t = log y the integrand is smooth
    post = GammaPosterior(shape, 2.0)
    spec = _spec(key, nu=3.0)
    lossfn = compose(spec)
    a = f * post.moments()[0]
    # below y = a e^-300 the mass left out is about e^(-300 (shape - 1))
    t_lo = math.log(a) - 300.0
    t_hi = math.log(post.quantile(1.0 - 1e-15)) + 1.0
    want, _ = integrate.quad(
        lambda t: float(lossfn(a, math.exp(t))) * post.pdf(math.exp(t)) * math.exp(t),
        t_lo, t_hi, points=[math.log(a)], limit=400, epsabs=0.0, epsrel=1e-12)
    _assert_close(epl(spec, post, a), want)


@pytest.mark.parametrize("key", ["GAM", "PWD+1", "PWD-1"])
@pytest.mark.parametrize("shape, rate", [(1.0000001, 5.0), (1.001, 1.0), (1.01, 2.0),
                                         (1.03, 1.0), (1.1, 0.3), (1.5, 2.0), (3.7, 1e-3),
                                         (42.0, 1e3), (2.5e4, 0.37), (9.75e6, 1e-3),
                                         (9.86e6, 3.1), (1e8, 250.0)])
def test_gamma_ratio_rows_match_fifty_digits_at_large_shapes(key, shape, rate):
    # at the action the EPL is about 1/(2k) times its scale, from digamma(k) -
    # log(k - 1) or digamma(k + 1) - log k, two numbers near log k.  Near
    # shape 1 the action (k - 1)/r is near 0, below 0.3 sd, so the point
    # below it is half of it there
    post = GammaPosterior(shape, rate)
    spec = _spec(key, nu=3.0)
    action, sd = optimize(spec, post).action, math.sqrt(post.moments()[1])
    below = action / 2.0 if shape < 1.2 else action - 0.3 * sd
    for a in (action, below, action + 0.3 * sd, action + 2.0 * sd):
        want = float(mp.gamma_ratio_epl(key, shape, rate, a, 3.0))
        assert abs(epl(spec, post, a) - want) <= 2e-11 * want, (a, want)


EPS = 2.0 ** -52
_FAMILY = {"gaussian": GaussianPosterior, "gamma": GammaPosterior, "beta": BetaPosterior}
# shapes 0.5 (a Gamma's above 1) to 1e6
_ORACLE_POSTS = [
    ("gaussian", 0.0, 1.0), ("gaussian", 1e6, 3.0), ("gaussian", -40.0, 1e-3),
    ("gaussian", 2.5, 1e4), ("gamma", 1.01, 2.0), ("gamma", 1.5, 0.3),
    ("gamma", 9745.0, 1.3), ("gamma", 1e6, 1e-3), ("gamma", 1e6, 7.0), ("beta", 0.5, 0.5),
    ("beta", 0.5, 3.0), ("beta", 200.0, 700.0), ("beta", 1e4, 3e4), ("beta", 1e6, 0.5),
    ("beta", 0.5, 1e6), ("beta", 1e6, 1e6), ("beta", 1e5, 3e5)]
_ORACLE_IDS = [f"{f}-{p1:g}-{p2:g}" for f, p1, p2 in _ORACLE_POSTS]


def _oracle_post(family, p1, p2):
    post = _FAMILY[family](p1, p2)
    mean, var = post.moments()
    return post, mean, math.sqrt(var)


def test_incomplete_function_oracles_agree_with_mpmath():
    # the series forms of P(s, x) and I_x(a, b) that the oracle takes where
    # mpmath's gammainc and betainc do not converge agree with them where they do
    with mp.mpmath.workdps(mp.DPS):
        for s, x in ((1.01, 0.3), (3.0, 5.0), (97.0, 80.0), (9745.0, 9500.0), (9745.0, 10100.0)):
            want = mp.mpmath.gammainc(s, 0, x, regularized=True)
            assert abs(mp.gamma_p(s, x) / want - 1) < 1e-40, (s, x)
        for x, a, b in ((0.3, 0.5, 0.5), (0.9, 0.5, 3.0), (0.2, 200.0, 700.0),
                        (0.26, 2000.0, 6000.0), (0.24, 2000.0, 6000.0)):
            want = mp.mpmath.betainc(a, b, 0, x, regularized=True)
            assert abs(mp.beta_i(x, a, b) / want - 1) < 1e-40, (x, a, b)


@pytest.mark.parametrize("family, p1, p2", _ORACLE_POSTS, ids=_ORACLE_IDS)
def test_linear_loss_matches_fifty_digits(family, p1, p2):
    # each part is a difference of terms of size |a| and m, so a few eps
    # (|a| + m + sd) is as close as the rounding of a and m allows
    post, m, sd = _oracle_post(family, p1, p2)
    for z in (-8.0, -3.0, -1.0, -0.1, 0.0, 0.5, 2.0, 8.0):
        a = m + z * sd
        if not post.lower < a < post.upper:
            continue
        bound = 8.0 * EPS * (abs(a) + abs(m) + sd)
        for got, want in zip(post.linear_loss(a), mp.linear_loss(family, p1, p2, a)):
            assert abs(got - want) <= bound, (a, got, float(want))


def _log_mgf_oracle(family, p1, p2, psi):
    """log E e^(-psi Y) to 50 digits, or None where the Beta row overflows:
    it sums e^max(psi, 0) E e^(-psi Y) >= e^(max(psi, 0) - psi m) as a 1F1
    series, which overflows past e^709.8."""
    if family == "beta" and max(psi, 0.0) - psi * p1 / (p1 + p2) > 710.0:
        return None
    want = mp.log_mgf_neg(family, p1, p2, psi)
    return None if family == "beta" and max(psi, 0.0) + want > 710.0 else want


@pytest.mark.parametrize("family, p1, p2", _ORACLE_POSTS, ids=_ORACLE_IDS)
def test_log_mgf_neg_matches_fifty_digits(family, p1, p2):
    # about -psi m, so a few eps |psi| (m + sd)
    post, m, sd = _oracle_post(family, p1, p2)
    for t in (-8.0, -3.0, -0.5, -1e-3, 1e-3, 0.5, 3.0, 8.0):
        psi = t / sd
        if family == "gamma" and psi <= -p2:
            continue  # E e^(-psi Y) diverges
        want = _log_mgf_oracle(family, p1, p2, psi)
        if want is None:
            with pytest.raises(NumericError, match="1F1 overflows"):
                post.log_mgf_neg(psi)
            continue
        got = post.log_mgf_neg(psi)
        assert abs(got - want) <= 8.0 * EPS * abs(psi) * (abs(m) + sd), (psi, got)


@pytest.mark.parametrize("family, p1, p2, psi", [
    ("gamma", 1e7, 1e-3, 2e-3), ("gamma", 1e7, 250.0, 30.0), ("gamma", 1e7, 3.1, 0.5),
    ("gamma", 1e7, 1.0, -0.5), ("gamma", 1e4, 1.0, 0.3), ("gamma", 1.5, 2.0, -1.0),
    ("gamma", 3.0, 0.5, 4.0), ("gaussian", 0.0, 1.0, 1.0), ("gaussian", 1e6, 2.0, 0.7),
    ("gaussian", -3e4, 1e-2, -30.0), ("gaussian", 5.0, 1e3, 1e-3), ("beta", 0.5, 0.5, 1.0),
    ("beta", 0.5, 3.0, -2.0), ("beta", 2.5, 4.0, 3.0), ("beta", 200.0, 700.0, -20.0),
    ("beta", 200.0, 700.0, 50.0), ("beta", 1e4, 3e4, 100.0), ("beta", 1e6, 0.5, -5.0),
    ("beta", 1e6, 1e6, 300.0), ("beta", 0.5, 1e6, 1000.0), ("beta", 3.0, 1e7, 1e4)])
def test_linex_rows_match_fifty_digits(family, p1, p2, psi):
    # The EPL is e^u - psi (a - m) - 1 with u = psi a + log E e^(-psi Y).  A
    # float a is known to eps |a|, which moves u by eps |psi a|, so the EPL
    # is known to about (1 + |psi a|) eps relative, and at shape 1e7 the row
    # is that close: a rewrite of u as psi (a - m) - k (log1p(psi / r) -
    # psi / r) measured no better at the worst case.  Where the Beta row's
    # 1F1 overflows, the action raises
    post = _FAMILY[family](p1, p2)
    spec = LossSpec.linex(psi)
    log_mgf = _log_mgf_oracle(family, p1, p2, psi)
    if log_mgf is None:
        with pytest.raises(NumericError, match="1F1 overflows"):
            optimize(spec, post)
        return
    star = optimize(spec, post).action
    with mp.mpmath.workdps(mp.DPS):
        p1, p2 = mp.mpmath.mpf(p1), mp.mpmath.mpf(p2)
        m = {"gaussian": p1, "gamma": p1 / p2, "beta": p1 / (p1 + p2)}[family]
    for u in (-8.0, -1.0, 1.0, 3.0, 100.0, 600.0):
        a = star + u / psi
        with mp.mpmath.workdps(mp.DPS):
            x = mp.mpmath.mpf(a)
            want = mp.mpmath.exp(psi * x + log_mgf) - psi * (x - m) - 1
        got = epl(spec, post, a)
        assert abs(got - want) <= 4.0 * (1.0 + abs(psi * a)) * EPS * want, (u, got, float(want))


def _analytic_pairs():
    rng = np.random.default_rng(4)
    posts = {GaussianPosterior: GaussianPosterior(0.4, 1.3),
             GammaPosterior: GammaPosterior(3.5, 2.0),
             BetaPosterior: BetaPosterior(2.5, 4.0),
             SamplePosterior: SamplePosterior(rng.lognormal(0.3, 0.5, 400),
                                              rng.uniform(0.5, 1.5, 400))}
    return [(posts[kind], key) for kind, key in engine._EPLS]


def test_every_analytic_pair_is_tested():
    pairs = {(type(p), k) for p, k in _analytic_pairs()}
    want = ({(GaussianPosterior, k) for k in GAUSS_KEYS}
            | {(GammaPosterior, k) for k in GAMMA_KEYS}
            | {(BetaPosterior, k) for k in BETA_KEYS}
            | {(SamplePosterior, k) for k in DRAW_KEYS})
    assert pairs == want


# ids from the posterior's type and the key, e.g. SamplePosterior-SEL: a
# cloud's repr holds its memory address, which changes from run to run
@pytest.mark.parametrize("post,key", _analytic_pairs(),
                         ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_registry_pairs_need_no_quadrature(monkeypatch, post, key):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature or a sum over draws on an analytic pair")

    monkeypatch.setattr(posteriors, "_quad_expect", no_quadrature)
    monkeypatch.setattr(SamplePosterior, "expect", no_quadrature)
    spec = _spec(key)
    d = optimize(spec, post)
    assert d.method.kind == "closed_form"
    assert math.isfinite(d.epl)
    assert epl(spec, post, d.action * 1.1) >= d.epl
    numeric = searched(spec, post)
    assert numeric.method.kind == "numeric"


def test_flat_zero_one_epl_is_searched_not_reported_unbounded():
    # on a continuous posterior the 0-1 EPL is 1 at every action
    d = searched(LossSpec.zero_one(), GaussianPosterior(0, 1))
    assert d.method.kind == "numeric"
    assert math.isfinite(d.action)
    assert d.epl == 1.0


def test_solver_path_names_unchanged():
    gauss, gamma = GaussianPosterior(0.4, 1.3), GammaPosterior(3.5, 2.0)
    names = {key: optimize(_spec(key), gamma).method.name for key in GAMMA_KEYS}
    assert names == {
        "SEL": "posterior_mean", "MTC1": "posterior_median",
        "ZERO_ONE": "posterior_mode", "QTL": "posterior_quantile",
        "LNX": "linex_log_mgf", "GAM": "inverse_mean_reciprocal",
        "PWD+1": "inverse_mean_reciprocal", "PWD-1": "posterior_mean",
    }
    for key in GAUSS_KEYS:
        assert optimize(_spec(key), gauss).method.name == names[key]


# ---------------------------------------------------------------------------
# rows on draws against the weighted sum


def _cloud(centre, sd, n=1500, seed=11):
    rng = np.random.default_rng(seed)
    return SamplePosterior(centre + sd * rng.standard_normal(n), rng.uniform(0.2, 5.0, n))


# centred at 0, and narrow clouds far from 0, where var + (a - mean)^2 loses
# the digits that a sum about a draw keeps
CLOUDS = [_cloud(0.0, 1.0), _cloud(1e6, 1e-3, seed=12), _cloud(1e9, 1.0, seed=13)]


def _weighted_sum(spec, post, a):
    return float(np.dot(post.weights, compose(spec)(a, post.values)))


def _actions(draw):
    """An action on a drawn cloud: inside it, outside it, or exactly at a draw."""
    post = CLOUDS[draw(st.integers(0, len(CLOUDS) - 1))]
    centre, sd = post.quantile(0.5), math.sqrt(post.moments()[1])
    kind = draw(st.sampled_from(["inside", "outside", "draw"]))
    if kind == "draw":
        return post, float(post.values[draw(st.integers(0, len(post) - 1))])
    t = draw(st.floats(-4.0, 4.0) if kind == "inside"
             else st.floats(5.0, 1e4).map(lambda x: x * draw(st.sampled_from([-1.0, 1.0]))))
    return post, centre + t * sd


@given(key=st.sampled_from(DRAW_KEYS), q=st.floats(0.01, 0.99), data=st.data())
@settings(max_examples=400, deadline=None)
def test_draw_rows_match_the_weighted_sum(key, q, data):
    post, a = _actions(data.draw)
    spec = _spec(key, q=q)
    want = _weighted_sum(spec, post, a)
    assert abs(epl(spec, post, a) - want) <= 1e-12 * abs(want), (a, want)


@given(q=st.floats(0.01, 0.99), data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_sum_of_draw_rows_matches_the_weighted_sum(q, data):
    post, a = _actions(data.draw)
    spec = LossSpec.sum_of(LossSpec.qtl(q), LossSpec.sel(), LossSpec.mtc(1))
    want = _weighted_sum(spec, post, a)
    assert abs(epl(spec, post, a) - want) <= 1e-12 * abs(want), (a, want)


@pytest.mark.parametrize("k", [1, 2])
def test_an_uncentred_sel_row_fails_the_shifted_clouds(k):
    # the same sum about 0 rather than about a draw: (a - mean) carries the
    # mean's rounding, eps |mean|, which is no longer small beside the spread
    post = CLOUDS[k]
    mean, var = post.moments()
    sd = math.sqrt(var)
    worst = 0.0
    for t in np.linspace(-3.0, 3.0, 13):
        a = post.quantile(0.5) + t * sd
        want = _weighted_sum(LossSpec.sel(), post, a)
        assert abs(epl(LossSpec.sel(), post, a) - want) <= 1e-12 * want
        worst = max(worst, abs(var + (a - mean) ** 2 - want) / want)
    assert worst > 1e-10


SUM_PARTS = {GaussianPosterior: GAUSS_KEYS, GammaPosterior: GAMMA_KEYS, BetaPosterior: BETA_KEYS}


@pytest.mark.parametrize("post", [GaussianPosterior(0.4, 1.3), GammaPosterior(3.5, 2.0),
                                  BetaPosterior(2.5, 4.0)], ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("f", [0.3, 1.0, 1.8])
def test_a_sum_of_closed_forms_matches_quadrature(monkeypatch, post, f):
    keys = [k for k in SUM_PARTS[type(post)] if k != "ZERO_ONE"]
    spec = LossSpec.sum_of(*(_spec(k, q=0.3, psi=0.5) for k in keys))
    a = f * post.moments()[0]
    if isinstance(post, BetaPosterior):
        want = _beta_quadrature(spec, post, a)
    else:
        want = _quadrature(spec, post, a)
    calls = []
    monkeypatch.setattr(posteriors, "_quad_expect", lambda *args: calls.append(args))
    _assert_close(epl(spec, post, a), want)
    assert calls == []


@pytest.mark.parametrize("post", [GaussianPosterior(0.4, 1.3), GammaPosterior(3.5, 2.0),
                                  BetaPosterior(2.5, 4.0), CLOUDS[0]],
                         ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("spec", [LossSpec.sel(), LossSpec.qtl(0.3), LossSpec.mtc(1),
                                  LossSpec.mtc(0.5),
                                  LossSpec.sum_of(LossSpec.qtl(0.3), LossSpec.sel())],
                         ids=["SEL", "QTL", "MTC1", "MTC0.5", "sum"])
@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_a_nonfinite_action_is_refused(post, spec, a):
    with pytest.raises(ValidationError, match="action must be finite"):
        epl(spec, post, a)


def test_an_overflowing_draw_row_raises_like_the_weighted_sum():
    # (a - c)^2 overflows at a = 1e200: the weighted sum raised NumericError there
    with pytest.raises(NumericError, match="not finite"):
        epl(LossSpec.sel(), CLOUDS[0], 1e200)
    with pytest.raises(NumericError, match="not finite"):
        epl(LossSpec.sum_of(LossSpec.qtl(0.3), LossSpec.sel()), CLOUDS[0], -1e200)


# ---------------------------------------------------------------------------
# LINEX guards


@pytest.mark.parametrize("a", [705.0, 1000.0])
def test_linex_overflow_raises_numeric_error(a):
    # log E exp(psi (a - Y)) = a + 1/2 here: past the exponent limit, and
    # at a = 1000 past the point where math.exp itself overflows
    with pytest.raises(NumericError, match="LINEX overflow"):
        epl(LossSpec.linex(1.0), GaussianPosterior(0.0, 1.0), a)


def test_linex_divergent_gamma_raises():
    post = GammaPosterior(3.0, 1.0)
    with pytest.raises(DivergentMgfError):
        epl(LossSpec.linex(-1.0), post, 1.0)
    with pytest.raises(DivergentMgfError):
        optimize(LossSpec.linex(-2.0), post)


def test_linex_near_exponent_limit_returns():
    # psi * sd = 32: quadrature tail nodes trip the loss overflow guard,
    # the closed form does not
    post = GaussianPosterior(0.2, 1.0)
    d = optimize(LossSpec.linex(32.0), post)
    assert d.action == pytest.approx(0.2 - 16.0, rel=1e-15)
    assert d.epl == pytest.approx(512.0, rel=1e-12)


# ---------------------------------------------------------------------------
# scipy.special densities against scipy.stats


GAUSS_Y = [-1e6, -40.0, -8.0, -1.0, 0.0, 0.3, 2.5, 9.0, 40.0, 1e6]
GAMMA_Y = [-5.0, -1e-300, 0.0, 1e-300, 1e-12, 1e-3, 0.5, 2.0, 10.0, 80.0, 400.0]
BETA_Y = [-5.0, 0.0, 1e-300, 1e-12, 1e-3, 0.2, 0.5, 0.9, 1.0 - 1e-9, 1.0, 3.0]


def _close_arrays(got, want, rtol=1e-11):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("mean,sd", [(0.0, 1.0), (-2.5, 0.3), (7.0, 4.0)])
def test_gaussian_functions_match_scipy_stats(mean, sd):
    post = GaussianPosterior(mean, sd)
    ref = stats.norm(loc=mean, scale=sd)
    y = np.array(GAUSS_Y)
    _close_arrays(post.pdf(y), ref.pdf(y))
    _close_arrays([post.pdf(float(v)) for v in y], ref.pdf(y))
    assert isinstance(post.pdf(0.5), float)
    _close_arrays(post.cdf(y), ref.cdf(y))
    _close_arrays([post.cdf(float(v)) for v in y], ref.cdf(y))
    _close_arrays([post.tail_prob(float(v)) for v in y], ref.sf(y))
    qs = [1e-12, 1e-10, 0.03, 0.5, 0.97, 1.0 - 1e-10]
    _close_arrays([post.quantile(q) for q in qs], ref.ppf(qs))
    _close_arrays(post.support(), ref.ppf([1e-10, 1.0 - 1e-10]))


@pytest.mark.parametrize("shape,rate", [(1.05, 0.3), (3.0, 1.0), (40.0, 7.5)])
def test_gamma_functions_match_scipy_stats(shape, rate):
    post = GammaPosterior(shape, rate)
    ref = stats.gamma(shape, scale=1.0 / rate)
    y = np.array(GAMMA_Y)
    _close_arrays(post.pdf(y), ref.pdf(y))
    _close_arrays([post.pdf(float(v)) for v in y], ref.pdf(y))
    assert isinstance(post.pdf(0.5), float)
    _close_arrays(post.cdf(y), ref.cdf(y))
    _close_arrays([post.cdf(float(v)) for v in y], ref.cdf(y))
    _close_arrays([post.tail_prob(float(v)) for v in y], ref.sf(y))
    qs = [1e-12, 1e-10, 0.03, 0.5, 0.97, 1.0 - 1e-10]
    _close_arrays([post.quantile(q) for q in qs], ref.ppf(qs))
    _close_arrays(post.support(), ref.ppf([1e-10, 1.0 - 1e-10]))


@pytest.mark.parametrize("al,be", [(0.3, 0.8), (2.0, 3.0), (40.0, 7.5), (1e5, 0.5)])
def test_beta_functions_match_scipy_stats(al, be):
    post = BetaPosterior(al, be)
    ref = stats.beta(al, be)
    y = np.array(BETA_Y)
    inside = y[(y > 0.0) & (y < 1.0)]
    # the density's log B(a, b) from scipy.special.betaln is off by 6.5e-11
    # at (1e5, 0.5), where one shape dwarfs the other; scipy.stats is exact
    _close_arrays(post.pdf(inside), ref.pdf(inside), rtol=1e-9)
    _close_arrays([post.pdf(float(v)) for v in inside], ref.pdf(inside), rtol=1e-9)
    # 0 at and past the ends, also where a shape below 1 makes it unbounded there
    np.testing.assert_array_equal(post.pdf(y[(y <= 0.0) | (y >= 1.0)]), 0.0)
    assert isinstance(post.pdf(0.5), float)
    _close_arrays(post.cdf(y), ref.cdf(y))
    _close_arrays([post.tail_prob(float(v)) for v in y], ref.sf(y))
    qs = [1e-12, 1e-10, 0.03, 0.5, 0.97, 1.0 - 1e-10]
    _close_arrays([post.quantile(q) for q in qs], ref.ppf(qs))
    _close_arrays(post.moments(), ref.stats("mv"))


def test_gamma_density_vanishes_off_support():
    post = GammaPosterior(2.5, 1.0)
    for y in (-1.0, 0.0, math.inf):
        assert post.pdf(y) == 0.0
    np.testing.assert_array_equal(post.pdf(np.array([-1.0, 0.0, np.inf])), 0.0)
    assert post.cdf(-1.0) == 0.0
    assert post.tail_prob(-1.0) == 1.0
