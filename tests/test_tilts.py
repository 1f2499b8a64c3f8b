"""Weighted losses on conjugate posteriors, solved on the tilted posterior.

E w(Y) L(a, Y) = Z E_w L(a, Y), with Z = E w(Y) and the tilted posterior
p_w = w p / Z.  Each pair whose ``post.tilt`` returns a tilt (a row) is
checked against the quadrature of w(y) L(a, y) over the untilted posterior;
the pairs without a row keep the quadrature and the reweighted mean, digit
for digit.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from _search import searched
from bayesdecide import (BetaPosterior, GammaPosterior, GaussianPosterior, LossSpec,
                         NumericError, SamplePosterior, ValidationError, compose, epl,
                         optimize)
from bayesdecide import posteriors
from bayesdecide.cli import main
from bayesdecide.losses import Weight

REL = 1e-9

# the bases with a closed-form EPL on every family, and one without
BASES = {"SEL": LossSpec.sel(), "MTC1": LossSpec.mtc(1), "QTL": LossSpec.qtl(0.3),
         "LNX": LossSpec.linex(0.5), "MTC1.5": LossSpec.mtc(1.5)}


def _assert_close(got, want):
    assert abs(got - want) <= REL * abs(want), (got, want)


def _check_row(post, weight, a):
    """Z and every base's weighted EPL against quadrature on ``post``.

    The oracle calls the weight's bare function: ``Weight.__call__`` refuses
    a weight that underflows to 0, as y^2 does at a Beta's nodes near 0 and
    e^{cy} at a Gamma's far nodes, which would hand the oracle's sum to
    the rule's refinement on a shorter reach."""
    log_z, tilted = post.tilt(weight.kind, weight.param)
    assert type(tilted) is type(post)
    _assert_close(math.exp(log_z), post.expect(weight.fn))
    for base in BASES.values():
        lossfn = compose(base)
        want = post.expect(lambda y: weight.fn(y) * lossfn(a, y), breakpoints=(a,))
        _assert_close(epl(LossSpec.weighted(weight, base), post, a), want)


@given(mean=st.floats(-5.0, 5.0), sd=st.floats(0.1, 5.0), cs=st.floats(-2.0, 2.0),
       t=st.floats(-3.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_gaussian_exp_row_matches_quadrature(mean, sd, cs, t):
    # c sd in [-2, 2]; the LINEX base has psi sd = 0.5 sd <= 2.5
    post = GaussianPosterior(mean, sd)
    _check_row(post, Weight.exp(cs / sd), mean + t * sd)


@given(shape=st.floats(1.5, 30.0), rate=st.floats(0.1, 10.0), frac=st.floats(-1.0, 0.5),
       f=st.floats(0.1, 3.0))
@settings(max_examples=100, deadline=None)
def test_gamma_exp_row_matches_quadrature(shape, rate, frac, f):
    # c = frac * rate < rate.  A stronger tilt moves the mass into the
    # untilted posterior's tail, where the oracle's rule has too few nodes
    # for 1e-9: at Gamma(23, 1) with c = -2 it is off by 1.3e-9, the tilt
    # by 5e-15 (against 40-digit quadrature)
    post = GammaPosterior(shape, rate)
    _check_row(post, Weight.exp(frac * rate), f * shape / rate)


@given(shape=st.floats(1.5, 30.0), rate=st.floats(0.1, 10.0), p=st.floats(-0.45, 3.0),
       f=st.floats(0.1, 3.0))
@settings(max_examples=100, deadline=None)
def test_gamma_power_row_matches_quadrature(shape, rate, p, f):
    post = GammaPosterior(shape, rate)
    _check_row(post, Weight.power(p), f * shape / rate)


@given(al=st.floats(1.0, 30.0), be=st.floats(1.0, 30.0), p=st.floats(-0.5, 3.0),
       t=st.floats(-0.2, 1.2))
@settings(max_examples=100, deadline=None)
def test_beta_power_row_matches_quadrature(al, be, p, t):
    # shapes from 1: with both below it, the oracle's quadrature of MTC(1.5)
    # cannot certify its sum at the density's end singularities (ROADMAP item 5)
    _check_row(BetaPosterior(al, be), Weight.power(p), t)


@pytest.mark.parametrize("post", [GaussianPosterior(0.4, 1.3), GammaPosterior(3.5, 2.0)],
                         ids=str)
def test_a_zero_exp_weight_is_no_weight(post):
    # log_mgf_neg refuses psi = 0, where log Z is 0
    spec = LossSpec.weighted(Weight.exp(0.0), LossSpec.qtl(0.3))
    assert post.tilt("exp", 0.0) == (0.0, post)
    assert epl(spec, post, 1.2) == epl(LossSpec.qtl(0.3), post, 1.2)


def test_weights_record_kind_and_parameter():
    assert (Weight.power(0.7).kind, Weight.power(0.7).param) == ("power", 0.7)
    assert (Weight.exp(-2.5).kind, Weight.exp(-2.5).param) == ("exp", -2.5)
    bare = Weight(lambda y: 1.0 + y * y)
    assert (bare.kind, bare.param) == (None, None)


# one representative posterior and weight per row
TILT_CASES = {
    (GaussianPosterior, "exp"): (GaussianPosterior(0.4, 1.3), Weight.exp(0.6)),
    (GammaPosterior, "exp"): (GammaPosterior(3.5, 2.0), Weight.exp(-0.8)),
    (GammaPosterior, "power"): (GammaPosterior(3.5, 2.0), Weight.power(1.5)),
    (BetaPosterior, "power"): (BetaPosterior(2.5, 4.0), Weight.power(-0.5)),
}


def test_every_tilt_is_tested():
    # a parameter inside every row's domain: 0.5 < rate, shape + 0.5 > 1, a + 0.5 > 0
    posts = [GaussianPosterior(0.4, 1.3), GammaPosterior(3.5, 2.0), BetaPosterior(2.5, 4.0),
             SamplePosterior([0.5, 1.0, 2.0])]
    rows = {(type(post), kind) for post in posts for kind in ("exp", "power")
            if post.tilt(kind, 0.5) is not None}
    assert rows == set(TILT_CASES)


# every base with a closed-form action; the ratio losses need a Gamma
ROW_BASES = [LossSpec.sel(), LossSpec.mtc(1), LossSpec.zero_one(), LossSpec.qtl(0.3),
             LossSpec.linex(0.5)]
RATIO_BASES = [LossSpec.gam(1.0, 2.0), LossSpec.pwd(1), LossSpec.pwd(-1)]


@pytest.mark.parametrize("row", list(TILT_CASES), ids=str)
def test_tilted_pairs_need_no_quadrature(monkeypatch, row):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature on a tilted pair whose base has a closed form")

    monkeypatch.setattr(posteriors, "_quad_expect", no_quadrature)
    post, weight = TILT_CASES[row]
    bases = ROW_BASES + (RATIO_BASES if isinstance(post, GammaPosterior) else [])
    for base in bases:
        spec = LossSpec.weighted(weight, base)
        d = optimize(spec, post)
        assert d.method.kind == "closed_form", base
        assert d.method.name.startswith("tilted_"), base
        assert math.isfinite(d.epl)
        assert epl(spec, post, d.action * 1.1 + 0.01) >= d.epl
        numeric = searched(spec, post)
        assert numeric.method.kind == "numeric"


@pytest.mark.parametrize("row", list(TILT_CASES), ids=str)
def test_tilted_actions_match_the_numeric_search(row):
    post, weight = TILT_CASES[row]
    for base in (LossSpec.sel(), LossSpec.mtc(1), LossSpec.qtl(0.8), LossSpec.linex(-0.7)):
        spec = LossSpec.weighted(weight, base)
        closed, numeric = optimize(spec, post), searched(spec, post)
        assert abs(closed.action - numeric.action) <= 1e-7
        assert numeric.epl >= closed.epl * (1.0 - 1e-12)


def test_weighted_zero_one_is_the_tilted_mode():
    # the weighted 0-1 EPL is Z at every action, and the tilted mode is Bayes
    post = GaussianPosterior(0.3, 1.1)
    d = optimize(LossSpec.weighted(Weight.exp(-0.7), LossSpec.zero_one()), post)
    assert d.method.name == "tilted_posterior_mode"
    assert d.action == 0.3 - 0.7 * 1.1 ** 2
    assert d.epl == pytest.approx(math.exp(-0.7 * 0.3 + 0.5 * 0.49 * 1.21), rel=1e-15)


def test_a_weighted_weighted_loss_tilts_twice():
    post = GaussianPosterior(0.2, 0.9)
    spec = LossSpec.weighted(Weight.exp(0.5), LossSpec.weighted(Weight.exp(-0.2),
                                                                LossSpec.sel()))
    d = optimize(spec, post)
    assert d.method.name == "tilted_tilted_posterior_mean"
    assert d.action == pytest.approx(0.2 + 0.3 * 0.81, rel=1e-15)


# ---------------------------------------------------------------------------
# pairs without a row keep today's path and digits


def _old_sel(post, w):
    return post.expect(lambda y: w(y) * y) / post.expect(w)


def _old_epl(base, post, w, a):
    lossfn = compose(base)
    return post.expect(lambda y: w(y) * lossfn(a, y), breakpoints=(a,))


FALLBACKS = {
    "draws": (SamplePosterior(np.random.default_rng(5).gamma(3.0, 1.0, 2000)),
              Weight.exp(0.3)),
    "gaussian-power": (GaussianPosterior(5.0, 1.0), Weight.power(2.0)),
    "bare-callable": (GaussianPosterior(0.2, 1.0), Weight(lambda y: 1.0 + y * y)),
    "beta-exp": (BetaPosterior(2.0, 3.0), Weight.exp(1.5)),
    "shape-plus-p-below-one": (GammaPosterior(1.3, 2.0), Weight.power(-0.5)),
}


@pytest.mark.parametrize("case", list(FALLBACKS))
def test_pairs_without_a_row_keep_their_path_and_digits(case):
    post, w = FALLBACKS[case]
    spec = LossSpec.weighted(w, LossSpec.sel())
    assert post.tilt(w.kind, w.param) is None
    d = optimize(spec, post)
    assert d.method.name == "reweighted_mean"
    assert d.action == _old_sel(post, w)
    assert d.epl == _old_epl(LossSpec.sel(), post, w, d.action)
    numeric = LossSpec.weighted(w, LossSpec.mtc(1.5))
    assert optimize(numeric, post).method.name == "brent"
    assert epl(numeric, post, 1.1) == _old_epl(LossSpec.mtc(1.5), post, w, 1.1)


def test_an_exp_weight_at_or_past_the_gamma_rate_is_not_tilted():
    # E e^{cY} diverges for c >= rate: the weight check refuses it as before
    post = GammaPosterior(3.0, 2.0)
    for c in (2.0, 2.5):
        spec = LossSpec.weighted(Weight.exp(c), LossSpec.sel())
        assert post.tilt("exp", c) is None
        with pytest.raises(ValidationError, match="weight function must be finite and > 0"):
            optimize(spec, post)


# ---------------------------------------------------------------------------
# overflow and underflow


@pytest.mark.parametrize("post", [GaussianPosterior(0.0, 1.0), GammaPosterior(3.0, 1.0),
                                  BetaPosterior(2.0, 3.0)], ids=str)
def test_an_overflowing_closed_form_raises_numeric_error(post):
    with pytest.raises(NumericError, match="overflows"):
        epl(LossSpec.sel(), post, 1e200)


def test_an_overflowing_weight_mass_raises_numeric_error():
    # Z = exp(2 * 0.3 + 2 * 30^2) is past the float range; the action is not
    spec = LossSpec.weighted(Weight.exp(2.0), LossSpec.sel())
    with pytest.raises(NumericError, match="overflows"):
        optimize(spec, GaussianPosterior(0.3, 30.0))


def test_an_underflowing_weight_mass_raises_numeric_error():
    spec = LossSpec.weighted(Weight.exp(-1.0), LossSpec.sel())
    with pytest.raises(NumericError, match="underflows"):
        optimize(spec, GaussianPosterior(800.0, 1.0))


def test_an_overflowing_weight_mass_exits_3(tmp_path):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("posterior: {kind: gaussian, mean: 0.3, sd: 30}\n"
                        "loss: {compose: weighted, weight: {name: exp, c: 2}, "
                        "base: {family: SEL}}\n")
    result = CliRunner().invoke(main, ["predict", "--scenario", str(scenario)])
    assert result.exit_code == 3, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert "numeric failure" in result.output
