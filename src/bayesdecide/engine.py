"""Expected posterior loss and optimal decisions.

One registry, keyed by (posterior type, loss family), holds every leaf
loss whose optimal action has a closed form (mean, median, mode,
quantile, LINEX log-MGF, 1/E(1/Y)).  On Gaussian and Gamma posteriors an
entry also gives the expected posterior loss EPL(a) in closed form, so
``epl`` answers those pairs without quadrature, whichever caller asks:
``optimize``, its numeric search, or the BMA mixture.  Everything else
(compositions, custom weights, PTL, MTC(rho) with rho not in {1, 2},
functional prediction) integrates the loss against the posterior.
``optimize`` minimizes the EPL numerically when no closed form applies,
through ``minimize``: bracket by geometric expansion from the posterior
median, then golden-section search to a 1e-10 relative bracket width.

Also: minimax variants, functional prediction, tail-risk curves and
their lower envelope, and the 0-1-loss threshold yes/no rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import digamma, gammainc, gammaincc, ndtr

from .errors import NumericError, ValidationError
from .losses import EXP_LIMIT, LossSpec, compose
from .posteriors import GammaPosterior, GaussianPosterior, SamplePosterior

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_REL_WIDTH = 1e-10
_MAX_EXPAND = 200


@dataclass(frozen=True)
class SolverPath:
    """How an action was obtained: a named closed form or a numeric search."""

    kind: str  # "closed_form" | "numeric"
    name: str
    iterations: int = 0
    bracket: Optional[tuple] = None


@dataclass(frozen=True)
class OptimalDecision:
    action: float
    epl: float
    method: SolverPath


@dataclass(frozen=True)
class TailRiskCurve:
    """Points (kappa, Pr(Y > kappa | z), loss at kappa) for a fixed action."""

    points: tuple  # of (kappa, tail_prob, loss)

    def __post_init__(self):
        tps = [p[1] for p in self.points]
        if any(t2 > t1 + 1e-12 for t1, t2 in zip(tps, tps[1:])):
            raise ValidationError("tail probabilities must be nonincreasing in kappa")

    def to_csv(self):
        lines = ["kappa,tail_prob,loss"]
        for k, tp, lv in self.points:
            lines.append(f"{k!r},{tp!r},{lv!r}")
        return "\n".join(lines) + "\n"


def _check_domain(lossfn, post):
    if lossfn.positive_domain:
        lo, _ = post.support()
        if lo <= 0:
            raise ValidationError(
                "loss requires y > 0 but the posterior support reaches "
                f"down to {lo}"
            )


def epl(loss, post, a):
    """Expected posterior loss E(L(a, Y) | z)."""
    lossfn = compose(loss)
    _check_domain(lossfn, post)
    if lossfn.positive_domain and a <= 0:
        raise ValidationError(f"loss requires action > 0, got {a!r}")
    if isinstance(post, SamplePosterior):
        lv = np.asarray(lossfn(a, post.values), dtype=float)
        bad = ~np.isfinite(lv)
        if np.any(bad):
            y_bad = float(post.values[bad][0])
            raise NumericError(f"loss is not finite at draw y={y_bad!r} for a={a!r}")
        return float(np.dot(post.weights, lv))
    entry = _registry_entry(lossfn.spec, post)
    if entry is not None and entry.epl is not None:
        return float(entry.epl(post, lossfn.spec.params, a))
    # a itself is a potential kink of y -> L(a, y) (absolute/pinball losses)
    return post.expect(lambda y: lossfn(a, y), breakpoints=(a,))


# ---------------------------------------------------------------------------
# one-dimensional minimization


def _bracket(f, x0, positive):
    """Expand geometrically from x0 until f stops decreasing on both sides."""
    f0 = f(x0)
    step = 0.5 * (1.0 + abs(x0))

    lo, flo = x0, f0
    if positive:
        for _ in range(_MAX_EXPAND):
            cand = lo / 2.0
            fc = f(cand)
            if fc >= flo:
                lo = cand
                break
            lo, flo = cand, fc
        else:
            raise NumericError("bracket expansion failed toward 0: EPL keeps decreasing")
    else:
        h = step
        for _ in range(_MAX_EXPAND):
            cand = lo - h
            fc = f(cand)
            if fc >= flo:
                lo = cand
                break
            lo, flo = cand, fc
            h *= 2.0
        else:
            raise NumericError("bracket expansion failed (left): EPL appears unbounded below")

    hi, fhi = x0, f0
    h = step
    for _ in range(_MAX_EXPAND):
        cand = hi + h
        fc = f(cand)
        if fc >= fhi:
            hi = cand
            break
        hi, fhi = cand, fc
        h *= 2.0
    else:
        raise NumericError("bracket expansion failed (right): EPL appears unbounded below")
    return lo, hi


def _golden(f, lo, hi):
    x1 = hi - _GOLD * (hi - lo)
    x2 = lo + _GOLD * (hi - lo)
    f1, f2 = f(x1), f(x2)
    iterations = 0
    # no iteration cap: each step keeps 0.618 of the width and the stop
    # threshold is at least 1e-10, so a finite bracket stops (about 50 steps)
    while hi - lo > _REL_WIDTH * (1.0 + abs(lo) + abs(hi)):
        iterations += 1
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLD * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLD * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi), iterations


def minimize(f, x0, positive):
    """Minimize a scalar f by bracketing from x0, then golden-section search.

    ``positive`` confines the search to a > 0.  Returns the action and the
    numeric ``SolverPath`` that found it.
    """
    lo, hi = _bracket(f, x0, positive)
    x, iters = _golden(f, lo, hi)
    return x, SolverPath("numeric", "golden_section", iters, (lo, hi))


# ---------------------------------------------------------------------------
# closed forms: optimal actions


def _inverse_mean_reciprocal(post, prm):
    inv_mean = post.expect(lambda y: 1.0 / np.asarray(y, dtype=float))
    if inv_mean <= 0:
        raise NumericError("E(1/Y | z) is nonpositive; ratio predictor undefined")
    return 1.0 / inv_mean


def _gamma_ratio_action(post, prm):
    # 1 / E(1/Y) without quadrature: E(1/Y) = rate / (shape - 1)
    return (post.shape - 1.0) / post.rate


# the optimal action of each loss key, valid on every posterior type:
# (SolverPath name, action(post, params))
_ACTIONS = {
    "SEL": ("posterior_mean", lambda post, prm: post.moments()[0]),
    "MTC1": ("posterior_median", lambda post, prm: post.quantile(0.5)),
    "ZERO_ONE": ("posterior_mode", lambda post, prm: post.mode()),
    "QTL": ("posterior_quantile", lambda post, prm: post.quantile(prm["q"])),
    "LNX": ("linex_log_mgf",
            lambda post, prm: (-1.0 / prm["psi"]) * post.log_mgf_neg(prm["psi"])),
    "GAM": ("inverse_mean_reciprocal", _inverse_mean_reciprocal),
    "PWD+1": ("inverse_mean_reciprocal", _inverse_mean_reciprocal),
    "PWD-1": ("posterior_mean", lambda post, prm: post.moments()[0]),
}


# ---------------------------------------------------------------------------
# closed forms: expected posterior loss EPL(a)


def _sel_epl(post, prm, a):
    # E((a - Y)^2 | z) = Var(Y | z) + (a - E(Y | z))^2
    mean, var = post.moments()
    return var + (a - mean) ** 2


def _zero_one_epl(post, prm, a):
    # a single point carries no mass under a continuous posterior
    return 1.0


def _partials(post, a):
    """(E(a - Y)^+, E(Y - a)^+), each from the special function of its own tail.

    Gaussian: from the standard normal cdf and density at z = (a - m)/sd.
    Gamma: from P(k, r a) and P(k + 1, r a), as E(Y I(Y < a)) = m P(k + 1, r a).
    """
    if isinstance(post, GaussianPosterior):
        z = (a - post.mean) / post.sd
        phi = post.sd * post.pdf(float(a))  # standard normal density at z
        return (post.sd * (z * float(ndtr(z)) + phi),
                post.sd * (phi - z * float(ndtr(-z))))
    k, m = post.shape, post.moments()[0]
    if a <= 0:
        return 0.0, m - a
    x = post.rate * a
    return (a * float(gammainc(k, x)) - m * float(gammainc(k + 1.0, x)),
            m * float(gammaincc(k + 1.0, x)) - a * float(gammaincc(k, x)))


def _abs_epl(post, prm, a):
    below, above = _partials(post, a)
    return below + above


def _qtl_epl(post, prm, a):
    # pinball loss: (1 - q) E(a - Y)^+ + q E(Y - a)^+
    below, above = _partials(post, a)
    q = prm["q"]
    return (1.0 - q) * below + q * above


def _linex_epl(post, prm, a):
    """exp(psi a + log E e^{-psi Y}) - psi (a - E Y) - 1."""
    psi = prm["psi"]
    u = psi * a + post.log_mgf_neg(psi)
    if u > EXP_LIMIT:
        raise NumericError(
            f"LINEX overflow: log E exp(psi*(a - Y)) = {u} exceeds the "
            f"representable exponent range"
        )
    return math.expm1(u) - psi * (a - post.moments()[0])


def _gamma_gam_epl(post, prm, a):
    # (nu - 1)[a E(1/Y) - 1 - log a + E log Y], E log Y = digamma(k) - log r;
    # with t = a E(1/Y) both brackets below are nonnegative
    k, t = post.shape, a * post.rate / (post.shape - 1.0)
    return (prm["nu"] - 1.0) * ((t - 1.0 - math.log(t))
                                + (float(digamma(k)) - math.log(k - 1.0)))


def _gamma_pwd_plus_epl(post, prm, a):
    # y phi_1(a/y) = (a - y)^2 / (2y); with b = 1/E(1/Y) = (k - 1)/r the EPL
    # is ((a - b)^2 / b + E Y - b) / 2 and E Y - b = 1/r
    b = (post.shape - 1.0) / post.rate
    return 0.5 * ((a - b) ** 2 / b + 1.0 / post.rate)


def _gamma_pwd_minus_epl(post, prm, a):
    # y phi_-1(a/y) = a - y - y log a + y log y, E(Y log Y) = m (digamma(k + 1)
    # - log r); with t = a/m both brackets below are nonnegative
    k, m = post.shape, post.moments()[0]
    t = a / m
    return m * ((t - 1.0 - math.log(t)) + (float(digamma(k + 1.0)) - math.log(k)))


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class _ClosedForm:
    """A leaf loss with a closed-form optimal action on a posterior type.

    ``epl`` gives EPL(a) in closed form, or is None when the EPL is
    computed generically (a weighted sum over draws, or quadrature).
    """

    name: str
    action: Callable
    epl: Optional[Callable] = None


# closed-form EPLs shared by the Gaussian and the Gamma
_PARAMETRIC_EPLS = {
    "SEL": _sel_epl,
    "MTC1": _abs_epl,
    "ZERO_ONE": _zero_one_epl,
    "QTL": _qtl_epl,
    "LNX": _linex_epl,
}

# generic actions everywhere; on draws the EPL is an exact weighted sum,
# and GAM / PWD(+-1) on a Gaussian keep quadrature
_REGISTRY = {
    (kind, key): _ClosedForm(name, action)
    for kind in (GaussianPosterior, GammaPosterior, SamplePosterior)
    for key, (name, action) in _ACTIONS.items()
}
_REGISTRY.update({
    (kind, key): _ClosedForm(*_ACTIONS[key], epl_fn)
    for kind in (GaussianPosterior, GammaPosterior)
    for key, epl_fn in _PARAMETRIC_EPLS.items()
})
_REGISTRY.update({
    (GammaPosterior, "GAM"): _ClosedForm(
        "inverse_mean_reciprocal", _gamma_ratio_action, _gamma_gam_epl),
    (GammaPosterior, "PWD+1"): _ClosedForm(
        "inverse_mean_reciprocal", _gamma_ratio_action, _gamma_pwd_plus_epl),
    (GammaPosterior, "PWD-1"): _ClosedForm(*_ACTIONS["PWD-1"], _gamma_pwd_minus_epl),
})


def _loss_key(spec):
    """The registry key of a leaf loss spec, or None."""
    if not isinstance(spec, LossSpec) or spec.family is None:
        return None
    fam, prm = spec.family, spec.params
    if fam == "MTC":
        return {2.0: "SEL", 1.0: "MTC1"}.get(prm.get("rho"))
    if fam == "PWD":
        return {1.0: "PWD+1", -1.0: "PWD-1"}.get(prm.get("lam"))
    return fam if fam in _ACTIONS else None


def _registry_entry(spec, post):
    key = _loss_key(spec)
    return None if key is None else _REGISTRY.get((type(post), key))


def _closed_form(spec, post):
    """Return (action, name) when the spec has a known optimal predictor."""
    entry = _registry_entry(spec, post)
    if entry is not None:
        return entry.action(post, spec.params), entry.name
    if spec.compose == "weighted":
        base = spec.components[0]
        if base.family == "GAM" and spec.weight.name == "identity":
            return post.moments()[0], "posterior_mean"
        if base.family == "SEL" or (base.family == "MTC"
                                    and base.params.get("rho") == 2.0):
            w = spec.weight.fn
            if isinstance(post, SamplePosterior):
                return post.reweight(w).moments()[0], "reweighted_mean"
            num = post.expect(lambda y: w(np.asarray(y, dtype=float)) * y)
            den = post.expect(lambda y: w(np.asarray(y, dtype=float)))
            if den <= 0:
                raise NumericError("weight function has nonpositive posterior mass")
            return num / den, "reweighted_mean"
    return None


def optimize(loss, post, force_numeric=False):
    """Minimize E(L(a, Y) | z) over actions a."""
    lossfn = compose(loss)
    _check_domain(lossfn, post)
    if not force_numeric:
        hit = _closed_form(lossfn.spec, post)
        if hit is not None:
            action, name = hit
            return OptimalDecision(float(action), epl(lossfn, post, action),
                                   SolverPath("closed_form", name))
    f = lambda a: epl(lossfn, post, a)
    action, path = minimize(f, post.quantile(0.5), lossfn.positive_domain)
    return OptimalDecision(float(action), f(action), path)


def optimize_functional(loss, post, g, force_numeric=False):
    """Minimize E(L(a, g(Y)) | z): the optimal decision about g(Y)."""
    lossfn = compose(loss)
    if isinstance(post, SamplePosterior):
        gv = np.asarray(g(post.values), dtype=float)
        pushed = SamplePosterior(gv, post.weights)
        return optimize(lossfn, pushed, force_numeric=force_numeric)
    # parametric posterior: push through the quadrature
    spec = lossfn.spec
    f = lambda a: post.expect(lambda y: lossfn(a, np.asarray(g(y), dtype=float)))
    x0 = post.expect(lambda y: np.asarray(g(y), dtype=float))
    if not force_numeric and spec.family is not None and (
            spec.family == "SEL"
            or (spec.family == "MTC" and spec.params.get("rho") == 2.0)):
        return OptimalDecision(float(x0), f(x0),
                               SolverPath("closed_form", "pushforward_mean"))
    action, path = minimize(f, x0, lossfn.positive_domain)
    return OptimalDecision(float(action), f(action), path)


# ---------------------------------------------------------------------------
# minimax and tail risk


def _check_grid(grid, name):
    g = np.asarray(grid, dtype=float)
    if g.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if not np.all(np.isfinite(g)):
        raise ValidationError(f"{name} must be finite")
    return g


def minimax(loss, y_grid, a_grid):
    """argmin over a of max over y of L(a, y); ties to the smallest action."""
    lossfn = compose(loss)
    y = _check_grid(y_grid, "y_grid")
    a = np.sort(_check_grid(a_grid, "a_grid"))
    worst = np.array([float(np.max(lossfn(ai, y))) for ai in a])
    return float(a[int(np.argmin(worst))])


def minimax_posterior(loss, post, y_grid, a_grid):
    """argmin over a of max over y of L(a, y) * p(y | z).

    For sample posteriors, p is the normalized mass of the histogram bin
    containing y (zero outside the sampled range).
    """
    lossfn = compose(loss)
    y = _check_grid(y_grid, "y_grid")
    a = np.sort(_check_grid(a_grid, "a_grid"))
    p = _posterior_weight_at(post, y)
    worst = np.array([float(np.max(lossfn(ai, y) * p)) for ai in a])
    return float(a[int(np.argmin(worst))])


def _posterior_weight_at(post, y):
    if isinstance(post, SamplePosterior):
        lo, hi = post.support()
        if hi == lo:
            return (np.asarray(y) == lo).astype(float)
        n = post.values.size
        nbins = max(1, int(math.ceil(math.sqrt(n))))
        hist, edges = np.histogram(post.values, bins=nbins, range=(lo, hi),
                                   weights=post.weights)
        idx = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, nbins - 1)
        mass = hist[idx]
        mass = np.where((np.asarray(y) < lo) | (np.asarray(y) > hi), 0.0, mass)
        return mass
    return post.pdf(y)


def tail_risk_curve(loss, post, action, kappa_grid):
    """Locus of (kappa, Pr(Y > kappa | z), L(action, kappa))."""
    lossfn = compose(loss)
    kappas = _check_grid(kappa_grid, "kappa_grid")
    if np.any(np.diff(kappas) < 0):
        raise ValidationError("kappa_grid must be sorted ascending")
    pts = tuple(
        (float(k), post.tail_prob(k), float(lossfn(action, k)))
        for k in kappas
    )
    return TailRiskCurve(pts)


def lower_envelope(loss, post, kappa_grid, a_grid):
    """Pointwise minimum over actions of the tail-risk curves."""
    lossfn = compose(loss)
    kappas = _check_grid(kappa_grid, "kappa_grid")
    if np.any(np.diff(kappas) < 0):
        raise ValidationError("kappa_grid must be sorted ascending")
    a = _check_grid(a_grid, "a_grid")
    pts = tuple(
        (float(k), post.tail_prob(k), float(np.min(lossfn(a, float(k)))))
        for k in kappas
    )
    return TailRiskCurve(pts)


def threshold_rule(post, kappa):
    """0-1-loss yes/no rule: 'yes' iff Pr(Y > kappa | z) >= 0.5."""
    return "yes" if post.tail_prob(kappa) >= 0.5 else "no"
