"""Expected posterior loss and optimal decisions.

Two flat tables hold the closed forms.  ``_ACTIONS`` maps a leaf loss key
(see ``loss_key``) to the name and formula of its optimal action: mean,
median, mode, quantile, LINEX log-MGF, 1/E(1/Y) (one weighted pass on
draws, else from the posterior's ``log_moment``) and PWD's power mean
(E Y^-lam)^(-1/lam) from ``log_moment`` and ``mean_log``, with the rows
``PWD+1`` and ``PWD-1`` for lam = 1 and -1.  Each formula is valid on
every posterior ``optimize`` accepts.  ``_EPLS`` maps (posterior type,
loss key) to the expected posterior loss EPL(a) in closed form.  SEL,
MTC(1) and QTL take ``post.squared_loss`` and ``post.linear_loss`` on all
four posterior types (O(log n) on draws), ZERO_ONE and LNX have rows on
Gaussian, Gamma and Beta posteriors, and the Gamma GAM and PWD(-1) rows
sum digamma(x) - log x by ``digamma_gap``, with no cancellation.  A sum's
EPL is the sum of its parts' EPLs (linearity).  The conjugate tilts live
on the posteriors too: ``post.tilt(Weight.kind, Weight.param)`` returns
(log Z, the tilted posterior w p / Z), with Z = E w(Y), where the family
is closed under the weight, and None otherwise (see ``posteriors``).
Since E w(Y) L(a, Y) = Z E_w L(a, Y), a weighted loss on those pairs is
its base loss on the tilted posterior: ``optimize`` takes the base's
closed-form action (path ``tilted_<name>``) and ``epl`` returns Z times
the base's EPL.  So ``epl`` answers these without quadrature or a pass
over the draws, whichever caller asks: ``optimize``, its numeric search,
or the BMA mixture.  Every other EPL (the other losses on draws, other
compositions, weights without a tilt, PTL, MTC(rho) with rho not in {1,
2}, PWD(lam) with lam not in {1, -1}) is ``post.expect`` of the loss: a
weighted sum on draws, quadrature otherwise; weighted SEL without a tilt
takes the reweighted mean E w(Y) Y / E w(Y).  ``epl`` refuses an action
that is not finite, and raises ``NumericError`` when a closed form or Z
overflows (or Z underflows), as the sum and the quadrature do.  Every entry
point reads the loss's family, params, composition, components and tags off
the ``LossSpec`` itself, and ``compose`` refuses anything else.

A radial loss (``LossSpec.radial``) without a row takes the centre of
a symmetric unimodal posterior, ``post.symmetric_centre()`` (Anderson
1955).  Otherwise ``optimize`` minimizes the EPL numerically, through
``minimize``: bracket by geometric expansion from the posterior median,
then search the bracket.  The search is Brent's method (parabolic
interpolation guarded by golden-section steps) whenever the EPL is
unimodal: on a parametric posterior, and on draws for a convex loss
(``LossSpec.convex``).  It stops once a short step finds an EPL tied
to rounding with the best one, or else at a 1e-10 relative width.  A
nonconvex loss on draws (MTC(rho < 1), 0-1) has a local minimum at every
draw, so there the search is plain golden section, which interpolates
nothing, down to the 1e-10 relative width.

Also: functional prediction (the quantile of a monotone g(Y) in closed
form), and the lower envelope of tail-risk curves over actions (one
action's curve is its one-action envelope).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericError, ValidationError
from .losses import EXP_LIMIT, compose
from .posteriors import (BetaPosterior, GammaPosterior, GaussianPosterior,
                         SamplePosterior, almost_surely_positive, digamma_gap)

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_CGOLD = 1.0 - _GOLD  # Brent's golden step, as a fraction of the larger side
_REL_WIDTH = 1e-10
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)  # Brent's "short step", relative
_TIE = 4.0 * sys.float_info.epsilon  # values this close (relative) are tied
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


def _check_domain(loss, post):
    if loss.positive_domain and not almost_surely_positive(post):
        raise ValidationError("loss requires y > 0 but the posterior support reaches "
                              f"down to {post.lower}")


def epl(loss, post, a):
    """Expected posterior loss E(L(a, Y) | z)."""
    loss = compose(loss)
    _check_domain(loss, post)
    if not math.isfinite(a):
        raise ValidationError(f"action must be finite, got {a!r}")
    if loss.positive_domain and a <= 0:
        raise ValidationError(f"loss requires action > 0, got {a!r}")
    try:
        return _epl(loss, post, a)
    except OverflowError as exc:  # a Python float op in a closed form, or exp(log Z)
        raise NumericError(f"the closed-form EPL at a={a!r} overflows: {exc}") from exc


def _epl(loss, post, a):
    """``epl`` on a checked loss and action: a sum of its parts' EPLs, Z times
    the base EPL on a tilted posterior, a table row, or ``post.expect``."""
    if loss.compose == "sum":
        return _finite(sum(_epl(part, post, a) for part in loss.components), a)
    if loss.compose == "weighted":
        tilt = _tilt(loss, post)
        if tilt is not None:
            log_z, tilted = tilt
            z = math.exp(log_z)
            if not z >= sys.float_info.min:
                raise NumericError(f"the weight's posterior mass exp({log_z!r}) underflows")
            return _finite(z * _epl(loss.components[0], tilted, a), a)
    closed = _EPLS.get((type(post), loss_key(loss)))
    if closed is not None:
        return _finite(closed(post, loss.params, a), a)
    # a itself is a potential kink of y -> L(a, y) (absolute/pinball losses)
    return post.expect(lambda y: loss(a, y), breakpoints=(a,))


def _finite(value, a):
    """A closed-form EPL as a float; NumericError when it overflowed, as the
    weighted sum and the quadrature raise when theirs do."""
    value = float(value)
    if not math.isfinite(value):
        raise NumericError(f"the closed-form EPL at a={a!r} overflows: it is not finite")
    return value


# ---------------------------------------------------------------------------
# one-dimensional minimization


def _bracket(f, x0, positive):
    """Expand geometrically from x0 until f stops decreasing on both sides.

    The left end halves toward 0 on a positive domain; otherwise each end
    steps out by step * 2^k.  Returns (lo, x, fx, hi): the two ends and the
    best point evaluated between them, with its value.
    """
    f0 = f(x0)
    step = 0.5 * (1.0 + abs(x0))
    left_failure = ("toward 0: EPL keeps decreasing" if positive
                    else "(left): EPL appears unbounded below")
    ends, best = [], (f0, x0)
    for sign, failure in ((-1.0, left_failure),
                          (1.0, "(right): EPL appears unbounded below")):
        halve = positive and sign < 0
        x, fx, h = x0, f0, step
        for _ in range(_MAX_EXPAND):
            cand = x / 2.0 if halve else x + sign * h
            fc = f(cand)
            if fc >= fx:
                break
            x, fx, h = cand, fc, 2.0 * h
        else:
            raise NumericError(f"bracket expansion failed {failure}")
        ends.append(cand)
        if fx < best[0]:
            best = (fx, x)
    return ends[0], best[1], best[0], ends[1]


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


def _brent(f, lo, hi, x, fx):
    """Brent's minimizer (Brent 1973, ch. 5) on lo < x < hi, f(x) <= f(ends).

    Each step fits a parabola through the three best points and steps to
    its vertex when that lands inside the bracket and moves less than half
    the step before last; otherwise it takes a golden-section step into
    the larger side.  No step is shorter than a quarter of the stop width,
    so the bracket closes from both sides.

    Stops when a step was short, 2 |u - x| <= sqrt(eps) (1 + |lo| + |hi|),
    and its value ties the best one, |f(u) - f(x)| <= 4 eps |f(x)|: values
    that agree to rounding cannot tell the points apart, so narrowing
    further buys no accuracy.  A kink never ties, and a minimum value of 0
    ties only on exact equality; those, and every other case, stop like
    ``_golden`` once the bracket is narrower than 1e-10 (1 + |lo| + |hi|).
    Returns the best point evaluated, its value and the number of steps.
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0  # the last step and the one before it
    iterations = 0
    while True:
        width = _REL_WIDTH * (1.0 + abs(lo) + abs(hi))
        if hi - lo <= width:
            return x, fx, iterations
        iterations += 1
        tol = 0.25 * width
        mid = 0.5 * (lo + hi)
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            parabolic = (abs(p) < abs(0.5 * q * e)
                         and q * (lo - x) < p < q * (hi - x))
            if parabolic:
                e, d = d, p / q
                if (x + d) - lo < 2.0 * tol or hi - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
        if not parabolic:
            e = (lo if x >= mid else hi) - x
            d = _CGOLD * e
        u = x + d if abs(d) >= tol else x + math.copysign(tol, d)
        fu = f(u)
        settled = (2.0 * abs(u - x) <= _SQRT_EPS * (1.0 + abs(lo) + abs(hi))
                   and abs(fu - fx) <= _TIE * abs(fx))
        if fu <= fx:
            if u >= x:
                lo = x
            else:
                hi = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        if settled:
            return x, fx, iterations


def unimodal_epl(loss, post):
    """Whether Brent's method may search the EPL of ``loss`` on ``post``.

    A convex loss has a convex EPL, and a parametric posterior smooths
    a nonconvex one; but on draws a nonconvex loss (MTC(rho < 1),
    0-1) has a local minimum at every draw.
    """
    return loss.convex or not isinstance(post, SamplePosterior)


def minimize(f, x0, positive, unimodal=True):
    """Minimize a scalar f by bracketing from x0, then a search inside.

    ``positive`` confines the search to a > 0.  A ``unimodal`` f gets
    Brent's method from the bracket's best point, which stops at a short
    step whose value ties the best one to rounding, or at a 1e-10 relative
    width; the result is the best point it evaluated.  Otherwise golden
    section narrows the bracket to its 1e-10 relative width and the result
    is the final midpoint.
    Returns (action, f(action), numeric ``SolverPath``); the path's
    ``iterations`` counts the evaluations after the bracket.
    """
    lo, x, fx, hi = _bracket(f, x0, positive)
    if unimodal:
        x, fx, iters = _brent(f, lo, hi, x, fx)
        name = "brent"
    else:
        x, iters = _golden(f, lo, hi)
        fx = f(x)
        name = "golden_section"
    return x, fx, SolverPath("numeric", name, iters, (lo, hi))


# ---------------------------------------------------------------------------
# closed forms: optimal actions


def _inverse_mean_reciprocal(post, prm):
    """1 / E(1/Y | z) from ``log_moment``, which raises where E(1/Y) diverges;
    on draws one weighted pass, 1 / sum w/y, at half ``log_moment``'s cost."""
    if isinstance(post, SamplePosterior):
        # every caller passed _check_domain, so the draws are all > 0 here
        return 1.0 / post.expect(lambda y: 1.0 / y)
    return math.exp(-post.log_moment(-1.0))


def _power_mean(post, prm):
    """The PWD(lam) action (E Y^-lam)^(-1/lam), exp(E log Y) at lam = 0.

    The EPL's derivative in a is E((a/Y)^lam - 1)/lam, which vanishes there
    (Cressie & Read 1984).  At lam = 1 and -1 the rows ``PWD+1`` and
    ``PWD-1`` take it as 1/E(1/Y) and E Y.
    """
    lam = prm["lam"]
    if abs(lam) < 1e-30:  # the next term, lam Var(log Y) / 2, is below rounding
        return math.exp(post.mean_log())
    return math.exp(post.log_moment(-lam) / -lam)


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
    "PWD": ("power_mean", _power_mean),
}


# ---------------------------------------------------------------------------
# closed forms: expected posterior loss EPL(a)


def _zero_one_epl(post, prm, a):
    # a single point carries no mass under a continuous posterior
    return 1.0


def _abs_epl(post, prm, a):
    return sum(post.linear_loss(a))


def _qtl_epl(post, prm, a):
    # pinball loss: (1 - q) E(a - Y)^+ + q E(Y - a)^+
    q, (below, above) = prm["q"], post.linear_loss(a)
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
    # with t = a E(1/Y) both brackets below are nonnegative; the second does not cancel
    k, t = post.shape, a / _inverse_mean_reciprocal(post, prm)
    return (prm["nu"] - 1.0) * ((t - 1.0 - math.log(t))
                                + (digamma_gap(k) - math.log1p(-1.0 / k)))


def _gamma_pwd_plus_epl(post, prm, a):
    # y phi_1(a/y) = (a - y)^2 / (2y); with b = 1/E(1/Y) = (k - 1)/r the EPL
    # is ((a - b)^2 / b + E Y - b) / 2 and E Y - b = 1/r
    b = _inverse_mean_reciprocal(post, prm)
    return 0.5 * ((a - b) ** 2 / b + 1.0 / post.rate)


def _gamma_pwd_minus_epl(post, prm, a):
    # y phi_-1(a/y) = a - y - y log a + y log y, E(Y log Y) = m (digamma(k + 1)
    # - log r); with t = a/m both brackets below are nonnegative; the second does not cancel
    k, m = post.shape, post.moments()[0]
    t = a / m
    return m * ((t - 1.0 - math.log(t)) + (digamma_gap(k + 1.0) + math.log1p(1.0 / k)))


# (posterior type, loss key) -> epl(post, params, a) in closed form; every
# other pair uses post.expect, and a sum looks each of its parts up here on
# its own.  GAM and PWD, which need y > 0, never meet a Gaussian:
# _check_domain refuses it first
_EPLS = {
    **{(kind, key): fn
       for kind in (GaussianPosterior, GammaPosterior, BetaPosterior, SamplePosterior)
       for key, fn in (("SEL", lambda post, prm, a: post.squared_loss(a)),
                       ("MTC1", _abs_epl), ("QTL", _qtl_epl))},
    **{(kind, key): fn
       for kind in (GaussianPosterior, GammaPosterior, BetaPosterior)
       for key, fn in (("ZERO_ONE", _zero_one_epl), ("LNX", _linex_epl))},
    (GammaPosterior, "GAM"): _gamma_gam_epl,
    (GammaPosterior, "PWD+1"): _gamma_pwd_plus_epl,
    (GammaPosterior, "PWD-1"): _gamma_pwd_minus_epl,
}


def _tilt(loss, post):
    """(log Z, tilted posterior) of a weighted loss's weight on ``post``, or
    None when the weight has no kind or the posterior no tilt for it."""
    w = loss.params["weight"]
    if w.kind is None or not math.isfinite(w.param):
        return None
    return post.tilt(w.kind, w.param)


def loss_key(loss):
    """The table key of a leaf loss, or None; MTC(2) is SEL, and PWD at
    lam = 1 and -1 has its own rows."""
    fam, prm = loss.family, loss.params
    if fam == "MTC":
        return {2.0: "SEL", 1.0: "MTC1"}.get(prm.get("rho"))
    if fam == "PWD":
        return {1.0: "PWD+1", -1.0: "PWD-1"}.get(prm["lam"], "PWD")
    return fam if fam in _ACTIONS else None


def _closed_form(loss, post):
    """Return (action, name) when the loss has a known optimal predictor."""
    key = loss_key(loss)
    if key is not None:
        name, action = _ACTIONS[key]
        return action(post, loss.params), name
    if loss.compose == "weighted":
        base = loss.components[0]
        w = loss.params["weight"]
        if base.family == "GAM" and w.kind == "power" and w.param == 1.0:
            return post.moments()[0], "posterior_mean"
        tilt = _tilt(loss, post)
        if tilt is not None:
            hit = _closed_form(base, tilt[1])
            return None if hit is None else (hit[0], f"tilted_{hit[1]}")
        if loss_key(base) == "SEL":
            num = post.expect(lambda y: w(y) * y)
            den = post.expect(w)
            if den <= 0:
                raise NumericError("weight function has nonpositive posterior mass")
            return num / den, "reweighted_mean"
    if loss.radial:
        # E phi(|a - Y|) is least at the centre of a symmetric unimodal
        # posterior (Anderson 1955)
        centre = post.symmetric_centre()
        if centre is not None:
            return centre, "symmetric_centre"
    return None


def optimize(loss, post):
    """Minimize E(L(a, Y) | z) over actions a: a closed form, else the search."""
    loss = compose(loss)
    _check_domain(loss, post)
    hit = _closed_form(loss, post)
    if hit is not None:
        action, name = hit
        return OptimalDecision(float(action), epl(loss, post, action),
                               SolverPath("closed_form", name))
    action, value, path = minimize(lambda a: epl(loss, post, a), post.quantile(0.5),
                                   loss.positive_domain, unimodal_epl(loss, post))
    return OptimalDecision(float(action), value, path)


# the quadrature's outermost nodes lie up to 2.3 support widths beyond a
# Gaussian's support(), up to 26.5 above a Gamma's (never below 0) and either
# side of a Beta's, past which a Beta shape < 1 puts only mass below 1e-170
_NODE_REACH = 27.0
# the evenly spaced part of optimize_functional's grid over support()
_UNIT_GRID = np.linspace(0.0, 1.0, 257)


def _crossings(g, y, gy, a):
    """Each point where g - a changes sign between neighbours of the grid y
    (``gy`` = g(y)), refined by 50 halvings of its cell."""
    above = gy > a
    cuts = []
    for i in np.flatnonzero(above[:-1] != above[1:]):
        lo, hi = y[i], y[i + 1]
        with np.errstate(all="ignore"):
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if (g(np.array([mid]))[0] > a) == above[i]:
                    lo = mid
                else:
                    hi = mid
        cuts.append(0.5 * (lo + hi))
    return cuts


def _jumps(g, y, gy):
    """The jumps of g on the grid y (``gy`` = g(y)): each cell of its evenly
    spaced part whose change exceeds that of its two neighbours together
    (twice its one neighbour's at an end), cut where g crosses the middle
    of the cell's two values."""
    step = np.abs(np.diff(gy[1:-1]))
    side = np.concatenate(([step[1]], step, [step[-2]]))
    cuts = []
    for i in np.flatnonzero(step > side[:-2] + side[2:]) + 1:
        cuts += _crossings(g, y[i:i + 2], gy[i:i + 2], 0.5 * (gy[i] + gy[i + 1]))
    return cuts


def optimize_functional(loss, post, g):
    """Minimize E(L(a, g(Y)) | z): the optimal decision about g(Y).

    ``g`` maps a float array of y values to g(y) elementwise.  On a
    parametric posterior, g is evaluated once on a fixed grid over
    ``post.support()``, widened to the quadrature's outermost nodes.  Where
    the grid shows no jump of g, and g finite and strictly monotone at every
    grid point, QTL(q) and MTC(1) take the quantile of g(Y): g(F^-1(q)), or
    g(F^-1(1 - q)) for a decreasing g, with one EPL cut at that quantile
    (path ``pushforward_quantile``).  Otherwise every ``post.expect`` (the
    start E g(Y), which is SEL's answer, and each EPL) is cut at the jumps
    of g the grid shows (``_jumps``), and each EPL but SEL's also where g(y)
    = a: at each sign change of g - a on the grid, refined by bisection.
    The search is Brent's, as for every loss on a parametric posterior.
    """
    loss = compose(loss)
    if isinstance(post, SamplePosterior):
        gv = np.asarray(g(post.values), dtype=float)
        pushed = SamplePosterior(gv, post.weights)
        return optimize(loss, pushed)
    h = lambda a: lambda y: loss(a, np.asarray(g(y), dtype=float))
    lo, hi = post.support()
    reach = _NODE_REACH * (hi - lo)
    y = np.empty(_UNIT_GRID.size + 2)
    y[0] = max(post.lower, lo - reach)
    y[1:-1] = lo + (hi - lo) * _UNIT_GRID
    y[-1] = hi + reach
    with np.errstate(all="ignore"):
        gy = np.asarray(g(y), dtype=float)
        jumps = _jumps(g, y, gy)
    key = loss_key(loss)
    if key in ("QTL", "MTC1") and not jumps:
        rise = np.diff(gy)
        if np.all(np.isfinite(gy)) and (np.all(rise > 0) or np.all(rise < 0)):
            # a quantile commutes with a monotone map
            q = loss.params["q"] if key == "QTL" else 0.5
            y_q = post.quantile(q if rise[0] > 0 else 1.0 - q)
            a = float(np.asarray(g(np.array([y_q])), dtype=float)[0])
            return OptimalDecision(a, post.expect(h(a), breakpoints=(y_q,)),
                                   SolverPath("closed_form", "pushforward_quantile"))
    x0 = post.expect(lambda y: np.asarray(g(y), dtype=float), breakpoints=jumps)
    if key == "SEL":
        # squared error has no kink at g(y) = a: its one EPL needs no more cuts
        return OptimalDecision(float(x0), post.expect(h(x0), breakpoints=jumps),
                               SolverPath("closed_form", "pushforward_mean"))
    f = lambda a: post.expect(h(a), breakpoints=_crossings(g, y, gy, a) + jumps)
    action, value, path = minimize(f, x0, loss.positive_domain)
    return OptimalDecision(float(action), value, path)


# ---------------------------------------------------------------------------
# tail risk


def _check_grid(grid, name):
    g = np.asarray(grid, dtype=float)
    if g.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if not np.all(np.isfinite(g)):
        raise ValidationError(f"{name} must be finite")
    return g


def tail_risk_curve(loss, post, action, kappa_grid):
    """Locus of (kappa, Pr(Y > kappa | z), L(action, kappa))."""
    return lower_envelope(loss, post, kappa_grid, _check_grid([action], "action"))


def lower_envelope(loss, post, kappa_grid, a_grid):
    """Pointwise minimum over actions of the tail-risk curves."""
    loss = compose(loss)
    kappas = _check_grid(kappa_grid, "kappa_grid")
    if np.any(np.diff(kappas) < 0):
        raise ValidationError("kappa_grid must be sorted ascending")
    a = _check_grid(a_grid, "a_grid")
    # one loss evaluation on the whole actions x kappas grid
    lv = np.asarray(loss(a[:, None], kappas[None, :]), dtype=float).min(axis=0)
    return TailRiskCurve(tuple((float(k), post.tail_prob(k), float(v))
                               for k, v in zip(kappas, lv)))

