"""Posterior distributions over a scalar predictand.

A posterior is either parametric (Gaussian, Gamma, Beta), a weighted sample
cloud, or a discrete distribution over model labels.  Every operation is
a pure function of an immutable value, so instances are safe to share
across threads.

All representations expose the same surface used by the decision
machinery: ``moments``, ``quantile``, ``mode``, ``expect``, ``log_mgf_neg``
(log E exp(-psi Y)), ``tail_prob``, ``squared_loss`` and ``linear_loss``
(E(a - Y)^2 and Raiffa & Schlaifer's 1961 E(a - Y)^+ and E(Y - a)^+, all
written once in ``_LossIntegrals``), ``tilt`` and ``lower``, where the
true support starts: -inf on a Gaussian, whatever ``support()``
truncates for quadrature, 0.0 on a Gamma or a Beta and the least draw on
a cloud; the parametric ones also state ``upper``, inf or 1.0 on a Beta.
``almost_surely_positive`` (Y > 0 almost surely, as GAM and PWD need) is
the one rule built on ``lower``.  ``tilt(Weight.kind, Weight.param)`` is
(log Z, the tilted posterior w p / Z), Z = E w(Y), where the family is
closed under the weight w: Gaussian x exp(c), Gamma x exp(c < rate),
Gamma x power(p) with shape + p > 1 and Beta x power(p) with a + p > 0;
otherwise, and always on draws, it is None.  The posteriors that live on
y > 0 (Gamma, Beta, draws) state ``log_moment(p)``, log E Y^p, and
``mean_log()``, E log Y, which the GAM and PWD actions read and the power
tilt takes its log Z from; ``log_moment`` raises ``NumericError`` where
E Y^p diverges (p <= -shape on a Gamma, p <= -a on a Beta).
``symmetric_centre()`` is the centre of a symmetric unimodal density (a
Gaussian's mean, 0.5 for Beta(a, a) with a >= 1), or None: there a radial
loss takes its Bayes action (Anderson 1955).  A cloud reweighted by w(y)
is ``SamplePosterior(values, weights * w(values))``.

The parametric densities, distribution functions and quantiles are
written on ``scipy.special`` (``ndtr``, ``ndtri``, the regularized
incomplete gamma and beta functions and their inverses) rather than
``scipy.stats``, whose per-call overhead dominated quadrature.
``scipy.special`` itself is imported on first use (see ``_special``), so
a decision that calls none of these, say a quantile of draws, never pays
for its import.

``expect`` on a parametric posterior computes E h(Y) = integral over (0, 1) of
h(F^-1(u)) du by a fixed tanh-sinh rule in quantile space (see
``_quad_expect``), so ``h`` receives one float array of nodes, as it does
on draws.  When the rule cannot certify its sum, adaptive QUADPACK
quadrature against the density answers instead, or raises;
``scipy.integrate`` is imported only then.  A decision reaches it only on
a narrow posterior far from 0, a weight refused at far nodes, or LINEX in
a product or power (never in a sum, whose closed-form parts stay closed).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import _special
from .errors import DivergentMgfError, NumericError, ValidationError

# Mass left in each tail when truncating a parametric support for quadrature.
_QUAD_TAIL = 1e-10
_LOG_2PI = math.log(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Tanh-sinh rule on one panel of unit width: t = k/16 for |t| <= 6.
_TS_T = np.arange(-96, 97) / 16.0
_TS_LOWER = _TS_T < 0.0  # nodes placed from the lower end
# The rule's acceptance tolerance, the QUADPACK fallback's epsabs and epsrel.
_EPSABS, _EPSREL = 1e-13, 1e-11
# Stirling's series log Gamma(x) = (x - 1/2) log x - x + log(2 pi) / 2 +
# sum_j c_j x^(1 - 2j) with c_j = B_2j / (2j (2j - 1)), j = 1..7: at x >= 10
# the first term left out is below 3e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


@functools.cache
def _ts_rule():
    """(from_lo, from_hi, w) of the tanh-sinh rule at ``_TS_T``, read-only.

    A node sits the fraction from_lo = expit(pi sinh t) of the panel above
    its lower end and from_hi = expit(-pi sinh t) below its upper end; both
    are kept, so a node near either end is placed without cancellation.
    Built on the first call rather than at import, because ``expit`` needs
    ``scipy.special``.
    """
    from_lo = _special.expit(np.pi * np.sinh(_TS_T))
    from_hi = _special.expit(-np.pi * np.sinh(_TS_T))
    w = np.pi * np.cosh(_TS_T) * from_lo * from_hi / 16.0
    for arr in (from_lo, from_hi, w):
        arr.flags.writeable = False
    return from_lo, from_hi, w


def _check_finite(name, value):
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def _check_moments(post, *names):
    """Refuse parameters whose mean or variance is not a finite float."""
    try:
        finite = all(map(math.isfinite, post.moments()))
    except ArithmeticError:  # a float ** that overflows, or a rate ** 2 of 0
        finite = False
    if not finite:
        given = ", ".join(f"{n}={getattr(post, n)!r}" for n in names)
        raise ValidationError(f"the mean or variance is not a finite float for {given}")


def _log_rising(x, p):
    """log Gamma(x + p) - log Gamma(x) for x > 0 and x + p > 0.

    The plain lgamma difference cancels where x or the two values are large
    against p (a large shape, or p near 0), and x + p rounds off digits of
    p; scipy's ``poch`` is that difference below x = 1e4.  Instead the
    recurrence log Gamma(x + p) - log Gamma(x) = log Gamma(x + 1 + p) - log
    Gamma(x + 1) - log((x + p) / x) moves x and x + p up to at least 10, and
    Stirling's series is differenced term by term: (x - 1/2) log1p(p/x) - p
    + p log(x + p), and c_j x^(1 - 2j) expm1((1 - 2j) log1p(p/x)).  No term
    cancels, so the result is within a few eps of max(|p|, its value).
    """
    total = 0.0
    while x + min(p, 0.0) < 10.0:
        # x + p is exact where |p| >= x / 2 and p < 0, and then log1p(p / x)
        # would lose digits to the rounding of p / x near -1
        total -= math.log1p(p / x) if abs(p) < 0.5 * x else math.log((x + p) / x)
        x += 1.0
    step = math.log1p(p / x)
    total += (x - 0.5) * step - p + p * math.log(x + p)
    power, inv_x2 = 1.0 / x, 1.0 / (x * x)  # x^(1 - 2j), stepped, not raised
    for j, c in enumerate(_STIRLING, start=1):
        total += c * power * math.expm1((1 - 2 * j) * step)
        power *= inv_x2
    return total


# the digamma series' coefficients (2j - 1) c_j, highest j first
_DIGAMMA = tuple((2 * j - 1) * c for j, c in enumerate(_STIRLING, start=1))[::-1]


def digamma_gap(x):
    """digamma(x) - log x for x > 0, about -1/(2x), with no cancellation:
    psi(x) - log x = [psi(x + 1) - log(x + 1)] + log1p(1/x) - 1/x moves x up
    to at least 10, then Stirling's series -1/(2x) - sum_j (2j - 1) c_j x^(-2j)."""
    total = 0.0
    while x < 10.0:
        inv = 1.0 / x
        total += math.log1p(inv) - inv
        x += 1.0
    inv_x2, series = 1.0 / (x * x), 0.0
    for c in _DIGAMMA:  # Horner's rule in 1/x^2
        series = series * inv_x2 + c
    return total - 0.5 / x - series * inv_x2


def _log_peak(x):
    """log(x^x e^-x / Gamma(x)) for x > 0, with the shift of ``digamma_gap``:
    the value at x is the one at x + 1 plus 1 - (x + 1) log1p(1/x), and at
    x >= 10 Stirling's series gives (log x - log 2 pi)/2 - sum_j c_j x^(1 - 2j)."""
    total = 0.0
    while x < 10.0:
        total += 1.0 - (x + 1.0) * math.log1p(1.0 / x)
        x += 1.0
    inv_x2, series = 1.0 / (x * x), 0.0
    for c in reversed(_STIRLING):  # Horner's rule in 1/x^2
        series = series * inv_x2 + c
    return total + 0.5 * (math.log(x) - _LOG_2PI) - series / x


def _log_kernel(k, x):
    """log(x^k e^-x / Gamma(k)) for k, x > 0, as ``_log_peak(k)`` - k (u -
    log1p u) with u = x/k - 1, the bracket taken as x - k - k log(x/k) where
    |u| >= 1/2: neither form cancels where it is used."""
    u = (x - k) / k  # x - k is exact where |u| < 1/2
    return _log_peak(k) - (k * (u - math.log1p(u)) if abs(u) < 0.5
                           else x - k - k * math.log(x / k))


def _check_moment(post, p, first):
    """Refuse p where E Y^p diverges, that is where ``first`` + p <= 0."""
    if not first + p > 0:
        raise NumericError(f"E(Y^{p!r}) diverges on {post}: p must exceed {-first!r}")


def almost_surely_positive(post):
    """Whether Y > 0 almost surely: the support starts above 0, or at 0 with no mass."""
    return post.lower > 0 or post.lower == 0 and post.cdf(0.0) == 0


class _LossIntegrals:
    """E(a - Y)^2 and Raiffa & Schlaifer's (1961) E(a - Y)^+ and E(Y - a)^+
    about a centre c.  ``_centre()`` is (c, W, S1, S2), the totals of w,
    w(y - c) and w(y - c)^2: (mean, 1, 0, var) here, about the median draw
    on a cloud.  ``_split(a)`` is (F, W - F, L, U): the weight at or below a
    and above it, and the sums of w(y - c) over each.  On a parametric
    posterior U = -L = tau(a) f(a), tau its Stein kernel (Diaconis & Zabell
    1991)."""

    __slots__ = ()

    def _centre(self):
        mean, var = self.moments()
        return mean, 1.0, 0.0, var

    def squared_loss(self, a):
        """E(a - Y)^2 = S2 + d (d W - 2 S1), d = a - c."""
        c, w, s1, s2 = self._centre()
        d = a - c
        return s2 + d * (d * w - 2.0 * s1)

    def linear_loss(self, a):
        """(E(a - Y)^+, E(Y - a)^+) = (d F - L, U - d (W - F)), d = a - c."""
        d = a - self._centre()[0]
        f, g, low, up = self._split(a)
        return d * f - low, up - d * g


@dataclass(frozen=True)
class GaussianPosterior(_LossIntegrals):
    """Gaussian posterior with mean ``mean`` and standard deviation ``sd``."""

    mean: float
    sd: float
    lower, upper = -math.inf, math.inf  # the whole line

    def __post_init__(self):
        _check_finite("mean", self.mean)
        if not (math.isfinite(self.sd) and self.sd > 0):
            raise ValidationError(f"sd must be > 0, got {self.sd!r}")
        _check_moments(self, "sd")

    def moments(self):
        return self.mean, self.sd ** 2

    def quantile(self, q):
        _check_q(q)
        return float(_special.ndtri(q) * self.sd + self.mean)

    def mode(self):
        return self.mean

    def pdf(self, y):
        z = (np.asarray(y, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) * _INV_SQRT_2PI / self.sd

    def cdf(self, y):
        return _special.ndtr((np.asarray(y, dtype=float) - self.mean) / self.sd)

    def tail_prob(self, kappa):
        return float(_special.ndtr(-((kappa - self.mean) / self.sd)))

    def support(self):
        return self.quantile(_QUAD_TAIL), self.quantile(1.0 - _QUAD_TAIL)

    def _quantiles(self, u, v):
        # the quantile at lower mass u = 1 - v, from the smaller of the two
        return self.mean + self.sd * np.where(u < 0.5, _special.ndtri(u),
                                              -_special.ndtri(v))

    def expect(self, h, breakpoints=()):
        return _quad_expect(self, h, breakpoints)

    def symmetric_centre(self):
        """The mean: the density is symmetric and unimodal about it."""
        return self.mean

    def log_mgf_neg(self, psi):
        _check_psi(psi)
        return -psi * self.mean + 0.5 * psi * psi * self.sd ** 2

    def _split(self, a):
        """U = -L = sd phi(z) at z = (a - m)/sd."""
        z = (a - self.mean) / self.sd
        up = self.sd * _INV_SQRT_2PI * math.exp(-0.5 * z * z)
        return float(_special.ndtr(z)), float(_special.ndtr(-z)), -up, up

    def tilt(self, kind, c):
        """(log E e^{cY}, N(m + c s^2, s^2)) for the weight e^{cy}, else None."""
        if kind != "exp":
            return None
        return (self.log_mgf_neg(-c) if c else 0.0,  # log_mgf_neg refuses psi = 0
                GaussianPosterior(self.mean + c * self.sd ** 2, self.sd))


@dataclass(frozen=True)
class GammaPosterior(_LossIntegrals):
    """Gamma posterior with shape ``shape`` (> 1) and rate ``rate`` (> 0).

    The shape restriction keeps E(1/Y) finite and the mode
    (shape - 1) / rate strictly positive, which the ratio-based optimal
    predictors rely on.
    """

    shape: float
    rate: float
    lower, upper = 0.0, math.inf

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 1):
            raise ValidationError(f"shape must be > 1, got {self.shape!r}")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValidationError(f"rate must be > 0, got {self.rate!r}")
        _check_moments(self, "shape", "rate")

    def moments(self):
        return self.shape / self.rate, self.shape / self.rate ** 2

    def quantile(self, q):
        _check_q(q)
        return float(_special.gammaincinv(self.shape, q) / self.rate)

    def mode(self):
        return (self.shape - 1.0) / self.rate

    def pdf(self, y):
        k, r = self.shape, self.rate
        log_norm = k * math.log(r) - math.lgamma(k)  # log(r^k / Gamma(k))
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_dens = log_norm + (k - 1.0) * np.log(y) - r * y
        # exp of the 0-d where() is a float scalar for a scalar y
        return np.exp(np.where((y > 0.0) & (y < np.inf), log_dens, -np.inf))

    def cdf(self, y):
        return _special.gammainc(self.shape, self.rate * np.maximum(y, 0.0))

    def tail_prob(self, kappa):
        return float(_special.gammaincc(self.shape, self.rate * max(kappa, 0.0)))

    def support(self):
        return self.quantile(_QUAD_TAIL), self.quantile(1.0 - _QUAD_TAIL)

    def _quantiles(self, u, v):
        # the quantile at lower mass u = 1 - v, from the smaller of the two;
        # each inverse is iterative, so each node takes only one
        low = u < 0.5
        x = np.empty(u.shape)
        x[low] = _special.gammaincinv(self.shape, u[low])
        x[~low] = _special.gammainccinv(self.shape, v[~low])
        return x / self.rate

    def expect(self, h, breakpoints=()):
        return _quad_expect(self, h, breakpoints)

    def log_mgf_neg(self, psi):
        # E(exp{-psi Y}) = (rate / (rate + psi))^shape, requires rate + psi > 0.
        _check_psi(psi)
        if self.rate + psi <= 0:
            raise DivergentMgfError(
                f"E(exp{{-psi*Y}}) diverges for Gamma(rate={self.rate}) with "
                f"psi={psi}: requires rate + psi > 0"
            )
        return -self.shape * math.log1p(psi / self.rate)

    def log_moment(self, p):
        """log E Y^p = log(Gamma(k + p) / Gamma(k)) - p log r."""
        _check_moment(self, p, self.shape)
        return _log_rising(self.shape, p) - p * math.log(self.rate)

    def mean_log(self):
        """E log Y = digamma(k) - log r."""
        return float(_special.digamma(self.shape)) - math.log(self.rate)

    def symmetric_centre(self):
        """None: a Gamma density is skewed."""
        return None

    def _split(self, a):
        """U = -L = m (P(k, x) - P(k + 1, x)) = x^k e^-x / (r Gamma(k)) at x = r a."""
        k, x = self.shape, self.rate * a
        if not x > 0:
            return 0.0, 1.0, 0.0, 0.0
        up = math.exp(_log_kernel(k, x)) / self.rate if x < math.inf else 0.0
        return float(_special.gammainc(k, x)), float(_special.gammaincc(k, x)), -up, up

    def tilt(self, kind, p):
        """(log Z, tilted posterior) for the weight e^{py} or y^p, else None."""
        if kind == "exp":
            # e^{cy} y^(k-1) e^{-ry} is a Gamma(k, r - c) kernel, integrable for c < r
            if p < self.rate:
                return (self.log_mgf_neg(-p) if p else 0.0,
                        GammaPosterior(self.shape, self.rate - p))
        elif kind == "power":
            # y^p y^(k-1) e^{-ry} is a Gamma(k + p, r) kernel; GammaPosterior
            # needs shape > 1
            k = self.shape + p
            if k > 1:
                return self.log_moment(p), GammaPosterior(k, self.rate)
        return None


@dataclass(frozen=True)
class BetaPosterior(_LossIntegrals):
    """Beta posterior with shapes ``a`` and ``b`` (> 0, with a finite sum).

    The mode is (a - 1) / (a + b - 2) when a, b > 1, else the end where the
    density is largest (0 on a tie): no point carries mass, so every action
    has 0-1 EPL 1 and any fixed choice is Bayes-optimal.
    """

    a: float
    b: float
    lower, upper = 0.0, 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.a + self.b < math.inf):  # NaN fails
            raise ValidationError("a and b must be finite and > 0 with a finite sum, "
                                  f"got a={self.a!r}, b={self.b!r}")

    def moments(self):
        n = self.a + self.b
        return self.a / n, (self.a / n) * (self.b / n) / (n + 1.0)

    def quantile(self, q):
        _check_q(q)
        return float(_special.betaincinv(self.a, self.b, q))

    def mode(self):
        a, b = self.a, self.b
        return (a - 1.0) / (a + b - 2.0) if a > 1 and b > 1 else float(a > b)

    def pdf(self, y):
        a, b, y = self.a, self.b, np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_dens = (a - 1.0) * np.log(y) + (b - 1.0) * np.log1p(-y)
        inside = (y > 0.0) & (y < 1.0)
        return np.exp(np.where(inside, log_dens - _special.betaln(a, b), -np.inf))

    def cdf(self, y):
        return _special.betainc(self.a, self.b, np.clip(y, 0.0, 1.0))

    def tail_prob(self, kappa):
        return float(_special.betaincc(self.a, self.b, min(max(kappa, 0.0), 1.0)))

    def support(self):
        return self.quantile(_QUAD_TAIL), self.quantile(1.0 - _QUAD_TAIL)

    def _quantiles(self, u, v):
        low = u < 0.5  # as on a Gamma: one inverse per node, from its smaller mass
        x = np.empty(u.shape)
        x[low] = _special.betaincinv(self.a, self.b, u[low])
        x[~low] = _special.betainccinv(self.a, self.b, v[~low])
        return x

    def expect(self, h, breakpoints=()):
        return _quad_expect(self, h, breakpoints)

    def log_mgf_neg(self, psi):
        # E exp(-psi Y) = 1F1(a; a + b; -psi) = e^-psi 1F1(b; a + b; psi) (Kummer):
        # the one with a positive argument is a sum of positive terms
        _check_psi(psi)
        first, shift = (self.b, -psi) if psi > 0 else (self.a, 0.0)
        excess = _hyp1f1_positive(first, self.a + self.b, abs(psi))
        if not excess < math.inf:
            raise NumericError(f"E(exp{{-psi*Y}}) on {self} with psi={psi}: 1F1 overflows")
        return shift + math.log1p(excess)

    def log_moment(self, p):
        """log E Y^p = log(B(a + p, b) / B(a, b)), as (Gamma(a + p) / Gamma(a))
        / (Gamma(a + b + p) / Gamma(a + b))."""
        _check_moment(self, p, self.a)
        return _log_rising(self.a, p) - _log_rising(self.a + self.b, p)

    def mean_log(self):
        """E log Y = digamma(a) - digamma(a + b)."""
        return float(_special.digamma(self.a) - _special.digamma(self.a + self.b))

    def symmetric_centre(self):
        """0.5 for Beta(a, a) with a >= 1; a U-shaped Beta(a, a) is bimodal."""
        return 0.5 if self.a == self.b and self.a >= 1 else None

    def _split(self, a):
        """U = -L = m (I_a(al, be) - I_a(al + 1, be)) = a^al (1 - a)^be / (n B(al,
        be)), n = al + be, as the Gamma kernels at n a and n (1 - a) over the
        peak at n (0 outside (0, 1))."""
        al, be, n, x = self.a, self.b, self.a + self.b, min(max(a, 0.0), 1.0)
        up = (math.exp(_log_kernel(al, n * a) + _log_kernel(be, n * (1.0 - a))
                       - _log_peak(n)) / n if 0.0 < a < 1.0 else 0.0)
        return float(_special.betainc(al, be, x)), float(_special.betaincc(al, be, x)), -up, up

    def tilt(self, kind, p):
        """(log Z, tilted posterior) for the weight y^p, else None."""
        # y^p y^(a-1) (1 - y)^(b-1) is a Beta(a + p, b) kernel, integrable for a + p > 0
        if kind != "power" or not self.a + p > 0:
            return None
        return self.log_moment(p), BetaPosterior(self.a + p, self.b)


def _hyp1f1_positive(a, c, z):
    """1F1(a; c; z) - 1 for 0 < a < c and z > 0, by summing its series
    without its leading 1, so that log1p of it keeps the digits of a small z.

    Every term is positive, so nothing cancels: the sum is within 1e-15
    relative at z <= 10 and 1e-14 at z <= 100, where ``scipy.special.hyp1f1``
    is off by 3e-12 at a = 5, c = 5.48, z = 0.5, which the cancellation in
    a small LINEX EPL turns into 1e-9.  Past term n > z each term is below z / (n + 1) times the
    last, so the sum ends; one that overflows ends at once and is inf.
    """
    total, term, n = 0.0, 1.0, 0
    while total < math.inf:
        term *= (a + n) / (c + n) * z / (n + 1)
        n += 1
        total += term
        if n > z and term <= 1e-17 * total:
            break
    return total


def _stable_sort(values):
    """``values`` in the order of a stable argsort, without the argsort.

    A plain sort can only differ from it in the order of -0.0 and 0.0,
    which compare equal, so the run of zeros is put back in input order.
    """
    out = np.sort(values)
    lo, hi = np.searchsorted(out, 0.0, "left"), np.searchsorted(out, 0.0, "right")
    if hi - lo > 1:
        out[lo:hi] = values[values == 0.0]
    return out


# what a cloud's moments, centre and split are read from, about its median
# draw c: with d = y - c, the totals of w, w d and w d^2 and the running sum
# of w d over the sorted draws (read-only)
_DrawSums = namedtuple("_DrawSums", "mean var centre w wd wd2 prefix_wd")


class SamplePosterior(_LossIntegrals):
    """Weighted posterior draws.

    Draws are stored sorted by value with normalized weights, in read-only
    arrays, in the order of a stable argsort of the values.  When every
    weight is equal (no weights given, or 1/n weights from an eigenspace
    projection) the values alone are sorted, without the index sort, since
    permuting equal weights changes none of them.  A single draw
    (degenerate posterior) is legal everywhere; its variance is 0.

    The moments and the sums ``_centre`` and ``_split`` read are built in
    O(n) on first use and kept, so ``squared_loss`` is O(1) and
    ``linear_loss`` O(log n).  The sums are taken about the median draw c,
    not 0: (a - c) and (y - c) are exact for a and y near c, so a narrow
    cloud far from 0 keeps its digits; uncentred, var + (a - mean)^2 is
    2e-7 relative off on N(1e9, 1) draws.
    """

    __slots__ = ("values", "weights", "_cumw", "lower", "_draw_sums")

    def __init__(self, values, weights=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValidationError("need at least one draw in a 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValidationError("draw values must be finite")
        if weights is None:
            weights = np.ones_like(values)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != values.shape:
                raise ValidationError("weights must match values in shape")
            if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
                raise ValidationError("all weights must be finite and > 0")
        if np.all(weights == weights[0]):
            # any permutation leaves equal weights as they are
            values = _stable_sort(values)
        else:
            order = np.argsort(values, kind="stable")
            values = values[order]
            weights = weights[order]
        weights = weights / weights.sum()
        cumw = np.cumsum(weights)
        for name, arr in (("values", values), ("weights", weights), ("_cumw", cumw)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "lower", float(values[0]))
        object.__setattr__(self, "_draw_sums", None)

    def __setattr__(self, name, value):
        raise AttributeError("SamplePosterior is immutable")

    def __len__(self):
        return self.values.size

    def _sums(self):
        sums = self._draw_sums
        if sums is None:
            v, w = self.values, self.weights
            mean = float(np.dot(w, v))
            var = float(np.dot(w, (v - mean) ** 2))
            centre = self.quantile(0.5)
            d = v - centre
            wd = w * d
            prefix = np.cumsum(wd)
            prefix.flags.writeable = False
            sums = _DrawSums(mean, var, centre, float(self._cumw[-1]), float(prefix[-1]),
                             float(np.dot(wd, d)), prefix)
            object.__setattr__(self, "_draw_sums", sums)
        return sums

    def moments(self):
        sums = self._sums()
        return sums.mean, sums.var

    def _centre(self):
        s = self._sums()
        return s.centre, s.w, s.wd, s.wd2

    def _split(self, a):
        """The running sums of w and w d to the last draw y <= a, by one search."""
        s = self._sums()
        k = int(np.searchsorted(self.values, a, side="right"))
        f, low = (float(self._cumw[k - 1]), float(s.prefix_wd[k - 1])) if k else (0.0, 0.0)
        return f, s.w - f, low, s.wd - low

    def tilt(self, kind, param):
        """None: draws are not tilted, since a reweighted cloud sorts its draws
        again, which costs more than the weighted sum it would save."""
        return None

    def symmetric_centre(self):
        """None: between draws a nonconvex loss has a local minimum at each."""
        return None

    def _log_draws(self):
        """(log y - m, m), m the weighted mean of log y; every draw must be > 0."""
        if not self.lower > 0:
            raise ValidationError(f"log y needs draws > 0, the least is {self.lower!r}")
        log_y = np.log(self.values)
        m = float(np.dot(self.weights, log_y))
        return log_y - m, m

    def log_moment(self, p):
        """log E Y^p = p m + log sum w e^(p d), d = log y - m about the weighted
        mean m of log y: while every p d <= 1, as log1p(sum w expm1(p d)),
        which keeps its digits as p nears 0; otherwise as a log-sum-exp
        shifted by the largest p d, whose rounding is then below eps |p| max d."""
        d, m = self._log_draws()
        z = p * d
        top = float(z.max())
        if top <= 1.0:
            return p * m + math.log1p(float(np.dot(self.weights, np.expm1(z))))
        return p * m + top + math.log(float(np.dot(self.weights, np.exp(z - top))))

    def mean_log(self):
        return self._log_draws()[1]

    def quantile(self, q):
        """Left-continuous inverse CDF: smallest y with CDF(y) >= q."""
        _check_q(q)
        idx = int(np.searchsorted(self._cumw, q, side="left"))
        idx = min(idx, self.values.size - 1)
        return float(self.values[idx])

    def cdf(self, y):
        idx = np.searchsorted(self.values, y, side="right")
        # where no draw is <= y, idx - 1 = -1 reads the last entry; the CDF is 0
        return np.where(idx > 0, self._cumw[idx - 1], 0.0)[()]

    def tail_prob(self, kappa):
        return float(1.0 - self.cdf(kappa))

    def mode(self):
        """Argmax bin center of a Freedman-Diaconis histogram.

        Ties break toward the smallest center.  Degenerate spreads fall
        back to the weighted mean of the (single-valued) cloud.
        """
        lo, hi = float(self.values[0]), float(self.values[-1])
        if hi == lo:
            return lo
        iqr = self.quantile(0.75) - self.quantile(0.25)
        n = self.values.size
        width = 2.0 * iqr * n ** (-1.0 / 3.0)
        if width <= 0:
            width = (hi - lo) / math.ceil(math.sqrt(n))
        nbins = max(1, int(math.ceil((hi - lo) / width)))
        hist, edges = np.histogram(self.values, bins=nbins, range=(lo, hi),
                                   weights=self.weights)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return float(centers[int(np.argmax(hist))])

    def support(self):
        return float(self.values[0]), float(self.values[-1])

    def expect(self, h, breakpoints=()):
        with np.errstate(all="ignore"):  # a non-finite term raises below instead
            hv = np.asarray(h(self.values), dtype=float)
        total = float(np.dot(self.weights, hv))
        # a non-finite term makes the sum inf or nan, so only then look for one
        # (a sum of finite terms may still overflow, and is returned as it is)
        if not math.isfinite(total):
            bad = ~np.isfinite(hv)
            if np.any(bad):
                y_bad = float(self.values[bad][0])
                raise NumericError(f"h(y) is not finite at draw y={y_bad!r}")
        return total

    def log_mgf_neg(self, psi):
        _check_psi(psi)
        return float(_special.logsumexp(-psi * self.values, b=self.weights))


@dataclass(frozen=True)
class DiscretePosterior:
    """Posterior probabilities over a finite set of labelled models."""

    probabilities: tuple = field()
    labels: tuple = field(default=())

    def __init__(self, probabilities, labels=None):
        probs = tuple(float(p) for p in probabilities)
        if len(probs) == 0:
            raise ValidationError("need at least one probability")
        # a NaN fails both: every comparison with NaN is false
        if not all(p >= 0 for p in probs):
            raise ValidationError("probabilities must be nonnegative")
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise ValidationError(f"probabilities must sum to 1, got {sum(probs)!r}")
        if labels is None:
            labels = tuple(f"M{i + 1}" for i in range(len(probs)))
        else:
            labels = tuple(labels)
            if len(labels) != len(probs):
                raise ValidationError("labels must match probabilities in length")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "labels", labels)

    def argmax(self):
        """Index of the largest probability; ties go to the smallest index."""
        return max(range(len(self.probabilities)),
                   key=lambda i: (self.probabilities[i], -i))


Posterior = Union[GaussianPosterior, GammaPosterior, BetaPosterior, SamplePosterior]


def _check_q(q):
    if not (math.isfinite(q) and 0.0 < q < 1.0):
        raise ValidationError(f"quantile level must lie in (0, 1), got {q!r}")


def _check_psi(psi):
    if psi == 0 or not math.isfinite(psi):
        raise ValidationError(f"psi must be finite and nonzero, got {psi!r}")


def _quad_expect(post, h, breakpoints=()):
    """E h(Y) on a parametric posterior: a tanh-sinh rule in quantile space.

    E h(Y) is the integral over (0, 1) of h(F^-1(u)) du.  The unit interval
    is cut into panels at F(b) for each finite breakpoint b inside the
    support (known kinks of h, e.g. the action of an absolute-displacement
    loss), and each panel takes the 193 tanh-sinh nodes t = k/16,
    |t| <= 6.  Each edge carries both u = F(b) and v = 1 - F(b) (from
    ``tail_prob``), so a node in an upper tail is inverted from its tail
    mass and nothing cancels near u = 1.  ``h`` is called once, on the
    float array of all nodes with a positive weight and a finite y above
    ``post.lower``.

    The sum is accepted only when every term is finite and both tests hold
    at tolerance max(1e-13, 1e-11 |sum|): it differs from the sum over the
    even nodes (step 1/8) by no more, and no panel's outermost term
    exceeds it, which catches a truncated endpoint singularity such as
    y^(shape - 2) near shape 1.  Otherwise, and when ``h`` raises on the
    array (a ``NumericError`` or ``ValidationError``, or the ``TypeError``
    or ``ValueError`` of an ``h`` written for scalars), the answer, or the
    error, is ``_quadpack_expect``'s.  The nodes come from
    ``_rule_nodes``, which keeps the nodes of the latest posterior and cut set.
    """
    cuts = tuple(sorted({float(b) for b in breakpoints
                         if np.isfinite(b) and float(b) > post.lower}))
    y, w, keep = _rule_nodes(post, cuts)
    try:
        with np.errstate(all="ignore"):
            terms = np.zeros_like(y)
            terms[keep] = w[keep] * np.asarray(h(y[keep]), dtype=float)
    except (NumericError, TypeError, ValueError):  # ValidationError too
        return _quadpack_expect(post, h, breakpoints)
    if np.all(np.isfinite(terms)):
        value = float(terms.sum())
        tol = max(_EPSABS, _EPSREL * abs(value))
        rows = np.arange(len(terms))
        first = np.argmax(keep, axis=1)
        last = terms.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
        outer = np.abs(np.concatenate((terms[rows, first], terms[rows, last])))
        if abs(value - 2.0 * float(terms[:, ::2].sum())) <= tol and np.all(outer <= tol):
            return value
    return _quadpack_expect(post, h, breakpoints)


# one decision often takes several expectations with one cut set (a
# pushforward mean and its EPL, a reweighted mean's two sums), and the nodes'
# quantiles are most of the rule's cost.  The nodes are a pure function of
# the posterior's value and the cuts, so sharing the one entry between
# callers, and between equal posteriors, changes no result
@functools.lru_cache(maxsize=1)
def _rule_nodes(post, cuts):
    """The rule's nodes y, weights w and usable-node mask on ``post`` cut at
    the sorted tuple ``cuts``, as read-only arrays of one row per panel."""
    u = np.array([0.0] + [float(post.cdf(b)) for b in cuts] + [1.0])
    v = np.array([1.0] + [post.tail_prob(b) for b in cuts] + [0.0])
    u_lo, u_hi, v_lo, v_hi = (e[:, None] for e in (u[:-1], u[1:], v[:-1], v[1:]))
    # a panel's width from whichever mass its lower edge has less of
    width = np.where(u_lo < 0.5, u_hi - u_lo, v_lo - v_hi)
    from_lo, from_hi, ts_w = _ts_rule()
    nu = np.where(_TS_LOWER, u_lo + width * from_lo, u_hi - width * from_hi)
    nv = np.where(_TS_LOWER, v_lo - width * from_lo, v_hi + width * from_hi)
    w = width * ts_w
    with np.errstate(all="ignore"):
        y = post._quantiles(nu, nv)
        keep = (w > 0.0) & np.isfinite(y) & (y > post.lower)
    for arr in (y, w, keep):
        arr.flags.writeable = False
    return y, w, keep


def _quadpack_expect(post, h, breakpoints=()):
    """Adaptive QUADPACK quadrature of h against a parametric density.

    The fallback of ``_quad_expect`` for an ``h`` its rule cannot certify:
    a library caller's, or a decision's on a narrow posterior far from 0,
    under a weight refused at far nodes, or of LINEX in a product or power
    (a closed-form part of a sum is never integrated).  The bulk between
    the 1e-10 and 1-1e-10 quantiles is integrated directly and each
    unbounded tail separately, so integrands with exponential growth
    (e.g. LINEX) keep their tail mass.  A Gamma's or Beta's bulk starts at
    ``lower``: an edge at its lower quantile would cut integrands such as
    y^(shape - 2) (E(1/Y) with shape < 2) where they are steepest.  A
    Beta's ends at ``upper``: a piece from its upper quantile never samples
    the mass below 1, and fails where that rounds to 1 - 9e-16.  Known
    kinks of h (e.g. the action of an absolute-displacement loss) are
    passed as ``breakpoints`` so the subdivision never straddles them.
    ``h`` and ``pdf`` receive scalar floats.  When QUADPACK reports a
    problem on a piece (say, a divergent integral exhausting its
    subdivisions), a ``NumericError`` names the piece, QUADPACK's message
    and its error estimate instead of returning the sum.
    """
    from scipy import integrate  # only this fallback needs it

    lo, hi = post.support()
    edges = (([-np.inf, lo] if post.lower == -np.inf else [post.lower])
             + ([hi, np.inf] if post.upper == np.inf else [post.upper]))
    for p in breakpoints:
        p = float(p)
        if np.isfinite(p) and edges[0] < p < edges[-1] and p not in edges:
            edges.append(p)
    edges.sort()

    def integrand(y):
        p = post.pdf(y)
        if p == 0.0:
            return 0.0
        return h(y) * p

    value = 0.0
    for a, b in zip(edges, edges[1:]):
        with np.errstate(all="ignore"):  # an overflow shows in QUADPACK's report or the sum
            piece, abserr, *problem = integrate.quad(
                integrand, a, b, limit=200, epsabs=_EPSABS, epsrel=_EPSREL, full_output=1)
        if len(problem) > 1:  # (infodict, message, ...) when QUADPACK complains
            raise NumericError(
                f"quadrature of h on [{a}, {b}] failed: "
                f"{problem[1].splitlines()[0].strip()} (error estimate {abserr:.3g})")
        value += piece
    if not np.isfinite(value):
        raise NumericError(f"quadrature of h produced a non-finite value on the support")
    return float(value)


def load_samples(path):
    """Read a sample file: one draw per line, ``value`` or ``value,weight``.

    Lines starting with ``#`` are comments; blank lines are skipped.
    Missing weights default to 1; a file without weights is an unweighted cloud.
    """
    values, weights, weighted = [], [], False
    with open(path, errors="replace") as fh:  # bad bytes make a bad line
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                if len(parts) > 2:
                    raise ValueError("too many fields")
                values.append(float(parts[0]))
                weights.append(float(parts[1]) if len(parts) == 2 else 1.0)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad sample line {line!r} ({exc})")
            weighted |= len(parts) == 2
    if not values:
        raise ValidationError(f"{path}: no draws found")
    return SamplePosterior(values, weights if weighted else None)
