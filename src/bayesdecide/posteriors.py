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
truncates, 0.0 on a Gamma or a Beta and the least draw on
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
h(F^-1(u)) du by a tanh-sinh rule in quantile space (see ``_quad_expect``),
so ``h`` receives one float array of nodes, as it does on draws.  When the
rule's first pass cannot certify its sum, the rule refines itself
(``_refine``) until it does, or raises: it is the one integrator.
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

# Mass left in each tail by ``support()`` (the grid of optimize_functional).
_QUAD_TAIL = 1e-10
_LOG_2PI = math.log(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# The rule's acceptance tolerance: max(_EPSABS, _EPSREL |sum|).
_EPSABS, _EPSREL = 1e-13, 1e-11
# Stirling's series log Gamma(x) = (x - 1/2) log x - x + log(2 pi) / 2 +
# sum_j c_j x^(1 - 2j) with c_j = B_2j / (2j (2j - 1)), j = 1..7: at x >= 10
# the first term left out is below 3e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


@functools.cache
def _ts_rule(n=16):
    """(from_lo, from_hi, w) of the tanh-sinh rule on one panel of unit
    width at t = k/n, |t| <= 6, read-only.

    A node sits the fraction from_lo = expit(pi sinh t) of the panel above
    its lower end and from_hi = expit(-pi sinh t) below its upper end; both
    are kept, so a node near either end is placed without cancellation.
    Built on the first call rather than at import, because ``expit`` needs
    ``scipy.special``.
    """
    t = np.arange(-6 * n, 6 * n + 1) / n
    from_lo = _special.expit(np.pi * np.sinh(t))
    from_hi = _special.expit(-np.pi * np.sinh(t))
    w = np.pi * np.cosh(t) * from_lo * from_hi / n
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
    array, the rule refines itself (``_refine``).  The nodes come from
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
        return _refine(post, h, cuts)
    if np.all(np.isfinite(terms)):
        value = float(terms.sum())
        tol = max(_EPSABS, _EPSREL * abs(value))
        rows = np.arange(len(terms))
        first = np.argmax(keep, axis=1)
        last = terms.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
        outer = np.abs(np.concatenate((terms[rows, first], terms[rows, last])))
        if abs(value - 2.0 * float(terms[:, ::2].sum())) <= tol and np.all(outer <= tol):
            return value
    return _refine(post, h, cuts)


def _nodes(post, cuts, n):
    """The nodes y, weights w and usable-node mask of the rule at t = k/n
    on ``post`` cut at the sorted tuple ``cuts``, one row per panel."""
    u = np.array([0.0] + [float(post.cdf(b)) for b in cuts] + [1.0])
    v = np.array([1.0] + [post.tail_prob(b) for b in cuts] + [0.0])
    u_lo, u_hi, v_lo, v_hi = (e[:, None] for e in (u[:-1], u[1:], v[:-1], v[1:]))
    # a panel's width from whichever mass its lower edge has less of
    width = np.where(u_lo < 0.5, u_hi - u_lo, v_lo - v_hi)
    from_lo, from_hi, ts_w = _ts_rule(n)
    lower = np.arange(from_lo.size) < 6 * n  # t < 0: placed from the lower edge
    nu = np.where(lower, u_lo + width * from_lo, u_hi - width * from_hi)
    nv = np.where(lower, v_lo - width * from_lo, v_hi + width * from_hi)
    w = width * ts_w
    with np.errstate(all="ignore"):
        y = post._quantiles(nu, nv)
        keep = (w > 0.0) & np.isfinite(y) & (y > post.lower)
    return y, w, keep


# one decision often takes several expectations with one cut set (a
# pushforward mean and its EPL, a reweighted mean's two sums), and the nodes'
# quantiles are most of the rule's cost.  The nodes are a pure function of
# the posterior's value and the cuts, so sharing the one entry between
# callers, and between equal posteriors, changes no result
@functools.lru_cache(maxsize=1)
def _rule_nodes(post, cuts):
    """``_nodes`` at t = k/16, as read-only arrays."""
    nodes = _nodes(post, cuts, 16)
    for arr in nodes:
        arr.flags.writeable = False
    return nodes


# the refined rule: step 1/64 in t, at most 12 cuts, the reaches tried
_FINE, _MAX_CUTS, _REACHES = 64, 12, (6.0, 5.5, 5.0, 4.5, 4.0)


def _refine(post, h, cuts):
    """E h(Y) once the first pass fails: the rule refines itself until it
    certifies its sum on the same tests, or raises.

    1. The step in t halves twice, to 1/64, and the even nodes (step 1/32)
       are the nested check.  While that fails, up to 12 times, the panel
       that fails it most is cut where its terms bend most (the largest
       second difference), so a kink that no breakpoint names comes to lie
       by a panel's end, where the nodes crowd.
    2. While ``h`` raises on the nodes or is not finite at one, the reach
       |t| <= 6 shrinks by 0.5, down to 4.
    3. Each end of a panel passes the outermost-term test or continues as
       a power law (``_end``).
    When no reach certifies a sum, the error is what ``h`` raised, else a
    ``NumericError``.  ``h`` must take a float array: a scalar-only ``h``
    raises its own ``TypeError``.
    """
    raised = None
    for reach in _REACHES:
        panel_cuts = list(cuts)
        try:
            for cut in range(_MAX_CUTS + 1):
                fine, coarse, ends, bend = _fine_sums(post, h, tuple(panel_cuts), reach)
                gap, tol = abs(fine.sum() - coarse.sum()), max(_EPSABS, _EPSREL * abs(fine.sum()))
                if gap <= tol or cut == _MAX_CUTS:
                    break
                panel_cuts = sorted(panel_cuts + [bend[np.argmax(np.abs(fine - coarse))]])
        except (NumericError, TypeError, ValueError) as exc:  # h raised, or was not finite
            raised = raised or exc
            continue
        if gap <= tol and ends.max() <= tol:
            return float(fine.sum())
        if raised is None:
            raise NumericError(f"the tanh-sinh rule cannot certify E h(Y) on {post}: the nested "
                               f"difference {gap:.3g} or an end's residual {ends.max():.3g} "
                               f"exceeds {tol:.3g}")
        break
    raise raised


def _fine_sums(post, h, cuts, reach):
    """Per panel: the sums at steps 1/64 and 1/32 on the nodes |t| <= reach,
    the ends' residual, and the y where the terms bend most."""
    y, w, keep = _nodes(post, cuts, _FINE)
    keep &= np.abs(np.arange(-6 * _FINE, 6 * _FINE + 1)) <= reach * _FINE
    hv = np.zeros_like(y)
    with np.errstate(all="ignore"):
        hv[keep] = h(y[keep])
        terms = w * hv
    if not np.all(np.isfinite(terms)):
        raise NumericError(f"the tanh-sinh rule cannot certify E h(Y) on {post}: h(y) "
                           f"is not finite at y={float(y[~np.isfinite(terms)][0])!r}")
    fine, coarse, ends = terms.sum(axis=1), 2.0 * terms[:, ::2].sum(axis=1), np.zeros(len(y))
    for row in np.flatnonzero(keep.any(axis=1)):
        for side in (1, -1):  # the upper end as a lower one: t -> -t keeps weights and parity
            change = _end(*(a[row, ::side] for a in (w, hv, y, keep)))
            fine[row], coarse[row] = fine[row] + change[0], coarse[row] + change[1]
            ends[row] = max(ends[row], change[2])
    bend = np.abs(terms[:, 1:-1] - 0.5 * (terms[:, :-2] + terms[:, 2:]))
    return fine, coarse, ends, y[np.arange(len(y)), 1 + np.argmax(bend, axis=1)]


def _end(w, hv, y, keep):
    """(change to the sum at step 1/64, at step 1/32, residual) at the lower
    end of a panel.

    Unchanged, the residual is the outermost term, plus the mass of the
    outermost nodes whose y rounds to one float (onto 1.0 by a Beta's upper
    end, say) times the change of h to the next y.  The change takes h(F^-1)
    = c d^-b by the end, d a node's mass above it: from an anchor among the
    next 48 nodes, b is fitted on each of the three pairs of neighbours
    inward, and virtual nodes out to t = -12, summed in logs since d
    underflows, replace those beyond the anchor: at t = k/64, x = pi sinh t,
    L = log(cosh t expit(x) expit(-x)) is a node's log weight but for the
    panel's width, and D = log expit(x) its log d but for that width.  Its
    residual is the fits' spread or the outermost virtual term, whichever
    is larger.  The anchor with the least residual is taken, if that is
    the smaller.
    """
    idx = np.flatnonzero(keep)  # outermost first
    terms = w[idx] * hv[idx]
    flat = int(np.argmax(y[idx] != y[idx[0]]))  # the nodes on the outermost y
    best = (0.0, 0.0, abs(float(terms[0]))
            + float(np.dot(w[idx[:flat]], np.abs(hv[idx[:flat]] - hv[idx[flat]]))))
    if best[2] <= _EPSABS:
        return best
    t = np.arange(-12 * _FINE, 6 * _FINE + 1) / _FINE
    x = np.pi * np.sinh(t)
    D = _special.log_expit(x)
    L = np.log(np.cosh(t)) + D + _special.log_expit(-x)
    e = idx + 6 * _FINE  # a node's index in L and D
    for j in range(flat, min(idx.size, flat + 48) - 3):
        four = idx[j:j + 4]
        if np.any(np.diff(y[four]) == 0) or abs(np.sign(hv[four]).sum()) != 4:
            continue  # h cannot tell the nodes apart, or changes sign
        v = np.arange(e[j])  # the virtual nodes beyond the anchor
        with np.errstate(all="ignore"):
            b = -np.diff(np.log(np.abs(hv[four]))) / np.diff(D[e[j:j + 4]])
            tails = terms[j] * np.exp(L[v] - L[e[j]] - b[:, None] * (D[v] - D[e[j]]))
            residual = max(np.ptp(tails.sum(axis=1)), abs(tails[0, 0]))
        if residual < best[2]:  # False for a NaN
            best = (float(tails[0].sum() - terms[:j].sum()),
                    2.0 * float(tails[0, ::2].sum() - terms[:j][idx[:j] % 2 == 0].sum()),
                    float(residual))
    return best


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
