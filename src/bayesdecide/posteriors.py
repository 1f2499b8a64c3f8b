"""Posterior distributions over a scalar predictand.

A posterior is either parametric (Gaussian, Gamma), a weighted sample
cloud, or a discrete distribution over model labels.  Every operation is
a pure function of an immutable value, so instances are safe to share
across threads.

All representations expose the same surface used by the decision
machinery: ``moments``, ``quantile``, ``mode``, ``expect``,
``log_mgf_neg`` (log E exp(-psi Y)) and ``tail_prob``.
``SamplePosterior`` additionally supports ``reweight`` (multiply the
weights by a positive function of y and renormalize).

The Gaussian and Gamma densities, distribution functions and quantiles
are written on ``scipy.special`` (``ndtr``, ``ndtri``, ``gammainc``,
``gammaincc``, ``gammaincinv``) rather than ``scipy.stats``, whose
per-call overhead dominated quadrature and whose import dominated CLI
start-up.  ``pdf`` takes a ``math`` fast path for the scalar floats that
``scipy.integrate.quad`` passes to an integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaincc, gammaincinv, logsumexp, ndtr, ndtri

from .errors import DivergentMgfError, NumericError, ValidationError

# Mass left in each tail when truncating a parametric support for quadrature.
_QUAD_TAIL = 1e-10
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _check_finite(name, value):
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GaussianPosterior:
    """Gaussian posterior with mean ``mean`` and standard deviation ``sd``."""

    mean: float
    sd: float

    def __post_init__(self):
        _check_finite("mean", self.mean)
        if not (np.isfinite(self.sd) and self.sd > 0):
            raise ValidationError(f"sd must be > 0, got {self.sd!r}")

    def moments(self):
        return self.mean, self.sd ** 2

    def quantile(self, q):
        _check_q(q)
        return float(ndtri(q) * self.sd + self.mean)

    def mode(self):
        return self.mean

    def pdf(self, y):
        if isinstance(y, float):
            z = (y - self.mean) / self.sd
            return math.exp(-0.5 * z * z) * _INV_SQRT_2PI / self.sd
        z = (np.asarray(y, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) * _INV_SQRT_2PI / self.sd

    def cdf(self, y):
        return ndtr((np.asarray(y, dtype=float) - self.mean) / self.sd)

    def tail_prob(self, kappa):
        return float(ndtr(-((kappa - self.mean) / self.sd)))

    def support(self):
        return self.quantile(_QUAD_TAIL), self.quantile(1.0 - _QUAD_TAIL)

    def expect(self, h, breakpoints=()):
        return _quad_expect(self, h, breakpoints)

    def log_mgf_neg(self, psi):
        _check_psi(psi)
        return -psi * self.mean + 0.5 * psi * psi * self.sd ** 2


@dataclass(frozen=True)
class GammaPosterior:
    """Gamma posterior with shape ``shape`` (> 1) and rate ``rate`` (> 0).

    The shape restriction keeps E(1/Y) finite and the mode
    (shape - 1) / rate strictly positive, which the ratio-based optimal
    predictors rely on.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 1):
            raise ValidationError(f"shape must be > 1, got {self.shape!r}")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValidationError(f"rate must be > 0, got {self.rate!r}")

    @cached_property
    def _log_norm(self):
        # log(rate^shape / Gamma(shape)), the log-normaliser of the density
        return self.shape * math.log(self.rate) - math.lgamma(self.shape)

    def moments(self):
        return self.shape / self.rate, self.shape / self.rate ** 2

    def quantile(self, q):
        _check_q(q)
        return float(gammaincinv(self.shape, q) / self.rate)

    def mode(self):
        return (self.shape - 1.0) / self.rate

    def pdf(self, y):
        k, r = self.shape, self.rate
        if isinstance(y, float):
            if y <= 0.0 or y == math.inf:
                return 0.0
            return math.exp(self._log_norm + (k - 1.0) * math.log(y) - r * y)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.exp(self._log_norm + (k - 1.0) * np.log(y) - r * y)
        return np.where((y <= 0.0) | (y == np.inf), 0.0, dens)

    def cdf(self, y):
        return gammainc(self.shape, self.rate * np.maximum(y, 0.0))

    def tail_prob(self, kappa):
        return float(gammaincc(self.shape, self.rate * max(kappa, 0.0)))

    def support(self):
        return self.quantile(_QUAD_TAIL), self.quantile(1.0 - _QUAD_TAIL)

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


class SamplePosterior:
    """Weighted posterior draws.

    Draws are stored sorted by value with normalized weights.  A single
    draw (degenerate posterior) is legal everywhere; its variance is 0.
    """

    __slots__ = ("values", "weights", "_cumw")

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
        order = np.argsort(values, kind="stable")
        values = values[order]
        weights = weights[order]
        weights = weights / weights.sum()
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_cumw", np.cumsum(weights))

    def __setattr__(self, name, value):
        raise AttributeError("SamplePosterior is immutable")

    def __len__(self):
        return self.values.size

    def moments(self):
        mean = float(np.dot(self.weights, self.values))
        var = float(np.dot(self.weights, (self.values - mean) ** 2))
        return mean, var

    def quantile(self, q):
        """Left-continuous inverse CDF: smallest y with CDF(y) >= q."""
        _check_q(q)
        idx = int(np.searchsorted(self._cumw, q, side="left"))
        idx = min(idx, self.values.size - 1)
        return float(self.values[idx])

    def cdf(self, y):
        idx = np.searchsorted(self.values, y, side="right")
        cw = np.concatenate(([0.0], self._cumw))
        return cw[idx]

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
        with np.errstate(all="ignore"):
            hv = np.asarray(h(self.values), dtype=float)
        bad = ~np.isfinite(hv)
        if np.any(bad):
            y_bad = float(self.values[bad][0])
            raise NumericError(f"h(y) is not finite at draw y={y_bad!r}")
        return float(np.dot(self.weights, hv))

    def log_mgf_neg(self, psi):
        _check_psi(psi)
        return float(logsumexp(-psi * self.values, b=self.weights))

    def reweight(self, w):
        """Return the posterior proportional to w(y) * p(y|z)."""
        wv = np.asarray(w(self.values), dtype=float)
        if wv.shape != self.values.shape:
            wv = np.broadcast_to(wv, self.values.shape)
        if not np.all(np.isfinite(wv)) or np.any(wv < 0):
            raise ValidationError("reweight function must be finite and >= 0 on all draws")
        if wv.size and np.all(wv == wv[0]):
            # constant weight: renormalization is the identity, keep it exact
            if wv[0] <= 0:
                raise ValidationError("reweight produced all-zero weights")
            return SamplePosterior(self.values, self.weights)
        new_w = self.weights * wv
        total = new_w.sum()
        if total <= 0:
            raise ValidationError("reweight produced all-zero weights")
        return SamplePosterior(self.values, new_w)


@dataclass(frozen=True)
class DiscretePosterior:
    """Posterior probabilities over a finite set of labelled models."""

    probabilities: tuple = field()
    labels: tuple = field(default=())

    def __init__(self, probabilities, labels=None):
        probs = tuple(float(p) for p in probabilities)
        if len(probs) == 0:
            raise ValidationError("need at least one probability")
        if any(p < 0 for p in probs):
            raise ValidationError("probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
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


Posterior = Union[GaussianPosterior, GammaPosterior, SamplePosterior]


def _check_q(q):
    if not (np.isfinite(q) and 0.0 < q < 1.0):
        raise ValidationError(f"quantile level must lie in (0, 1), got {q!r}")


def _check_psi(psi):
    if psi == 0 or not np.isfinite(psi):
        raise ValidationError(f"psi must be finite and nonzero, got {psi!r}")


def _quad_expect(post, h, breakpoints=()):
    """Adaptive quadrature of h against a parametric density.

    The bulk between the 1e-10 and 1-1e-10 quantiles is integrated
    directly and each unbounded tail separately, so integrands with
    exponential growth (e.g. LINEX) keep their tail mass.  A Gamma's
    bulk starts at 0 instead: an edge at its lower quantile would cut
    integrands such as y^(shape - 2) (E(1/Y) with shape < 2) where they
    are steepest.  Known kinks of h (e.g. the action of an
    absolute-displacement loss) are passed as ``breakpoints`` so the
    subdivision never straddles them.
    """
    lo, hi = post.support()
    if isinstance(post, GammaPosterior):
        edges = [0.0, hi, np.inf]
    else:
        edges = [-np.inf, lo, hi, np.inf]
    for p in breakpoints:
        p = float(p)
        if np.isfinite(p) and edges[0] < p < np.inf and p not in edges:
            edges.append(p)
    edges.sort()

    def integrand(y):
        p = post.pdf(y)
        if p == 0.0:
            return 0.0
        return h(y) * p

    value = 0.0
    for a, b in zip(edges, edges[1:]):
        piece, _ = integrate.quad(integrand, a, b, limit=200,
                                  epsabs=1e-13, epsrel=1e-11)
        value += piece
    if not np.isfinite(value):
        raise NumericError(f"quadrature of h produced a non-finite value on the support")
    return float(value)


def load_samples(path):
    """Read a sample file: one draw per line, ``value`` or ``value,weight``.

    Lines starting with ``#`` are comments; blank lines are skipped.
    Missing weights default to 1.
    """
    values, weights = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                if len(parts) == 1:
                    values.append(float(parts[0]))
                    weights.append(1.0)
                elif len(parts) == 2:
                    values.append(float(parts[0]))
                    weights.append(float(parts[1]))
                else:
                    raise ValueError("too many fields")
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad sample line {line!r} ({exc})")
    if not values:
        raise ValidationError(f"{path}: no draws found")
    return SamplePosterior(values, weights)
