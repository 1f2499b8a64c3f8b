"""Value-of-information analysis and cost-aware sample-size design.

Both operations Monte-Carlo a user-supplied generative pair (prior
sampler for Y, data sampler for z given Y) with common random numbers:
replicate r takes every draw from one generator seeded by (seed, r), in
a fixed order: the prior draw, then the data, then the VOI extra arm.
So the two VOI arms share their prior and existing-data draws, and all
candidate sample sizes see identical data.  Results are bit-reproducible
for a fixed (seed, grid, replicate budget).

Sample-size design makes one pass over the replicates: each replicate
draws the largest sample once, and every candidate n builds its
posterior from the first n of those draws.  Both conjugate templates
build their exact posterior, Gaussian or Beta, so the replicates are the
only Monte Carlo error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from . import engine
from .errors import NumericError, ValidationError
from .losses import compose
from .posteriors import BetaPosterior, GaussianPosterior, SamplePosterior


@dataclass(frozen=True)
class JointModel:
    """Generative pair for preposterior analysis.

    ``prior_sampler(rng) -> y`` draws the predictand; ``data_sampler(rng,
    y, n) -> array`` draws n observations given Y = y; ``posterior_builder
    (z, z_extra) -> Posterior`` turns simulated data into a posterior
    (z may be None when n = 0; z_extra is None without an extra arm).
    ``extra_data_sampler`` supplies the VOI extra-data arm.  All three
    samplers of one replicate receive the same generator, in the order
    prior, data, extra arm, so each continues the stream where the last
    stopped.  Sample-size design passes z as a read-only view of draws
    shared by every n.
    """

    prior_sampler: Callable
    data_sampler: Callable
    posterior_builder: Callable
    extra_data_sampler: Optional[Callable] = None
    n_existing: int = 1
    n_extra: int = 1

    def __post_init__(self):
        if self.n_existing < 0 or self.n_extra < 0:
            raise ValidationError("n_existing and n_extra must be >= 0")


@dataclass(frozen=True)
class CostFunction:
    """Sampling cost c(n) = c0 + per_unit * n, or an explicit table, which
    is stored as a read-only copy."""

    c0: float = 0.0
    per_unit: float = 0.0
    table: Optional[Mapping] = None

    def __post_init__(self):
        if self.table is not None:
            object.__setattr__(self, "table", MappingProxyType(dict(self.table)))
        if not (0 <= self.c0 < math.inf and 0 <= self.per_unit < math.inf):
            raise ValidationError("costs must be finite and nonnegative")
        vals = [self.table[n] for n in sorted(self.table or {})]
        if not all(map(math.isfinite, vals)) or any(b < a for a, b in zip(vals, vals[1:])):
            raise ValidationError("cost table must be finite and nondecreasing in n")

    def __call__(self, n):
        if self.table is not None:
            if n not in self.table:
                raise ValidationError(f"cost table has no entry for n={n}")
            return float(self.table[n])
        return self.c0 + self.per_unit * n


def voi(model, value_fn, n_mc, seed):
    """Monte Carlo value of information of the extra-data arm.

    Returns (voi, std_err).  The existing-data arm and the combined arm
    share the same prior and existing-data draws per replicate, so an
    extra arm that the posterior builder ignores yields exactly zero.
    """
    if n_mc < 2:
        raise ValidationError(f"n_mc must be >= 2, got {n_mc}")
    if model.extra_data_sampler is None:
        raise ValidationError("VOI requires an extra_data_sampler")
    diffs = np.empty(n_mc)
    for r in range(n_mc):
        rng = np.random.default_rng((int(seed), r))
        y = model.prior_sampler(rng)
        z = model.data_sampler(rng, y, model.n_existing)
        z_extra = model.extra_data_sampler(rng, y, model.n_extra)
        v_existing = value_fn(model.posterior_builder(z, None), y)
        v_both = value_fn(model.posterior_builder(z, z_extra), y)
        diffs[r] = v_both - v_existing
    est = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(n_mc))
    return est, se


def _joint_losses(model, loss, ns, n_mc, seed, max_n):
    """Realised losses of the EPL-optimal rule: a (len(ns), n_mc) array.

    Each replicate draws its prior value and then max_n observations
    from its one generator; the row of sample size n uses the first n.
    """
    if n_mc < 1:
        raise ValidationError(f"n_mc must be >= 1, got {n_mc}")
    if max_n < max(ns):
        raise ValidationError(f"max_n must be >= n, got max_n={max_n} for n={max(ns)}")
    loss = compose(loss)
    losses = np.empty((len(ns), n_mc))
    for r in range(n_mc):
        rng = np.random.default_rng((int(seed), r))
        y = model.prior_sampler(rng)
        if max_n > 0:
            # a read-only view: every sample size shares these draws
            draws = np.asarray(model.data_sampler(rng, y, max_n)).view()
            draws.flags.writeable = False
        for i, n in enumerate(ns):
            post = model.posterior_builder(draws[:n] if n > 0 else None, None)
            action = engine.optimize(loss, post).action
            value = float(np.asarray(loss(action, y)))
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss in replicate {r} (seed {seed}, n={n})")
            losses[i, r] = value
    return losses


def expected_joint_loss(model, loss, n, n_mc, seed, max_n=None):
    """Monte Carlo E_JL of the EPL-optimal rule at sample size n.

    Each replicate draws ``max_n`` observations (default n, and at least
    n) and uses the first n, so calls with one ``max_n`` and seed see
    the same data at every n: this is the single-n case of the pass
    that ``optimal_sample_size`` makes over its whole grid.
    """
    max_n = n if max_n is None else max_n
    return float(_joint_losses(model, loss, [n], n_mc, seed, max_n)[0].mean())


def optimal_sample_size(model, loss, tau, cost, n_grid, n_mc, seed):
    """n* = argmin over the grid of tau * E_JL(n) + c(n); ties to smallest n.

    Returns (n_star, curve) where curve is a list of
    (n, objective, e_jl, cost) rows.  Every row equals
    ``expected_joint_loss(..., max_n=max(n_grid))`` bit for bit.
    """
    ns = sorted(set(int(n) for n in n_grid))
    if not ns:
        raise ValidationError("n_grid must be nonempty")
    if any(n < 0 for n in ns):
        raise ValidationError("sample sizes must be >= 0")
    if not 0 < tau < math.inf:
        raise ValidationError(f"tau must be finite and > 0, got {tau!r}")
    losses = _joint_losses(model, loss, ns, n_mc, seed, max(ns))
    curve = []
    for n, row in zip(ns, losses):
        ejl = float(row.mean())
        c = cost(n)
        curve.append((n, tau * ejl + c, ejl, c))
    best = min(curve, key=lambda row: (row[1], row[0]))
    return best[0], curve


# ---------------------------------------------------------------------------
# conjugate templates


def gaussian_known_variance(prior_mean, prior_sd, noise_sd,
                            n_existing=1, n_extra=1, extra_noise_sd=None):
    """Gaussian prior for Y, Gaussian observations with known noise sd.

    The posterior is conjugate, so ``posterior_builder`` returns an exact
    GaussianPosterior.  ``extra_noise_sd=0`` models a perfect-information
    extra arm (the posterior collapses onto the extra-arm mean).
    """
    extra_noise_sd = noise_sd if extra_noise_sd is None else extra_noise_sd
    if not all(s > 0 and 0 < s * s < math.inf
               for s in (prior_sd, noise_sd, extra_noise_sd or 1.0)):
        raise ValidationError("prior_sd, noise_sd and extra_noise_sd must be > 0 "
                              "with a finite nonzero square (extra_noise_sd may be 0)")

    def prior_sampler(rng):
        return rng.normal(prior_mean, prior_sd)

    def data_sampler(rng, y, n):
        return rng.normal(y, noise_sd, size=n)

    def extra_data_sampler(rng, y, n):
        if extra_noise_sd == 0:
            return np.full(n, y, dtype=float)
        return rng.normal(y, extra_noise_sd, size=n)

    def posterior_builder(z, z_extra=None):
        prec = 1.0 / prior_sd ** 2
        mean_num = prior_mean / prior_sd ** 2
        if z is not None and len(z) > 0:
            prec += len(z) / noise_sd ** 2
            mean_num += np.sum(z) / noise_sd ** 2
        if z_extra is not None and len(z_extra) > 0:
            if extra_noise_sd == 0:
                # perfect information: degenerate posterior at the truth
                return SamplePosterior([float(np.mean(z_extra))])
            prec += len(z_extra) / extra_noise_sd ** 2
            mean_num += np.sum(z_extra) / extra_noise_sd ** 2
        return GaussianPosterior(mean_num / prec, math.sqrt(1.0 / prec))

    return JointModel(prior_sampler, data_sampler, posterior_builder,
                      extra_data_sampler, n_existing, n_extra)


def beta_bernoulli(a, b, n_existing=1, n_extra=1):
    """Beta(a, b) prior for a success rate with Bernoulli observations; the
    exact posterior after s successes in n trials is Beta(a + s, b + n - s)."""
    BetaPosterior(a, b)  # refuses a or b not finite and > 0, naming both

    def prior_sampler(rng):
        return rng.beta(a, b)

    def data_sampler(rng, y, n):
        return (rng.random(n) < y).astype(float)

    def posterior_builder(z, z_extra=None):
        arms = [arm for arm in (z, z_extra) if arm is not None]
        succ, tot = sum(float(np.sum(arm)) for arm in arms), sum(map(len, arms))
        # failures are counted before adding b, which may be far below 1
        return BetaPosterior(a + succ, b + (tot - succ))

    # both arms draw Bernoulli data; they differ only by their seeded stream
    return JointModel(prior_sampler, data_sampler, posterior_builder,
                      data_sampler, n_existing, n_extra)


def neg_posterior_variance(post, truth):
    """VOI value function: the negative posterior variance (accuracy gain)."""
    return -post.moments()[1]
