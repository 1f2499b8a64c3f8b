"""Choosing among m candidate models.

Two rules are provided: the Bayes-factor rule (argmax of posterior over
prior, equivalently argmax likelihood) and the decision-table rule
(argmin of expected posterior loss against an m-by-m loss matrix with a
zero diagonal).  Under a 0-1 table and a uniform prior the two rules
coincide; otherwise they can disagree.

Evidence is read on the log scale only and exponentiated with a max-shift,
so marginal likelihoods that underflow a double still normalize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .posteriors import DiscretePosterior


class ModelEvidence:
    """Log marginal likelihoods log Pr(z | M_k) and a prior over models, kept
    as read-only copies: a later edit of the caller's arrays undoes no check."""

    __slots__ = ("log_likelihoods", "prior", "labels")

    def __init__(self, *, log_likelihoods, prior=None, labels=None):
        ll = np.array(log_likelihoods, dtype=float)
        if ll.size == 0:
            raise ValidationError("need at least one model")
        if not np.all(np.isfinite(ll)):
            raise ValidationError("log-likelihoods must be finite")
        m = ll.size
        if prior is None:
            pr = np.full(m, 1.0 / m)
        else:
            pr = np.array(prior, dtype=float)
            if pr.shape != (m,):
                raise ValidationError("prior must match the number of models")
            # a NaN fails: every comparison with NaN is false
            if not (np.all(pr >= 0) and abs(pr.sum() - 1.0) <= 1e-12):
                raise ValidationError("prior must be nonnegative and sum to 1")
        if labels is None:
            labels = tuple(f"M{i + 1}" for i in range(m))
        else:
            labels = tuple(labels)
            if len(labels) != m:
                raise ValidationError("labels must match the number of models")
        ll.flags.writeable = pr.flags.writeable = False
        object.__setattr__(self, "log_likelihoods", ll)
        object.__setattr__(self, "prior", pr)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("ModelEvidence is immutable")

    @property
    def m(self):
        return self.log_likelihoods.size

    def likelihood_ratios(self):
        """Likelihoods rescaled so the largest is 1 (max-shift)."""
        return np.exp(self.log_likelihoods - self.log_likelihoods.max())


@dataclass(frozen=True)
class DecisionTable:
    """m-by-m losses L[j, k] for choosing model j when model k is correct,
    stored as a read-only copy."""

    losses: np.ndarray

    def __init__(self, losses):
        arr = np.array(losses, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("decision table must be a square matrix")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValidationError("decision-table entries must be finite and >= 0")
        if np.any(np.diag(arr) != 0):
            raise ValidationError("decision table must have a zero diagonal")
        arr.flags.writeable = False
        object.__setattr__(self, "losses", arr)

    @property
    def m(self):
        return self.losses.shape[0]

    @staticmethod
    def zero_one(m):
        return DecisionTable(np.ones((m, m)) - np.eye(m))


def posterior_models(ev):
    """p(k | z) proportional to Pr(z | M_k) * prior_k."""
    products = ev.likelihood_ratios() * ev.prior
    total = products.sum()
    if total <= 0:
        raise ValidationError("all likelihood-times-prior products are zero")
    return DiscretePosterior(products / total, labels=ev.labels)


def bayes_factor(ev, k, j):
    """Pr(z | M_k) / Pr(z | M_j), 0-based indices."""
    m = ev.m
    if not (0 <= k < m and 0 <= j < m):
        raise ValidationError(f"model index out of range for m={m}")
    return math.exp(ev.log_likelihoods[k] - ev.log_likelihoods[j])


def choose_baf(ev):
    """argmax of p(k|z)/prior_k, which is the likelihood argmax; ties to
    the smallest index."""
    return int(np.argmax(ev.log_likelihoods))


def choose_epl(ev, table):
    """Decision-table rule: (argmin index, full expected-loss vector)."""
    if table.m != ev.m:
        raise ValidationError(
            f"decision table is {table.m}x{table.m} but evidence has {ev.m} models")
    post = posterior_models(ev)
    p = np.asarray(post.probabilities)
    epl_vec = table.losses @ p
    return int(np.argmin(epl_vec)), epl_vec
