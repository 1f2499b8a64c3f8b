"""Bayesian-model-averaged prediction.

Under squared-error loss for every member, the optimal action is the
posterior-probability-weighted combination of member means (closed
form).  With arbitrary per-member losses, the mixture expected posterior
loss is evaluated member-by-member, probability-weighted, and minimized
numerically.  ``bma_predict`` picks between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine
from .errors import ValidationError
from .losses import LossSpec, compose
from .posteriors import DiscretePosterior, almost_surely_positive


@dataclass(frozen=True)
class EnsembleMember:
    label: str
    posterior: object
    loss: LossSpec


class ModelEnsemble:
    """Members (label, posterior, loss) plus a posterior over models."""

    __slots__ = ("members", "model_posterior")

    def __init__(self, members, model_posterior):
        members = tuple(members)
        if not members:
            raise ValidationError("ensemble must have at least one member")
        if isinstance(model_posterior, DiscretePosterior):
            mp = model_posterior
        else:
            mp = DiscretePosterior(model_posterior,
                                   labels=[m.label for m in members])
        if len(mp.probabilities) != len(members):
            raise ValidationError("model posterior must have one entry per member")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "model_posterior", mp)

    def __setattr__(self, name, value):
        raise AttributeError("ModelEnsemble is immutable")


def _mixture_epl(ens, a):
    p = ens.model_posterior.probabilities
    return sum(pk * engine.epl(m.loss, m.posterior, a) for pk, m in zip(p, ens.members))


def bma_predict(ens):
    """The BMA decision.  When every member's loss is squared error as
    ``engine.optimize`` reads it (MTC(2) is SEL), the closed form: the
    probability-weighted sum of the members' optimal actions, their
    posterior means.  Otherwise ``bma_predict_general``."""
    if not all(engine.loss_key(compose(m.loss)) == "SEL" for m in ens.members):
        return bma_predict_general(ens)
    p = ens.model_posterior.probabilities
    action = sum(pk * engine.optimize(m.loss, m.posterior).action
                 for pk, m in zip(p, ens.members))
    value = _mixture_epl(ens, action)
    return engine.OptimalDecision(float(action), float(value),
                                  engine.SolverPath("closed_form", "bma_weighted_mean"))


def bma_predict_general(ens):
    """Numeric minimization of the probability-weighted mixture EPL.

    The action space is the intersection of the member losses' domains;
    if a ratio-based member loss needs a > 0 the whole search is carried
    out on the positive half-line.
    """
    losses = [compose(m.loss) for m in ens.members]
    positive = any(loss.positive_domain for loss in losses)
    for loss, m in zip(losses, ens.members):
        if loss.positive_domain and not almost_surely_positive(m.posterior):
            raise ValidationError(
                f"member {m.label!r} pairs a positive-domain loss with a posterior "
                f"whose support reaches {m.posterior.lower}; action domain is empty")

    p = ens.model_posterior.probabilities
    # degenerate model posterior: single-model optimum, full dispatch
    top = ens.model_posterior.argmax()
    if p[top] == 1.0:
        return engine.optimize(ens.members[top].loss, ens.members[top].posterior)

    f = lambda a: _mixture_epl(ens, a)
    x0 = sum(pk * m.posterior.quantile(0.5) for pk, m in zip(p, ens.members))
    if positive and x0 <= 0:
        x0 = max(m.posterior.quantile(0.5) for m in ens.members)
    unimodal = all(engine.unimodal_epl(loss, m.posterior)
                   for loss, m in zip(losses, ens.members))
    action, value, path = engine.minimize(f, x0, positive, unimodal)
    return engine.OptimalDecision(float(action), value, path)
