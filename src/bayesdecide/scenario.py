"""Scenario documents: the YAML front end to every CLI verb.

A scenario is a single YAML document (``schema_version: 1``) whose field
names mirror the library's types.  Blocks:

``posterior``      {kind: gaussian, mean, sd} | {kind: gamma, shape, rate}
                   | {kind: samples, path}
``loss``           {family, params} leaf or a composition:
                   {compose: sum|product, components: [...]},
                   {compose: weighted, weight: {name: identity|power|exp, ...}, base: ...},
                   {compose: power, p: ..., base: ...},
                   {compose: exp_minus_one, base: ...}
``functional``     optional g(Y): {name: square|exp|indicator_above|affine, ...}
``model_choice``   models: [{label, log_likelihood, prior}], optional
                   decision_table (row-major)
``ensemble``       members: [{label, posterior, loss}], probabilities: [...]
``multivar``       correlation: {path}|{matrix}, draws: {path}, losses: [...]
``risk_curve``     action (optional), kappa_grid, a_grid
``design``         template, params, tau, cost: {c0, per_unit}, n_grid, n_mc
``voi``            template, params, n_existing, n_extra, n_mc
``calibrate``      prevention_share | gaussian_multiple | tail_mass, sigma,
                   paper_exact
``seed``           unsigned integer, defaults to DEFAULT_SEED
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import yaml

from .bma import EnsembleMember, ModelEnsemble
from .design import CostFunction, beta_bernoulli, gaussian_known_variance
from .eigen import CorrelationMatrix, VectorPosterior
from .errors import ValidationError
from .losses import LossSpec, Weight
from .model_choice import DecisionTable, ModelEvidence
from .posteriors import (GammaPosterior, GaussianPosterior, SamplePosterior,
                         load_samples)

SCHEMA_VERSION = 1
DEFAULT_SEED = 20220901


def load_scenario(path):
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: scenario must be a mapping")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    doc.setdefault("seed", DEFAULT_SEED)
    if not isinstance(doc["seed"], int) or doc["seed"] < 0:
        raise ValidationError(f"{path}: seed must be an unsigned integer")
    doc["_base_dir"] = os.path.dirname(os.path.abspath(path))
    return doc


def require(block, key, where):
    if key not in block:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return block[key]


def resolve_path(base_dir, path):
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def parse_posterior(block, base_dir="."):
    if not isinstance(block, dict):
        raise ValidationError("posterior block must be a mapping")
    kind = require(block, "kind", "posterior")
    if kind == "gaussian":
        return GaussianPosterior(float(require(block, "mean", "posterior")),
                                 float(require(block, "sd", "posterior")))
    if kind == "gamma":
        return GammaPosterior(float(require(block, "shape", "posterior")),
                              float(require(block, "rate", "posterior")))
    if kind == "samples":
        path = resolve_path(base_dir, require(block, "path", "posterior"))
        if not os.path.exists(path):
            raise ValidationError(f"posterior sample file does not exist: {path}")
        return load_samples(path)
    raise ValidationError(f"posterior: unknown kind {kind!r}")


def parse_weight(block):
    name = require(block, "name", "weight")
    if name == "identity":
        return Weight.identity()
    if name == "power":
        return Weight.power(float(require(block, "p", "weight")))
    if name == "exp":
        return Weight.exp(float(require(block, "c", "weight")))
    raise ValidationError(f"weight: unknown name {name!r}")


def parse_loss(block):
    if not isinstance(block, dict):
        raise ValidationError("loss block must be a mapping")
    if "compose" in block:
        kind = block["compose"]
        if kind in ("sum", "product"):
            comps = tuple(parse_loss(c) for c in require(block, "components", "loss"))
            return LossSpec(compose=kind, components=comps)
        if kind == "weighted":
            base = parse_loss(require(block, "base", "loss"))
            weight = parse_weight(require(block, "weight", "loss"))
            return LossSpec.weighted(weight, base)
        if kind == "power":
            base = parse_loss(require(block, "base", "loss"))
            return LossSpec.power_of(base, float(require(block, "p", "loss")))
        if kind == "exp_minus_one":
            return LossSpec.exp_minus_one(parse_loss(require(block, "base", "loss")))
        raise ValidationError(f"loss: unknown composition {kind!r}")
    family = str(require(block, "family", "loss")).upper()
    params = dict(block.get("params", {}))
    if family == "PTL":
        from .losses import GeneralizedGaussian
        omega = float(require(params, "omega", "loss.params"))
        return LossSpec.potential(GeneralizedGaussian(omega))
    params = {k: float(v) for k, v in params.items()}
    return LossSpec(family=family, params=params)


def parse_functional(block):
    name = require(block, "name", "functional")
    if name == "square":
        return lambda y: np.asarray(y, dtype=float) ** 2
    if name == "exp":
        return lambda y: np.exp(np.asarray(y, dtype=float))
    if name == "indicator_above":
        kappa = float(require(block, "kappa", "functional"))
        return lambda y: (np.asarray(y, dtype=float) > kappa).astype(float)
    if name == "affine":
        slope = float(block.get("slope", 1.0))
        intercept = float(block.get("intercept", 0.0))
        return lambda y: slope * np.asarray(y, dtype=float) + intercept
    raise ValidationError(f"functional: unknown name {name!r}")


def parse_grid(block, name="grid"):
    if isinstance(block, (list, tuple)):
        return np.asarray([float(v) for v in block])
    if isinstance(block, dict):
        start = float(require(block, "start", name))
        stop = float(require(block, "stop", name))
        num = int(require(block, "num", name))
        if num < 1:
            raise ValidationError(f"{name}: num must be >= 1")
        return np.linspace(start, stop, num)
    raise ValidationError(f"{name}: expected a list or start/stop/num mapping")


def parse_int_grid(block, name="n_grid"):
    if isinstance(block, (list, tuple)):
        return [int(v) for v in block]
    if isinstance(block, dict):
        start = int(require(block, "start", name))
        stop = int(require(block, "stop", name))
        step = int(block.get("step", 1))
        return list(range(start, stop + 1, step))
    raise ValidationError(f"{name}: expected a list or start/stop mapping")


def parse_evidence(block):
    models = require(block, "models", "model_choice")
    if not models:
        raise ValidationError("model_choice: need at least one model")
    labels, logliks, priors = [], [], []
    for i, m in enumerate(models):
        labels.append(str(m.get("label", f"M{i + 1}")))
        logliks.append(float(require(m, "log_likelihood", "model_choice.models")))
        priors.append(m.get("prior"))
    if all(p is None for p in priors):
        prior = None
    elif any(p is None for p in priors):
        raise ValidationError("model_choice: give a prior for every model or none")
    else:
        prior = [float(p) for p in priors]
    ev = ModelEvidence(log_likelihoods=logliks, prior=prior, labels=labels)
    table = None
    if "decision_table" in block:
        table = DecisionTable(block["decision_table"])
    return ev, table


def parse_ensemble(block, base_dir="."):
    members_block = require(block, "members", "ensemble")
    members = [
        EnsembleMember(
            label=str(m.get("label", f"M{i + 1}")),
            posterior=parse_posterior(require(m, "posterior", "ensemble.members"),
                                      base_dir),
            loss=parse_loss(m.get("loss", {"family": "SEL"})),
        )
        for i, m in enumerate(members_block)
    ]
    if "probabilities" in block:
        probs = [float(p) for p in block["probabilities"]]
    elif "models" in block:
        from .model_choice import posterior_models
        ev, _ = parse_evidence(block)
        probs = posterior_models(ev)
    else:
        raise ValidationError("ensemble: need probabilities or models evidence")
    return ModelEnsemble(members, probs)


def load_vector_draws(path):
    """CSV of N value columns plus an optional trailing ``weight`` column."""
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    if not rows:
        raise ValidationError(f"{path}: no draws found")
    header = None
    first = rows[0].split(",")
    try:
        [float(v) for v in first]
    except ValueError:
        header = [h.strip() for h in first]
        rows = rows[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    weights = None
    if header is not None and header[-1].lower() == "weight":
        weights = data[:, -1]
        data = data[:, :-1]
    return VectorPosterior(data, weights)


def load_correlation(block, base_dir="."):
    if "matrix" in block:
        return CorrelationMatrix(block["matrix"])
    path = resolve_path(base_dir, require(block, "path", "correlation"))
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    matrix = [[float(v) for v in r.split(",")] for r in rows]
    return CorrelationMatrix(matrix)


def parse_cost(block):
    if block is None:
        return CostFunction()
    if "table" in block:
        return CostFunction(table={int(k): float(v) for k, v in block["table"].items()})
    return CostFunction(c0=float(block.get("c0", 0.0)),
                        per_unit=float(block.get("per_unit", 0.0)))


def parse_joint_model(block, purpose):
    template = require(block, "template", purpose)
    params = dict(block.get("params", {}))
    n_existing = int(block.get("n_existing", 1))
    n_extra = int(block.get("n_extra", 1))
    if template == "gaussian-known-variance":
        return gaussian_known_variance(
            prior_mean=float(params.get("prior_mean", 0.0)),
            prior_sd=float(params.get("prior_sd", 1.0)),
            noise_sd=float(params.get("noise_sd", 1.0)),
            n_existing=n_existing, n_extra=n_extra,
            extra_noise_sd=(float(params["extra_noise_sd"])
                            if "extra_noise_sd" in params else None),
        )
    if template == "beta-bernoulli":
        return beta_bernoulli(
            a=float(params.get("a", 1.0)), b=float(params.get("b", 1.0)),
            n_existing=n_existing, n_extra=n_extra,
        )
    raise ValidationError(f"{purpose}: unknown template {template!r}")
