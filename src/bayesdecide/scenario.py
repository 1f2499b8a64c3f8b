"""Scenario documents: the YAML front end to every CLI verb.

A scenario is a single YAML document (``schema_version: 1``) whose field
names mirror the library's types.  Blocks:

``posterior``      {kind: gaussian, mean, sd} | {kind: gamma, shape, rate}
                   | {kind: samples, path}
``loss``           absent or null: SEL; else a {family, params} leaf (PTL takes
                   params: {omega}, the generalized Gaussian exponent, and
                   builds MTC(omega), the same loss) or a composition:
                   {compose: sum|product, components: [...]}, or one of
                   {compose: weighted, weight: {name: identity|power|exp, ...}, base: ...}
                   (each weight built by ``Weight.power`` or ``Weight.exp``),
                   {compose: power, p: ..., base: ...}, {compose: exp_minus_one, base: ...},
                   each with exactly one base; ``compose(parse_loss(block))(a, y)`` evaluates it
``functional``     optional g(Y): {name: square|exp|indicator_above|affine, ...}
``model_choice``   models: [{label, log_likelihood, prior}], optional
                   decision_table (row-major)
``ensemble``       members: [{label, posterior, loss}], probabilities: [...]
``multivar``       correlation: {path}|{matrix}, draws: {path}, losses: [...]
``risk_curve``     action (optional), kappa_grid, a_grid
``design``         template, params, tau, cost: {c0, per_unit}, n_grid, n_mc
``voi``            template, params, n_existing, n_extra, n_mc
``calibrate``      prevention_share xor gaussian_multiple, sigma (1.0), paper_exact (false)
``seed``           unsigned integer, defaults to DEFAULT_SEED

Number fields never take true/false, integer fields take whole int64
numbers only, and each matrix, inline or read from a file, must be rectangular.
"""

from __future__ import annotations

import os
import numpy as np
import yaml

from .bma import EnsembleMember, ModelEnsemble
from .design import CostFunction, beta_bernoulli, gaussian_known_variance
from .eigen import CorrelationMatrix, VectorPosterior
from .errors import ValidationError
from .losses import GeneralizedGaussian, LossSpec, Weight
from .model_choice import DecisionTable, ModelEvidence
from .posteriors import GammaPosterior, GaussianPosterior, load_samples

SCHEMA_VERSION = 1
DEFAULT_SEED = 20220901


def load_scenario(path):
    try:
        with open(path, errors="replace") as fh:  # bad bytes fail as bad YAML
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
    if type(doc["seed"]) is not int or doc["seed"] < 0:  # true is not a seed
        raise ValidationError(f"{path}: seed must be an unsigned integer")
    doc["_base_dir"] = os.path.dirname(os.path.abspath(path))
    return doc


_REQUIRED = object()
_KIND_NAMES = {float: "a number", int: "a 64-bit integer", bool: "true or false",
               dict: "a mapping", list: "a list", str: "a string"}
# kinds taken only as they are, never converted from another type
_STRICT = {bool: bool, dict: dict, list: (list, tuple), str: str}


def _as(value, kind, where):
    """``value`` as ``kind``: ``[kind]`` is a list of ``kind`` items, ``[[kind]]``
    a rectangular matrix; an int must be a whole number."""
    if isinstance(kind, list):
        items = _as(value, list, where)
        out = [_as(v, kind[0], f"{where}[{i}]") for i, v in enumerate(items)]
        for i, row in enumerate(out if isinstance(kind[0], list) else ()):
            if len(row) != len(out[0]):
                raise ValidationError(f"{where}[{i}]: expected {len(out[0])} entries "
                                      f"like the first row, got {len(row)}")
        return out
    if kind in _STRICT:
        ok = isinstance(value, _STRICT[kind])
    else:
        # no number is true or false, and an int must be whole: float() would
        # read true as 1.0, int() would read 2.7 as 2
        ok = not isinstance(value, bool) and (kind is not int or not (
            isinstance(value, float) and not value.is_integer()))
    if ok:
        try:
            out = kind(value)
            if kind is not int or abs(out) < 2 ** 63:  # numpy takes sizes as int64
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{where}: expected {_KIND_NAMES[kind]}, got {value!r}")


def read(block, key, where, kind=None, default=_REQUIRED):
    """``block[key]`` read as ``kind`` (as is when None), or ``default`` when absent.

    ``kind`` is float, int, bool, dict, list, str, or ``[kind]`` for a list of
    items of that kind.  Any misfit raises ValidationError naming the field by
    its path, ``where.key``; without ``default`` the field is required.
    """
    if not isinstance(block, dict):
        raise ValidationError(f"{where}: expected a mapping, got {block!r}")
    if key not in block:
        if default is _REQUIRED:
            raise ValidationError(f"{where}: missing required field {key!r}")
        return default
    return block[key] if kind is None else _as(block[key], kind, f"{where}.{key}")


def resolve_path(base_dir, path):
    """``path`` relative to ``base_dir`` unless absolute; the file must exist."""
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    if not os.path.isfile(full):
        raise ValidationError(f"file does not exist: {full}")
    return full


def parse_posterior(block, base_dir="."):
    kind = read(block, "kind", "posterior")
    if kind == "gaussian":
        return GaussianPosterior(read(block, "mean", "posterior", float),
                                 read(block, "sd", "posterior", float))
    if kind == "gamma":
        return GammaPosterior(read(block, "shape", "posterior", float),
                              read(block, "rate", "posterior", float))
    if kind == "samples":
        path = resolve_path(base_dir, read(block, "path", "posterior", str))
        return load_samples(path)
    raise ValidationError(f"posterior: unknown kind {kind!r}")


def parse_weight(block):
    name = read(block, "name", "weight")
    if name == "identity":
        return Weight.power(1.0)
    if name == "power":
        return Weight.power(read(block, "p", "weight", float))
    if name == "exp":
        return Weight.exp(read(block, "c", "weight", float))
    raise ValidationError(f"weight: unknown name {name!r}")


def parse_loss(block):
    if block is None:
        return LossSpec.sel()
    kind = read(block, "compose", "loss", str, None)
    if kind is not None:
        if kind in ("sum", "product"):
            key, parts = "components", read(block, "components", "loss", list)
        else:  # one base; without it, LossSpec names an unknown kind or the count
            key, parts = "base", [block["base"]] if "base" in block else []
        params = {k: parse_weight(v) if k == "weight" else read(block, k, "loss", float)
                  for k, v in block.items() if k not in ("compose", key)}
        return LossSpec(compose=kind, components=tuple(map(parse_loss, parts)),
                        params=params)
    family = str(read(block, "family", "loss")).upper()
    raw = read(block, "params", "loss", dict, {})
    params = {k: read(raw, k, "loss.params", float) for k in raw}
    if family == "PTL":  # the generalized Gaussian density by omega: MTC(omega)
        extra = [k for k in params if k != "omega"]
        if extra:
            raise ValidationError(f"loss.params: PTL loss takes no parameter {extra[0]!r}")
        return LossSpec.potential(GeneralizedGaussian(read(params, "omega", "loss.params")))
    return LossSpec(family=family, params=params)


def parse_functional(block):
    name = read(block, "name", "functional")
    if name == "square":
        return lambda y: np.asarray(y, dtype=float) ** 2
    if name == "exp":
        return lambda y: np.exp(np.asarray(y, dtype=float))
    if name == "indicator_above":
        kappa = read(block, "kappa", "functional", float)
        return lambda y: (np.asarray(y, dtype=float) > kappa).astype(float)
    if name == "affine":
        slope = read(block, "slope", "functional", float, 1.0)
        intercept = read(block, "intercept", "functional", float, 0.0)
        return lambda y: slope * np.asarray(y, dtype=float) + intercept
    raise ValidationError(f"functional: unknown name {name!r}")


def parse_grid(block, name="grid"):
    if isinstance(block, (list, tuple)):
        grid = np.asarray(_as(block, [float], name))
    elif isinstance(block, dict):
        start = read(block, "start", name, float)
        stop = read(block, "stop", name, float)
        num = read(block, "num", name, int)
        if num < 1:
            raise ValidationError(f"{name}: num must be >= 1")
        grid = np.linspace(start, stop, num)
    else:
        raise ValidationError(f"{name}: expected a list or start/stop/num mapping")
    if not (grid.size and np.all(np.isfinite(grid))):
        raise ValidationError(f"{name} must be nonempty and finite")
    return grid


def parse_int_grid(block, name="n_grid"):
    if isinstance(block, (list, tuple)):
        return _as(block, [int], name)
    if isinstance(block, dict):
        start = read(block, "start", name, int)
        stop = read(block, "stop", name, int)
        step = read(block, "step", name, int, 1)
        if step == 0:
            raise ValidationError(f"{name}.step must be nonzero")
        return list(range(start, stop + (1 if step > 0 else -1), step))  # stop included
    raise ValidationError(f"{name}: expected a list or start/stop mapping")


def parse_evidence(block):
    models = read(block, "models", "model_choice", list)
    if not models:
        raise ValidationError("model_choice: need at least one model")
    labels, logliks, priors = [], [], []
    for i, m in enumerate(models):
        where = f"model_choice.models[{i}]"
        labels.append(str(read(m, "label", where, default=f"M{i + 1}")))
        logliks.append(read(m, "log_likelihood", where, float))
        priors.append(read(m, "prior", where, float, None))
    if all(p is None for p in priors):
        prior = None
    elif any(p is None for p in priors):
        raise ValidationError("model_choice: give a prior for every model or none")
    else:
        prior = priors
    ev = ModelEvidence(log_likelihoods=logliks, prior=prior, labels=labels)
    table = read(block, "decision_table", "model_choice", [[float]], None)
    return ev, (None if table is None else DecisionTable(table))


def parse_ensemble(block, base_dir="."):
    members_block = read(block, "members", "ensemble", list)
    members = [
        EnsembleMember(
            label=str(read(m, "label", f"ensemble.members[{i}]", default=f"M{i + 1}")),
            posterior=parse_posterior(read(m, "posterior", f"ensemble.members[{i}]"),
                                      base_dir),
            loss=parse_loss(read(m, "loss", f"ensemble.members[{i}]", default=None)),
        )
        for i, m in enumerate(members_block)
    ]
    if "probabilities" in block:
        probs = read(block, "probabilities", "ensemble", [float])
    elif "models" in block:
        from .model_choice import posterior_models
        ev, _ = parse_evidence(block)
        probs = posterior_models(ev)
    else:
        raise ValidationError("ensemble: need probabilities or models evidence")
    return ModelEnsemble(members, probs)


def _data_rows(path):
    """The comma-split rows of a data file, without blank and ``#`` comment lines."""
    with open(path, errors="replace") as fh:  # bad bytes fail as bad cells
        lines = [line.strip() for line in fh]
    return [line.split(",") for line in lines if line and not line.startswith("#")]


def load_vector_draws(path):
    """CSV of N value columns plus an optional trailing ``weight`` column."""
    rows = _data_rows(path)
    header = None
    try:
        [float(v) for row in rows[:1] for v in row]
    except ValueError:
        header = [h.strip().lower() for h in rows.pop(0)]
    if not rows:
        raise ValidationError(f"{path}: no draws found")
    data = np.array(_as(rows, [[float]], f"{path} data rows"))
    if header and header[-1] == "weight":
        return VectorPosterior(data[:, :-1], data[:, -1])
    return VectorPosterior(data)


def load_correlation(block, base_dir="."):
    matrix = read(block, "matrix", "correlation", [[float]], None)
    if matrix is None:
        path = resolve_path(base_dir, read(block, "path", "correlation", str))
        matrix = _as(_data_rows(path), [[float]], f"{path} data rows")
    return CorrelationMatrix(matrix)


def parse_cost(block):
    if block is None:
        return CostFunction()
    table = read(block, "table", "design.cost", dict, None)
    if table is not None:
        return CostFunction(table={_as(k, int, f"design.cost.table key {k!r}"):
                                   read(table, k, "design.cost.table", float)
                                   for k in table})
    return CostFunction(c0=read(block, "c0", "design.cost", float, 0.0),
                        per_unit=read(block, "per_unit", "design.cost", float, 0.0))


def parse_joint_model(block, purpose):
    template = read(block, "template", purpose)
    params = read(block, "params", purpose, dict, {})
    where = f"{purpose}.params"
    n_existing = read(block, "n_existing", purpose, int, 1)
    n_extra = read(block, "n_extra", purpose, int, 1)
    if template == "gaussian-known-variance":
        return gaussian_known_variance(
            prior_mean=read(params, "prior_mean", where, float, 0.0),
            prior_sd=read(params, "prior_sd", where, float, 1.0),
            noise_sd=read(params, "noise_sd", where, float, 1.0),
            n_existing=n_existing, n_extra=n_extra,
            extra_noise_sd=read(params, "extra_noise_sd", where, float, None),
        )
    if template == "beta-bernoulli":
        return beta_bernoulli(
            a=read(params, "a", where, float, 1.0), b=read(params, "b", where, float, 1.0),
            n_existing=n_existing, n_extra=n_extra,
        )
    raise ValidationError(f"{purpose}: unknown template {template!r}")
