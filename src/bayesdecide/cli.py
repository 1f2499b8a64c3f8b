"""Scenario-driven command line.

Verbs: predict, compare-models, multivar, bma, calibrate, risk-curve,
design-n, voi.  Each verb reads a scenario document (see
``bayesdecide.scenario``), prints a human-readable result table on
stdout, and writes machine-readable CSV artifacts under ``--out`` when
given.  Every numeric result carries its method tag (closed_form or
numeric) and, for Monte Carlo verbs, the seed and a standard error, so a
run can be reproduced without the original command line.

Exit codes: 0 success, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import functools
import os
import sys

import click
import numpy as np

from . import bma as bma_mod
from . import design as design_mod
from . import eigen as eigen_mod
from . import engine
from . import model_choice as mc_mod
from . import scenario as sc
from .calibrate import CalibrationTarget, calibrate_linex, calibrate_quantile
from .errors import NumericError, ValidationError
from .losses import compose


def _write_csv(out_dir, name, header, rows):
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    return path


def _echo_rows(rows):
    width = max(len(str(k)) for k, _ in rows)
    for k, v in rows:
        click.echo(f"{str(k):<{width}}  {v}")


def _emit(fmt, rows, out_dir, name, header, csv_rows):
    """Print the result table and/or write the CSV artifact, as ``fmt`` asks."""
    if fmt in ("table", "both"):
        _echo_rows(rows)
    if fmt in ("csv", "both"):
        _write_csv(out_dir, name, header, csv_rows)


def _emit_decision(fmt, decision, seed, out_dir, name):
    """Emit an ``OptimalDecision``: one table row and one CSV column per field."""
    rows = [
        ("action", decision.action),
        ("epl", decision.epl),
        ("method", _method_tag(decision)),
        ("seed", seed),
    ]
    _emit(fmt, rows, out_dir, name, [k for k, _ in rows], [[v for _, v in rows]])


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NumericError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(3)
    return wrapper


def _common_options(fn):
    fn = click.option("--scenario", "scenario_path", required=True,
                      type=click.Path(exists=True),
                      help="Scenario YAML document.")(fn)
    fn = click.option("--out", "out_dir", default=None, type=click.Path(),
                      help="Directory for CSV artifacts.")(fn)
    fn = click.option("--seed", default=None, type=int,
                      help="Override the scenario seed.")(fn)
    fn = click.option("--format", "fmt", default="both",
                      type=click.Choice(["table", "csv", "both"]),
                      help="Emit the stdout table, the CSV artifacts, or both.")(fn)
    return _handle_errors(fn)


def _load(scenario_path, seed):
    doc = sc.load_scenario(scenario_path)
    if seed is not None:
        doc["seed"] = seed
    return doc


def _method_tag(decision):
    m = decision.method
    if m.kind == "closed_form":
        return f"closed_form({m.name})"
    return f"numeric({m.name}, iterations={m.iterations}, bracket={m.bracket})"


@click.group()
def main():
    """Optimal Bayes decisions from posteriors and loss functions."""


@main.command()
@_common_options
def predict(scenario_path, out_dir, seed, fmt):
    """Optimal action minimizing expected posterior loss."""
    doc = _load(scenario_path, seed)
    base = doc["_base_dir"]
    post = sc.parse_posterior(doc.get("posterior") or {}, base)
    spec = sc.parse_loss(doc.get("loss") or {"family": "SEL"})
    if "functional" in doc:
        g = sc.parse_functional(doc["functional"])
        decision = engine.optimize_functional(spec, post, g)
    else:
        decision = engine.optimize(spec, post)
    _emit_decision(fmt, decision, doc["seed"], out_dir, "predict.csv")


@main.command("compare-models")
@_common_options
def compare_models(scenario_path, out_dir, seed, fmt):
    """Model choice by Bayes factor and by decision-table expected loss."""
    doc = _load(scenario_path, seed)
    ev, table = sc.parse_evidence(doc.get("model_choice") or {})
    post = mc_mod.posterior_models(ev)
    baf = mc_mod.choose_baf(ev)
    rows = [
        ("posterior", " ".join(f"{l}={p!r}" for l, p in
                               zip(ev.labels, post.probabilities))),
        ("choice_bayes_factor", ev.labels[baf]),
    ]
    csv_rows = [(ev.labels[k], post.probabilities[k], "", "") for k in range(ev.m)]
    if table is not None:
        choice, epl_vec = mc_mod.choose_epl(ev, table)
        rows.append(("epl_vector", " ".join(f"{l}={v!r}" for l, v in
                                            zip(ev.labels, epl_vec))))
        rows.append(("choice_decision_table", ev.labels[choice]))
        csv_rows = [(ev.labels[k], post.probabilities[k], float(epl_vec[k]),
                     ev.labels[choice]) for k in range(ev.m)]
    rows.append(("seed", doc["seed"]))
    _emit(fmt, rows, out_dir, "model_choice.csv",
          ["label", "posterior_prob", "epl", "chosen"], csv_rows)


@main.command()
@_common_options
def multivar(scenario_path, out_dir, seed, fmt):
    """Eigenspace predictor for a vector predictand."""
    doc = _load(scenario_path, seed)
    base = doc["_base_dir"]
    block = doc.get("multivar") or {}
    draws_block = sc.require(block, "draws", "multivar")
    vp = sc.load_vector_draws(sc.resolve_path(
        base, sc.require(draws_block, "path", "multivar.draws")))
    if "correlation" in block:
        corr = sc.load_correlation(block["correlation"], base)
    else:
        corr = eigen_mod.estimate_correlation(vp.draws)
    decomp = eigen_mod.spectral_decompose(corr)
    losses_block = block.get("losses", [{"family": "SEL"}])
    if len(losses_block) == 1:
        losses = [sc.parse_loss(losses_block[0])] * decomp.n
    else:
        losses = [sc.parse_loss(lb) for lb in losses_block]
    action = eigen_mod.optimize_eigen(decomp, vp, losses)
    value = eigen_mod.epl_multivariate(decomp, vp, losses, action)
    rows = [
        ("action", " ".join(repr(float(v)) for v in action)),
        ("epl", value),
        ("eigenvalues", " ".join(repr(float(v)) for v in decomp.eigenvalues)),
        ("method", "closed_form(eigenspace)"),
        ("seed", doc["seed"]),
    ]
    _emit(fmt, rows, out_dir, "multivar.csv", ["component", "action", "eigenvalue"],
          [(i + 1, float(action[i]), float(decomp.eigenvalues[i]))
           for i in range(decomp.n)])


@main.command()
@_common_options
def bma(scenario_path, out_dir, seed, fmt):
    """Bayesian-model-averaged prediction."""
    doc = _load(scenario_path, seed)
    ens = sc.parse_ensemble(doc.get("ensemble") or {}, doc["_base_dir"])
    all_sel = all(m.loss.family == "SEL" for m in ens.members)
    decision = (bma_mod.bma_predict_sel(ens) if all_sel
                else bma_mod.bma_predict_general(ens))
    _emit_decision(fmt, decision, doc["seed"], out_dir, "bma.csv")


@main.command()
@click.option("--prevention-share", type=float, default=None,
              help="Share of disaster spending that goes to prevention.")
@click.option("--gaussian-multiple", type=float, default=None,
              help="Target Gaussian quantile multiple z_q.")
@click.option("--sigma", type=float, default=1.0,
              help="Posterior standard deviation.")
@click.option("--paper-exact", is_flag=True,
              help="Use the two-decimal multiple (0.97 tail -> 1.88).")
@click.option("--scenario", "scenario_path", default=None,
              type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--format", "fmt", default="both",
              type=click.Choice(["table", "csv", "both"]))
@_handle_errors
def calibrate(prevention_share, gaussian_multiple, sigma, paper_exact,
              scenario_path, out_dir, fmt):
    """Calibrate pinball level q and LINEX psi from a cost asymmetry."""
    if scenario_path is not None:
        block = sc.load_scenario(scenario_path).get("calibrate") or {}
        prevention_share = block.get("prevention_share", prevention_share)
        gaussian_multiple = block.get("gaussian_multiple", gaussian_multiple)
        sigma = float(block.get("sigma", sigma))
        paper_exact = bool(block.get("paper_exact", paper_exact))
    if prevention_share is None and gaussian_multiple is None:
        raise ValidationError("give --prevention-share or --gaussian-multiple")
    rows = []
    q = None
    if prevention_share is not None:
        q = calibrate_quantile(float(prevention_share))
        rows.append(("q", q))
        target = CalibrationTarget(posterior_sd=sigma,
                                   tail_mass=float(prevention_share),
                                   rounded=paper_exact)
    else:
        target = CalibrationTarget(posterior_sd=sigma,
                                   gaussian_multiple=float(gaussian_multiple),
                                   rounded=paper_exact)
    psi = calibrate_linex(target)
    rows += [("psi", psi), ("sigma", sigma),
             ("method", "closed_form(back_of_envelope)")]
    _emit(fmt, rows, out_dir, "calibrate.csv", ["q", "psi", "sigma"],
          [("" if q is None else q, psi, sigma)])


@main.command("risk-curve")
@_common_options
def risk_curve(scenario_path, out_dir, seed, fmt):
    """Tail-risk curve for an action, plus the lower envelope."""
    doc = _load(scenario_path, seed)
    base = doc["_base_dir"]
    post = sc.parse_posterior(doc.get("posterior") or {}, base)
    spec = sc.parse_loss(doc.get("loss") or {"family": "SEL"})
    block = doc.get("risk_curve") or {}
    kappas = sc.parse_grid(sc.require(block, "kappa_grid", "risk_curve"),
                           "kappa_grid")
    if "action" in block:
        action = float(block["action"])
        method = "fixed_action"
    else:
        decision = engine.optimize(spec, post)
        action = decision.action
        method = _method_tag(decision)
    curve = engine.tail_risk_curve(spec, post, action, kappas)
    rows = [("action", action), ("method", method), ("seed", doc["seed"]),
            ("points", len(curve.points))]
    header = ["kappa", "tail_prob", "loss"]
    _emit(fmt, rows, out_dir, "risk_curve.csv", header, curve.points)
    if fmt in ("csv", "both") and "a_grid" in block:
        a_grid = sc.parse_grid(block["a_grid"], "a_grid")
        env = engine.lower_envelope(spec, post, kappas, a_grid)
        _write_csv(out_dir, "risk_envelope.csv", header, env.points)


@main.command("design-n")
@_common_options
def design_n(scenario_path, out_dir, seed, fmt):
    """Cost-aware optimal sample size over an explicit n grid."""
    doc = _load(scenario_path, seed)
    block = doc.get("design") or {}
    model = sc.parse_joint_model(block, "design")
    spec = sc.parse_loss(block.get("loss", doc.get("loss", {"family": "SEL"})))
    tau = float(sc.require(block, "tau", "design"))
    cost = sc.parse_cost(block.get("cost"))
    n_grid = sc.parse_int_grid(sc.require(block, "n_grid", "design"))
    n_mc = int(block.get("n_mc", 1000))
    n_star, curve = design_mod.optimal_sample_size(
        model, spec, tau, cost, n_grid, n_mc, doc["seed"])
    rows = [("n_star", n_star), ("seed", doc["seed"]), ("n_mc", n_mc),
            ("method", "numeric(monte_carlo_grid)")]
    _emit(fmt, rows, out_dir, "design_n.csv", ["n", "objective", "e_jl", "cost"], curve)


@main.command()
@_common_options
def voi(scenario_path, out_dir, seed, fmt):
    """Monte Carlo value of information of an extra data arm."""
    doc = _load(scenario_path, seed)
    block = doc.get("voi") or {}
    model = sc.parse_joint_model(block, "voi")
    value_name = block.get("value", "neg_posterior_variance")
    if value_name != "neg_posterior_variance":
        raise ValidationError(f"voi: unknown value function {value_name!r}")
    n_mc = int(block.get("n_mc", 1000))
    est, se = design_mod.voi(model, design_mod.neg_posterior_variance,
                             n_mc, doc["seed"])
    rows = [("voi", est), ("std_err", se), ("n_mc", n_mc),
            ("seed", doc["seed"]), ("method", "numeric(monte_carlo)")]
    _emit(fmt, rows, out_dir, "voi.csv", ["voi", "std_err", "n_mc", "seed"],
          [(est, se, n_mc, doc["seed"])])


if __name__ == "__main__":
    main()
