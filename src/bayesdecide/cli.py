"""Scenario-driven command line.

Verbs: predict, compare-models, multivar, bma, calibrate, risk-curve,
design-n, voi.  Each verb reads its inputs from a scenario document alone
(``--scenario``, see ``bayesdecide.scenario``), prints a human-readable
result table on stdout, and writes machine-readable CSV artifacts if and
only if ``--out`` is given.  Every numeric result carries its method tag
(closed_form or numeric) and every verb but ``calibrate`` its seed, so a
run can be reproduced without the original command line.  Of the Monte
Carlo verbs, only ``voi`` prints a standard error.

Exit codes: 0 success, 2 invalid input (or too large for memory), 3 numeric failure.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter

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


def _write_csv(out_dir, name, header, rows):
    with open(os.path.join(out_dir, name), "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _echo_rows(rows):
    width = max(len(str(k)) for k, _ in rows)
    for k, v in rows:
        click.echo(f"{str(k):<{width}}  {v}")


def _emit(rows, out_dir, name, header, csv_rows):
    """Print the table; write the CSV when given ``out_dir``."""
    _echo_rows(rows)
    if out_dir is not None:
        _write_csv(out_dir, name, header, csv_rows)


def _emit_decision(decision, seed, out_dir, name):
    """Emit an ``OptimalDecision``: one table row and one CSV column per field."""
    rows = [
        ("action", decision.action),
        ("epl", decision.epl),
        ("method", _method_tag(decision)),
        ("seed", seed),
    ]
    _emit(rows, out_dir, name, [k for k, _ in rows], [[v for _, v in rows]])


def _output_options(fn):
    """``--out``, made before the verb runs, and the exit codes of the verb's
    errors (a ``MemoryError`` is the input's).  The verb gets ``out_dir``
    made, or None when it is to write no CSV."""
    @click.option("--out", "out_dir", type=click.Path(file_okay=False),
                  help="Directory for CSV artifacts.")
    @functools.wraps(fn)
    def run(*args, out_dir, **kwargs):
        try:
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:  # as click reports an --out that is a file
            raise click.BadParameter(f"cannot make directory {out_dir!r}: {exc.strerror}",
                                     param_hint="'--out'")
        try:
            return fn(*args, out_dir=out_dir, **kwargs)
        except (ValidationError, MemoryError, NumericError) as exc:
            code, label = ((3, "numeric failure") if isinstance(exc, NumericError)
                           else (2, "error"))
            click.echo(f"{label}: {str(exc) or 'out of memory'}", err=True)
            sys.exit(code)
    return run


_scenario_option = click.option("--scenario", "scenario_path", required=True,
                                type=click.Path(exists=True, dir_okay=False),
                                help="Scenario YAML document.")


def _common_options(fn):
    # an unsigned integer, as a scenario's own seed must be
    fn = click.option("--seed", default=None, type=click.IntRange(min=0),
                      help="Override the scenario seed.")(_scenario_option(fn))
    return _output_options(fn)


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


def _eigenspace_tag(decisions):
    """``closed_form(eigenspace)`` when every eigenspace had a closed form;
    otherwise the number of eigenspaces each search (or closed_form) decided,
    e.g. ``numeric(eigenspace: golden_section x3)``."""
    counts = Counter(d.method.name if d.method.kind == "numeric" else "closed_form"
                     for d in decisions)
    if list(counts) == ["closed_form"]:
        return "closed_form(eigenspace)"
    return f"numeric(eigenspace: {', '.join(f'{k} x{n}' for k, n in counts.items())})"


@click.group()
def main():
    """Optimal Bayes decisions from posteriors and loss functions."""


@main.command()
@_common_options
def predict(scenario_path, out_dir, seed):
    """Optimal action minimizing expected posterior loss."""
    doc = _load(scenario_path, seed)
    base = doc["_base_dir"]
    post = sc.parse_posterior(doc.get("posterior") or {}, base)
    spec = sc.parse_loss(doc.get("loss"))
    if "functional" in doc:
        g = sc.parse_functional(doc["functional"])
        decision = engine.optimize_functional(spec, post, g)
    else:
        decision = engine.optimize(spec, post)
    _emit_decision(decision, doc["seed"], out_dir, "predict.csv")


def _labelled(labels, values):
    """``label=value`` pairs, each value printed as the repr of a Python float."""
    return " ".join(f"{label}={float(v)!r}" for label, v in zip(labels, values))


@main.command("compare-models")
@_common_options
def compare_models(scenario_path, out_dir, seed):
    """Model choice by Bayes factor and by decision-table expected loss."""
    doc = _load(scenario_path, seed)
    ev, table = sc.parse_evidence(doc.get("model_choice") or {})
    post = mc_mod.posterior_models(ev)
    baf = mc_mod.choose_baf(ev)
    rows = [
        ("posterior", _labelled(ev.labels, post.probabilities)),
        ("choice_bayes_factor", ev.labels[baf]),
    ]
    csv_rows = [(ev.labels[k], post.probabilities[k], "", "") for k in range(ev.m)]
    if table is not None:
        choice, epl_vec = mc_mod.choose_epl(ev, table)
        rows.append(("epl_vector", _labelled(ev.labels, epl_vec)))
        rows.append(("choice_decision_table", ev.labels[choice]))
        csv_rows = [(ev.labels[k], post.probabilities[k], float(epl_vec[k]),
                     ev.labels[choice]) for k in range(ev.m)]
    rows.append(("seed", doc["seed"]))
    _emit(rows, out_dir, "model_choice.csv",
          ["label", "posterior_prob", "epl", "chosen"], csv_rows)


@main.command()
@_common_options
def multivar(scenario_path, out_dir, seed):
    """Eigenspace predictor for a vector predictand."""
    doc = _load(scenario_path, seed)
    base = doc["_base_dir"]
    block = doc.get("multivar") or {}
    draws_block = sc.read(block, "draws", "multivar")
    vp = sc.load_vector_draws(sc.resolve_path(
        base, sc.read(draws_block, "path", "multivar.draws", str)))
    if "correlation" in block:
        corr = sc.load_correlation(block["correlation"], base)
    else:
        corr = eigen_mod.estimate_correlation(vp.draws)
    decomp = eigen_mod.spectral_decompose(corr)
    losses_block = sc.read(block, "losses", "multivar", list, [None])
    if len(losses_block) == 1:
        losses = [sc.parse_loss(losses_block[0])] * decomp.n
    else:
        losses = [sc.parse_loss(lb) for lb in losses_block]
    decisions = eigen_mod.eigenspace_decisions(decomp, vp, losses)
    action = decomp.eigenvectors @ np.array([d.action for d in decisions])
    value = eigen_mod.epl_multivariate(decomp, vp, losses, action)
    rows = [
        ("action", " ".join(repr(float(v)) for v in action)),
        ("epl", value),
        ("eigenvalues", " ".join(repr(float(v)) for v in decomp.eigenvalues)),
        ("method", _eigenspace_tag(decisions)),
        ("seed", doc["seed"]),
    ]
    _emit(rows, out_dir, "multivar.csv", ["component", "action", "eigenvalue"],
          [(i + 1, float(action[i]), float(decomp.eigenvalues[i]))
           for i in range(decomp.n)])


@main.command()
@_common_options
def bma(scenario_path, out_dir, seed):
    """Bayesian-model-averaged prediction."""
    doc = _load(scenario_path, seed)
    ens = sc.parse_ensemble(doc.get("ensemble") or {}, doc["_base_dir"])
    _emit_decision(bma_mod.bma_predict(ens), doc["seed"], out_dir, "bma.csv")


@main.command()
@_output_options
@_scenario_option
def calibrate(scenario_path, out_dir):
    """Calibrate pinball level q and LINEX psi from a cost asymmetry."""
    block = sc.load_scenario(scenario_path).get("calibrate") or {}
    share = sc.read(block, "prevention_share", "calibrate", float, None)
    multiple = sc.read(block, "gaussian_multiple", "calibrate", float, None)
    sigma = sc.read(block, "sigma", "calibrate", float, 1.0)
    paper_exact = sc.read(block, "paper_exact", "calibrate", bool, False)
    if (share is None) == (multiple is None):
        raise ValidationError(
            "calibrate: give exactly one of prevention_share and gaussian_multiple")
    q = None if share is None else calibrate_quantile(share)
    psi = calibrate_linex(CalibrationTarget(posterior_sd=sigma, gaussian_multiple=multiple,
                                            tail_mass=share, rounded=paper_exact))
    rows = [] if q is None else [("q", q)]
    rows += [("psi", psi), ("sigma", sigma),
             ("method", "closed_form(back_of_envelope)")]
    _emit(rows, out_dir, "calibrate.csv", ["q", "psi", "sigma"],
          [("" if q is None else q, psi, sigma)])


@main.command("risk-curve")
@_common_options
def risk_curve(scenario_path, out_dir, seed):
    """Tail-risk curve for an action, plus the lower envelope."""
    doc = _load(scenario_path, seed)
    base = doc["_base_dir"]
    post = sc.parse_posterior(doc.get("posterior") or {}, base)
    spec = sc.parse_loss(doc.get("loss"))
    block = doc.get("risk_curve") or {}
    kappas = sc.parse_grid(sc.read(block, "kappa_grid", "risk_curve"),
                           "risk_curve.kappa_grid")
    a_grid = (sc.parse_grid(block["a_grid"], "risk_curve.a_grid")
              if "a_grid" in block else None)
    if "action" in block:
        action = sc.read(block, "action", "risk_curve", float)
        method = "fixed_action"
    else:
        decision = engine.optimize(spec, post)
        action = decision.action
        method = _method_tag(decision)
    curve = engine.tail_risk_curve(spec, post, action, kappas)
    rows = [("action", action), ("method", method), ("seed", doc["seed"]),
            ("points", len(curve.points))]
    header = ["kappa", "tail_prob", "loss"]
    _emit(rows, out_dir, "risk_curve.csv", header, curve.points)
    if out_dir is not None and a_grid is not None:
        env = engine.lower_envelope(spec, post, kappas, a_grid)
        _write_csv(out_dir, "risk_envelope.csv", header, env.points)


@main.command("design-n")
@_common_options
def design_n(scenario_path, out_dir, seed):
    """Cost-aware optimal sample size over an explicit n grid."""
    doc = _load(scenario_path, seed)
    block = doc.get("design") or {}
    model = sc.parse_joint_model(block, "design")
    spec = sc.parse_loss(block.get("loss", doc.get("loss")))
    tau = sc.read(block, "tau", "design", float)
    cost = sc.parse_cost(block.get("cost"))
    n_grid = sc.parse_int_grid(sc.read(block, "n_grid", "design"), "design.n_grid")
    n_mc = sc.read(block, "n_mc", "design", int, 1000)
    n_star, curve = design_mod.optimal_sample_size(
        model, spec, tau, cost, n_grid, n_mc, doc["seed"])
    rows = [("n_star", n_star), ("seed", doc["seed"]), ("n_mc", n_mc),
            ("method", "numeric(monte_carlo_grid)")]
    _emit(rows, out_dir, "design_n.csv", ["n", "objective", "e_jl", "cost"], curve)


@main.command()
@_common_options
def voi(scenario_path, out_dir, seed):
    """Monte Carlo value of information of an extra data arm."""
    doc = _load(scenario_path, seed)
    block = doc.get("voi") or {}
    model = sc.parse_joint_model(block, "voi")
    value_name = sc.read(block, "value", "voi", default="neg_posterior_variance")
    if value_name != "neg_posterior_variance":
        raise ValidationError(f"voi: unknown value function {value_name!r}")
    n_mc = sc.read(block, "n_mc", "voi", int, 1000)
    est, se = design_mod.voi(model, design_mod.neg_posterior_variance,
                             n_mc, doc["seed"])
    rows = [("voi", est), ("std_err", se), ("n_mc", n_mc),
            ("seed", doc["seed"]), ("method", "numeric(monte_carlo)")]
    _emit(rows, out_dir, "voi.csv", ["voi", "std_err", "n_mc", "seed"],
          [(est, se, n_mc, doc["seed"])])


if __name__ == "__main__":
    main()
