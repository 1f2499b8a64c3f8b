"""Span tracing of the library's layers, installed from the benchmark.

``Tracer.install(bd)`` replaces public functions and class methods of the
``bayesdecide`` modules with timing wrappers, everywhere the original
object is bound (a ``from .x import f`` in another module included), and
``uninstall`` restores them.  Each call records a span: layer name, start,
end, parent span and op id, kept in flat arrays and written at the end of
the run.  A span's self time is its duration minus the time covered by its
direct child spans.

Counters that need a call's arguments or result (EPL evaluations per
numeric search, iteration caps, replicates) are taken in the wrappers.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# iteration caps of the numeric searches: golden section stops after 400
# iterations and derivative bisection after 200, reporting one more
_CAPS = {"golden_section": 400, "derivative_bisection": 200}

# per-layer metrics, in report order, with their units
METRICS = (
    ("posteriors.expect.calls", "count"), ("posteriors.expect.self_s", "s"),
    ("posteriors.pdf.calls", "count"), ("posteriors.pdf.self_s", "s"),
    ("posteriors.support.self_s", "s"),
    ("posteriors.quantile.calls", "count"), ("posteriors.quantile.self_s", "s"),
    ("posteriors.sample_build.calls", "count"), ("posteriors.sample_build.self_s", "s"),
    ("posteriors.load_samples.self_s", "s"),
    ("losses.compose.calls", "count"), ("losses.compose.self_s", "s"),
    ("losses.eval.calls", "count"), ("losses.eval.points", "count"),
    ("losses.eval.self_s", "s"),
    ("engine.optimize.calls", "count"), ("engine.optimize.self_s", "s"),
    ("engine.epl.calls", "count"), ("engine.epl.self_s", "s"),
    ("engine.closed_form_frac", "frac"), ("engine.epl_per_numeric", "ratio"),
    ("engine.numeric.iterations", "count"), ("engine.numeric.cap_hits", "count"),
    ("engine.numeric.fallback_frac", "frac"),
    ("engine.optimize_functional.self_s", "s"), ("engine.tail_risk_curve.self_s", "s"),
    ("engine.lower_envelope.self_s", "s"),
    ("bma.bma_predict_general.calls", "count"), ("bma.bma_predict_general.self_s", "s"),
    ("bma.epl_per_call", "ratio"),
    ("eigen.CorrelationMatrix.self_s", "s"), ("eigen.spectral_decompose.self_s", "s"),
    ("eigen.estimate_correlation.self_s", "s"), ("eigen.optimize_eigen.self_s", "s"),
    ("eigen.epl_multivariate.self_s", "s"), ("eigen.project.calls", "count"),
    ("design.replicates", "count"), ("design.expected_joint_loss.self_s", "s"),
    ("design.voi.self_s", "s"), ("design.replicate_self_us", "us"),
    ("design.posterior_builder.self_s", "s"),
    ("scenario.load_scenario.self_s", "s"), ("scenario.parse.self_s", "s"),
    ("cli.verb.self_s", "s"), ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
)

# counts that two traced runs with one seed must reproduce exactly
DETERMINISTIC_COUNTS = ("posteriors.pdf.calls", "engine.epl.calls",
                        "engine.numeric.iterations", "engine.numeric.cap_hits",
                        "design.replicates")

# result passed to ``after`` hooks when the wrapped call raised
RAISED = object()


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        self.op_id = -1
        self.counts = Counter()
        self._patches = []
        self._eval_depth = 0
        self._decision_depth = 0

    # -- spans ---------------------------------------------------------------

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper recording a span around fn.

        ``before(args, kwargs)`` returns a token passed to
        ``after(token, args, kwargs, result)``; both are optional.
        """
        nid = self._nid(name)
        stack, start, end = self._stack, self.start, self.end

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            result = RAISED
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if after:
                    after(token, args, kwargs, result)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def _replace(self, modules, orig, new):
        """Rebind ``orig`` to ``new`` in every module that holds it."""
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._set(m, key, new)

    def _patch_function(self, modules, module, attr, name, **hooks):
        orig = getattr(module, attr)
        self._replace(modules, orig, self.wrap(name, orig, **hooks))

    def _patch_method(self, cls, attr, name, **hooks):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], **hooks))

    def install(self, bd):
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "bayesdecide" or k.startswith("bayesdecide."))]
        P, Lm, E = bd.posteriors, bd.losses, bd.engine
        self._compose = Lm.compose
        self._loss_function = Lm.LossFunction
        for cls in (P.GaussianPosterior, P.GammaPosterior):
            self._patch_method(cls, "expect", "posteriors.expect")
            self._patch_method(cls, "pdf", "posteriors.pdf")
        for cls in (P.GaussianPosterior, P.GammaPosterior, P.SamplePosterior):
            self._patch_method(cls, "support", "posteriors.support")
            self._patch_method(cls, "quantile", "posteriors.quantile")
        self._patch_method(P.SamplePosterior, "__init__", "posteriors.sample_build")
        self._patch_function(mods, P, "load_samples", "posteriors.load_samples")

        self._patch_function(mods, Lm, "compose", "losses.compose")
        self._patch_method(Lm.LossFunction, "__call__", "losses.eval",
                           before=self._eval_before, after=self._eval_after)

        self._patch_function(mods, E, "optimize", "engine.optimize",
                             before=self._decision_before,
                             after=self._decision_after("optimize"))
        self._patch_function(mods, E, "epl", "engine.epl", after=self._count_epl)
        self._patch_function(mods, E, "optimize_functional", "engine.optimize_functional",
                             before=self._decision_before,
                             after=self._decision_after("optimize_functional"))
        for attr in ("tail_risk_curve", "lower_envelope"):
            self._patch_function(mods, E, attr, f"engine.{attr}")
        self._patch_function(mods, bd.bma, "bma_predict_general", "bma.bma_predict_general",
                             before=self._decision_before,
                             after=self._decision_after("bma"))

        G = bd.eigen
        self._patch_method(G.CorrelationMatrix, "__init__", "eigen.CorrelationMatrix")
        for attr in ("spectral_decompose", "estimate_correlation", "optimize_eigen",
                     "epl_multivariate", "project"):
            self._patch_function(mods, G, attr, f"eigen.{attr}")

        D = bd.design
        self._patch_function(mods, D, "expected_joint_loss", "design.expected_joint_loss",
                             after=self._replicates(3))
        self._patch_function(mods, D, "voi", "design.voi", after=self._replicates(2))
        self._patch_function(mods, D, "optimal_sample_size", "design.optimal_sample_size")
        for attr in ("gaussian_known_variance", "beta_bernoulli"):
            template = getattr(D, attr)
            self._replace(mods, template, self._traced_template(template))

        S = getattr(bd, "scenario", None)
        if S is not None:
            self._patch_function(mods, S, "load_scenario", "scenario.load_scenario")
            for attr in [k for k in vars(S) if k.startswith("parse_")] + [
                    "load_vector_draws", "load_correlation"]:
                if callable(getattr(S, attr)):
                    self._patch_function(mods, S, attr, "scenario.parse")
        C = sys.modules.get("bayesdecide.cli")
        if C is not None:
            for cmd in C.main.commands.values():
                self._set(cmd, "callback", self.wrap("cli.verb", cmd.callback))

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def _traced_template(self, template):
        def build(*args, **kwargs):
            model = template(*args, **kwargs)
            return dataclasses.replace(model, posterior_builder=self.wrap(
                "design.posterior_builder", model.posterior_builder))
        return build

    # -- counters ------------------------------------------------------------

    def _count_epl(self, token, args, kwargs, result):
        # a running count, so that a search can tell how many EPLs it made
        self.counts["engine.epl.calls"] += 1

    def _replicates(self, n_mc_pos):
        def after(token, args, kwargs, result):
            n_mc = kwargs["n_mc"] if "n_mc" in kwargs else args[n_mc_pos]
            self.counts["design.replicates"] += int(n_mc)
        return after

    def _eval_before(self, args, kwargs):
        outer = self._eval_depth == 0
        self._eval_depth += 1
        if outer:
            a, y = args[1], args[2]
            self.counts["losses.eval.calls"] += 1
            self.counts["losses.eval.points"] += max(np.size(a), np.size(y))
        return None

    def _eval_after(self, token, args, kwargs, result):
        self._eval_depth -= 1

    def _differentiable(self, args, where):
        if where == "bma":
            return all(self._compose(m.loss).differentiable for m in args[0].members)
        loss = args[0]
        fn = loss if isinstance(loss, self._loss_function) else self._compose(loss)
        return fn.differentiable

    def _decision_before(self, args, kwargs):
        self._decision_depth += 1
        return self.counts["engine.epl.calls"]

    def _decision_after(self, where):
        def after(epl_before, args, kwargs, result):
            self._decision_depth -= 1
            if result is RAISED:
                return
            c = self.counts
            epl_used = c["engine.epl.calls"] - epl_before
            kind = result.method.kind
            if where == "optimize" and kind == "numeric":
                c["engine.numeric_optimize"] += 1
                c["engine.numeric_optimize_epl"] += epl_used
            if where == "bma":
                c["bma.epl"] += epl_used
            if self._decision_depth:
                return   # counted by the outermost decision
            c["engine.decisions"] += 1
            if kind == "closed_form":
                c["engine.closed_form"] += 1
                return
            path = result.method
            c["engine.numeric.iterations"] += path.iterations
            if path.iterations > _CAPS.get(path.name, float("inf")):
                c["engine.numeric.cap_hits"] += 1
            if self._differentiable(args, where):
                c["engine.differentiable_searches"] += 1
                if path.name == "golden_section":
                    c["engine.fallbacks"] += 1
        return after

    # -- report --------------------------------------------------------------

    def spans(self):
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def self_times(self):
        """Self time and call count per layer name."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        has = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has], dur[has])
        own = dur - child
        totals = np.bincount(sp["name_id"], weights=own, minlength=len(self.names))
        calls = np.bincount(sp["name_id"], minlength=len(self.names))
        return ({n: float(totals[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def metrics(self, overhead_s, import_s):
        self_s, calls = self.self_times()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0
        design_self = sum(v for k, v in self_s.items() if k.startswith("design."))
        out = {
            "posteriors.expect.calls": calls.get("posteriors.expect", 0),
            "posteriors.pdf.calls": calls.get("posteriors.pdf", 0),
            "posteriors.quantile.calls": calls.get("posteriors.quantile", 0),
            "posteriors.sample_build.calls": calls.get("posteriors.sample_build", 0),
            "losses.compose.calls": calls.get("losses.compose", 0),
            "losses.eval.calls": c["losses.eval.calls"],
            "losses.eval.points": c["losses.eval.points"],
            "engine.optimize.calls": calls.get("engine.optimize", 0),
            "engine.epl.calls": c["engine.epl.calls"],
            "engine.closed_form_frac": ratio(c["engine.closed_form"], c["engine.decisions"]),
            "engine.epl_per_numeric": ratio(c["engine.numeric_optimize_epl"],
                                            c["engine.numeric_optimize"]),
            "engine.numeric.iterations": c["engine.numeric.iterations"],
            "engine.numeric.cap_hits": c["engine.numeric.cap_hits"],
            "engine.numeric.fallback_frac": ratio(c["engine.fallbacks"],
                                                  c["engine.differentiable_searches"]),
            "bma.bma_predict_general.calls": calls.get("bma.bma_predict_general", 0),
            "bma.epl_per_call": ratio(c["bma.epl"], calls.get("bma.bma_predict_general", 0)),
            "eigen.project.calls": calls.get("eigen.project", 0),
            "design.replicates": c["design.replicates"],
            "design.replicate_self_us": 1e6 * ratio(design_self, c["design.replicates"]),
            "cli.import_s": import_s,
            "trace.overhead_s": overhead_s,
        }
        for name, unit in METRICS:
            if name not in out:
                layer = name[: -len(".self_s")]
                out[name] = self_s.get(layer, 0.0)
        return {name: out[name] for name, _ in METRICS}


def import_time(root_src):
    """Cumulative import time of ``bayesdecide.cli`` in a fresh interpreter,
    and its self time grouped by package (scipy by subpackage), from
    ``python -X importtime``."""
    env = dict(os.environ, PYTHONPATH=root_src)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bayesdecide.cli"],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import of bayesdecide.cli failed: {proc.stderr[-500:]}")
    total = 0.0
    by_package = Counter()
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue   # the header line
        name = parts[2].strip()
        dotted = name.split(".")
        by_package[".".join(dotted[:2]) if dotted[0] == "scipy" else dotted[0]] += self_us / 1e6
        if name == "bayesdecide.cli":
            total = cum_us / 1e6
    return total, dict(by_package.most_common(6))
