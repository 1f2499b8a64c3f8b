"""A seeded sweep of ``optimize_functional`` over parametric posteriors.

Decision i draws, from ``np.random.default_rng((seed, i))``:

- a posterior: Gaussian (mean U(-3, 3), sd e^U(-2, 1.2)), Gamma (shape
  e^U(0.2, 4), rate e^U(-2, 2)) or Beta (both shapes e^U(-1, 3));
- a functional g: y^2, |y|, min(y, 0.5), sin y, y^3 - y, e^y, I(y > 1),
  sqrt(y) or log y, with y^2 in place of the last two on a Gaussian;
- a loss: MTC(U(1.1, 3)), QTL(U(0.05, 0.95)), MTC(1) or QTL(0.3) + MTC(1.5).

It prints one JSON line: the decisions per solver path, the number of
decisions that reach ``posteriors._refine`` (counted by wrapping it), the
raises by exception type, and per decision its posterior, g, loss, path
(or exception type), action and EPL, so two runs can be compared decision
by decision.  A RuntimeWarning is raised as an error, as the test suite
raises it.

    PYTHONPATH=src python tools/functional_sweep.py --seed 5 --n 300
"""

import argparse
import json
import math
import warnings
from collections import Counter

import numpy as np

from bayesdecide import (BetaPosterior, GammaPosterior, GaussianPosterior, LossSpec,
                         optimize_functional, posteriors)

_G = {
    "square": np.square,
    "abs": np.abs,
    "min_half": lambda y: np.minimum(y, 0.5),
    "sin": np.sin,
    "cubic": lambda y: y ** 3 - y,
    "exp": np.exp,
    "above_1": lambda y: (y > 1.0).astype(float),
    "sqrt": np.sqrt,
    "log": np.log,
}


def _decision(seed, i):
    """(posterior, g name, (loss name, LossSpec)) of decision i."""
    u = np.random.default_rng((seed, i)).random(6).tolist()
    family = int(3 * u[0])
    if family == 0:
        post = GaussianPosterior(-3.0 + 6.0 * u[1], math.exp(-2.0 + 3.2 * u[2]))
    elif family == 1:
        post = GammaPosterior(math.exp(0.2 + 3.8 * u[1]), math.exp(-2.0 + 4.0 * u[2]))
    else:
        post = BetaPosterior(math.exp(-1.0 + 4.0 * u[1]), math.exp(-1.0 + 4.0 * u[2]))
    g = list(_G)[int(len(_G) * u[3])]
    if family == 0 and g in ("sqrt", "log"):
        g = "square"
    kind = int(4 * u[4])
    if kind == 0:
        rho = 1.1 + 1.9 * u[5]
        loss = (f"MTC({rho!r})", LossSpec.mtc(rho))
    elif kind == 1:
        q = 0.05 + 0.9 * u[5]
        loss = (f"QTL({q!r})", LossSpec.qtl(q))
    elif kind == 2:
        loss = ("MTC(1)", LossSpec.mtc(1))
    else:
        loss = ("QTL(0.3)+MTC(1.5)", LossSpec.sum_of(LossSpec.qtl(0.3), LossSpec.mtc(1.5)))
    return post, g, loss


def sweep(seed, n):
    refine = posteriors._refine
    reached = []

    def counted(*args, **kwargs):
        reached.append(True)
        return refine(*args, **kwargs)

    paths, raised, rows, refined = Counter(), Counter(), [], 0
    posteriors._refine = counted
    try:
        for i in range(n):
            post, g, (loss_name, spec) = _decision(seed, i)
            reached.clear()
            row = {"i": i, "posterior": repr(post), "g": g, "loss": loss_name}
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    d = optimize_functional(spec, post, lambda y: _G[g](np.asarray(y, dtype=float)))
            except Exception as exc:  # every failure is counted by its type
                raised[type(exc).__name__] += 1
                row["raised"] = type(exc).__name__
            else:
                paths[d.method.name] += 1
                row.update(path=d.method.name, action=d.action, epl=d.epl)
            refined += bool(reached)
            row["refined"] = bool(reached)
            rows.append(row)
    finally:
        posteriors._refine = refine
    return {"seed": seed, "n": n, "paths": dict(sorted(paths.items())), "refined": refined,
            "raised": dict(sorted(raised.items())), "decisions": rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--n", type=int, default=300)
    args = parser.parse_args()
    print(json.dumps(sweep(args.seed, args.n)))


if __name__ == "__main__":
    main()
