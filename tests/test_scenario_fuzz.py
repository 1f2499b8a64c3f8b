"""Fuzz the CLI with one-field mutations of the benchmark fixture scenarios.

Each example writes one fixture, with one field replaced by a generated value
(or deleted), next to small generated draws files.  The documented exit codes
are 0, 2 (malformed scenario) and 3 (numeric failure): a mutation must never
escape as a traceback.
"""

import copy
import os
import string

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdecide.cli import main

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "fixtures")
VERBS = {"bma.yaml": "bma", "calibrate.yaml": "calibrate",
         "compare_models.yaml": "compare-models", "design_n.yaml": "design-n",
         "multivar.yaml": "multivar", "predict.yaml": "predict",
         "predict_linex_edge.yaml": "predict", "predict_mtc_half.yaml": "predict",
         "risk_curve.yaml": "risk-curve", "voi.yaml": "voi"}
DELETE = object()

WORDS = ["", ".", "draws.txt", "vector_draws.csv", "gaussian", "gamma", "samples",
         "SEL", "QTL", "MTC", "LNX", "PTL", "PWD", "GAM", "ZERO_ONE", "sum", "weighted",
         "power", "identity", "exp", "beta-bernoulli", "gaussian-known-variance"]
# magnitudes stay small: a replicate count or grid size of 10**9 is valid
# input, only slow
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(-50, 50), st.sampled_from([float("nan"), float("inf"), -float("inf"), 2.7]),
    st.sampled_from(WORDS), st.text(string.ascii_letters + string.digits + " .-", max_size=5))
VALUES = st.one_of(
    SCALARS, st.just(DELETE), st.lists(SCALARS, max_size=4),
    st.lists(st.lists(SCALARS, max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "path", "family", "params", "q", "rho"]),
                    SCALARS, max_size=2))


def _paths(node, prefix=()):
    """Every key or index path in a parsed YAML document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


DOCS = {}
for _name in VERBS:
    with open(os.path.join(FIXTURES, _name)) as _fh:
        DOCS[_name] = yaml.safe_load(_fh)
CASES = [(name, path) for name, doc in DOCS.items() for path in _paths(doc)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    with open(d / "draws.txt", "w") as fh:
        fh.writelines(f"{v!r},{w!r}\n" for v, w in
                      zip(rng.lognormal(0.5, 0.4, 200), rng.uniform(0.5, 1.5, 200)))
    x = rng.normal(size=(60, 3)) @ np.array([[1.0, 0.4, 0.1], [0, 1.0, 0.3], [0, 0, 1.0]])
    with open(d / "vector_draws.csv", "w") as fh:
        fh.write("y0,y1,y2\n")
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in x)
    return d


def _mutate(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), value=VALUES)
def test_one_field_mutation_exits_0_2_or_3(workdir, case, value):
    name, path = case
    scenario = workdir / "mutated.yaml"
    scenario.write_text(yaml.safe_dump(_mutate(DOCS[name], path, value)))
    result = CliRunner().invoke(main, [VERBS[name], "--scenario", str(scenario),
                                       "--out", str(workdir / "out")])
    assert result.exit_code in (0, 2, 3), (path, value, result.exception)
    assert "Traceback" not in result.output
