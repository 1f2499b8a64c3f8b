"""Fuzz the CLI with one- and two-field mutations of the benchmark fixture
scenarios.

Each example writes one fixture, with one or two fields replaced by
generated values (or deleted), next to small generated draws files.  The
documented exit codes are 0, 2 (malformed scenario) and 3 (numeric
failure): a mutation must never escape as a traceback.  Unmutated, every
fixture runs on the first pass of the tanh-sinh rule: no expectation
reaches its refinement, ``posteriors._refine`` (the test keeps the name it
had when that refinement was a QUADPACK fallback).
"""

import copy
import itertools
import os
import string

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bayesdecide import posteriors
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
                      zip(rng.lognormal(0.5, 0.4, 200).tolist(),
                          rng.uniform(0.5, 1.5, 200).tolist()))
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


_SERIAL = itertools.count()


def _invoke(workdir, name, doc):
    # a new file each time: rewriting one file in place can stall on a flush
    scenario = workdir / f"mutated-{next(_SERIAL)}.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    return CliRunner().invoke(main, [VERBS[name], "--scenario", str(scenario),
                                     "--out", str(workdir / "out")])


def test_every_fixture_is_listed():
    assert sorted(f for f in os.listdir(FIXTURES) if f.endswith(".yaml")) == sorted(VERBS)


@pytest.mark.parametrize("name", sorted(VERBS))
def test_fixture_runs_without_quadpack(workdir, monkeypatch, name):
    calls, fallback = [], posteriors._refine

    def counted(*args):
        calls.append(args)
        return fallback(*args)

    monkeypatch.setattr(posteriors, "_refine", counted)
    result = _invoke(workdir, name, DOCS[name])
    assert result.exit_code == 0, result.output
    assert calls == []


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), value=VALUES)
def test_one_field_mutation_exits_0_2_or_3(workdir, case, value):
    name, path = case
    result = _invoke(workdir, name, _mutate(DOCS[name], path, value))
    assert result.exit_code in (0, 2, 3), (path, value, result.exception)
    assert "Traceback" not in result.output


# a design template switched together with its parameters, and the parameter
# sets of both templates, so that a pair of fields can be well formed
# together where either change alone is not
PARAMS = st.one_of(
    st.fixed_dictionaries({"a": SCALARS, "b": SCALARS}),
    st.fixed_dictionaries({"prior_mean": SCALARS, "prior_sd": SCALARS, "noise_sd": SCALARS}),
    st.just({"a": 2.0, "b": 3.0}))
PAIRED = st.one_of(VALUES, PARAMS)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), name=st.sampled_from(sorted(VERBS)))
def test_two_field_mutation_exits_0_2_or_3(workdir, data, name):
    paths = [p for n, p in CASES if n == name]
    first = data.draw(st.sampled_from(paths))
    # neither path inside the other, so both exist in the original document
    second = data.draw(st.sampled_from(paths).filter(
        lambda p: p[:len(first)] != first and first[:len(p)] != p))
    values = [data.draw(PAIRED), data.draw(PAIRED)]
    doc = _mutate(DOCS[name], first, values[0])
    try:
        doc = _mutate(doc, second, values[1])
    except (IndexError, KeyError):  # the first deletion shifted a list
        assume(False)
    result = _invoke(workdir, name, doc)
    assert result.exit_code in (0, 2, 3), (first, second, values, result.exception)
    assert "Traceback" not in result.output


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(block=st.sampled_from(["design_n.yaml", "voi.yaml"]), params=PARAMS,
       template=st.sampled_from(["beta-bernoulli", "gaussian-known-variance", "gamma"]))
def test_template_switched_with_its_params(workdir, block, template, params):
    key = "design" if block == "design_n.yaml" else "voi"
    doc = _mutate(DOCS[block], (key, "template"), template)
    doc = _mutate(doc, (key, "params"), params)
    result = _invoke(workdir, block, doc)
    assert result.exit_code in (0, 2, 3), (template, params, result.exception)
    assert "Traceback" not in result.output
