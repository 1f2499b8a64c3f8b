"""No module of the package reaches into another module's private names."""

import ast
import pathlib
import types

import pytest

import bayesdecide

PKG_DIR = pathlib.Path(bayesdecide.__file__).parent
MODULES = sorted(p.stem for p in PKG_DIR.glob("*.py") if p.stem != "__init__")


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _module_aliases(tree):
    """Local names bound to package modules, mapped to the module name."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level > 0 and not node.module) or node.module == "bayesdecide":
                for a in node.names:
                    if a.name in MODULES:
                        aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("bayesdecide.") and a.asname:
                    aliases[a.asname] = a.name.split(".", 1)[1]
    return aliases


def private_reach_ins(source, own):
    """(line, text) of every use of another package module's private name."""
    tree = ast.parse(source)
    aliases = _module_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, own) != own):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            target = (node.module or "").rsplit(".", 1)[-1]
            from_pkg = node.level > 0 or (node.module or "").startswith("bayesdecide.")
            if from_pkg and target in MODULES and target != own:
                found.extend((node.lineno, f"{target}.{a.name}")
                             for a in node.names if _is_private(a.name))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_cross_module_private_access(module):
    source = (PKG_DIR / f"{module}.py").read_text()
    assert private_reach_ins(source, module) == []


@pytest.mark.parametrize("source", [
    "from . import engine\nengine._minimize(f, 0.0, False)\n",
    "from . import scenario as sc\nsc._require({}, 'k', 'w')\n",
    "from .engine import _bracket\n",
    "import bayesdecide.engine as E\nE._golden(f, 0, 1)\n",
])
def test_checker_flags_reach_ins(source):
    assert private_reach_ins(source, "bma")


def test_checker_allows_own_and_public_names():
    source = ("from . import engine\nengine.minimize(f, 0.0, False)\n"
              "def _own():\n    pass\n_own()\n")
    assert private_reach_ins(source, "bma") == []


def scipy_imports(source, package="scipy.special"):
    """(line, module) of every import of ``package`` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found.extend((node.lineno, n) for n in names
                     if n == package or n.startswith(package + "."))
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in PKG_DIR.glob("*.py")))
def test_only_the_lazy_module_imports_scipy_special(module):
    # importing scipy.special costs more than the rest of the package, and only
    # some decisions need it; ``_special`` imports it on first use
    found = scipy_imports((PKG_DIR / f"{module}.py").read_text())
    assert bool(found) == (module == "_special"), found


@pytest.mark.parametrize("source", [
    "from scipy.special import ndtr\n",
    "from scipy import special\n",
    "import scipy.special\n",
    "import scipy.special as sp\n",
    "def f():\n    from scipy.special._ufuncs import ndtr\n",
])
def test_scipy_special_checker_flags_imports(source):
    assert scipy_imports(source)


def test_scipy_special_checker_allows_other_imports():
    assert scipy_imports("import scipy\nfrom scipy import integrate\n"
                         "from . import _special\n") == []


@pytest.mark.parametrize("module", sorted(p.stem for p in PKG_DIR.glob("*.py")))
@pytest.mark.parametrize("package", ["scipy.integrate", "scipy.optimize"])
def test_no_module_imports_scipy_integrate_or_optimize(module, package):
    # the tanh-sinh rule in posteriors is the one integrator, and the search
    # in engine the one minimiser; a cold import of scipy.optimize cost 0.47 s
    assert scipy_imports((PKG_DIR / f"{module}.py").read_text(), package) == []


@pytest.mark.parametrize("source, package", [
    ("from scipy import integrate\n", "scipy.integrate"),
    ("def f():\n    from scipy.integrate import quad\n", "scipy.integrate"),
    ("import scipy.optimize as so\n", "scipy.optimize"),
    ("from scipy.optimize import brentq\n", "scipy.optimize"),
])
def test_scipy_checker_flags_each_package(source, package):
    assert scipy_imports(source, package)


# posteriors answers "is Y > 0 almost surely?" (``lower``, ``almost_surely_positive``)
# and owns each family's integrals, moments and tilts (``linear_loss``,
# ``log_moment``, ``tilt``); no other module tests for a parametric type
_PARAMETRIC_TYPES = {"GaussianPosterior", "GammaPosterior", "BetaPosterior"}


def parametric_type_tests(source):
    """(line, enclosing function or None) of every ``isinstance`` call whose
    class argument names GaussianPosterior, GammaPosterior or BetaPosterior."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and any(getattr(n, "id", getattr(n, "attr", None)) in _PARAMETRIC_TYPES
                      for n in ast.walk(node.args[1]))):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "posteriors"])
def test_parametric_type_tests_only_pick_closed_forms(module):
    assert parametric_type_tests((PKG_DIR / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("source, func", [
    ("def _check_domain(post):\n    return isinstance(post, GaussianPosterior)\n",
     "_check_domain"),
    ("def f(p):\n    return isinstance(p, (SamplePosterior, posteriors.GammaPosterior))\n", "f"),
    ("def f(p):\n    return isinstance(p, GaussianPosterior | GammaPosterior)\n", "f"),
    ("def f(ps):\n    return [0.0 if isinstance(p, GammaPosterior) else 1.0 for p in ps]\n",
     "f"),
    ("GAMMA = isinstance(POST, GammaPosterior)\n", None),
    ("def f(p):\n    return isinstance(p, BetaPosterior)\n", "f"),
])
def test_parametric_type_checker_flags_type_tests(source, func):
    assert [f for _, f in parametric_type_tests(source)] == [func]


def test_parametric_type_checker_allows_other_type_uses():
    source = ("def f(p):\n    return isinstance(p, SamplePosterior)\n"
              "TABLE = {(GaussianPosterior, 'SEL'): None}\n"
              "def g(p):\n    return p.lower > 0\n")
    assert parametric_type_tests(source) == []


# every name ``import bayesdecide`` exports, so that adding or removing one is
# a diff of this set
PUBLIC_NAMES = {
    "BetaPosterior", "CalibrationTarget", "CorrelationMatrix", "CostFunction",
    "DecisionTable", "DiscretePosterior", "DivergentMgfError", "EigenDecomposition",
    "EnsembleMember", "GammaPosterior", "GaussianPosterior", "GeneralizedGaussian",
    "JointModel", "LossFunction", "LossSpec", "ModelEnsemble", "ModelEvidence",
    "NumericError", "OptimalDecision", "Posterior", "SamplePosterior", "SolverPath",
    "TailRiskCurve", "ValidationError", "VectorPosterior", "Weight", "bayes_factor",
    "beta_bernoulli", "bma_predict", "bma_predict_general", "calibrate_linex",
    "calibrate_quantile", "choose_baf", "choose_epl", "compose", "default_eigen_weights",
    "eigenspace_decisions", "epl", "epl_multivariate", "estimate_correlation",
    "expected_joint_loss", "gaussian_known_variance", "linex_action_approx",
    "load_samples", "lower_envelope", "neg_posterior_variance", "optimal_sample_size",
    "optimize", "optimize_eigen", "optimize_functional", "posterior_models", "project",
    "spectral_decompose", "tail_risk_curve", "voi",
}


def test_public_names_are_pinned():
    # submodules are attributes of the package too, once imported: not exports
    exported = {name for name, value in vars(bayesdecide).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
