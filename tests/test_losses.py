import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdecide import GeneralizedGaussian, LossSpec, ValidationError, Weight, compose
from bayesdecide.losses import CustomPotentialDensity


def gam_definitional(alpha, nu, a, y):
    """GAM loss by its definition: the gamma log-density ratio
    log f(x0) - log f(x0 a/y) at the mode x0 = (nu - 1)/alpha.  The
    normalizing constant log Gamma(nu) - nu log alpha cancels in the
    difference, so only the kernel is written."""
    def log_kernel(x):
        return -alpha * x + (nu - 1.0) * np.log(x)

    x0 = (nu - 1.0) / alpha
    return log_kernel(x0) - log_kernel(x0 * (np.asarray(a, dtype=float) / y))


def pwd_exact(lam, a, y):
    """y phi_lam(a / y) in 50-digit arithmetic, as a float."""
    import mpmath

    with mpmath.workdps(50):
        lam, a, y = mpmath.mpf(lam), mpmath.mpf(a), mpmath.mpf(y)
        if lam == 0:
            return float(a * mpmath.log(a / y) + y - a)
        if lam == -1:
            return float(a - y - y * mpmath.log(a / y))
        return float((a * (a / y) ** lam - a + lam * (y - a)) / (lam * (lam + 1)))


class TestMtc:
    def test_squared_displacement(self):
        assert compose(LossSpec.mtc(2))(3, 1) == 4.0

    def test_absolute(self):
        assert compose(LossSpec.mtc(1))(-1, 1) == 2.0

    def test_root(self):
        assert compose(LossSpec.mtc(0.5))(5, 1) == pytest.approx(2.0)

    def test_zero_one_limit(self):
        for a, y in [(3.0, 1.0), (0.2, -5.0)]:
            assert compose(LossSpec.mtc(1e-6))(a, y) == pytest.approx(1.0, abs=1e-4)


class TestZeroOne:
    def test_match(self):
        assert compose(LossSpec.zero_one())(2, 2) == 0.0

    def test_mismatch(self):
        assert compose(LossSpec.zero_one())(2, 2.0001) == 1.0


class TestQtl:
    def test_underprediction(self):
        assert compose(LossSpec.qtl(0.97))(0, 1) == pytest.approx(0.97)

    def test_overprediction(self):
        assert compose(LossSpec.qtl(0.97))(1, 0) == pytest.approx(0.03)

    def test_median_case_is_half_absolute(self):
        for a, y in [(2, 5), (-1, 4), (3, 3), (7, -2)]:
            assert compose(LossSpec.qtl(0.5))(a, y) == 0.5 * compose(LossSpec.mtc(1))(a, y)


class TestLinex:
    def test_zero_at_truth(self):
        assert compose(LossSpec.linex(2.5))(4, 4) == 0.0

    def test_unit_displacement(self):
        assert compose(LossSpec.linex(1))(2, 1) == pytest.approx(math.e - 2)

    def test_small_psi_is_nearly_quadratic(self):
        got = compose(LossSpec.linex(0.01))(1, 0)
        assert got == pytest.approx(0.5 * 0.01 ** 2, rel=0.01)

    def test_overflow_reported(self):
        with pytest.raises(Exception, match="overflow"):
            compose(LossSpec.linex(10))(100, 0)


class TestPotential:
    def test_generalized_gaussian_reduces_to_power(self):
        assert compose(LossSpec.potential(GeneralizedGaussian(2)))(4, 1) == 9.0

    def test_zero_at_truth(self):
        assert compose(LossSpec.potential(GeneralizedGaussian(1.3)))(2, 2) == 0.0

    def test_matches_mtc_on_grid(self):
        grid = np.linspace(-5, 5, 41)
        for omega in (0.5, 1.0, 2.0, 3.7):
            spec = LossSpec.potential(GeneralizedGaussian(omega))
            assert spec == LossSpec.mtc(omega)
            np.testing.assert_array_equal(compose(spec)(grid, 0.0), np.abs(grid) ** omega)

    def test_unbounded_density_rejected(self):
        with pytest.raises(ValidationError):
            CustomPotentialDensity(lambda u: np.abs(u) + 1.0)

    def test_zero_density_at_the_mode_rejected(self):
        with pytest.raises(ValidationError, match=r"f\(0\) > 0"):
            CustomPotentialDensity(lambda u: np.zeros_like(u))


class TestPwd:
    def test_lambda_one_is_half_squared_ratio(self):
        # phi_1(r) = (r - 1)^2 / 2
        assert compose(LossSpec.pwd(1))(2, 1) == pytest.approx(0.5)

    def test_zero_at_truth(self):
        for lam in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0):
            assert compose(LossSpec.pwd(lam))(3.0, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_limit_at_zero(self):
        # phi_0(2) = r log r + 1 - r, exactly
        assert compose(LossSpec.pwd(0.0))(2, 1) == 2 * math.log(2) + 1 - 2
        assert compose(LossSpec.pwd(1e-8))(2, 1) == pytest.approx(pwd_exact(1e-8, 2, 1), rel=2e-13, abs=0)

    def test_limit_at_minus_one(self):
        # phi_-1(2) = r - 1 - log r, exactly
        assert compose(LossSpec.pwd(-1.0))(2, 1) == 2 - 1 - math.log(2)
        assert compose(LossSpec.pwd(-1 + 1e-8))(2, 1) == pytest.approx(pwd_exact(-1 + 1e-8, 2, 1),
                                                          rel=2e-13, abs=0)

    # from 1e-12 to 0.1 off both singularities, either side, just inside and
    # outside the 0.05 bands, and the ordinary r^lam form
    LAMS = sorted({s * 10.0 ** -k for k in range(1, 13) for s in (1, -1)}
                  | {-1.0 + s * 10.0 ** -k for k in range(1, 13) for s in (1, -1)}
                  | {0.0, 1.0, -1.0, 9.9e-7, 0.0499, 0.0501, -0.0499, -0.0501, -0.9501,
                     -0.9499, -1.0499, -1.0501, 0.45, 0.5, 0.55, -0.5, 2.0, -2.0, -3.0})

    @pytest.mark.parametrize("lam", LAMS)
    def test_matches_fifty_digits(self, lam):
        # |a - y| > 0.3 y: the cancellation in a - y (near a = y) is not this test's
        for a, y in ((2.0, 1.0), (0.5, 1.0), (3.7, 1.2), (1e-3, 5.0), (40.0, 0.3)):
            want = pwd_exact(lam, a, y)
            assert abs(compose(LossSpec.pwd(lam))(a, y) - want) <= 2e-13 * want, (a, y)

    def test_positive_quadrant_only(self):
        with pytest.raises(ValidationError):
            compose(LossSpec.pwd(1))(-1, 1)


class TestGam:
    def test_zero_at_truth(self):
        assert compose(LossSpec.gam(2.5, 4))(7, 7) == pytest.approx(0.0, abs=1e-12)

    def test_simplified_form(self):
        assert compose(LossSpec.gam(1, 2))(2, 1) == pytest.approx(1 - math.log(2))

    def test_alpha_invariance(self):
        a, y, nu = 3.0, 1.5, 4.0
        assert compose(LossSpec.gam(1.0, nu))(a, y) == compose(LossSpec.gam(7.0, nu))(a, y)

    def test_simplified_matches_definitional(self):
        grid = np.linspace(0.2, 8.0, 25)
        got = compose(LossSpec.gam(2.0, 3.0))(grid, 1.7)
        want = gam_definitional(2.0, 3.0, grid, 1.7)
        assert np.max(np.abs(got - want)) < 1e-10


class TestCompose:
    def test_weighted_identity_over_sel(self):
        loss = compose(LossSpec.weighted(Weight.power(1.0), LossSpec.sel()))
        assert loss(2, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("y", [-1.0, 0.0])
    def test_weighted_rejects_a_nonpositive_weight_where_evaluated(self, y):
        loss = compose(LossSpec.weighted(Weight.power(1), LossSpec.sel()))
        with pytest.raises(ValidationError, match="weight function must be finite and > 0"):
            loss(0.5, np.array([1.0, y]))

    def test_sum_sel_zero_one(self):
        loss = compose(LossSpec.sum_of(LossSpec.sel(), LossSpec.zero_one()))
        assert loss(3.0, 3.0) == 0.0
        eps = 1e-3
        assert loss(3.0 + eps, 3.0) == pytest.approx(eps ** 2 + 1.0)

    def test_product_of_pinballs(self):
        loss = compose(LossSpec.product_of(LossSpec.qtl(0.5), LossSpec.qtl(0.5)))
        assert loss(2.0, 0.0) == pytest.approx(1.0)

    def test_exp_minus_one_preserves_zero(self):
        loss = compose(LossSpec.exp_minus_one(LossSpec.sel()))
        assert loss(1.0, 1.0) == 0.0
        assert loss(2.0, 1.0) == pytest.approx(math.e - 1)

    def test_power(self):
        loss = compose(LossSpec.power_of(LossSpec.mtc(1), 3.0))
        assert loss(3.0, 1.0) == pytest.approx(8.0)

    def test_power_clamps_a_base_rounded_below_zero(self):
        # PWD is a difference of terms of size a, which rounds below 0 here
        a, y = 1.733759351509418, 1.7337593549769368
        assert compose(LossSpec.pwd(0.5))(a, y) < 0
        assert compose(LossSpec.power_of(LossSpec.pwd(0.5), 0.5))(a, y) == 0.0

    def test_weight_returns_its_values(self):
        y = np.array([0.25, 4.0])
        assert np.array_equal(Weight.power(0.5)(y), [0.5, 2.0])

    @pytest.mark.parametrize("weight, y", [
        (Weight.power(0.5), -1.0), (Weight.power(-1), 0.0), (Weight.exp(1.0), 1e3),
        (Weight.exp(-1.0), 1e3)], ids=["nan", "inf-at-zero", "overflow", "underflow"])
    def test_weight_refuses_a_value_that_is_not_finite_and_positive(self, weight, y):
        with pytest.raises(ValidationError, match="weight function must be finite and > 0"):
            weight(np.array([1.0, y]))

    @pytest.mark.parametrize("family,missing", [
        ("QTL", "'q'"), ("MTC", "'rho'"), ("LNX", "'psi'"), ("PWD", "'lam'"),
        ("GAM", "'alpha', 'nu'")])
    def test_leaf_missing_parameter_rejected(self, family, missing):
        with pytest.raises(ValidationError, match=f"{family} loss is missing "
                                                  f"parameter {missing}"):
            LossSpec(family=family)

    def test_empty_composition_rejected(self):
        with pytest.raises(ValidationError):
            LossSpec(compose="sum", components=())

    def test_metadata_conservative(self):
        assert compose(LossSpec.sel()).differentiable
        assert not compose(LossSpec.sum_of(LossSpec.sel(), LossSpec.zero_one())).differentiable
        assert compose(LossSpec.sum_of(LossSpec.sel(), LossSpec.linex(1))).differentiable
        assert compose(LossSpec.gam(1, 2)).positive_domain
        sum_with_gam = LossSpec.sum_of(LossSpec.sel(), LossSpec.gam(1, 2))
        assert compose(sum_with_gam).positive_domain


# ---------------------------------------------------------------------------
# property suite

_DISPLACEMENT_SPECS = [
    LossSpec.sel(),
    LossSpec.mtc(1),
    LossSpec.mtc(0.7),
    LossSpec.zero_one(),
    LossSpec.qtl(0.25),
    LossSpec.qtl(0.97),
    LossSpec.linex(-2),
    LossSpec.linex(0.5),
    LossSpec.potential(GeneralizedGaussian(1.5)),
]
_RATIO_SPECS = [
    LossSpec.pwd(-2.0),
    LossSpec.pwd(0.0),
    LossSpec.pwd(1.0),
    LossSpec.gam(1.0, 3.0),
]


@pytest.mark.parametrize("spec", _DISPLACEMENT_SPECS)
def test_nonnegative_and_zero_at_truth(spec):
    loss = compose(spec)
    rng = np.random.default_rng(1)
    a = rng.uniform(-20, 20, size=500)
    y = rng.uniform(-20, 20, size=500)
    assert np.all(loss(a, y) >= 0)
    assert np.all(np.abs(loss(y, y)) == 0)


@pytest.mark.parametrize("spec", _RATIO_SPECS)
def test_nonnegative_and_zero_at_truth_positive_quadrant(spec):
    loss = compose(spec)
    rng = np.random.default_rng(2)
    a = rng.uniform(0.05, 20, size=500)
    y = rng.uniform(0.05, 20, size=500)
    assert np.all(loss(a, y) >= -1e-14)
    assert np.max(np.abs(loss(y, y))) < 1e-12


@given(st.floats(0.51, 0.99), st.floats(0.01, 10), st.floats(-5, 5))
@settings(max_examples=200, deadline=None)
def test_qtl_asymmetry_underprediction_costs_more(q, d, y):
    assert compose(LossSpec.qtl(q))(y - d, y) > compose(LossSpec.qtl(q))(y + d, y)


@given(st.floats(-4, -0.01), st.floats(0.01, 10), st.floats(-5, 5))
@settings(max_examples=200, deadline=None)
def test_linex_asymmetry_for_negative_psi(psi, d, y):
    assert compose(LossSpec.linex(psi))(y - d, y) > compose(LossSpec.linex(psi))(y + d, y)


@given(st.floats(-3, -0.2), st.floats(1, 10), st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_pwd_asymmetry_for_negative_lambda(lam, y, frac):
    d = frac * y
    assert compose(LossSpec.pwd(lam))(y - d, y) > compose(LossSpec.pwd(lam))(y + d, y)


# ---------------------------------------------------------------------------
# specs are checked when built

NAN, INF = float("nan"), float("inf")
_GOOD = {"MTC": {"rho": 1.5}, "QTL": {"q": 0.5}, "LNX": {"psi": 1.0},
         "PWD": {"lam": 0.5}, "GAM": {"alpha": 1.0, "nu": 2.0}}
_BAD = {"rho": (0.0, -1.0, NAN, INF), "q": (0.0, 1.0, -0.5, 1.5, NAN, INF),
        "psi": (0.0, NAN, INF, -INF), "lam": (NAN, INF, -INF),
        "alpha": (0.0, -1.0, NAN, INF), "nu": (1.0, 0.5, NAN, INF)}
_OUT_OF_RANGE = [(family, name, value) for family, good in _GOOD.items()
                 for name in good for value in _BAD[name]]


@pytest.mark.parametrize("family, name, value", _OUT_OF_RANGE)
def test_out_of_range_parameter_rejected_when_built(family, name, value):
    params = dict(_GOOD[family], **{name: value})
    with pytest.raises(ValidationError, match=f"{name} must"):
        LossSpec(family=family, params=params)


@pytest.mark.parametrize("p", [0.0, -1.0, NAN, INF])
def test_out_of_range_power_rejected_when_built(p):
    with pytest.raises(ValidationError, match="p must be > 0"):
        LossSpec(compose="power", components=(LossSpec.sel(),), params={"p": p})
    with pytest.raises(ValidationError, match="p must be > 0"):
        LossSpec.power_of(LossSpec.sel(), p)


@pytest.mark.parametrize("omega", [0.0, -1.0, NAN, INF])
def test_out_of_range_omega_rejected(omega):
    with pytest.raises(ValidationError, match="omega must be > 0"):
        GeneralizedGaussian(omega)


def test_power_without_exponent_rejected_when_built():
    with pytest.raises(ValidationError, match="power loss is missing parameter 'p'"):
        LossSpec(compose="power", components=(LossSpec.sel(),))


@pytest.mark.parametrize("kind, params", [
    ("weighted", {"weight": Weight.power(1.0)}), ("power", {"p": 2.0}),
    ("exp_minus_one", {})])
def test_single_base_compositions_take_exactly_one_component(kind, params):
    # a second part used to be ignored, yet its GAM still demanded y > 0
    parts = (LossSpec.sel(), LossSpec.gam(1, 2))
    with pytest.raises(ValidationError, match=r"takes 1 component\(s\), got 2"):
        LossSpec(compose=kind, components=parts, params=params)
    with pytest.raises(ValidationError, match="got 0"):
        LossSpec(compose=kind, components=(), params=params)


@pytest.mark.parametrize("kwargs", [{}, {"family": "SEL", "compose": "sum"}])
def test_spec_sets_exactly_one_of_family_and_compose(kwargs):
    with pytest.raises(ValidationError, match="exactly one of family / compose"):
        LossSpec(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"family": "SEL", "params": {"q": 0.5}}, "SEL loss takes no parameter 'q'"),
    ({"family": "SEL", "components": (LossSpec.sel(),)}, "SEL loss takes 0 component"),
    ({"compose": "sum", "components": (LossSpec.sel(),), "params": {"p": 2.0}},
     "sum loss takes no parameter 'p'"),
    ({"compose": "weighted", "components": (LossSpec.sel(),)}, "missing parameter 'weight'"),
    ({"compose": "weighted", "components": (LossSpec.sel(),), "params": {"weight": len}},
     "weight must be a Weight"),
    ({"family": "PTL"}, "PTL loss is missing parameter 'density'"),
    ({"family": "PTL", "params": {"density": None}}, "density must be a potential density"),
    ({"compose": "max", "components": (LossSpec.sel(),)}, "unknown composition 'max'"),
    # its potential loss is MTC(omega), which LossSpec.potential builds
    ({"family": "PTL", "params": {"density": GeneralizedGaussian(1.5)}},
     r"density must be a potential density \(PTL of a generalized Gaussian is MTC\(omega\)\)"),
])
def test_malformed_spec_rejected_when_built(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        LossSpec(**kwargs)


def test_spec_params_reject_in_place_writes():
    # a write after the check used to reach the evaluator: p = -1 gave EPL -0.996
    spec = LossSpec.power_of(LossSpec.sel(), 2.0)
    given_params = {"q": 0.3}
    leaf = LossSpec(family="QTL", params=given_params)
    with pytest.raises(TypeError):
        spec.params["p"] = -1.0
    with pytest.raises(TypeError):
        del leaf.params["q"]
    given_params["q"] = 5.0  # the spec keeps its own copy
    assert spec.params["p"] == 2.0 and leaf.params["q"] == 0.3


@pytest.mark.parametrize("spec", [
    LossSpec.qtl(0.3),
    LossSpec.sum_of(LossSpec.qtl(0.7), LossSpec.power_of(LossSpec.mtc(1), 1.5),
                    LossSpec.potential(GeneralizedGaussian(1.5))),
])
@pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_spec_round_trips_through_pickle_and_deepcopy(spec, clone):
    twin = clone(spec)
    assert twin == spec and twin is not spec
    with pytest.raises(TypeError):
        twin.params["x"] = 1.0
    y = np.linspace(-2.0, 3.0, 11)
    np.testing.assert_array_equal(compose(twin)(0.4, y), compose(spec)(0.4, y))


def test_weight_kind_comes_only_from_its_constructors():
    # a stated kind that fn does not have would tilt the posterior wrongly
    with pytest.raises(TypeError):
        Weight(np.exp, kind="power", param=2.0)
    assert (Weight.power(2.0).kind, Weight.power(2.0).param) == ("power", 2.0)
    assert (Weight.exp(-0.5).kind, Weight.exp(-0.5).param) == ("exp", -0.5)
    bare = Weight(np.exp)
    assert (bare.kind, bare.param) == (None, None)


def test_custom_density_spec_composes():
    density = CustomPotentialDensity(lambda u: np.exp(-np.asarray(u) ** 2))
    loss = compose(LossSpec.potential(density))
    assert loss(3.0, 1.0) == pytest.approx(4.0)
    assert not loss.differentiable
