"""Loss families and their composition algebra.

Families
--------
- ``MTC(rho)``      |a - y|^rho, rho > 0 (rho=2 is squared error, rho=1 absolute)
- ``SEL``           alias for MTC(2)
- ``ZERO_ONE``      I(a != y), the rho -> 0+ limit of MTC
- ``QTL(q)``        (a - y)(I(a - y > 0) - q), pinball loss, q in (0, 1)
- ``LNX(psi)``      exp{psi(a - y)} - psi(a - y) - 1, psi != 0
- ``PTL(density)``  potential loss of a bounded density; the generalized
                    Gaussian member equals |a - y|^omega exactly
- ``PWD(lam)``      y * phi_lam(a / y), ratio-based power-divergence, a, y > 0
- ``GAM(alpha,nu)`` (nu - 1)[(a/y) - 1 - log(a/y)], ratio-based, a, y > 0

Compositions: weighted(weight), sum, product, power(p), exp_minus_one.
A composed loss is marked differentiable only when every part is.

Each row also says whether L(a, y) is convex in a for every y, which
makes every expected posterior loss convex in a and so lets the
minimizer interpolate (``LossFunction.convex``).  Convex: SEL, MTC(rho
>= 1), QTL, LNX, PWD, GAM and PTL of a generalized Gaussian with omega
>= 1; and weighted, sum, product, exp_minus_one and power(p >= 1) of
convex parts.  Not convex: MTC(rho < 1), ZERO_ONE, a custom potential
density, power(p < 1).

Two tables, ``_FAMILIES`` and ``_COMPOSITIONS``, give each family and
composition one row: parameter names, evaluator and metadata.  ``_RANGES``
states each parameter's range once.  A ``LossSpec`` is checked against its
row when it is built, so ``compose`` only looks rows up.

Evaluators are vectorized over y so expected-loss sums over large sample
clouds stay cheap.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from . import _special
from .errors import NumericError, ValidationError

EXP_LIMIT = 700.0  # beyond this exp() overflows a double

# Within this distance of a removable singularity of (lam * (lam + 1))^-1,
# eval_pwd divides it out exactly through exprel.
_PWD_EXPREL_BAND = 0.05

# parameter name -> (test, rule text): each parameter's range, stated once
_RANGES = {
    "rho": (lambda v: math.isfinite(v) and v > 0, "be > 0"),
    "q": (lambda v: math.isfinite(v) and 0.0 < v < 1.0, "lie in (0, 1)"),
    "psi": (lambda v: math.isfinite(v) and v != 0, "be finite and nonzero"),
    "lam": (math.isfinite, "be finite"),
    "alpha": (lambda v: math.isfinite(v) and v > 0, "be > 0"),
    "nu": (lambda v: math.isfinite(v) and v > 1, "be > 1"),
    "omega": (lambda v: math.isfinite(v) and v > 0, "be > 0"),
    "p": (lambda v: math.isfinite(v) and v > 0, "be > 0"),
    "density": (lambda d: callable(getattr(d, "neg_log_ratio", None)),
                "be a potential density"),
    "weight": (lambda w: isinstance(w, Weight), "be a Weight"),
}


def _check(**values):
    """Raise ValidationError unless each named parameter lies in its range."""
    for name, value in values.items():
        test, rule = _RANGES[name]
        if not test(value):
            raise ValidationError(f"{name} must {rule}, got {value!r}")


def _ratio(family, a, y):
    """(a, y, a / y) as float arrays; the ratio families need a > 0 and y > 0."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(a <= 0) or np.any(y <= 0):
        raise ValidationError(f"{family} loss requires a > 0 and y > 0")
    return a, y, a / y


# ---------------------------------------------------------------------------
# leaf evaluators


def eval_mtc(rho, a, y):
    """|a - y|^rho."""
    _check(rho=rho)
    return np.abs(np.asarray(a) - y) ** rho


def eval_zero_one(a, y):
    """I(a != y)."""
    return (np.asarray(a) != np.asarray(y)).astype(float)


def eval_qtl(q, a, y):
    """(a - y)(I(a - y > 0) - q): the pinball loss."""
    _check(q=q)
    d = np.asarray(a, dtype=float) - y
    return d * ((d > 0).astype(float) - q)


def eval_linex(psi, a, y):
    """exp{psi(a - y)} - psi(a - y) - 1."""
    _check(psi=psi)
    u = psi * (np.asarray(a, dtype=float) - y)
    if np.max(u, initial=-np.inf) > EXP_LIMIT:
        raise NumericError(
            f"LINEX overflow: psi*(a - y) = {float(np.max(u))} exceeds the "
            f"representable exponent range"
        )
    return np.exp(u) - u - 1.0


@dataclass(frozen=True)
class GeneralizedGaussian:
    """Bounded density f(u; omega) proportional to exp{-|u|^omega}."""

    omega: float

    def __post_init__(self):
        _check(omega=self.omega)

    def neg_log_ratio(self, u):
        # -log f(u) + log f(0) collapses to |u|^omega exactly
        return np.abs(u) ** self.omega


@dataclass(frozen=True)
class CustomPotentialDensity:
    """A user-supplied bounded density for potential losses.

    The mode-at-zero requirement f(u) <= f(0) is spot-checked at
    construction on 401 points over [-20, 20].
    """

    pdf: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        f0 = float(self.pdf(np.zeros(1))[0])
        if f0 <= 0:
            raise ValidationError("potential density must satisfy f(0) > 0")
        if np.any(np.asarray(self.pdf(np.linspace(-20.0, 20.0, 401))) > f0 * (1 + 1e-12)):
            raise ValidationError("potential density must satisfy f(u) <= f(0)")

    def neg_log_ratio(self, u):
        f0 = float(self.pdf(np.zeros(1))[0])
        return np.log(f0) - np.log(np.asarray(self.pdf(np.asarray(u, dtype=float))))


def eval_potential(density, a, y):
    """-log f(a - y) + log f(0) for a bounded, mode-at-zero density."""
    return density.neg_log_ratio(np.asarray(a, dtype=float) - y)


def eval_pwd(lam, a, y):
    """y * phi_lam(a / y): ratio-based power-divergence loss, a, y > 0.

    With r = a/y and phi_lam(r) = (r^(lam+1) - r + lam(1 - r)) / (lam(lam + 1)),
    y * phi_lam(r) is evaluated as (a r^lam - a + lam(y - a)) / (lam(lam + 1)),
    which never forms r^(lam+1): that power overflows for a draw near 0
    while the term itself is representable.  Its limits are a log r + y - a
    at lam = 0 and a - y - y log r at lam = -1; within 0.05 of either,
    exprel(x) = (e^x - 1)/x keeps the term exact.
    """
    _check(lam=lam)
    a, y, r = _ratio("PWD", a, y)
    if lam == 0.0:
        return a * np.log(r) + y - a
    if lam == -1.0:
        return a - y - y * np.log(r)
    if abs(lam) < _PWD_EXPREL_BAND:
        log_r = np.log(r)
        return (a * log_r * _special.exprel(lam * log_r) + y - a) / (lam + 1.0)
    if abs(lam + 1.0) < _PWD_EXPREL_BAND:
        log_r = np.log(r)
        return (a - y - y * log_r * _special.exprel((lam + 1.0) * log_r)) / -lam
    c = 1.0 / (lam * (lam + 1.0))
    return c * ((a * r ** lam - a) + lam * (y - a))


def eval_gam(alpha, nu, a, y):
    """(nu - 1)[(a/y) - 1 - log(a/y)], independent of alpha.

    The simplified closed form of the definition, log f(x0) - log f(x0 a/y)
    for the Gamma(nu, alpha) density f and its mode x0 = (nu - 1)/alpha;
    the tests check one against the other.
    """
    _check(alpha=alpha, nu=nu)
    *_, r = _ratio("GAM", a, y)
    return (nu - 1.0) * (r - 1.0 - np.log(r))


def _weighted(parts, weight, a, y):
    """w(y) * L(a, y) for a weight function that must be finite and > 0."""
    return weight(y) * parts[0](a, y)


# ---------------------------------------------------------------------------
# the two tables

_Family = namedtuple("_Family", "params evaluate differentiable convex positive_domain")
_Composition = namedtuple("_Composition", "count params evaluate differentiable convex")
_ALWAYS, _NEVER = (lambda prm: True), (lambda prm: False)


def _gg_omega(prm):
    """omega of a generalized Gaussian potential density, 0 for any other."""
    d = prm["density"]
    return d.omega if isinstance(d, GeneralizedGaussian) else 0.0


# family -> (parameter names in evaluator order, evaluate(*params, a, y),
#            differentiable(params), convex(params) in a for every y,
#            positive_domain)
_FAMILIES = {
    "MTC": _Family(("rho",), eval_mtc, lambda prm: prm["rho"] > 1,
                   lambda prm: prm["rho"] >= 1, False),
    "SEL": _Family((), functools.partial(eval_mtc, 2.0), _ALWAYS, _ALWAYS, False),
    "ZERO_ONE": _Family((), eval_zero_one, _NEVER, _NEVER, False),
    "QTL": _Family(("q",), eval_qtl, _NEVER, _ALWAYS, False),
    "LNX": _Family(("psi",), eval_linex, _ALWAYS, _ALWAYS, False),
    "PTL": _Family(("density",), eval_potential,
                   lambda prm: _gg_omega(prm) > 1, lambda prm: _gg_omega(prm) >= 1, False),
    # y phi_lam(a / y) has second derivative (a / y)^(lam - 1) / y > 0 in a
    "PWD": _Family(("lam",), eval_pwd, _ALWAYS, _ALWAYS, True),
    # (nu - 1) / a^2 > 0, as nu > 1
    "GAM": _Family(("alpha", "nu"), eval_gam, _ALWAYS, _ALWAYS, True),
}

# composition -> (component count, None for one or more; parameter names;
#                 evaluate(parts, *params, a, y); differentiable(params) and
#                 convex(params), each when every part is).  Every convex leaf
# is >= 0, is 0 at a = y and is monotone on each side of y, and so is every
# convex composition; so on each side of y two parts f, g have f'g' >= 0, and
# their product (fg)'' = f''g + 2f'g' + fg'' >= 0 stays convex
_COMPOSITIONS = {
    "weighted": _Composition(1, ("weight",), _weighted, _ALWAYS, _ALWAYS),
    "sum": _Composition(None, (), lambda parts, a, y: sum(p(a, y) for p in parts),
                        _ALWAYS, _ALWAYS),
    "product": _Composition(None, (), lambda parts, a, y: functools.reduce(
        operator.mul, (p(a, y) for p in parts)), _ALWAYS, _ALWAYS),
    # (L)^p with p < 1 has an unbounded derivative where L = 0, and is
    # concave on each side of y when L is linear there.  A loss is >= 0, but
    # PWD rounds to about -eps * a near a = y, and a fractional power of that
    # is NaN, so the base is clamped at 0
    "power": _Composition(1, ("p",),
                          lambda parts, p, a, y: np.maximum(parts[0](a, y), 0.0) ** p,
                          lambda prm: prm["p"] >= 1, lambda prm: prm["p"] >= 1),
    "exp_minus_one": _Composition(1, (), lambda parts, a, y: np.expm1(parts[0](a, y)),
                                  _ALWAYS, _ALWAYS),
}


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class Weight:
    """A positive weight function of y.

    The constructors ``power(p)`` and ``exp(c)`` also record the weight's
    ``kind``, "power" or "exp", and its exact parameter ``param``.  The
    engine reads these: w(y) = y (``power(1.0)``) gives weighted GAM the
    posterior mean as its optimum, and on a Gaussian, Gamma or Beta
    posterior a weighted loss is solved as its base loss on the tilted
    posterior w(y) p(y | z) / E w(Y).  A weight built from a bare callable
    has neither, and its weighted loss is integrated as it stands.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    kind: Optional[str] = None
    param: Optional[float] = None

    def __call__(self, y):
        """w(y) as a float array; ValidationError unless every value is finite and > 0."""
        with np.errstate(all="ignore"):
            wy = np.asarray(self.fn(np.asarray(y, dtype=float)), dtype=float)
        # a NaN makes min and max NaN, which fails both tests
        if not (wy.min(initial=math.inf) > 0.0 and wy.max(initial=0.0) < math.inf):
            raise ValidationError("loss weight function must be finite and > 0")
        return wy

    @staticmethod
    def power(p):
        return Weight(lambda y: np.asarray(y, dtype=float) ** p, kind="power", param=p)

    @staticmethod
    def exp(c):
        return Weight(lambda y: np.exp(c * np.asarray(y, dtype=float)), kind="exp", param=c)


@dataclass(frozen=True)
class LossSpec:
    """Declarative description of a loss: a family leaf or a composition.

    Built only when ``params`` holds exactly its row's parameters, each in
    range, and ``components`` has the row's count (none for a family).
    ``params`` is stored as a read-only copy, so a checked spec stays
    checked; pickling and ``copy.deepcopy`` rebuild it from a plain dict.
    """

    family: Optional[str] = None
    params: Mapping = field(default_factory=dict)
    compose: Optional[str] = None
    components: tuple = ()

    def __post_init__(self):
        if (self.family is None) == (self.compose is None):
            raise ValidationError("spec must set exactly one of family / compose")
        leaf = self.family is not None
        kind = self.family if leaf else self.compose
        row = (_FAMILIES if leaf else _COMPOSITIONS).get(kind)
        if row is None:
            what = "loss family" if leaf else "composition"
            raise ValidationError(f"unknown {what} {kind!r}")
        for fault, names in (("is missing", [k for k in row.params if k not in self.params]),
                             ("takes no", [k for k in self.params if k not in row.params])):
            if names:
                raise ValidationError(f"{kind} loss {fault} parameter "
                                      + ", ".join(repr(k) for k in names))
        _check(**self.params)
        want = 0 if leaf else row.count  # None: one or more
        n = len(self.components)
        if (n == 0) if want is None else (n != want):
            want = "one or more" if want is None else want
            raise ValidationError(f"{kind} loss takes {want} component(s), got {n}")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def __reduce__(self):
        return LossSpec, (self.family, dict(self.params), self.compose, self.components)

    # convenience constructors ------------------------------------------------

    @staticmethod
    def sel():
        return LossSpec(family="SEL")

    @staticmethod
    def mtc(rho):
        return LossSpec(family="MTC", params={"rho": float(rho)})

    @staticmethod
    def zero_one():
        return LossSpec(family="ZERO_ONE")

    @staticmethod
    def qtl(q):
        return LossSpec(family="QTL", params={"q": float(q)})

    @staticmethod
    def linex(psi):
        return LossSpec(family="LNX", params={"psi": float(psi)})

    @staticmethod
    def potential(density):
        return LossSpec(family="PTL", params={"density": density})

    @staticmethod
    def pwd(lam):
        return LossSpec(family="PWD", params={"lam": float(lam)})

    @staticmethod
    def gam(alpha, nu):
        return LossSpec(family="GAM", params={"alpha": float(alpha), "nu": float(nu)})

    @staticmethod
    def weighted(weight, base):
        return LossSpec(compose="weighted", components=(base,), params={"weight": weight})

    @staticmethod
    def sum_of(*parts):
        return LossSpec(compose="sum", components=tuple(parts))

    @staticmethod
    def product_of(*parts):
        return LossSpec(compose="product", components=tuple(parts))

    @staticmethod
    def power_of(base, p):
        return LossSpec(compose="power", components=(base,), params={"p": float(p)})

    @staticmethod
    def exp_minus_one(base):
        # exp{L} - 1, not exp{L}: preserves zero loss at a = y
        return LossSpec(compose="exp_minus_one", components=(base,))


@dataclass(frozen=True)
class LossFunction:
    """Evaluator for a LossSpec with conservatively derived metadata."""

    spec: LossSpec
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    differentiable: bool
    positive_domain: bool
    # L(., y) is convex for every y, so every EPL is convex in a
    convex: bool = False
    parts: tuple = ()  # a composition's composed components; () for a family

    def __post_init__(self):
        if len(self.parts) != len(self.spec.components):  # _epl sums or tilts these
            raise ValidationError(f"LossFunction needs one composed part per component of "
                                  f"its spec: {len(self.spec.components)}, got {len(self.parts)}")

    def __call__(self, a, y):
        return self.evaluate(a, y)


def compose(spec):
    """Build a ``LossFunction`` from a ``LossSpec`` through its table row."""
    if isinstance(spec, LossFunction):
        return spec
    prm = spec.params
    if spec.family is not None:
        row = _FAMILIES[spec.family]
        evaluate = functools.partial(row.evaluate, *(prm[k] for k in row.params))
        return LossFunction(spec, evaluate, row.differentiable(prm), row.positive_domain,
                            row.convex(prm))
    row = _COMPOSITIONS[spec.compose]
    parts = tuple(compose(c) for c in spec.components)
    evaluate = functools.partial(row.evaluate, parts, *(prm[k] for k in row.params))
    return LossFunction(spec, evaluate,
                        row.differentiable(prm) and all(p.differentiable for p in parts),
                        any(p.positive_domain for p in parts),
                        row.convex(prm) and all(p.convex for p in parts), parts)
