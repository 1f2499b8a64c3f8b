"""Loss families and their composition algebra.

Families
--------
- ``MTC(rho)``      |a - y|^rho, rho > 0 (rho=2 is squared error, rho=1 absolute)
- ``SEL``           alias for MTC(2)
- ``ZERO_ONE``      I(a != y), the rho -> 0+ limit of MTC
- ``QTL(q)``        (a - y)(I(a - y > 0) - q), pinball loss, q in (0, 1)
- ``LNX(psi)``      exp{psi(a - y)} - psi(a - y) - 1, psi != 0
- ``PTL(density)``  -log f(a - y) + log f(0) for a custom bounded density f;
                    ``LossSpec.potential`` of a generalized Gaussian,
                    f(u) ~ exp{-|u|^omega}, gives the same loss, MTC(omega)
- ``PWD(lam)``      y * phi_lam(a / y), ratio-based power-divergence, a, y > 0
- ``GAM(alpha,nu)`` (nu - 1)[(a/y) - 1 - log(a/y)], ratio-based, a, y > 0

Compositions: weighted(weight), sum, product, power(p), exp_minus_one.
Only ``Weight.power`` and ``Weight.exp`` give a weight a kind (a tilt).
A composed loss is marked differentiable only when every part is.

Each row also says whether L(a, y) is convex in a for every y, which
makes every expected posterior loss convex in a and so lets the
minimizer interpolate (``LossSpec.convex``).  Convex: SEL, MTC(rho
>= 1), QTL, LNX, PWD and GAM; and weighted, sum, product, exp_minus_one
and power(p >= 1) of convex parts.  Not convex: MTC(rho < 1), ZERO_ONE,
PTL, power(p < 1).

Each row also says whether L(a, y) is radial, phi(|a - y|) with phi
nondecreasing (``LossSpec.radial``): under such a loss the Bayes
action on a symmetric unimodal posterior is its centre (Anderson 1955).
Radial: MTC, SEL, ZERO_ONE, and sums, products, powers and exp_minus_one
of radial parts; not QTL, LNX, PTL, PWD, GAM or any weighted loss.

Two tables, ``_FAMILIES`` and ``_COMPOSITIONS``, give each family and
composition one row: parameter names, evaluator and metadata.  ``_RANGES``
states each parameter's range once.  A ``LossSpec`` is checked against its
row and compiled when it is built: it holds its row's evaluator and tags, so
the private row evaluators check nothing again, ``spec(a, y)`` evaluates a
loss, and ``compose(spec)``, every decision's entry check, returns the spec.

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
# _pwd divides it out exactly through exprel.
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
                "be a potential density (PTL of a generalized Gaussian is MTC(omega))"),
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


def _mtc(rho, a, y):
    """|a - y|^rho."""
    return np.abs(np.asarray(a) - y) ** rho


def _zero_one(a, y):
    """I(a != y)."""
    return (np.asarray(a) != np.asarray(y)).astype(float)


def _qtl(q, a, y):
    """(a - y)(I(a - y > 0) - q): the pinball loss."""
    d = np.asarray(a, dtype=float) - y
    return d * ((d > 0).astype(float) - q)


def _linex(psi, a, y):
    """exp{psi(a - y)} - psi(a - y) - 1."""
    u = psi * (np.asarray(a, dtype=float) - y)
    if np.max(u, initial=-np.inf) > EXP_LIMIT:
        raise NumericError(
            f"LINEX overflow: psi*(a - y) = {float(np.max(u))} exceeds the "
            f"representable exponent range"
        )
    return np.exp(u) - u - 1.0


@dataclass(frozen=True)
class GeneralizedGaussian:
    """Bounded density f(u; omega) ~ exp{-|u|^omega}, whose potential loss is
    |a - y|^omega: ``LossSpec.potential`` of it is ``LossSpec.mtc(omega)``."""

    omega: float

    def __post_init__(self):
        _check(omega=self.omega)


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


def _potential(density, a, y):
    """-log f(a - y) + log f(0) for a bounded, mode-at-zero density."""
    return density.neg_log_ratio(np.asarray(a, dtype=float) - y)


def _pwd(lam, a, y):
    """y * phi_lam(a / y): ratio-based power-divergence loss, a, y > 0.

    With r = a/y and phi_lam(r) = (r^(lam+1) - r + lam(1 - r)) / (lam(lam + 1)),
    y * phi_lam(r) is evaluated as (a r^lam - a + lam(y - a)) / (lam(lam + 1)),
    which never forms r^(lam+1): that power overflows for a draw near 0
    while the term itself is representable.  Its limits are a log r + y - a
    at lam = 0 and a - y - y log r at lam = -1; within 0.05 of either,
    exprel(x) = (e^x - 1)/x keeps the term exact.
    """
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


def _gam(alpha, nu, a, y):
    """(nu - 1)[(a/y) - 1 - log(a/y)], independent of alpha.

    The simplified closed form of the definition, log f(x0) - log f(x0 a/y)
    for the Gamma(nu, alpha) density f and its mode x0 = (nu - 1)/alpha;
    the tests check one against the other.
    """
    *_, r = _ratio("GAM", a, y)
    return (nu - 1.0) * (r - 1.0 - np.log(r))


def _weighted(parts, weight, a, y):
    """w(y) * L(a, y) for a weight function that must be finite and > 0."""
    return weight(y) * parts[0](a, y)


# ---------------------------------------------------------------------------
# the two tables

_Family = namedtuple("_Family",
                     "params evaluate differentiable convex positive_domain radial")
_Composition = namedtuple("_Composition", "count params evaluate differentiable convex radial")
_ALWAYS, _NEVER = (lambda prm: True), (lambda prm: False)

# family -> (parameter names in evaluator order, evaluate(*params, a, y),
#            differentiable(params), convex(params) in a for every y,
#            positive_domain, radial(params))
_FAMILIES = {
    "MTC": _Family(("rho",), _mtc, lambda prm: prm["rho"] > 1,
                   lambda prm: prm["rho"] >= 1, False, _ALWAYS),
    "SEL": _Family((), functools.partial(_mtc, 2.0), _ALWAYS, _ALWAYS, False, _ALWAYS),
    "ZERO_ONE": _Family((), _zero_one, _NEVER, _NEVER, False, _ALWAYS),
    "QTL": _Family(("q",), _qtl, _NEVER, _ALWAYS, False, _NEVER),
    "LNX": _Family(("psi",), _linex, _ALWAYS, _ALWAYS, False, _NEVER),
    # a custom density only (the generalized Gaussian one is MTC), which need
    # not be smooth, symmetric or decreasing in |u|
    "PTL": _Family(("density",), _potential, _NEVER, _NEVER, False, _NEVER),
    # y phi_lam(a / y) has second derivative (a / y)^(lam - 1) / y > 0 in a
    "PWD": _Family(("lam",), _pwd, _ALWAYS, _ALWAYS, True, _NEVER),
    # (nu - 1) / a^2 > 0, as nu > 1
    "GAM": _Family(("alpha", "nu"), _gam, _ALWAYS, _ALWAYS, True, _NEVER),
}

# composition -> (component count, None for one or more; parameter names;
#                 evaluate(parts, *params, a, y); differentiable(params) and
#                 convex(params), each when every part is).  Every convex leaf
# is >= 0, is 0 at a = y and is monotone on each side of y, and so is every
# convex composition; so on each side of y two parts f, g have f'g' >= 0, and
# their product (fg)'' = f''g + 2f'g' + fg'' >= 0 stays convex.  Sums,
# products, powers and expm1 of nonnegative nondecreasing phi(|a - y|) are
# too, so they keep radial parts radial; a weight w(y) does not
_COMPOSITIONS = {
    "weighted": _Composition(1, ("weight",), _weighted, _ALWAYS, _ALWAYS, _NEVER),
    "sum": _Composition(None, (), lambda parts, a, y: sum(p(a, y) for p in parts),
                        _ALWAYS, _ALWAYS, _ALWAYS),
    "product": _Composition(None, (), lambda parts, a, y: functools.reduce(
        operator.mul, (p(a, y) for p in parts)), _ALWAYS, _ALWAYS, _ALWAYS),
    # (L)^p with p < 1 has an unbounded derivative where L = 0, and is
    # concave on each side of y when L is linear there.  A loss is >= 0, but
    # PWD rounds to about -eps * a near a = y, and a fractional power of that
    # is NaN, so the base is clamped at 0
    "power": _Composition(1, ("p",),
                          lambda parts, p, a, y: np.maximum(parts[0](a, y), 0.0) ** p,
                          lambda prm: prm["p"] >= 1, lambda prm: prm["p"] >= 1, _ALWAYS),
    "exp_minus_one": _Composition(1, (), lambda parts, a, y: np.expm1(parts[0](a, y)),
                                  _ALWAYS, _ALWAYS, _ALWAYS),
}


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class Weight:
    """A positive weight function of y.

    Only the constructors ``power(p)`` and ``exp(c)`` give a weight a
    ``kind``, "power" or "exp", and its exact parameter ``param``, so a
    kind always matches its ``fn``.  The engine reads these: w(y) = y
    (``power(1.0)``) gives weighted GAM the posterior mean as its optimum,
    and on a Gaussian, Gamma or Beta posterior a weighted loss is solved as
    its base loss on the tilted posterior w(y) p(y | z) / E w(Y).  A weight
    built from a bare callable, ``Weight(fn)``, has neither, and its
    weighted loss is integrated as it stands.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    kind: Optional[str] = field(default=None, init=False)
    param: Optional[float] = field(default=None, init=False)

    def __call__(self, y):
        """w(y) as a float array; ValidationError unless every value is finite and > 0."""
        with np.errstate(all="ignore"):
            wy = np.asarray(self.fn(np.asarray(y, dtype=float)), dtype=float)
        # a NaN makes min and max NaN, which fails both tests
        if not (wy.min(initial=math.inf) > 0.0 and wy.max(initial=0.0) < math.inf):
            raise ValidationError("loss weight function must be finite and > 0")
        return wy

    def _of_kind(self, kind, param):
        self.__dict__.update(kind=kind, param=param)  # past the frozen __setattr__
        return self

    @staticmethod
    def power(p):
        return Weight(lambda y: np.asarray(y, dtype=float) ** p)._of_kind("power", p)

    @staticmethod
    def exp(c):
        return Weight(lambda y: np.exp(c * np.asarray(y, dtype=float)))._of_kind("exp", c)


@dataclass(frozen=True)
class LossSpec:
    """A loss: a family leaf or a composition, compiled when it is built.

    Built only when ``params`` holds exactly its row's parameters, each in
    range, and ``components`` has the row's count of loss specs (none for a
    family).  ``params`` is stored as a read-only copy, so a checked spec
    stays checked; pickling and ``copy.deepcopy`` rebuild it from a plain
    dict.  The build then derives, from the row and the components, the
    evaluator behind ``spec(a, y)`` and the tags the engine reads; equality
    and ``repr`` ignore them.
    """

    family: Optional[str] = None
    params: Mapping = field(default_factory=dict)
    compose: Optional[str] = None
    components: tuple = ()
    evaluate: Callable = field(init=False, compare=False, repr=False)
    differentiable: bool = field(init=False, compare=False, repr=False)
    # a > 0 and y > 0 only
    positive_domain: bool = field(init=False, compare=False, repr=False)
    # L(., y) is convex for every y, so every EPL is convex in a
    convex: bool = field(init=False, compare=False, repr=False)
    # L(a, y) = phi(|a - y|) with phi nondecreasing
    radial: bool = field(init=False, compare=False, repr=False)

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
        parts = self.components
        want = 0 if leaf else row.count  # None: one or more
        if (len(parts) == 0) if want is None else (len(parts) != want):
            want = "one or more" if want is None else want
            raise ValidationError(f"{kind} loss takes {want} component(s), got {len(parts)}")
        for part in parts:
            if not isinstance(part, LossSpec):
                raise ValidationError(f"{kind} loss component must be a LossSpec, got {part!r}")
        prm = MappingProxyType(dict(self.params))
        args = [prm[k] for k in row.params]
        self.__dict__.update(  # past the frozen __setattr__
            params=prm,
            evaluate=functools.partial(row.evaluate, *args) if leaf
            else functools.partial(row.evaluate, parts, *args),
            differentiable=row.differentiable(prm) and all(p.differentiable for p in parts),
            positive_domain=(leaf and row.positive_domain) or any(p.positive_domain for p in parts),
            convex=row.convex(prm) and all(p.convex for p in parts),
            radial=row.radial(prm) and all(p.radial for p in parts))

    def __call__(self, a, y):
        return self.evaluate(a, y)

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
        """PTL of a custom density; of a generalized Gaussian, MTC(omega)."""
        if isinstance(density, GeneralizedGaussian):
            return LossSpec.mtc(density.omega)
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


def compose(loss):
    """The entry check of every decision: ``loss`` itself, which was compiled
    when it was built, or ValidationError when it is not a ``LossSpec``."""
    if not isinstance(loss, LossSpec):
        raise ValidationError(f"loss must be a LossSpec, got {loss!r}")
    return loss


# the earlier name of a compiled loss, which perfbench/tracing.py still reads
LossFunction = LossSpec
