"""Loss families and their composition algebra.

Families
--------
- ``MTC(rho)``      |a - y|^rho, rho > 0 (rho=2 is squared error, rho=1 absolute)
- ``SEL``           alias for MTC(2)
- ``ZERO_ONE``      I(a != y), the rho -> 0+ limit of MTC
- ``QTL(q)``        (a - y)(I(a - y > 0) - q), pinball loss, q in (0, 1)
- ``LNX(psi)``      exp{psi(a - y)} - psi(a - y) - 1, psi != 0
- ``PTL(omega)``    potential loss of a bounded density; the generalized
                    Gaussian member equals |a - y|^omega exactly
- ``PWD(lam)``      y * phi_lam(a / y), ratio-based power-divergence, a, y > 0
- ``GAM(alpha,nu)`` (nu - 1)[(a/y) - 1 - log(a/y)], ratio-based, a, y > 0

Compositions: weighted(w), sum, product, power(p), exp_minus_one.
A composed loss is marked differentiable only when every part is, and
symmetric only when symmetry is provable by construction.

Evaluators are vectorized over y so expected-loss sums over large sample
clouds stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import NumericError, ValidationError

EXP_LIMIT = 700.0  # beyond this exp() overflows a double

# each leaf family and the parameters its spec must carry
_FAMILIES = {"MTC": ("rho",), "SEL": (), "ZERO_ONE": (), "QTL": ("q",),
             "LNX": ("psi",), "PTL": (), "PWD": ("lam",), "GAM": ("alpha", "nu")}
_COMPOSITIONS = {"weighted", "sum", "product", "power", "exp_minus_one"}

# Switch to the analytic limit formulas near the removable singularities
# of (lam * (lam + 1))^-1.
_PWD_LIMIT_TOL = 1e-6


# ---------------------------------------------------------------------------
# leaf evaluators


def eval_mtc(rho, a, y):
    """|a - y|^rho."""
    if not (np.isfinite(rho) and rho > 0):
        raise ValidationError(f"rho must be > 0, got {rho!r}")
    return np.abs(np.asarray(a) - y) ** rho


def eval_zero_one(a, y):
    """I(a != y)."""
    return (np.asarray(a) != np.asarray(y)).astype(float)


def eval_qtl(q, a, y):
    """(a - y)(I(a - y > 0) - q): the pinball loss."""
    if not (np.isfinite(q) and 0.0 < q < 1.0):
        raise ValidationError(f"q must lie in (0, 1), got {q!r}")
    d = np.asarray(a, dtype=float) - y
    return d * ((d > 0).astype(float) - q)


def eval_linex(psi, a, y):
    """exp{psi(a - y)} - psi(a - y) - 1."""
    if psi == 0 or not np.isfinite(psi):
        raise ValidationError(f"psi must be finite and nonzero, got {psi!r}")
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
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValidationError(f"omega must be > 0, got {self.omega!r}")

    def neg_log_ratio(self, u):
        # -log f(u) + log f(0) collapses to |u|^omega exactly
        return np.abs(u) ** self.omega


@dataclass(frozen=True)
class CustomPotentialDensity:
    """A user-supplied bounded density for potential losses.

    The mode-at-zero requirement f(u) <= f(0) is spot-checked on a grid
    at construction.
    """

    pdf: Callable[[np.ndarray], np.ndarray]
    check_grid: tuple = tuple(np.linspace(-20.0, 20.0, 401))

    def __post_init__(self):
        grid = np.asarray(self.check_grid)
        f0 = float(self.pdf(np.zeros(1))[0])
        if f0 <= 0:
            raise ValidationError("potential density must satisfy f(0) > 0")
        if np.any(np.asarray(self.pdf(grid)) > f0 * (1 + 1e-12)):
            raise ValidationError("potential density must satisfy f(u) <= f(0)")

    def neg_log_ratio(self, u):
        f0 = float(self.pdf(np.zeros(1))[0])
        return np.log(f0) - np.log(np.asarray(self.pdf(np.asarray(u, dtype=float))))


def eval_potential(density, a, y):
    """-log f(a - y) + log f(0) for a bounded, mode-at-zero density."""
    return density.neg_log_ratio(np.asarray(a, dtype=float) - y)


def _phi_lam(lam, r):
    r = np.asarray(r, dtype=float)
    if abs(lam) < _PWD_LIMIT_TOL:
        return r * np.log(r) + 1.0 - r
    if abs(lam + 1.0) < _PWD_LIMIT_TOL:
        return r - 1.0 - np.log(r)
    c = 1.0 / (lam * (lam + 1.0))
    return c * ((r ** (lam + 1.0) - r) + lam * (1.0 - r))


def eval_pwd(lam, a, y):
    """y * phi_lam(a / y): ratio-based power-divergence loss, a, y > 0."""
    if not np.isfinite(lam):
        raise ValidationError(f"lambda must be finite, got {lam!r}")
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(a <= 0) or np.any(y <= 0):
        raise ValidationError("PWD loss requires a > 0 and y > 0")
    return y * _phi_lam(lam, a / y)


def eval_gam(alpha, nu, a, y):
    """(nu - 1)[(a/y) - 1 - log(a/y)], independent of alpha.

    The simplified closed form is used; ``gam_definitional`` retains the
    log-density-ratio definition as a cross-check.
    """
    _check_gam_params(alpha, nu)
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(a <= 0) or np.any(y <= 0):
        raise ValidationError("GAM loss requires a > 0 and y > 0")
    r = a / y
    return (nu - 1.0) * (r - 1.0 - np.log(r))


def gam_definitional(alpha, nu, a, y):
    """GAM loss from the gamma log-density ratio at its mode; cross-check only."""
    _check_gam_params(alpha, nu)
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(a <= 0) or np.any(y <= 0):
        raise ValidationError("GAM loss requires a > 0 and y > 0")

    def log_density(x):
        return -alpha * x + (nu - 1.0) * np.log(x) - (gammaln(nu) - nu * math.log(alpha))

    x0 = (nu - 1.0) / alpha
    return log_density(x0) - log_density(x0 * (a / y))


def _check_gam_params(alpha, nu):
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValidationError(f"alpha must be > 0, got {alpha!r}")
    if not (np.isfinite(nu) and nu > 1):
        raise ValidationError(f"nu must be > 1, got {nu!r}")


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class Weight:
    """A positive weight function of y, optionally named for dispatch.

    ``name == "identity"`` marks w(y) = y, which the optimizer recognizes
    (e.g. identity-weighted GAM has the posterior mean as its optimum).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: Optional[str] = None

    @staticmethod
    def identity():
        return Weight(lambda y: np.asarray(y, dtype=float), name="identity")

    @staticmethod
    def power(p):
        return Weight(lambda y: np.asarray(y, dtype=float) ** p, name=f"power:{p}")

    @staticmethod
    def exp(c):
        return Weight(lambda y: np.exp(c * np.asarray(y, dtype=float)), name=f"exp:{c}")


@dataclass(frozen=True)
class LossSpec:
    """Declarative description of a loss: a family leaf or a composition."""

    family: Optional[str] = None
    params: dict = field(default_factory=dict)
    compose: Optional[str] = None
    components: tuple = ()
    weight: Optional[Weight] = None
    density: object = None

    def __post_init__(self):
        if (self.family is None) == (self.compose is None):
            raise ValidationError("spec must set exactly one of family / compose")
        if self.family is not None:
            if self.family not in _FAMILIES:
                raise ValidationError(f"unknown loss family {self.family!r}")
            missing = [k for k in _FAMILIES[self.family] if k not in self.params]
            if missing:
                raise ValidationError(
                    f"{self.family} loss is missing parameter "
                    + ", ".join(repr(k) for k in missing))
        if self.compose is not None:
            if self.compose not in _COMPOSITIONS:
                raise ValidationError(f"unknown composition {self.compose!r}")
            if len(self.components) == 0:
                raise ValidationError("composition must have at least one component")
            if self.compose == "weighted" and self.weight is None:
                raise ValidationError("weighted composition requires a Weight")

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
        return LossSpec(family="PTL", density=density)

    @staticmethod
    def pwd(lam):
        return LossSpec(family="PWD", params={"lam": float(lam)})

    @staticmethod
    def gam(alpha, nu):
        return LossSpec(family="GAM", params={"alpha": float(alpha), "nu": float(nu)})

    @staticmethod
    def weighted(weight, base):
        return LossSpec(compose="weighted", components=(base,), weight=weight)

    @staticmethod
    def sum_of(*parts):
        return LossSpec(compose="sum", components=tuple(parts))

    @staticmethod
    def product_of(*parts):
        return LossSpec(compose="product", components=tuple(parts))

    @staticmethod
    def power_of(base, p):
        if not (np.isfinite(p) and p > 0):
            raise ValidationError(f"power must be > 0, got {p!r}")
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
    symmetric: bool
    differentiable: bool
    positive_domain: bool

    def __call__(self, a, y):
        return self.evaluate(a, y)


def compose(spec):
    """Build a ``LossFunction`` from a ``LossSpec``."""
    if isinstance(spec, LossFunction):
        return spec
    if spec.family is not None:
        return _compose_leaf(spec)
    parts = [compose(c) for c in spec.components]
    if spec.compose == "weighted":
        w = spec.weight
        base = parts[0]

        def ev(a, y, _w=w.fn, _b=base):
            wy = np.asarray(_w(np.asarray(y, dtype=float)), dtype=float)
            if np.any(~np.isfinite(wy)) or np.any(wy <= 0):
                raise ValidationError("loss weight function must be finite and > 0")
            return wy * _b(a, y)

        return LossFunction(spec, ev, symmetric=False,
                            differentiable=base.differentiable,
                            positive_domain=base.positive_domain)
    if spec.compose == "sum":
        def ev(a, y, _parts=parts):
            return sum(p(a, y) for p in _parts)
    elif spec.compose == "product":
        def ev(a, y, _parts=parts):
            out = _parts[0](a, y)
            for p in _parts[1:]:
                out = out * p(a, y)
            return out
    elif spec.compose == "power":
        p_exp = spec.params["p"]

        def ev(a, y, _b=parts[0], _p=p_exp):
            return _b(a, y) ** _p
    else:  # exp_minus_one
        def ev(a, y, _b=parts[0]):
            return np.expm1(_b(a, y))

    symmetric = all(p.symmetric for p in parts)
    differentiable = all(p.differentiable for p in parts)
    if spec.compose == "power" and spec.params["p"] < 1:
        # (L)^p with p < 1 has an unbounded derivative where L = 0
        differentiable = False
    positive_domain = any(p.positive_domain for p in parts)
    return LossFunction(spec, ev, symmetric, differentiable, positive_domain)


def _compose_leaf(spec):
    fam, prm = spec.family, spec.params
    if fam == "SEL":
        return LossFunction(spec, lambda a, y: eval_mtc(2.0, a, y),
                            symmetric=True, differentiable=True, positive_domain=False)
    if fam == "MTC":
        rho = prm["rho"]
        if not (np.isfinite(rho) and rho > 0):
            raise ValidationError(f"rho must be > 0, got {rho!r}")
        return LossFunction(spec, lambda a, y: eval_mtc(rho, a, y),
                            symmetric=True, differentiable=rho > 1,
                            positive_domain=False)
    if fam == "ZERO_ONE":
        return LossFunction(spec, eval_zero_one, symmetric=True,
                            differentiable=False, positive_domain=False)
    if fam == "QTL":
        q = prm["q"]
        if not (np.isfinite(q) and 0.0 < q < 1.0):
            raise ValidationError(f"q must lie in (0, 1), got {q!r}")
        return LossFunction(spec, lambda a, y: eval_qtl(q, a, y),
                            symmetric=q == 0.5, differentiable=False,
                            positive_domain=False)
    if fam == "LNX":
        psi = prm["psi"]
        if psi == 0 or not np.isfinite(psi):
            raise ValidationError(f"psi must be finite and nonzero, got {psi!r}")
        return LossFunction(spec, lambda a, y: eval_linex(psi, a, y),
                            symmetric=False, differentiable=True,
                            positive_domain=False)
    if fam == "PTL":
        density = spec.density
        if density is None:
            raise ValidationError("PTL spec requires a density")
        symmetric = isinstance(density, GeneralizedGaussian)
        differentiable = symmetric and density.omega > 1
        return LossFunction(spec, lambda a, y: eval_potential(density, a, y),
                            symmetric=symmetric, differentiable=differentiable,
                            positive_domain=False)
    if fam == "PWD":
        lam = prm["lam"]
        if not np.isfinite(lam):
            raise ValidationError(f"lambda must be finite, got {lam!r}")
        return LossFunction(spec, lambda a, y: eval_pwd(lam, a, y),
                            symmetric=False, differentiable=True,
                            positive_domain=True)
    # GAM, the last family LossSpec admits
    alpha, nu = prm["alpha"], prm["nu"]
    _check_gam_params(alpha, nu)
    return LossFunction(spec, lambda a, y: eval_gam(alpha, nu, a, y),
                        symmetric=False, differentiable=True,
                        positive_domain=True)
