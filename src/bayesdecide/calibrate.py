"""Calibrating asymmetric-loss parameters from cost asymmetries.

Two back-of-the-envelope rules:

- prevention share s -> pinball level q = 1 - s (spend 3% on prevention,
  predict with the 0.97 posterior quantile);
- a target Gaussian multiple z_q (or tail mass converted to one) plus
  the posterior sd -> LINEX psi = -2 * z_q / sd, obtained from the
  second-order delta-method approximation of the LINEX optimum.

``linex_action_approx`` exposes both steps of the approximation chain so
the calibration can be validated against the exact optimum (they agree
exactly for Gaussian posteriors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import _special
from .errors import ValidationError


@dataclass(frozen=True)
class CalibrationTarget:
    """Either a Gaussian multiple z_q or a tail mass, plus the posterior sd.

    ``rounded`` reproduces the two-decimal reading of the multiple
    (0.97 tail -> 1.88) instead of the computed quantile (1.8808...).
    """

    posterior_sd: float
    gaussian_multiple: Optional[float] = None
    tail_mass: Optional[float] = None
    rounded: bool = False

    def __post_init__(self):
        if (self.gaussian_multiple is None) == (self.tail_mass is None):
            raise ValidationError(
                "supply exactly one of gaussian_multiple / tail_mass")
        if not 0 < self.posterior_sd < math.inf:
            raise ValidationError(
                f"posterior sd must be finite and > 0, got {self.posterior_sd!r}")
        if self.tail_mass is not None and not (0.0 < self.tail_mass < 1.0):
            raise ValidationError(f"tail mass must lie in (0, 1), got {self.tail_mass!r}")
        if self.gaussian_multiple is not None and not 0 < self.gaussian_multiple < math.inf:
            raise ValidationError(
                f"gaussian multiple must be finite and > 0, got {self.gaussian_multiple!r}")

    def multiple(self):
        if self.gaussian_multiple is not None:
            z = float(self.gaussian_multiple)
        else:
            z = float(_special.ndtri(1.0 - self.tail_mass))
        if self.rounded:
            z = round(z, 2)
        if z <= 0:
            raise ValidationError(
                "target multiple must be > 0 (a symmetric target has no "
                "asymmetric calibration)")
        return z


def calibrate_linex(target):
    """psi = -2 * z_q / sd: the LINEX parameter hitting the target quantile.

    With this psi the second-order LINEX action on a Gaussian posterior
    is mean + z_q * sd, i.e. the targeted quantile.
    """
    return -2.0 * target.multiple() / target.posterior_sd


def calibrate_quantile(prevention_share):
    """Pinball level q = 1 - prevention_share."""
    if not (0.0 < prevention_share < 1.0):
        raise ValidationError(
            f"prevention share must lie in (0, 1), got {prevention_share!r}")
    return 1.0 - prevention_share


def linex_action_approx(psi, mu, sigma2):
    """Delta-method approximations of the LINEX-optimal action.

    Returns (first_order, second_order):
      first_order  = mu + (-1/psi) * log(1 + (psi^2/2) * sigma2)
      second_order = mu - psi * sigma2 / 2
    The second order form is exact for Gaussian posteriors.
    """
    if psi == 0:
        raise ValidationError("psi must be nonzero")
    if not sigma2 > 0:
        raise ValidationError(f"sigma2 must be > 0, got {sigma2!r}")
    first = mu + (-1.0 / psi) * math.log1p(0.5 * psi * psi * sigma2)
    second = mu - 0.5 * psi * sigma2
    return first, second
