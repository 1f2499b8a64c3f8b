"""Multivariate prediction via correlation-matrix eigenspaces.

The N-variate predictand is projected onto the orthonormal eigenvectors
of its correlation matrix; a scalar loss is minimized independently in
each eigenspace; the optimal vector action is reassembled from the
per-eigenspace optima.  Because the total loss is a sum of per-eigenspace
terms, the reassembled action minimizes the joint expected posterior
loss.

Eigenpairs come from LAPACK's symmetric solver (``np.linalg.eigh``),
sorted by decreasing eigenvalue with a fixed sign per eigenvector.
Dimensions are capped at N <= 64.  A ``VectorPosterior`` keeps read-only
copies of its draws and weights; each projection is an equal-weight
``SamplePosterior`` when the draws are unweighted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .errors import ValidationError
from .posteriors import SamplePosterior

_MAX_N = 64
_SYM_TOL = 1e-12
_PD_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric positive-definite matrix with a unit diagonal."""

    entries: np.ndarray

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("correlation matrix must be square")
        n = arr.shape[0]
        if n > _MAX_N:
            raise ValidationError(f"dimension {n} exceeds the supported cap {_MAX_N}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("correlation entries must be finite")
        if np.max(np.abs(arr - arr.T)) > _SYM_TOL:
            raise ValidationError("correlation matrix must be symmetric to 1e-12")
        if np.max(np.abs(np.diag(arr) - 1.0)) > _SYM_TOL:
            raise ValidationError("correlation matrix must have a unit diagonal")
        smallest = float(np.linalg.eigvalsh(arr)[0])
        if smallest <= _PD_TOL:
            raise ValidationError(
                f"correlation matrix is not positive-definite: smallest "
                f"eigenvalue {smallest}")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in decreasing order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self):
        return self.eigenvalues.size


def spectral_decompose(corr):
    """Sorted, sign-fixed spectral decomposition of a correlation matrix.

    Eigenpairs are ordered by decreasing eigenvalue (ties keep eigh
    order) and each eigenvector's first entry larger than 1e-12 in
    magnitude is made positive.
    """
    vals, vecs = np.linalg.eigh(corr.entries)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for i in range(vals.size):
        col = vecs[:, i]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            vecs[:, i] = -col
    return EigenDecomposition(vals, vecs)


class VectorPosterior:
    """Weighted draws of an N-vector predictand.

    The draws and the normalized weights are stored as read-only copies, so
    changing the caller's arrays afterwards changes nothing here.
    """

    __slots__ = ("draws", "weights")

    def __init__(self, draws, weights=None):
        arr = np.array(draws, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("draws must be a nonempty (n, N) array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("draws must be finite")
        if weights is None:
            w = np.full(arr.shape[0], 1.0 / arr.shape[0])
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (arr.shape[0],):
                raise ValidationError("weights must have one entry per draw")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValidationError("weights must be finite and > 0")
            w = w / w.sum()
        arr.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "draws", arr)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("VectorPosterior is immutable")

    @property
    def n(self):
        return self.draws.shape[1]

    def mean(self):
        return self.weights @ self.draws


def project(decomp, post, i):
    """Scalar posterior of the projection onto eigenvector i."""
    if not (0 <= i < decomp.n):
        raise ValidationError(f"eigenspace index {i} out of range for N={decomp.n}")
    if post.n != decomp.n:
        raise ValidationError("posterior dimension does not match the decomposition")
    scalar = post.draws @ decomp.eigenvectors[:, i]
    return SamplePosterior(scalar, post.weights)


def eigenspace_decisions(decomp, post, losses):
    """The ``engine.optimize`` decision in each eigenspace, in eigenvalue order."""
    if len(losses) != decomp.n:
        raise ValidationError(f"need {decomp.n} losses, got {len(losses)}")
    return tuple(engine.optimize(losses[i], project(decomp, post, i))
                 for i in range(decomp.n))


def optimize_eigen(decomp, post, losses):
    """Optimal vector action: per-eigenspace scalar optima mapped back."""
    decisions = eigenspace_decisions(decomp, post, losses)
    return decomp.eigenvectors @ np.array([d.action for d in decisions])


def epl_multivariate(decomp, post, losses, a, weights=None):
    """Joint expected posterior loss: sum of per-eigenspace terms.

    ``weights`` defaults to 1 for every eigenspace; pass
    ``default_eigen_weights(decomp)`` to weight each term by its eigenvalue.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (decomp.n,):
        raise ValidationError(f"action must have shape ({decomp.n},)")
    if len(losses) != decomp.n:
        raise ValidationError(f"need {decomp.n} losses, got {len(losses)}")
    if weights is None:
        w = np.ones(decomp.n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (decomp.n,) or np.any(w <= 0):
            raise ValidationError("per-eigenspace weights must be positive")
    total = 0.0
    for i in range(decomp.n):
        proj = project(decomp, post, i)
        b_i = float(decomp.eigenvectors[:, i] @ a)
        total += w[i] * engine.epl(losses[i], proj, b_i)
    return total


def default_eigen_weights(decomp):
    """Per-eigenspace weights: the eigenvalues themselves (monotone in lambda)."""
    return decomp.eigenvalues.copy()


def estimate_correlation(draws):
    """Sample correlation matrix, symmetrized with a unit diagonal.

    ``CorrelationMatrix`` rejects an effectively singular estimate (e.g. a
    perfectly correlated pair) as non-positive-definite.
    """
    arr = np.asarray(draws, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("draws must be an (n, N) array")
    n_draws, dim = arr.shape
    if n_draws < dim + 1:
        raise ValidationError(f"need at least N+1={dim + 1} draws, got {n_draws}")
    sd = arr.std(axis=0, ddof=1)
    zero = np.nonzero(sd == 0)[0]
    if zero.size:
        raise ValidationError(f"coordinate {int(zero[0])} has zero variance")
    corr = np.atleast_2d(np.corrcoef(arr, rowvar=False))  # 0-d when N = 1
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr)
