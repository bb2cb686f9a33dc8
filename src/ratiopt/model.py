"""Problem data model, objective, gradients, and the stationarity certificate.

The objective is

    F(x) = gamma * ||x||_1 / ||x||_2 + Phi(x),    x in the cone,

with the convention ||0||_1 / ||0||_2 = 1, and Phi either the least-squares
fit 0.5*||Ax - b||^2 or the residual norm ||Ax - b||.  certificate reads
a point's stationarity residual on its support, its subgradient distance in
full space and its nondegeneracy margin off one fidelity gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

import numpy as np

from .exceptions import (
    ConeViolation,
    DimensionMismatch,
    NonConvergence,
    SingularResidual,
    ZeroVector,
)


class Cone(Enum):
    """Feasible set for the recovery variable."""

    FREE = "free"
    NONNEG = "nonneg"


class Fidelity(Enum):
    """Data-fitting term."""

    LEAST_SQUARES = "least_squares"
    RESIDUAL_NORM = "residual_norm"


def ratio(x) -> float:
    """L1-over-L2 sparseness measure with ratio(0) = 1 by convention."""
    x = np.asarray(x, dtype=float)
    top = float(np.max(np.abs(x), initial=0.0))
    if top == 0.0:
        return 1.0
    if not 1e-150 < top < 1e150:
        # x @ x may under- or overflow here; the ratio is scale-invariant
        x = x / top
    return float(np.abs(x).sum() / np.linalg.norm(x))


def relerr(x_prev, x) -> float:
    """Relative change with the guarded denominator max(1e-16, norms)."""
    x_prev = np.asarray(x_prev, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    if x_prev.shape != x.shape:
        raise DimensionMismatch(f"shapes {x_prev.shape} and {x.shape} differ")
    den = max(1e-16, np.linalg.norm(x_prev), np.linalg.norm(x))
    return float(np.linalg.norm(x_prev - x) / den)


@dataclass(frozen=True)
class Problem:
    """Sensing matrix, observation, regularization weight, cone, fidelity."""

    A: np.ndarray
    b: np.ndarray
    gamma: float
    cone: Cone = Cone.FREE
    fidelity: Fidelity = Fidelity.LEAST_SQUARES

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise DimensionMismatch("A must be a nonempty 2-D matrix")
        if b.shape[0] != A.shape[0]:
            raise DimensionMismatch(
                f"b has length {b.shape[0]}, expected {A.shape[0]}"
            )
        if not np.isfinite(A).all() or not np.isfinite(b).all():
            raise ValueError("A and b must be finite")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def data_condition_holds(self) -> bool:
        """True when A^T b admits a nonzero limit point on the cone.

        Free cone: A^T b != 0.  Nonnegative cone: max(A^T b) > 0.
        """
        c = self.A.T @ self.b
        if self.cone is Cone.FREE:
            return bool(np.any(c != 0.0))
        return bool(np.max(c) > 0.0)

    def check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"x has length {x.shape[0]}, expected {self.n}")
        if self.cone is Cone.NONNEG and np.any(x < 0.0):
            raise ConeViolation("x has negative entries but the cone is nonnegative")
        return x


@dataclass(frozen=True)
class NewtonConfig:
    """Globalized semismooth Newton phase: the iteration cap is its one
    setting; the forcing (eta, nu), Armijo (mu, delta), fallback scale and
    gradient tolerance are constants of the method."""

    eta: ClassVar[float] = 1e-3
    nu: ClassVar[float] = 1e-8
    mu: ClassVar[float] = 1e-8
    delta: ClassVar[float] = 0.95
    b_scale: ClassVar[float] = 0.1
    grad_tol: ClassVar[float] = 1e-11
    ssn_max: int = 2500


@dataclass(frozen=True)
class SolverConfig:
    """ADMM and two-phase solver parameters."""

    beta: float
    T: int = 5
    tau: float = 0.0
    imax: int = 2000
    rel_tol: float = 1e-8
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")


def fidelity_value(p: Problem, res: np.ndarray) -> float:
    """Phi from the residual res = A x - b."""
    if p.fidelity is Fidelity.LEAST_SQUARES:
        return 0.5 * float(res @ res)
    return float(np.linalg.norm(res))


def objective(p: Problem, x, res=None) -> float:
    """Full objective gamma*ratio(x) + Phi(x); raises on cone violations.

    res, when given, is the residual A x - b the caller already holds.
    """
    x = p.check_point(x)
    if res is None:
        res = p.A @ x - p.b
    return p.gamma * ratio(x) + fidelity_value(p, res)


def _residual_grad(p: Problem, res: np.ndarray) -> np.ndarray:
    """Gradient of Phi from the residual res = A x - b."""
    if p.fidelity is Fidelity.LEAST_SQUARES:
        return p.A.T @ res
    nrm = np.linalg.norm(res)
    if nrm == 0.0:
        raise SingularResidual("residual-norm gradient undefined at Ax = b")
    return p.A.T @ (res / nrm)


def fidelity_grad(p: Problem, x) -> np.ndarray:
    """Gradient of the data-fitting term Phi at x."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != p.n:
        raise DimensionMismatch(f"x has length {x.shape[0]}, expected {p.n}")
    return _residual_grad(p, p.A @ x - p.b)


# the eigenvalue error is quadratic in the eigenvector error, so stopping on
# a relative change 1e-3 below the 1e-6 target comfortably reaches it
_POWER_CHANGE_TOL = 1e-6 * 1e-3
_POWER_MAX_ITERS = 10000


def lipschitz_estimate(p: Problem) -> float:
    """Largest eigenvalue of A^T A by power iteration from a fixed start.

    Only meaningful for the least-squares fidelity: the residual-norm
    gradient has no global curvature bound, so callers must supply beta
    directly in that case.
    """
    if p.fidelity is not Fidelity.LEAST_SQUARES:
        raise ValueError(
            "residual-norm fidelity has no global Lipschitz constant; "
            "choose beta explicitly"
        )
    A = p.A
    rng = np.random.Generator(np.random.Philox(0))
    v = rng.standard_normal(p.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_MAX_ITERS):
        w = A.T @ (A @ v)
        lam_new = float(v @ w)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(lam_new - lam) <= _POWER_CHANGE_TOL * max(lam_new, 1e-300):
            return lam_new
        lam = lam_new
    raise NonConvergence("power iteration did not converge")


@dataclass(frozen=True)
class Certificate:
    """Stationarity certificate of a nonzero point x.

    kkt_residual is the norm of the stationarity residual on supp(x).
    subgradient_distance is the distance from 0 to the subdifferential of
    the full objective: the same residual plus the excess of the fidelity
    gradient over the ratio term's off-support interval.  margin is the
    distance to the boundary of the strict off-support inequality, positive
    iff x is nondegenerate (0 in ri dF(x) once x is stationary), and inf at
    full support.
    """

    kkt_residual: float
    subgradient_distance: float
    margin: float


def certificate(p: Problem, x, res=None) -> Certificate:
    """Certificate of x from one evaluation of the fidelity gradient.

    On the support the subdifferential is a singleton; off the support the
    ratio term contributes the interval [-gamma/r, gamma/r] per coordinate
    (free cone), or (-inf, gamma/r] under the nonnegativity constraint.
    res, when given, is the residual A x - b the caller already holds.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not np.any(x):
        raise ZeroVector("certificate undefined at x = 0")
    idx = np.flatnonzero(x)
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[idx] = True
    a = float(np.abs(x).sum())
    r = float(np.linalg.norm(x))
    grad = (fidelity_grad(p, x) if res is None
            else _residual_grad(p, res))
    grad_off = grad[~mask]
    thr = p.gamma / r
    if p.cone is Cone.FREE:
        on = p.gamma * (np.sign(x[idx]) / r - (a / r**3) * x[idx]) + grad[idx]
        off = np.maximum(np.abs(grad_off) - thr, 0.0)
        margin = thr - float(np.max(np.abs(grad_off), initial=-np.inf))
    else:
        on = p.gamma * (1.0 / r - (a / r**3) * x[idx]) + grad[idx]
        off = np.maximum(-(grad_off + thr), 0.0)
        margin = float(np.min(grad_off + thr, initial=np.inf))
    dist = float(np.sqrt(np.dot(on, on) + np.dot(off, off)))
    return Certificate(float(np.linalg.norm(on)), dist, margin)


def subgradient_distance(p: Problem, x, res=None) -> float:
    """certificate(p, x, res).subgradient_distance."""
    return certificate(p, x, res).subgradient_distance
