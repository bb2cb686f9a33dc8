"""Globalized semismooth Newton phase on the active manifold.

With the support S fixed, the two-phase solver hands Newton the problem on
S's columns: an ordinary Problem whose A is A[:, S].  On the interior of an
orthant its objective

    phi(u) = gamma * ||u||_1/||u||_2 + Phi(A u - b),   u has no zeros,

is LC^1; its generalized Hessian is V - Q with V the fidelity Hessian and
Q a rank-two-plus-identity correction.  Phi and its gradient come from
model; only the Hessian, which only Newton needs, is built here.  Q's
closed-form spectrum and the gamma bound that makes V - Q positive
definite belong to the analysis, not to the solver: tests/reduced_oracle.py
holds them and the tests check hessian() against them.

A run forms A^T A once, solves each shifted Newton system by Cholesky and
evaluates phi once per point.  phi and its gradient stay on the residual
A u - b, which the Gram form would lose to cancellation near a solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from .exceptions import (
    DimensionMismatch,
    LineSearchStall,
    SingularResidual,
    ZeroEntry,
)
from .model import (Fidelity, NewtonConfig, Problem, fidelity_grad,
                    fidelity_value)


def _check_interior(rp: Problem, u) -> np.ndarray:
    u = np.asarray(u, dtype=float).ravel()
    if u.shape[0] != rp.n:
        raise DimensionMismatch(f"u has length {u.shape[0]}, expected {rp.n}")
    if np.any(u == 0.0):
        raise ZeroEntry("u has a zero entry (left the manifold interior)")
    return u


def phi_value(rp: Problem, u) -> float:
    u = _check_interior(rp, u)
    rat = rp.gamma * np.abs(u).sum() / np.linalg.norm(u)
    return float(rat) + fidelity_value(rp, rp.A @ u - rp.b)


def phi_grad(rp: Problem, u) -> np.ndarray:
    u = _check_interior(rp, u)
    a = np.abs(u).sum()
    r = np.linalg.norm(u)
    return rp.gamma * (np.sign(u) / r - (a / r**3) * u) + fidelity_grad(rp, u)


def hessian(rp: Problem, u, gram: np.ndarray) -> np.ndarray:
    """Generalized Hessian V - Q of phi at u, s x s; gram = A^T A."""
    u = _check_interior(rp, u)
    a = float(np.abs(u).sum())
    r = float(np.linalg.norm(u))
    sgn = np.sign(u)
    if rp.fidelity is Fidelity.LEAST_SQUARES:
        v_block = gram
    else:
        res = rp.A @ u - rp.b
        nrm = np.linalg.norm(res)
        if nrm == 0.0:
            raise SingularResidual("residual-norm Hessian undefined at Au = b")
        g = rp.A.T @ res
        v_block = (gram - np.outer(g, g) / nrm**2) / nrm
    outer = np.outer(u, sgn)
    q = (rp.gamma / r**3) * (
        outer + outer.T - (3.0 * a / r**2) * np.outer(u, u) + a * np.eye(u.size)
    )
    return v_block - q


class DirectionKind(Enum):
    INEXACT = "inexact"
    FALLBACK = "fallback"


def direction_from_hessian(H: np.ndarray, grad: np.ndarray,
                           cfg: NewtonConfig):
    """Cholesky solution of (H + ||g|| I) d = -g, kept when g.d <=
    -min(nu, ||g||) ||d||^2; otherwise, or when the shifted matrix is not
    positive definite, the scaled gradient -g/b_scale.  The shift makes d
    an inexact Newton step: ||g + H d|| = ||g|| ||d||."""
    gn = float(np.linalg.norm(grad))
    shifted = H + gn * np.eye(grad.shape[0])
    try:
        d = scipy.linalg.cho_solve(scipy.linalg.cho_factor(shifted), -grad)
    except np.linalg.LinAlgError:
        return -grad / cfg.b_scale, DirectionKind.FALLBACK
    if float(grad @ d) <= -min(cfg.nu, gn) * float(d @ d):
        return d, DirectionKind.INEXACT
    return -grad / cfg.b_scale, DirectionKind.FALLBACK


def newton_direction(rp: Problem, u, gram, grad, cfg: NewtonConfig):
    return direction_from_hessian(hessian(rp, u, gram),
                                  np.asarray(grad, float), cfg)


def backtrack(phi, u, base, d, grad, cfg: NewtonConfig, guard=None,
              max_backtracks=500):
    """Armijo search alpha = delta^m from base = phi(u), with an optional
    per-point guard predicate; returns (alpha, u_next, phi(u_next))."""
    slope = float(np.asarray(grad) @ np.asarray(d))
    if not slope < 0.0:
        raise ValueError("search direction is not a descent direction")
    # Below phi's rounding the Armijo test reads noise.  Two evaluations of
    # phi closer than that differ by up to 1.8 eps|phi| on the Newton tests'
    # instances and the bundled diabetes data; 4 eps|base| covers that twice.
    # A trial within it of base is then taken, so phi may rise by rounding.
    # Added to the ordinary test, the bound would take no-progress trials
    # once alpha*|slope| fell below it, turning stalls into runs to the cap.
    noise = 4.0 * np.finfo(float).eps * abs(base)
    below_noise = -slope <= noise
    alpha = 1.0
    for _ in range(max_backtracks + 1):
        u_next = u + alpha * d
        if guard is None or guard(u_next):
            value = phi(u_next)
            slack = noise if below_noise else cfg.mu * alpha * slope
            if value <= base + slack:
                return alpha, u_next, value
        alpha *= cfg.delta
    raise LineSearchStall("Armijo backtracking exceeded its budget")


def armijo(rp: Problem, u, value, d, grad, cfg: NewtonConfig):
    """Armijo backtrack on phi from value = phi(u), guarded against zeros."""
    u = _check_interior(rp, u)
    return backtrack(
        lambda w: phi_value(rp, w), u, value, np.asarray(d, float),
        np.asarray(grad, float), cfg,
        guard=lambda w: not np.any(w == 0.0),
    )


@dataclass
class SsnTrace:
    """Per-iteration records of one Newton run; stop_reason is "grad_tol",
    "cap" (ssn_max steps, gradient above grad_tol) or "stall" (Armijo)."""

    grad_norms: list = field(default_factory=list)
    values: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = ""

    @property
    def stalled(self) -> bool:
        return self.stop_reason == "stall"


def run_ssnewton(rp: Problem, u0, cfg: NewtonConfig = NewtonConfig()):
    """Direction + line search until the gradient tolerance, the cap or a
    line-search stall."""
    u = _check_interior(rp, u0).copy()
    gram = rp.A.T @ rp.A
    value = phi_value(rp, u)
    trace = SsnTrace()
    while True:
        g = phi_grad(rp, u)
        gn = float(np.linalg.norm(g))
        trace.grad_norms.append(gn)
        trace.values.append(value)
        if gn <= cfg.grad_tol:
            trace.stop_reason = "grad_tol"
            break
        if trace.iterations >= cfg.ssn_max:
            trace.stop_reason = "cap"
            break
        d, kind = newton_direction(rp, u, gram, g, cfg)
        trace.kinds.append(kind)
        try:
            alpha, u, value = armijo(rp, u, value, d, g, cfg)
        except LineSearchStall:
            trace.stop_reason = "stall"
            break
        trace.alphas.append(alpha)
        trace.iterations += 1
    return u, trace
