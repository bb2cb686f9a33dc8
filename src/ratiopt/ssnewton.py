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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

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


def hessian(rp: Problem, u) -> np.ndarray:
    """Generalized Hessian V - Q of phi at u, an s x s matrix."""
    u = _check_interior(rp, u)
    a = float(np.abs(u).sum())
    r = float(np.linalg.norm(u))
    sgn = np.sign(u)
    if rp.fidelity is Fidelity.LEAST_SQUARES:
        v_block = rp.A.T @ rp.A
    else:
        res = rp.A @ u - rp.b
        nrm = np.linalg.norm(res)
        if nrm == 0.0:
            raise SingularResidual("residual-norm Hessian undefined at Au = b")
        g = rp.A.T @ res
        v_block = (rp.A.T @ rp.A - np.outer(g, g) / nrm**2) / nrm
    outer = np.outer(u, sgn)
    q = (rp.gamma / r**3) * (
        outer + outer.T - (3.0 * a / r**2) * np.outer(u, u) + a * np.eye(u.size)
    )
    return v_block - q


class DirectionKind(Enum):
    INEXACT = "inexact"
    FALLBACK = "fallback"


def _cg(mat, rhs, max_iters, tol):
    """Plain conjugate gradients; stops on tolerance, cap, or curvature loss."""
    d = np.zeros_like(rhs)
    res = rhs.copy()
    p_dir = res.copy()
    rr = float(res @ res)
    for _ in range(max_iters):
        if np.sqrt(rr) <= tol:
            break
        hp = mat @ p_dir
        curv = float(p_dir @ hp)
        if curv <= 0.0:
            break
        alpha = rr / curv
        d = d + alpha * p_dir
        res = res - alpha * hp
        rr_new = float(res @ res)
        p_dir = res + (rr_new / rr) * p_dir
        rr = rr_new
    return d


def direction_from_hessian(H: np.ndarray, grad: np.ndarray,
                           cfg: NewtonConfig):
    """Inexact perturbed-Newton direction with a scaled-gradient fallback."""
    gn = float(np.linalg.norm(grad))
    eta_j = min(cfg.eta, gn)
    nu_j = min(cfg.nu, gn)
    eps = gn
    s = grad.shape[0]
    shifted = H + eps * np.eye(s)
    d = _cg(shifted, -grad, max_iters=10 * s, tol=0.5 * eta_j * gn)
    # the perturbed system IS the Newton equation here, so its residual is
    # what the inexactness test must see; the shift itself vanishes with the
    # gradient and does not spoil the local rate
    lin_res = np.linalg.norm(grad + shifted @ d)
    if lin_res <= eta_j * gn and float(grad @ d) <= -nu_j * float(d @ d):
        return d, DirectionKind.INEXACT
    return -grad / cfg.b_scale, DirectionKind.FALLBACK


def newton_direction(rp: Problem, u, grad, cfg: NewtonConfig):
    return direction_from_hessian(hessian(rp, u), np.asarray(grad, float), cfg)


def backtrack(phi, u, d, grad, cfg: NewtonConfig, guard=None,
              max_backtracks=500):
    """Armijo search alpha = delta^m; optional per-point guard predicate."""
    slope = float(np.asarray(grad) @ np.asarray(d))
    if not slope < 0.0:
        raise ValueError("search direction is not a descent direction")
    base = phi(u)
    alpha = 1.0
    for _ in range(max_backtracks + 1):
        u_next = u + alpha * d
        if guard is None or guard(u_next):
            if phi(u_next) <= base + cfg.mu * alpha * slope:
                return alpha, u_next
        alpha *= cfg.delta
    raise LineSearchStall("Armijo backtracking exceeded its budget")


def armijo(rp: Problem, u, d, grad, cfg: NewtonConfig):
    """Armijo step on phi with the manifold guard (no exact-zero entries)."""
    u = _check_interior(rp, u)
    return backtrack(
        lambda w: phi_value(rp, w), u, np.asarray(d, float),
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
    trace = SsnTrace()
    while True:
        g = phi_grad(rp, u)
        gn = float(np.linalg.norm(g))
        trace.grad_norms.append(gn)
        trace.values.append(phi_value(rp, u))
        if gn <= cfg.grad_tol:
            trace.stop_reason = "grad_tol"
            break
        if trace.iterations >= cfg.ssn_max:
            trace.stop_reason = "cap"
            break
        d, kind = newton_direction(rp, u, g, cfg)
        trace.kinds.append(kind)
        try:
            alpha, u = armijo(rp, u, d, g, cfg)
        except LineSearchStall:
            trace.stop_reason = "stall"
            break
        trace.alphas.append(alpha)
        trace.iterations += 1
    return u, trace
