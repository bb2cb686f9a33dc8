"""Reduced problem on the active manifold and the globalized Newton phase.

With the support fixed, the objective restricted to its interior is

    phi(u) = gamma * ||u||_1/||u||_2 + Phi(A_S u - b),   u has no zeros,

which is LC^1; its generalized Hessian is V - Q with V the restricted
fidelity Hessian and Q a rank-two-plus-identity correction whose spectrum
is known in closed form.  The support S is a sorted index array, as
np.flatnonzero returns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import (
    DimensionMismatch,
    LineSearchStall,
    NotPositiveDefinite,
    SingularResidual,
    ZeroEntry,
)
from .model import Fidelity, NewtonConfig, Problem


@dataclass(frozen=True)
class ReducedProblem:
    """Parent problem restricted to a fixed support, with its columns a_cols.

    The support is checked here, before it indexes anything: a negative
    index would otherwise wrap around.
    """

    parent: Problem
    support: np.ndarray
    a_cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        idx = np.asarray(self.support)
        if idx.ndim != 1 or idx.size < 1 or idx.dtype.kind not in "iu":
            raise ValueError("support must be a nonempty 1-D integer array")
        if np.any(idx[1:] <= idx[:-1]):
            raise ValueError("support indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.parent.n:
            raise ValueError("support index out of range for the parent problem")
        object.__setattr__(self, "support", idx)
        object.__setattr__(self, "a_cols", self.parent.A[:, idx])

    @property
    def s(self) -> int:
        return self.support.size


def _check_interior(rp: ReducedProblem, u) -> np.ndarray:
    u = np.asarray(u, dtype=float).ravel()
    if u.shape[0] != rp.s:
        raise DimensionMismatch(f"u has length {u.shape[0]}, expected {rp.s}")
    if np.any(u == 0.0):
        raise ZeroEntry("u has a zero entry (left the manifold interior)")
    return u


def phi_value(rp: ReducedProblem, u) -> float:
    u = _check_interior(rp, u)
    gamma = rp.parent.gamma
    res = rp.a_cols @ u - rp.parent.b
    rat = gamma * np.abs(u).sum() / np.linalg.norm(u)
    if rp.parent.fidelity is Fidelity.LEAST_SQUARES:
        return float(rat + 0.5 * res @ res)
    return float(rat + np.linalg.norm(res))


def phi_grad(rp: ReducedProblem, u) -> np.ndarray:
    u = _check_interior(rp, u)
    gamma = rp.parent.gamma
    a = np.abs(u).sum()
    r = np.linalg.norm(u)
    res = rp.a_cols @ u - rp.parent.b
    if rp.parent.fidelity is Fidelity.LEAST_SQUARES:
        fit = rp.a_cols.T @ res
    else:
        nrm = np.linalg.norm(res)
        if nrm == 0.0:
            raise SingularResidual("residual-norm gradient undefined at Au = b")
        fit = rp.a_cols.T @ (res / nrm)
    return gamma * (np.sign(u) / r - (a / r**3) * u) + fit


@dataclass(frozen=True)
class HessianModel:
    """Generalized Hessian V - Q of phi at u, with Q's closed-form spectrum."""

    u: np.ndarray
    a: float
    r: float
    gamma: float
    v_block: np.ndarray
    q_matrix: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.v_block - self.q_matrix

    @property
    def s(self) -> int:
        return self.u.shape[0]

    @property
    def q_scale(self) -> float:
        # gamma / r^3, the prefactor shared by all Q eigenvalues
        return self.gamma / self.r**3

    def q_eigenvalues(self):
        """(lam1, lam2, lam_rest): the two edge eigenvalues of Q and the
        value carried with multiplicity s - 2."""
        disc = np.sqrt(max(4 * self.s * self.r**2 - 3 * self.a**2, 0.0))
        lam1 = self.q_scale * (self.a - disc) / 2.0
        lam2 = self.q_scale * (self.a + disc) / 2.0
        return lam1, lam2, self.q_scale * self.a


def hessian(rp: ReducedProblem, u) -> HessianModel:
    u = _check_interior(rp, u)
    gamma = rp.parent.gamma
    a = float(np.abs(u).sum())
    r = float(np.linalg.norm(u))
    sgn = np.sign(u)
    if rp.parent.fidelity is Fidelity.LEAST_SQUARES:
        v_block = rp.a_cols.T @ rp.a_cols
    else:
        res = rp.a_cols @ u - rp.parent.b
        nrm = np.linalg.norm(res)
        if nrm == 0.0:
            raise SingularResidual("residual-norm Hessian undefined at Au = b")
        g = rp.a_cols.T @ res
        v_block = (rp.a_cols.T @ rp.a_cols - np.outer(g, g) / nrm**2) / nrm
    outer = np.outer(u, sgn)
    q = (gamma / r**3) * (
        outer + outer.T - (3.0 * a / r**2) * np.outer(u, u) + a * np.eye(u.size)
    )
    return HessianModel(u=u, a=a, r=r, gamma=gamma, v_block=v_block, q_matrix=q)


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


def newton_direction(rp: ReducedProblem, u, grad, cfg: NewtonConfig):
    return direction_from_hessian(hessian(rp, u).matrix, np.asarray(grad, float),
                                  cfg)


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
    raise LineSearchStall("Armijo backtracking exceeded its budget",
                          alpha=alpha)


def armijo(rp: ReducedProblem, u, d, grad, cfg: NewtonConfig):
    """Armijo step on phi with the manifold guard (no exact-zero entries)."""
    u = _check_interior(rp, u)
    return backtrack(
        lambda w: phi_value(rp, w), u, np.asarray(d, float),
        np.asarray(grad, float), cfg,
        guard=lambda w: not np.any(w == 0.0),
    )


@dataclass
class SsnTrace:
    grad_norms: list = field(default_factory=list)
    values: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    stalled: bool = False
    iterations: int = 0


def run_ssnewton(rp: ReducedProblem, u0, cfg: NewtonConfig = NewtonConfig()):
    """Direction + line search until the gradient tolerance or the cap."""
    u = _check_interior(rp, u0).copy()
    trace = SsnTrace()
    for _ in range(cfg.ssn_max):
        g = phi_grad(rp, u)
        gn = float(np.linalg.norm(g))
        trace.grad_norms.append(gn)
        trace.values.append(phi_value(rp, u))
        if gn <= cfg.grad_tol:
            break
        d, kind = newton_direction(rp, u, g, cfg)
        trace.kinds.append(kind)
        try:
            alpha, u = armijo(rp, u, d, g, cfg)
        except LineSearchStall:
            trace.stalled = True
            break
        trace.alphas.append(alpha)
        trace.iterations += 1
    else:
        g = phi_grad(rp, u)
        trace.grad_norms.append(float(np.linalg.norm(g)))
        trace.values.append(phi_value(rp, u))
    return u, trace


def pd_gamma_bound(v_block: np.ndarray, u) -> float:
    """Largest gamma guaranteeing a positive definite reduced Hessian:
    2*||u||_2^2 * lam_min(V) / (3*sqrt(s))."""
    u = np.asarray(u, dtype=float).ravel()
    if np.any(u == 0.0):
        raise ZeroEntry("u must have no zero entries")
    v_block = np.asarray(v_block, dtype=float)
    if not np.allclose(v_block, v_block.T, atol=1e-10):
        raise NotPositiveDefinite("v_block is not symmetric")
    lam_min = float(np.linalg.eigvalsh(v_block)[0])
    if lam_min <= 0.0:
        raise NotPositiveDefinite("v_block is not positive definite")
    s = u.shape[0]
    return 2.0 * float(u @ u) * lam_min / (3.0 * np.sqrt(s))
