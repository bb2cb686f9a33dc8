"""Unified ADMM iteration with the L1/L2 prox x-update, plus an L1 baseline.

One step:

    x^{k+1} = prox of the ratio at q = y^k - z^k/beta, with rho = beta/gamma
    y^{k+1} = argmin_y Phi(y) + (beta/2)||y - x^{k+1} - z^k/beta||^2
    z^{k+1} = z^k + beta (x^{k+1} - y^{k+1})

For the least-squares fit the y-update is a ridge solve with one cached
Cholesky factor.  On a wide A it runs in dual form (the matrix-inversion
lemma), y = v - A^T lam with (beta I + A A^T) lam = A v - b: two products
with A, and a forward error at roundoff level without refinement.

Per-iteration series are recorded only on request (record=True).  A
recorded step evaluates A x - b once for the objective and the subgradient
distance, and the gradient gap adds two more passes over A; an unrecorded
step makes only the y-solve's products with A, and its trace carries the
stop reason alone.  The iterates do not depend on record.

A run stops on the relative change of x or on a caller-supplied support
stability window (the two-phase solver's transition rule).  The iterates do
not depend on the window, so a run is resumable: pass the returned
AdmmState in place of x0 and the run continues from (x, y, z, k) and stops
exactly where one uninterrupted run with the new settings would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .exceptions import FactorizationFailure, InnerNoConvergence
from .model import (
    Cone,
    Fidelity,
    Problem,
    SolverConfig,
    fidelity_grad,
    fidelity_value,
    lipschitz_estimate,
    objective,
    relerr,
    subgradient_distance,
)
from .prox import ProxQuery, prox_l1_over_l2, soft_threshold


class LeastSquaresYSolver:
    """Cached solver for (A^T A + beta I) y = A^T b + beta v.

    A wide matrix factors the m x m system (beta I + A A^T) and solves in
    dual form, y = v - A^T lam with (beta I + A A^T) lam = A v - b: two
    products with A per solve.  A tall one factors (A^T A + beta I) and
    solves with no product with A.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, beta: float):
        if not beta > 0 or not np.isfinite(A).all():
            raise FactorizationFailure("beta must be positive and A finite")
        self.A = A
        self.b = b
        self.beta = float(beta)
        m, n = A.shape
        self.wide = m < n
        try:
            if self.wide:
                self.factor = scipy.linalg.cho_factor(beta * np.eye(m) + A @ A.T)
            else:
                self.atb = A.T @ b
                self.factor = scipy.linalg.cho_factor(A.T @ A + beta * np.eye(n))
        except scipy.linalg.LinAlgError as exc:
            raise FactorizationFailure(str(exc)) from exc

    def solve(self, v: np.ndarray) -> np.ndarray:
        if self.wide:
            lam = scipy.linalg.cho_solve(self.factor, self.A @ v - self.b)
            return v - self.A.T @ lam
        return scipy.linalg.cho_solve(self.factor, self.atb + self.beta * v)


_RN_INNER_TOL = 1e-9
_RN_MAX_ITERS = 10000


def y_update_residual_norm(p: Problem, beta: float, v) -> np.ndarray:
    """y-subproblem for Phi = ||Ay - b||, solved through its dual.

    The dual maximizes <lam, Av - b> - ||A^T lam||^2/(2 beta) over the unit
    ball, a smooth quadratic handled by accelerated projected gradient;
    the primal point is recovered as y = v - A^T lam / beta.
    """
    A, b = p.A, p.b
    v = np.asarray(v, dtype=float)
    g0 = A @ v - b
    sigma = np.linalg.norm(A, 2)
    if sigma == 0.0:
        return v.copy()
    lip = sigma * sigma / beta
    lam = np.zeros(p.m)
    lam_prev = lam
    tk = 1.0
    for _ in range(_RN_MAX_ITERS):
        tk_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        w = lam + ((tk - 1.0) / tk_next) * (lam - lam_prev)
        grad = A @ (A.T @ w) / beta - g0
        cand = w - grad / lip
        nrm = np.linalg.norm(cand)
        if nrm > 1.0:
            cand /= nrm
        lam_prev, lam, tk = lam, cand, tk_next
        y = v - (A.T @ lam) / beta
        res = A @ y - b
        res_nrm = np.linalg.norm(res)
        if res_nrm > 0.0:
            sub = A.T @ (res / res_nrm) + beta * (y - v)
            if np.linalg.norm(sub) <= _RN_INNER_TOL:
                return y
        else:
            return y
    raise InnerNoConvergence("residual-norm y-subproblem did not converge")


@dataclass
class AdmmState:
    """Iterate triple after k steps and the last step's relative change;
    streak counts the consecutive iterates, ending at x^k, with support
    `support` (0 for a fresh state)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    k: int = 0
    support: np.ndarray | None = None
    streak: int = 0
    relerr: float = np.inf


@dataclass
class AdmmTrace:
    """Per-iteration records of one call (append-only, equal lengths, and
    empty unless the call recorded) and its stop reason."""

    relerr: list = field(default_factory=list)
    y_residual: list = field(default_factory=list)
    kkt_upper_bound: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    support: list = field(default_factory=list)
    grad_gap: list = field(default_factory=list)       # ||grad Phi(y) - z||
    subgrad_distance: list = field(default_factory=list)
    lipschitz: float | None = None
    stop_reason: str = ""


def _stop_reason(st: AdmmState, cfg: SolverConfig, support_window) -> str:
    """Why the run stops at st, or "" to keep iterating."""
    if support_window is not None and st.streak >= support_window + 1:
        return "support_stable"
    # x = 0 is never stationary under the data condition; a zero iterate
    # early on (e.g. from a zero start) must not trip the relative-change
    # stop.
    if st.relerr < cfg.rel_tol and np.any(st.x):
        return "relerr"
    if st.k >= cfg.imax:
        return "imax"
    return ""


def _make_y_step(p: Problem, cfg: SolverConfig):
    if p.fidelity is Fidelity.LEAST_SQUARES:
        solver = LeastSquaresYSolver(p.A, p.b, cfg.beta)
        return solver.solve
    return lambda v: y_update_residual_norm(p, cfg.beta, v)


def _ratio_x_step(p: Problem, cfg: SolverConfig):
    rho = cfg.beta / p.gamma

    def step(q):
        return prox_l1_over_l2(ProxQuery(q, rho, p.cone)).x

    return step


def _l1_x_step(p: Problem, cfg: SolverConfig):
    level = p.gamma / cfg.beta

    def step(q):
        if p.cone is Cone.NONNEG:
            return np.maximum(q - level, 0.0)
        return soft_threshold(q, level)

    return step


def _run_loop(p, cfg, x0, x_step, support_window, record, ratio_model):
    if isinstance(x0, AdmmState):
        st = x0
    else:
        x = np.asarray(x0, dtype=float).ravel().copy()
        st = AdmmState(x=x, y=x.copy(), z=x.copy())
    trace = AdmmTrace(stop_reason=_stop_reason(st, cfg, support_window))
    if trace.stop_reason:
        return st, trace
    beta = cfg.beta
    y_step = _make_y_step(p, cfg)
    bound_coef = np.nan
    if record and ratio_model and p.fidelity is Fidelity.LEAST_SQUARES:
        L = trace.lipschitz = lipschitz_estimate(p)
        bound_coef = L * L / beta + beta
    while not trace.stop_reason:
        x, y, z = st.x, st.y, st.z
        x_new = x_step(y - z / beta)
        supp = np.flatnonzero(x_new)
        y_new = y_step(x_new + z / beta)
        z_new = z + beta * (x_new - y_new)
        change = relerr(x, x_new)
        if record:
            y_res = float(np.linalg.norm(y - y_new))
            trace.relerr.append(change)
            trace.y_residual.append(y_res)
            trace.kkt_upper_bound.append(bound_coef * y_res)
            trace.support.append(supp)
            res = p.A @ x_new - p.b
            if ratio_model:
                trace.objective.append(objective(p, x_new, res))
                gap = np.linalg.norm(fidelity_grad(p, y_new) - z_new)
                trace.grad_gap.append(float(gap))
                if np.any(x_new):
                    trace.subgrad_distance.append(
                        subgradient_distance(p, x_new, res))
                else:
                    trace.subgrad_distance.append(np.nan)
            else:
                trace.objective.append(
                    p.gamma * np.abs(x_new).sum() + fidelity_value(p, res))
                trace.grad_gap.append(np.nan)
                trace.subgrad_distance.append(np.nan)
        same = st.streak and np.array_equal(supp, st.support)
        st = AdmmState(x=x_new, y=y_new, z=z_new, k=st.k + 1, support=supp,
                       streak=st.streak + 1 if same else 1, relerr=change)
        trace.stop_reason = _stop_reason(st, cfg, support_window)
    return st, trace


def run_admm(p: Problem, cfg: SolverConfig, x0, support_window=None,
             record=False):
    """Iterate until RelErr < rel_tol or until cfg.imax total iterations.

    With support_window = T the loop also stops as soon as the support is
    unchanged over T+1 consecutive iterates (two-phase transition rule),
    checked before the RelErr stop.  x0 is either a start point, with
    y0 = z0 = x0, or an AdmmState to resume; a state that already meets a
    stop rule comes back unchanged.  Returns (state, trace), where the
    trace covers only the iterations this call ran: its per-iteration
    series are filled only with record=True, which costs a Lipschitz
    estimate per call and four passes over A per step, and leaves the
    iterates unchanged.
    """
    x_step = _ratio_x_step(p, cfg)
    return _run_loop(p, cfg, x0, x_step, support_window=support_window,
                     record=record, ratio_model=True)


def run_admm_l1_baseline(p: Problem, cfg: SolverConfig, x0, record=False):
    """Same splitting with the soft-threshold x-update (lasso comparator)."""
    x_step = _l1_x_step(p, cfg)
    return _run_loop(p, cfg, x0, x_step, support_window=None, record=record,
                     ratio_model=False)
