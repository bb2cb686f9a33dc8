"""Closed-form facts about the reduced Hessian, for the tests to check against.

On a fixed support the reduced objective has the generalized Hessian V - Q,
with V the fidelity Hessian restricted to the support and, for a = ||u||_1
and r = ||u||_2,

    Q = (gamma/r^3) (u sgn(u)^T + sgn(u) u^T - (3a/r^2) u u^T + a I).

Q's spectrum is known in closed form, and V - Q is positive definite once
gamma is below a bound set by lam_min(V).  Both belong to the analysis, not
to the solver: ratiopt.ssnewton.hessian builds V - Q directly.  q_spectrum
and pd_gamma_bound share no code with it; q_from_hessian reads the
library's Q back out of hessian for them to check.  stationary_instance
uses the bound to build reduced problems with a known nondegenerate
stationary point.  A reduced problem is an ordinary Problem on the
support's columns.
"""

from __future__ import annotations

import numpy as np

from ratiopt.model import Problem
from ratiopt.ssnewton import hessian


def q_spectrum(gamma: float, u):
    """(lam1, lam2, lam_rest): the two edge eigenvalues of Q and the value
    carried with multiplicity s - 2."""
    u = np.asarray(u, dtype=float).ravel()
    s = u.size
    a = float(np.abs(u).sum())
    r = float(np.linalg.norm(u))
    scale = gamma / r**3
    disc = np.sqrt(max(4 * s * r**2 - 3 * a**2, 0.0))
    return scale * (a - disc) / 2.0, scale * (a + disc) / 2.0, scale * a


def q_from_hessian(rp: Problem, u) -> np.ndarray:
    """The library's Q, read as V - hessian(rp, u) on a least-squares rp,
    whose block V = A^T A is known."""
    return rp.A.T @ rp.A - hessian(rp, u)


def pd_gamma_bound(v_block, u) -> float:
    """Largest gamma guaranteeing a positive definite reduced Hessian:
    2*||u||_2^2 * lam_min(V) / (3*sqrt(s))."""
    u = np.asarray(u, dtype=float).ravel()
    if np.any(u == 0.0):
        raise ValueError("u must have no zero entries")
    v_block = np.asarray(v_block, dtype=float)
    if not np.allclose(v_block, v_block.T, atol=1e-10):
        raise ValueError("v_block is not symmetric")
    lam_min = float(np.linalg.eigvalsh(v_block)[0])
    if lam_min <= 0.0:
        raise ValueError("v_block is not positive definite")
    s = u.shape[0]
    return 2.0 * float(u @ u) * lam_min / (3.0 * np.sqrt(s))


def stationary_instance(seed, m=40, n=60):
    """Problem on s random columns of a random m x n matrix, with a known
    interior stationary point u_star and a positive definite Hessian there
    (gamma below the guarantee bound); returns it with u_star and the rng."""
    rng = np.random.default_rng(seed)
    s = int(rng.integers(3, 12))
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    idx = np.sort(rng.choice(n, s, replace=False))
    u_star = (0.5 + rng.random(s)) * rng.choice([-1.0, 1.0], s)
    a_cols = A[:, idx]
    V = a_cols.T @ a_cols
    gamma = 0.1 * pd_gamma_bound(V, u_star)
    a = np.abs(u_star).sum()
    r = np.linalg.norm(u_star)
    t = np.sign(u_star) / r - (a / r**3) * u_star
    b = a_cols @ (u_star + np.linalg.solve(V, gamma * t))
    return Problem(A=a_cols, b=b, gamma=gamma), u_star, rng
