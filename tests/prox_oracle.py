"""Independent brute-force oracle for the ratio proximal problem.

Deliberately shares no code with ratiopt.prox: every nonempty support
subset is enumerated (not just |q|-ordered prefixes, and including
coordinates where the anchor is zero or cone-infeasible), and the
restricted smooth problem is minimized over positive magnitudes with a
generic bound-constrained quasi-Newton solver from several starts.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import minimize


def _restricted_min(targets: np.ndarray, rho: float) -> float:
    """min over m > 0 of sum(m)/||m|| + (rho/2)||m - targets||^2.

    targets may carry any sign; m is a vector of magnitudes.
    """

    def f(m):
        # the exact gradient keeps L-BFGS-B inside the bounds; its
        # finite-difference default can step below them and fail
        nrm = np.linalg.norm(m)
        total = m.sum()
        diff = m - targets
        value = total / nrm + 0.5 * rho * float(diff @ diff)
        grad = 1.0 / nrm - (total / nrm**3) * m + rho * diff
        return value, grad

    best = np.inf
    pos = np.maximum(targets, 1e-3)
    starts = [pos, np.ones_like(pos), 0.1 * np.ones_like(pos), 10.0 * pos]
    bounds = [(1e-10, None)] * targets.size
    for m0 in starts:
        res = minimize(f, m0, method="L-BFGS-B", jac=True, bounds=bounds,
                       options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500})
        best = min(best, float(res.fun))
    return best


def oracle_value(q, rho: float, nonneg: bool = False) -> float:
    """Global minimum of ratio(x) + (rho/2)||x - q||^2 by exhaustive
    support enumeration; intended for dim(q) <= 4."""
    q = np.asarray(q, dtype=float).ravel()
    n = q.size
    qsq = float(q @ q)
    best = 1.0 + 0.5 * rho * qsq  # x = 0 with ratio(0) = 1
    # the pull target on a chosen coordinate is |q_i| for the free cone
    # (the minimizer takes q's sign there) and the signed q_i under the
    # nonnegativity constraint
    targets = q if nonneg else np.abs(q)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            idx = np.asarray(subset)
            off = qsq - float(q[idx] @ q[idx])
            best = min(best,
                       _restricted_min(targets[idx], rho) + 0.5 * rho * off)
    return best
