"""Second oracle for the ratio prox: the companion-matrix eigenvalue pass.

This is the candidate search the library used before its bracket search.
On every |q|-ordered prefix it solves the stationarity quartic
t^2 (rho S2 - P t)^2 = rho^2 S2 - 2 rho P t + k t^2 in t = 1/||x|| through
batched eigenvalues of 4x4 companion matrices, keeps the real positive
roots whose magnitudes come out positive, and polishes the best one with
a damped Newton iteration on the (a, r) system.  Unlike the brute-force
oracle it scales to any n, so it checks the library at large n and extreme
scales; it shares no algorithm code with the code under test.
"""

from __future__ import annotations

import numpy as np

from ratiopt.exceptions import NonConvergence
from ratiopt.model import Cone, ratio
from ratiopt.prox import ProxQuery, ProxResult

_POLISH_TOL = 1e-12


def _polish(a, r, rho, p_slice):
    """Damped Newton on the (a, r) system; returns (a, r, converged).

    The terms are scaled by w = rho/c and u = 1/(r c) rather than formed
    from rho^2 and c^2, which overflow once rho*max|q|^2 passes about 1e154.
    """
    P = p_slice.sum()
    S2 = float(p_slice @ p_slice)
    k = p_slice.size

    def residuals(a, r):
        if a <= 0 or r <= 0:
            return None
        # c = rho - a/r^3 may legitimately carry either sign: c < 0 is the
        # weak-coupling branch where every rho*p_i - t is negative too
        c = rho - a / r**3
        if c == 0.0:
            return None
        w, u = rho / c, 1.0 / (r * c)
        f1 = w * P - k * u - a
        f2 = w * w * S2 - 2.0 * w * P * u + k * u * u - r * r
        return np.array([f1 / (1.0 + a), f2 / (1.0 + r * r)])

    f = residuals(a, r)
    if f is None:
        return a, r, False
    for _ in range(60):
        if np.max(np.abs(f)) <= _POLISH_TOL:
            return a, r, True
        c = rho - a / r**3
        w, u = rho / c, 1.0 / (r * c)
        dc_da = -1.0 / r**3
        dc_dr = 3.0 * a / r**4
        g1 = (w * P - k * u) / c            # (rho P - k/r) / c^2
        g2 = w * w * S2 - 2.0 * w * P * u + k * u * u   # (...) / c^2
        # Jacobian of the raw residuals, rows rescaled like the residuals;
        # the scale factors are treated as constants within one step
        j11 = -g1 * dc_da - 1.0
        j12 = k * u / r - g1 * dc_dr
        j21 = -2.0 * g2 * (dc_da / c)
        j22 = 2.0 * u * (w * P - k * u) / r - 2.0 * g2 * (dc_dr / c) - 2.0 * r
        J = np.array([[j11, j12], [j21, j22]])
        J[0] /= (1.0 + a)
        J[1] /= (1.0 + r * r)
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            return a, r, False
        scale = 1.0
        for _ in range(30):
            a_new, r_new = a + scale * step[0], r + scale * step[1]
            f_new = residuals(a_new, r_new)
            if f_new is not None and np.max(np.abs(f_new)) < np.max(np.abs(f)):
                a, r, f = a_new, r_new, f_new
                break
            scale *= 0.5
        else:
            return a, r, np.max(np.abs(f)) <= _POLISH_TOL
    return a, r, np.max(np.abs(f)) <= _POLISH_TOL


def _quartic_roots(b3, b2, b1, b0):
    """Roots of the monic quartics t^4 + b3 t^3 + b2 t^2 + b1 t + b0.

    Coefficient arrays share a common length N; returns an (N, 4) complex
    array via batched companion-matrix eigenvalues.
    """
    n = b3.shape[0]
    comp = np.zeros((n, 4, 4))
    comp[:, 0, 0] = -b3
    comp[:, 0, 1] = -b2
    comp[:, 0, 2] = -b1
    comp[:, 0, 3] = -b0
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 3, 2] = 1.0
    return np.linalg.eigvals(comp)


def eig_prox(query: ProxQuery) -> ProxResult:
    """Minimizer of ratio(x) + (rho/2)||x - q||^2 by the eigenvalue pass;
    its value and support are what the tests compare."""
    q = query.q
    rho = query.rho
    n = q.size
    if query.cone is Cone.NONNEG:
        mags = np.where(q > 0.0, q, 0.0)
        signs = np.ones(n)
    else:
        mags = np.abs(q)
        signs = np.where(q < 0.0, -1.0, 1.0)
    order = np.argsort(-mags, kind="stable")
    p = mags[order]
    kmax = int(np.count_nonzero(p > 0.0))
    qsq = float(q @ q)
    zero_value = 1.0 + 0.5 * rho * qsq
    examined = 1

    if kmax == 0:
        return ProxResult(np.zeros(n), zero_value, examined)

    pk = p[:kmax]
    P = np.cumsum(pk)
    S2 = np.cumsum(pk * pk)
    K = np.arange(1, kmax + 1, dtype=float)
    off = np.maximum(qsq - S2, 0.0)

    # prune prefixes: value on prefix k is at least 1 + (rho/2)*off_k, and
    # x = q restricted to the prefix gives a cheap upper bound
    lower = 1.0 + 0.5 * rho * off
    upper = P / np.sqrt(S2) + 0.5 * rho * off
    best_upper = min(zero_value, float(upper.min()))
    keep = np.flatnonzero(lower <= best_upper * (1.0 + 1e-12) + 1e-12)

    best_val = zero_value
    best = None  # (k_index, t_root, a, r)

    if keep.size:
        Pv, S2v, Kv = P[keep], S2[keep], K[keep]
        lead = Pv * Pv
        roots = _quartic_roots(
            -2.0 * rho * S2v * Pv / lead,
            (rho * rho * S2v * S2v - Kv) / lead,
            2.0 * rho * Pv / lead,
            -(rho * rho) * S2v / lead,
        )
        t = roots.real
        genuine = (np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(t))) & (t > 0.0)
        Pm, S2m, Km = Pv[:, None], S2v[:, None], Kv[:, None]
        Qt = np.maximum(rho * rho * S2m - 2.0 * rho * Pm * t + Km * t * t, 0.0)
        c = np.where(rho * S2m - Pm * t >= 0.0, 1.0, -1.0) * t * np.sqrt(Qt)
        with np.errstate(divide="ignore", invalid="ignore"):
            a_c = (rho * Pm - Km * t) / c
            on_quad = 1.0 / (t * t) - 2.0 * (rho * S2m - t * Pm) / c + S2m
            cand_vals = a_c * t + 0.5 * rho * (
                np.maximum(on_quad, 0.0) + off[keep][:, None]
            )
        # positivity of every m_i: either t below rho*p_min with c > 0,
        # or t above rho*p_max with c < 0
        branch_ok = np.where(c > 0.0,
                             t < rho * pk[keep][:, None],
                             t > rho * pk[0])
        ok = genuine & branch_ok & (a_c > 0.0) & np.isfinite(cand_vals)
        examined += int(np.count_nonzero(genuine))
        if np.any(ok):
            masked = np.where(ok, cand_vals, np.inf)
            i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
            if masked[i, j] < best_val:
                best_val = float(masked[i, j])
                best = (int(keep[i]), float(t[i, j]),
                        float(a_c[i, j]), float(1.0 / t[i, j]))

    if best is None:
        return ProxResult(np.zeros(n), zero_value, examined)

    k_idx, t_root, a_c, r_c = best
    k = k_idx + 1
    p_slice = pk[:k]
    a_c, r_c, converged = _polish(a_c, r_c, rho, p_slice)
    if not converged:
        c = rho - a_c / r_c**3
        f1 = abs((rho * p_slice.sum() - k / r_c) / c - a_c) / (1.0 + a_c)
        if not (c != 0 and f1 <= 1e-10):
            raise NonConvergence("prox scalar system did not converge")
    c = rho - a_c / r_c**3
    m = (rho * p_slice - 1.0 / r_c) / c
    if np.any(m <= 0.0):
        raise NonConvergence("prox candidate lost positivity after polish")
    idx = order[:k]
    x = np.zeros(n)
    x[idx] = signs[idx] * m
    value = ratio(x) + 0.5 * rho * float((x - q) @ (x - q))
    if zero_value < value:
        return ProxResult(np.zeros(n), zero_value, examined)
    return ProxResult(x, value, examined)
