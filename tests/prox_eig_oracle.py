"""Second oracle for the ratio prox: the companion-matrix eigenvalue pass.

This is the candidate search the library used before its bracket search.
On every |q|-ordered prefix it solves the stationarity quartic
t^2 (rho S2 - P t)^2 = rho^2 S2 - 2 rho P t + k t^2 in t = 1/||x|| through
batched eigenvalues of 4x4 companion matrices, keeps the real positive
roots whose magnitudes come out positive, and polishes the best one with
the library's own (a, r) Newton step.  Unlike the brute-force oracle it
scales to any n, so it checks the library at large n and extreme scales;
it shares only _polish with the code under test.
"""

from __future__ import annotations

import numpy as np

from ratiopt.exceptions import NonConvergence
from ratiopt.model import Cone, Support, ratio
from ratiopt.prox import ProxQuery, ProxResult, _polish


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
        return ProxResult(np.zeros(n), zero_value, Support(()), examined)

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
        return ProxResult(np.zeros(n), zero_value, Support(()), examined)

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
        return ProxResult(np.zeros(n), zero_value, Support(()), examined)
    return ProxResult(x, value, Support.from_vector(x), examined)
