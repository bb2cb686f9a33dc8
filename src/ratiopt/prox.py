"""Exact proximal operator of the L1/L2 ratio, plus shrinkage helpers.

prox_l1_over_l2 globally minimizes

    ratio(x) + (rho/2) * ||x - q||^2      over the cone,

with ratio(0) = 1.  The minimizer keeps the signs of q on its support, and
the support is a prefix of the |q|-descending order p (ties broken by lower
index).  On prefix k, stationarity makes the magnitudes a rescaled soft
threshold of the anchor, m proportional to p - tau, where tau = 1/(rho ||x||)
solves one scalar equation.  Off-support optimality and m_k > 0 confine
tau to the bracket [p_{k+1}, p_k), so the brackets of different prefixes
are disjoint, and the equation is concave on each one.  A vectorized pass
over all breakpoints keeps the few brackets that can hold a root;
safeguarded Newton solves those to about 4 ulps, closed forms cover the
top entry and the block tied with it, and the winner's magnitudes are built
from its root directly.  No eigenvalue problem is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NonConvergence, ZeroVector
from .model import Cone, ratio


@dataclass(frozen=True)
class ProxQuery:
    """Anchor q, curvature rho = beta/gamma, and the cone."""

    q: np.ndarray
    rho: float
    cone: Cone = Cone.FREE

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).ravel()
        if q.size < 1:
            raise ValueError("q must have at least one entry")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rho", float(self.rho))


@dataclass(frozen=True)
class ProxResult:
    """Minimizer x with its objective value; its support is
    np.flatnonzero(x).

    candidates_examined counts the points the search evaluated: 1 for
    x = 0, 1 per closed form (the top entry, and the block tied with it
    when that has more entries) and 1 per root solved in a bracket.
    """

    x: np.ndarray
    value: float
    candidates_examined: int


def _bracketed_root(fn, lo, hi, f_lo, f_hi):
    """Zero of a monotone fn on [lo, hi] to about 4 ulps, given
    f_lo = fn(lo) and f_hi = fn(hi) of opposite signs (either may be 0).

    fn(t) returns (value, derivative).  Newton starts at the end where fn
    is negative: for a concave fn its steps then stay on that side of the
    zero.  A step that leaves the shrinking bracket is replaced by its
    midpoint.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    neg_lo = f_lo < 0.0
    t = lo if neg_lo else hi
    for _ in range(100):
        f, df = fn(t)
        if f == 0.0:
            return t
        if (f < 0.0) == neg_lo:
            lo = t
        else:
            hi = t
        step = f / df if df != 0.0 else hi - lo
        if abs(step) <= 1e-15 * abs(t):
            return min(max(t - step, lo), hi)
        t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * hi:
            return t
    return t


def _concave_roots(h, dh, lo, hi, h_lo, h_hi):
    """Zeros of a concave h on [lo, hi], given h_lo = h(lo), h_hi = h(hi).

    h(t) returns (value, slope) and dh(t) returns (slope, curvature).  When
    both ends are <= 0 the interval is split at the peak of h, so each
    piece is monotone and holds at most one zero.
    """
    if h_lo > 0.0 or h_hi > 0.0:
        pieces = [(lo, hi, h_lo, h_hi)]
    else:
        d_lo, d_hi = h(lo)[1], h(hi)[1]
        top = (lo if d_lo <= 0.0 else hi if d_hi >= 0.0
               else _bracketed_root(dh, lo, hi, d_lo, d_hi))
        h_top = h(top)[0]
        pieces = [(lo, top, h_lo, h_top), (top, hi, h_top, h_hi)]
    return [_bracketed_root(h, a, b, f_a, f_b)
            for a, b, f_a, f_b in pieces
            if min(f_a, f_b) <= 0.0 <= max(f_a, f_b)]


def prox_l1_over_l2(query: ProxQuery) -> ProxResult:
    """Global minimizer of ratio(x) + (rho/2)||x - q||^2 over the cone."""
    q = query.q
    rho = query.rho
    n = q.size
    if query.cone is Cone.NONNEG:
        mags = np.where(q > 0.0, q, 0.0)
        signs = np.ones(n)
    else:
        mags = np.abs(q)
        signs = np.where(q < 0.0, -1.0, 1.0)
    order = np.argsort(-mags)
    p = mags[order]
    kmax = int(np.count_nonzero(p > 0.0))
    pos = p[:kmax]
    if np.any(pos[1:] == pos[:-1]):
        # only tied positive anchors make the order ambiguous; the support
        # takes the lower index first
        order = np.argsort(-mags, kind="stable")
    qsq = float(q @ q)
    zero_value = 1.0 + 0.5 * rho * qsq
    examined = 1

    if kmax == 0:
        return ProxResult(np.zeros(n), zero_value, examined)

    # unit scale: magnitudes in (0, 1], a zero appended for the threshold
    # tau = 0, and the curvature rho*scale^2 that keeps every value
    scale = p[0]
    ktie = int(np.count_nonzero(p[:kmax] == scale))
    p = np.append(p[:kmax] / scale, 0.0)
    rho_u = rho * scale * scale
    cut = q - signs * mags          # anchor entries outside the cone
    sq = p * p
    # off[k-1]: squared anchor mass outside prefix k
    off = np.cumsum(sq[::-1])[-2::-1] + float(cut @ cut) / (scale * scale)

    # closed forms, x = q on the top entry or on the block tied with it:
    # - a minimizer with c = rho - a/r^3 <= 0 has tied anchors on its
    #   support (m_i grows as p_i shrinks there, so otherwise swapping two
    #   magnitudes lowers ||x - q|| at the same ratio), so it is x = q on a
    #   tied top block, and the top entry alone does at least as well
    # - on prefixes 1 and ktie, x = q is the only stationary point with
    #   c > 0 (the other zero of h below is the open end of the bracket)
    best = (zero_value, 0, None)    # (value, k, tau); tau None: x = q
    for k in {1, ktie}:
        examined += 1
        value = k ** 0.5 + 0.5 * rho_u * off[k - 1]
        if value < best[0]:
            best = (value, k, None)

    # c > 0 on a prefix k > ktie: with tau = 1/(rho_u ||x||), stationarity
    # gives m = (p - tau)/(rho_u tau ||p - tau||) on the prefix and
    # rho_u tau <p, p - tau> = ||p - tau||; off-support optimality and
    # m_k > 0 put tau in the bracket [p_{k+1}, p_k).  With s = p_k - tau the
    # equation reads h(tau) = 0 for the concave
    #     h = rho_u tau (E_k + s P_k) - sqrt(D2_k + 2 s D1_k + k s^2)
    # where P_k = sum p_i, D1_k = sum (p_i - p_k), D2_k = sum (p_i - p_k)^2
    # and E_k = sum p_i (p_i - p_k) over the prefix, all summed from the
    # nonnegative gaps delta, so no term cancels.
    K = np.arange(1, kmax + 2, dtype=float)
    delta = p[:-1] - p[1:]
    D1 = np.zeros(kmax + 1)
    D2 = np.zeros(kmax + 1)
    np.cumsum(K[:-1] * delta, out=D1[1:])
    np.cumsum(delta * (2.0 * D1[:-1] + K[:-1] * delta), out=D2[1:])
    P = np.cumsum(p)
    E = D2 + p * D1
    V = np.cumsum(D2)   # sum over pairs i < j <= k of (p_i - p_j)^2
    # h is continuous in tau across brackets: H[j] is h at tau = p_{j+1}
    H = rho_u * p * E - np.sqrt(D2)
    h_lo, h_hi, gap = H[ktie + 1:], H[ktie:-1], delta[ktie:]
    # a concave h has one zero in a bracket whose ends differ in sign; with
    # both ends <= 0 it has two or none, none when the tangents at the ends
    # meet below 0
    single = ((h_lo > 0.0) & (h_hi <= 0.0)) | ((h_lo <= 0.0) & (h_hi > 0.0))
    G = D1[ktie:] / np.sqrt(D2[ktie:])
    F = rho_u * (E[ktie:-1] - p[ktie:-1] * P[ktie:-1])
    d_hi = F + G[:-1]
    d_lo = F + 2.0 * rho_u * gap * P[ktie:-1] + G[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        meet = h_lo + d_lo * ((h_hi - h_lo - d_hi * gap) / (d_lo - d_hi))
    peak = np.where(d_lo <= 0.0, h_lo, np.where(d_hi >= 0.0, h_hi, meet))
    pair = (h_lo <= 0.0) & (h_hi <= 0.0) & (gap > 0.0) & (peak >= 0.0)
    for j in np.flatnonzero(single | pair) + ktie:
        k = j + 1
        pj, Pj, Ej, D1j, D2j, Vj = p[j], P[j], E[j], D1[j], D2[j], V[j]

        def h(tau):
            s = pj - tau
            rb = (D2j + s * (2.0 * D1j + k * s)) ** 0.5
            return (rho_u * tau * (Ej + s * Pj) - rb,
                    rho_u * (Ej + s * Pj - tau * Pj) + (D1j + k * s) / rb)

        def dh(tau):
            s = pj - tau
            b = D2j + s * (2.0 * D1j + k * s)
            return h(tau)[1], -2.0 * rho_u * Pj - Vj / b**1.5

        for tau in _concave_roots(h, dh, p[j + 1], pj, H[j + 1], H[j]):
            examined += 1
            if tau >= pj:
                continue    # m_k = 0: the root belongs to prefix k - 1
            # ratio R = sum m / ||m|| and ||m - p||^2 = tau^2 (k - R^2)
            s = pj - tau
            b = D2j + s * (2.0 * D1j + k * s)
            value = (D1j + k * s) / b**0.5 \
                + 0.5 * rho_u * (tau * tau * Vj / b + off[j])
            if value < best[0]:
                best = (value, k, tau)

    _, k, tau = best
    if k == 0:
        return ProxResult(np.zeros(n), zero_value, examined)
    idx = order[:k]
    x = np.zeros(n)
    if tau is None:
        x[idx] = q[idx]
    else:
        s = p[k - 1] - tau
        b = D2[k - 1] + s * (2.0 * D1[k - 1] + k * s)
        r_c = 1.0 / (rho_u * tau)
        a_c = (D1[k - 1] + k * s) / b**0.5 * r_c
        c = rho_u - a_c / r_c**3
        m = (rho_u * p[:k] - 1.0 / r_c) / c
        if np.any(m <= 0.0):
            raise NonConvergence("prox candidate lost positivity")
        x[idx] = signs[idx] * (scale * m)
    value = ratio(x) + 0.5 * rho * float((x - q) @ (x - q))
    if tau is not None:
        # x = q on the same prefix: at couplings near the overflow threshold
        # the point built from tau differs from q by rounding alone, which
        # rho magnifies in its value
        q_value = ratio(q[idx]) + 0.5 * rho_u * off[k - 1]
        if q_value < value:
            x[idx] = q[idx]
            value = q_value
    if zero_value < value:
        return ProxResult(np.zeros(n), zero_value, examined)
    return ProxResult(x, value, examined)


def hard_shrink_support(x, tau: float) -> np.ndarray:
    """Sorted indices of the entries with |x_i| > tau.

    They are the support of max(|x| - tau, 0) .* x; x on them, undistorted,
    is the Newton start.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return np.flatnonzero(np.abs(np.asarray(x, dtype=float).ravel()) > tau)


def soft_threshold(v, t: float) -> np.ndarray:
    """Componentwise sign(v)*max(|v| - t, 0)."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fraction_tau(x, frac: float) -> float:
    """Shrink level from the ascending-|x| prefix holding < frac of the L1 mass.

    Returns the largest |x| value whose ascending prefix sum stays below
    frac * ||x||_1, or 0 when no prefix qualifies.
    """
    if not 0.0 <= frac < 1.0:
        raise ValueError("frac must lie in [0, 1)")
    x = np.asarray(x, dtype=float).ravel()
    if not np.any(x):
        raise ZeroVector("fraction_tau requires a nonzero vector")
    asc = np.sort(np.abs(x))
    cum = np.cumsum(asc)
    qualifying = np.flatnonzero(cum < frac * cum[-1])
    if qualifying.size == 0:
        return 0.0
    return float(asc[qualifying[-1]])
