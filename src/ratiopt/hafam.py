"""Two-phase solver: ADMM until the support stabilizes, then Newton.

Phase I runs the ratio-prox ADMM until the support set is unchanged over
T+1 consecutive iterates.  The phase-one iterate is hard-shrunk, the
problem is restricted to the surviving support, and the reduced problem is
solved by the globalized semismooth Newton method; the result is embedded
back into the full space with exact zeros off the support.

Phase I is a prefix of the plain ADMM run from the same start, and it can
resume: run_hafam accepts the phase-one AdmmState of an earlier report (a
smaller T) in place of x0, and run_admm accepts it to finish the
standalone solve, so one trajectory serves every T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import AdmmState, run_admm
from .exceptions import EmptySupportAfterShrink, IndexOutOfRange
from .model import Problem, SolverConfig, Support
from .prox import fraction_tau, hard_shrink_support
from .ssnewton import ReducedProblem, run_ssnewton


def embed(u, support: Support, n: int) -> np.ndarray:
    """Scatter u onto the support inside an n-vector of exact zeros."""
    u = np.asarray(u, dtype=float).ravel()
    idx = support.to_array()
    if u.shape[0] != idx.shape[0]:
        raise IndexOutOfRange(
            f"u has length {u.shape[0]} but the support has {idx.shape[0]}")
    if idx.size and idx.max() >= n:
        raise IndexOutOfRange(f"support index {idx.max()} out of range for n={n}")
    x = np.zeros(n)
    x[idx] = u
    return x


def restrict(x, support: Support) -> np.ndarray:
    return np.asarray(x, dtype=float).ravel()[support.to_array()]


@dataclass
class HafamReport:
    """Two-phase result; phase1 is the resumable phase-one ADMM state and
    phase2_trace is None when Newton was skipped."""

    x_final: np.ndarray
    phase1: AdmmState
    support: Support
    phase1_trace: object
    phase2_trace: object
    tau: float = 0.0

    @property
    def x_phase1(self) -> np.ndarray:
        return self.phase1.x

    @property
    def tran_it(self) -> int:
        return self.phase1.k

    @property
    def phase2_skipped(self) -> bool:
        return self.phase2_trace is None

    @property
    def total_it(self) -> int:
        newton = 0 if self.phase2_skipped else self.phase2_trace.iterations
        return self.tran_it + newton


def run_hafam(p: Problem, cfg: SolverConfig, x0, tau_frac=None,
              record=False) -> HafamReport:
    """Full two-phase run from a start point or a phase-one AdmmState;
    degrades to the phase-one output if the support never stabilizes
    within the iteration cap.  The shrink level is cfg.tau, or with
    tau_frac the largest level whose removed entries hold less than that
    fraction of the phase-one L1 mass.  record is passed to phase one,
    whose trace holds per-iteration series only when it is set; the
    iterates, and so the report's points, do not depend on it."""
    state, tr1 = run_admm(p, cfg, x0, support_window=cfg.T, record=record)
    if tr1.stop_reason == "imax":
        return HafamReport(state.x, state, Support.from_vector(state.x),
                           phase1_trace=tr1, phase2_trace=None)
    if tau_frac is None:
        tau = float(cfg.tau)
    else:
        tau = fraction_tau(state.x, tau_frac)
    xhat, supp = hard_shrink_support(state.x, tau)
    if len(supp) == 0:
        raise EmptySupportAfterShrink(
            f"tau={tau} removed every entry of the phase-one iterate")
    rp = ReducedProblem.from_support(p, supp)
    u0 = restrict(xhat, supp)
    u, tr2 = run_ssnewton(rp, u0, cfg.newton)
    return HafamReport(
        x_final=embed(u, supp, p.n), phase1=state, support=supp,
        phase1_trace=tr1, phase2_trace=tr2, tau=tau,
    )
