"""Two-phase solver: ADMM until the support stabilizes, then Newton.

Phase I runs the ratio-prox ADMM until the support set is unchanged over
T+1 consecutive iterates.  The phase-one iterate is hard-shrunk, the
problem is restricted to the surviving support, and the reduced problem is
solved by the globalized semismooth Newton method; the result is scattered
back into the full space with exact zeros off the support.  A support is a
sorted index array, as np.flatnonzero returns it.

Phase I is a prefix of the plain ADMM run from the same start, and it can
resume: run_hafam accepts the phase-one AdmmState of an earlier report (a
smaller T) in place of x0, and run_admm accepts it to finish the
standalone solve, so one trajectory serves every T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import AdmmState, run_admm
from .exceptions import EmptySupportAfterShrink
from .model import Problem, SolverConfig
from .prox import fraction_tau, hard_shrink_support
from .ssnewton import ReducedProblem, run_ssnewton


@dataclass
class HafamReport:
    """Two-phase result; phase1 is the resumable phase-one ADMM state and
    support the index array Newton ran on.  When the support never settled,
    Newton is skipped: phase2_trace is None and support is the phase-one
    support."""

    x_final: np.ndarray
    phase1: AdmmState
    support: np.ndarray
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
        return HafamReport(state.x, state, np.flatnonzero(state.x),
                           phase1_trace=tr1, phase2_trace=None)
    if tau_frac is None:
        tau = float(cfg.tau)
    else:
        tau = fraction_tau(state.x, tau_frac)
    supp = hard_shrink_support(state.x, tau)
    if supp.size == 0:
        raise EmptySupportAfterShrink(
            f"tau={tau} removed every entry of the phase-one iterate")
    u, tr2 = run_ssnewton(ReducedProblem(p, supp), state.x[supp], cfg.newton)
    x_final = np.zeros(p.n)
    x_final[supp] = u
    return HafamReport(
        x_final=x_final, phase1=state, support=supp,
        phase1_trace=tr1, phase2_trace=tr2, tau=tau,
    )
