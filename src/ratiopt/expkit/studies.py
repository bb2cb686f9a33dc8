"""Experiment drivers: identification heatmaps and noisy-threshold sweeps."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..admm import run_admm
from ..exceptions import RatioptError
from ..hafam import run_hafam
from ..model import Cone, Fidelity, Problem, SolverConfig
from .generate import SynthSpec
from .metrics import iacc, rerr


@dataclass(frozen=True)
class IdentCell:
    """Mean Phase-I identification accuracy for one (m, s, T) grid cell."""

    m: int
    s: int
    T: int
    sparsity_level: float  # s / m
    sample_level: float    # m / m_max over the grid
    mean_iacc: float
    n_ok: int
    n_failed: int


@dataclass
class StudyResult:
    cells: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (m, s, T, seed, message)


def _identify_instance(spec: SynthSpec, T_list, gamma: float, beta: float,
                       imax: int) -> dict:
    """T -> IAcc(x_hat, x_T^I), or the message of the RatioptError that
    failed T.  Each phase one resumes from that of the next smaller T and
    x_hat from the last, so a failed x_hat fails every T."""
    phase1 = {}
    try:
        A, b, _ = spec.build()
        p = Problem(A=A, b=b, gamma=gamma, cone=Cone.FREE,
                    fidelity=Fidelity.LEAST_SQUARES)
        state = np.zeros(p.n)
        for T in sorted(set(T_list)):
            try:
                rep = run_hafam(p, SolverConfig(beta=beta, T=T, imax=imax),
                                state)
            except RatioptError as exc:
                phase1[T] = str(exc)
                continue
            phase1[T] = rep.x_phase1
            state = rep.phase1
        x_hat = run_admm(p, SolverConfig(beta=beta, imax=imax), state)[0].x
    except RatioptError as exc:
        return {T: str(exc) for T in T_list}
    return {T: x if isinstance(x, str) else iacc(x_hat, x)
            for T, x in phase1.items()}


def finite_identification_study(m_list, s_list, T_list, *, n: int,
                                seeds, gamma: float, beta: float,
                                coherence: float = 0.8,
                                imax: int = 2000) -> StudyResult:
    """IAcc(x_hat, x_T^I) averaged over seeds for every (m, s, T) cell.

    Each instance is built once and solved along one ADMM trajectory;
    per-seed RatioptError failures are recorded in the result, not raised.
    """
    if not (list(m_list) and list(s_list) and list(T_list)):
        raise ValueError("study grid must be nonempty")
    m_max = max(m_list)
    out = StudyResult()
    for m in m_list:
        for s in s_list:
            per_seed = [
                _identify_instance(
                    SynthSpec(family="gaussian", m=m, n=n, s=s,
                              coherence=coherence, dynamic_D=1.0, seed=seed),
                    T_list, gamma, beta, imax)
                for seed in seeds]
            for T in T_list:
                vals = []
                for seed, result in zip(seeds, per_seed):
                    if isinstance(result[T], str):
                        out.failures.append((m, s, T, seed, result[T]))
                    else:
                        vals.append(result[T])
                mean = float(np.mean(vals)) if vals else float("nan")
                out.cells.append(IdentCell(
                    m=m, s=s, T=T, sparsity_level=s / m,
                    sample_level=m / m_max, mean_iacc=mean,
                    n_ok=len(vals), n_failed=len(seeds) - len(vals),
                ))
    return out


@dataclass(frozen=True)
class NoisyRun:
    tau: float
    seed: int
    rerr: float
    iacc_truth: float


def noisy_tau_study(spec_base: SynthSpec, tau_list, seeds, *, gamma: float,
                    beta: float, T: int = 5, imax: int = 2000):
    """HAFAM under noise for a sweep of shrinkage thresholds tau.

    IAcc is measured between the thresholded Phase-I support and the ground
    truth, which is what the threshold actually controls.
    """
    runs = []
    for seed in seeds:
        A, b, xstar = replace(spec_base, seed=seed).build()
        p = Problem(A=A, b=b, gamma=gamma, cone=Cone.FREE,
                    fidelity=Fidelity.LEAST_SQUARES)
        cfg = SolverConfig(beta=beta, T=T, imax=imax)
        state = np.zeros(p.n)
        for tau in tau_list:
            # phase one does not depend on tau: after the first tau it
            # resumes from its stopped state and only Newton runs again
            rep = run_hafam(p, replace(cfg, tau=float(tau)), state)
            state = rep.phase1
            shrunk = np.zeros(p.n)
            shrunk[rep.support] = 1.0
            truth_pattern = (xstar != 0).astype(float)
            runs.append(NoisyRun(tau=float(tau), seed=seed,
                                 rerr=rerr(rep.x_final, xstar),
                                 iacc_truth=iacc(shrunk, truth_pattern)))
    return runs


def profile_times(problems, solvers) -> np.ndarray:
    """Wall-clock matrix t[p, j] for performance profiles.

    problems: list of (Problem, x0); solvers: list of (name, fn) with
    fn(problem, x0) -> x; failures become +inf.
    """
    t = np.full((len(problems), len(solvers)), np.inf)
    for i, (p, x0) in enumerate(problems):
        for j, (_, fn) in enumerate(solvers):
            tic = time.perf_counter()
            try:
                fn(p, x0)
                t[i, j] = max(time.perf_counter() - tic, 1e-9)
            except RatioptError:
                pass
    return t
