"""Two-phase solver orchestration."""

from dataclasses import replace

import numpy as np
import pytest

from ratiopt.admm import AdmmState, run_admm
from ratiopt.exceptions import EmptySupportAfterShrink
from ratiopt.hafam import run_hafam
from ratiopt.model import NewtonConfig, Problem, SolverConfig, objective


def make_problem(seed=0, m=24, n=80, s=4, gamma=1e-2):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    idx = rng.choice(n, s, replace=False)
    x_true[idx] = rng.standard_normal(s) + np.sign(rng.standard_normal(s))
    return Problem(A=A, b=A @ x_true, gamma=gamma), x_true


def support_stable(history, T):
    """The transition rule on a support history: the streak a run would
    carry after these iterates, read back through the stop rule (imax = k
    makes the run stop at once, as "imax" when the window is not stable)."""
    streak, prev = 0, None
    for s in history:
        streak = streak + 1 if np.array_equal(s, prev) else 1
        prev = s
    k = len(history)
    p = Problem(A=np.eye(2), b=np.ones(2), gamma=1.0)
    st = AdmmState(x=np.zeros(2), y=np.zeros(2), z=np.zeros(2), k=k,
                   support=np.asarray(history[-1]), streak=streak)
    out, tr = run_admm(p, SolverConfig(beta=1.0, imax=k), st,
                       support_window=T)
    assert out is st and tr.stop_reason in ("support_stable", "imax")
    return tr.stop_reason == "support_stable"


class TestSupportStable:
    def test_stable_window(self):
        h = [[1, 3]] * 3
        assert support_stable(h, 2)

    def test_changed_support(self):
        h = [[1, 3], [1, 2], [1, 2]]
        assert not support_stable(h, 2)

    def test_single_window(self):
        assert support_stable([[0]], 0)

    def test_short_history(self):
        assert not support_stable([[0]], 3)


class TestRunHafam:
    def test_recovers_and_reports(self):
        p, x_true = make_problem(0)
        rep = run_hafam(p, SolverConfig(beta=0.1, T=5), np.zeros(p.n))
        assert not rep.phase2_skipped
        assert rep.total_it >= rep.tran_it
        assert set(np.flatnonzero(rep.x_final)) <= set(rep.support)
        # the gamma-weighted ratio term biases the minimizer away from
        # x_true by O(gamma), so the tolerance is proportional to it
        assert np.linalg.norm(rep.x_final - x_true) <= p.gamma * np.linalg.norm(x_true)

    def test_tau_zero_keeps_phase1_support(self):
        p, _ = make_problem(1)
        rep = run_hafam(p, SolverConfig(beta=0.1, T=5), np.zeros(p.n))
        assert np.array_equal(rep.support, np.flatnonzero(rep.x_phase1))

    def test_phase2_never_increases_objective(self):
        p, _ = make_problem(2)
        rep = run_hafam(p, SolverConfig(beta=0.1, T=5), np.zeros(p.n))
        x0 = np.zeros(p.n)
        x0[rep.support] = rep.x_phase1[rep.support]
        assert objective(p, rep.x_final) <= objective(p, x0) + 1e-12

    def test_final_support_exact(self):
        p, _ = make_problem(3)
        rep = run_hafam(p, SolverConfig(beta=0.1, T=5), np.zeros(p.n))
        assert np.array_equal(np.flatnonzero(rep.x_final), rep.support)

    def test_degrades_on_iteration_cap(self):
        p, _ = make_problem(4)
        rep = run_hafam(p, SolverConfig(beta=0.1, T=5, imax=2), np.zeros(p.n))
        assert rep.phase2_skipped
        assert rep.total_it == rep.tran_it

    def test_empty_support_after_shrink(self):
        p, _ = make_problem(5)
        cfg = SolverConfig(beta=0.1, T=5, tau=1e9)
        with pytest.raises(EmptySupportAfterShrink):
            run_hafam(p, cfg, np.zeros(p.n))

    def test_fraction_tau_rule(self):
        p, _ = make_problem(6)
        cfg = SolverConfig(beta=0.1, T=5)
        rep = run_hafam(p, cfg, np.zeros(p.n), tau_frac=0.01)
        assert rep.tau >= 0.0
        assert len(rep.support) >= 1

    def test_absolute_tau_rule_prunes(self):
        p, _ = make_problem(7)
        cfg = SolverConfig(beta=0.1, T=5)
        base = run_hafam(p, replace(cfg, tau=0.0), np.zeros(p.n))
        small = np.min(np.abs(base.x_phase1[np.flatnonzero(base.x_phase1)]))
        pruned = run_hafam(p, replace(cfg, tau=small * 1.0001),
                           np.zeros(p.n))
        assert len(pruned.support) < len(base.support) or len(base.support) == 1

    def test_resume_from_smaller_window(self):
        p, _ = make_problem(9)
        cfg = SolverConfig(beta=0.1, T=8)
        ref = run_hafam(p, cfg, np.zeros(p.n))
        early = run_hafam(p, SolverConfig(beta=0.1, T=2), np.zeros(p.n))
        assert early.tran_it < ref.tran_it
        rep = run_hafam(p, cfg, early.phase1, record=True)
        assert rep.tran_it == ref.tran_it and rep.total_it == ref.total_it
        assert np.array_equal(rep.x_phase1, ref.x_phase1)
        assert np.array_equal(rep.x_final, ref.x_final)
        assert len(rep.phase1_trace.relerr) == ref.tran_it - early.tran_it

    def test_determinism(self):
        p, _ = make_problem(8)
        cfg = SolverConfig(beta=0.1, T=5)
        r1 = run_hafam(p, cfg, np.zeros(p.n))
        r2 = run_hafam(p, cfg, np.zeros(p.n))
        assert np.array_equal(r1.x_final, r2.x_final)
        assert r1.tran_it == r2.tran_it and r1.total_it == r2.total_it

    def test_recording_changes_no_iterate(self):
        p, _ = make_problem(8)
        cfg = SolverConfig(beta=0.1, T=5)
        bare = run_hafam(p, cfg, np.zeros(p.n))
        rec = run_hafam(p, cfg, np.zeros(p.n), record=True)
        assert np.array_equal(bare.x_final, rec.x_final)
        assert np.array_equal(bare.phase1.x, rec.phase1.x)
        assert bare.tran_it == rec.tran_it
        assert len(rec.phase1_trace.relerr) == rec.tran_it
        tr = bare.phase1_trace
        assert tr.stop_reason == rec.phase1_trace.stop_reason
        assert tr.lipschitz is None
        assert not (tr.relerr or tr.y_residual or tr.kkt_upper_bound
                    or tr.objective or tr.support or tr.grad_gap
                    or tr.subgrad_distance)

    def test_default_calls_no_telemetry(self, no_telemetry):
        p, _ = make_problem(8)
        rep = run_hafam(p, SolverConfig(beta=0.1, T=5), np.zeros(p.n))
        assert not rep.phase2_skipped


class TestConverged:
    """HafamReport.converged: Newton ran and stopped on grad_tol."""

    def test_grad_tol(self):
        p, _ = make_problem(0)
        rep = run_hafam(p, SolverConfig(beta=0.1, T=5), np.zeros(p.n))
        assert rep.phase2_trace.stop_reason == "grad_tol"
        assert rep.converged

    def test_phase_one_cap_skips_newton(self):
        p, _ = make_problem(4)
        rep = run_hafam(p, SolverConfig(beta=0.1, T=5, imax=2), np.zeros(p.n))
        assert rep.phase2_skipped and not rep.converged

    def test_newton_cap(self):
        p, _ = make_problem(0)
        cfg = SolverConfig(beta=0.1, T=5, newton=NewtonConfig(ssn_max=1))
        rep = run_hafam(p, cfg, np.zeros(p.n))
        assert rep.phase2_trace.stop_reason == "cap"
        assert not rep.converged

    def test_stall(self):
        p, _ = make_problem(0)
        rep = run_hafam(p, SolverConfig(beta=0.1, T=5), np.zeros(p.n))
        rep.phase2_trace.stop_reason = "stall"
        assert not rep.converged
