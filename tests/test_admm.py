"""ADMM splitting: subproblem solvers, stepping, stopping, resuming,
baseline."""

from dataclasses import replace

import numpy as np
import pytest

from counting_matrix import CountingMatrix
from ratiopt.admm import (
    AdmmState,
    LeastSquaresYSolver,
    run_admm,
    run_admm_l1_baseline,
    y_update_residual_norm,
)
from ratiopt.exceptions import FactorizationFailure
from ratiopt.model import (
    Cone,
    Fidelity,
    Problem,
    SolverConfig,
    certificate,
    fidelity_grad,
    fidelity_value,
    relerr,
)


def make_problem(A, b, gamma, **kw):
    return Problem(A=np.asarray(A, float), b=np.asarray(b, float),
                   gamma=gamma, **kw)


def y_update_least_squares(p, beta, v):
    return LeastSquaresYSolver(p.A, p.b, beta).solve(np.asarray(v, float))


def step(p, cfg, st):
    """Exactly one ADMM step from st; rel_tol only decides when to stop."""
    nxt, tr = run_admm(p, replace(cfg, imax=st.k + 1, rel_tol=0.0), st)
    assert nxt.k == st.k + 1 and tr.stop_reason == "imax"
    return nxt


def sparse_instance(seed=4, m=20, n=60):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    x_true[[3, 17, 40]] = [1.0, -2.0, 1.5]
    return make_problem(A, A @ x_true, 1e-3)


class TestYUpdateLeastSquares:
    def test_scalar_system(self):
        p = make_problem([[1.0]], [1.0], 1.0)
        assert y_update_least_squares(p, 2.0, [0.0]) == pytest.approx([1 / 3])

    def test_zero_matrix_pure_proximal(self):
        p = make_problem([[0.0]], [0.0], 1.0)
        assert y_update_least_squares(p, 3.0, [7.0]) == pytest.approx([7.0])

    def test_wide_system_residual(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((10, 40))
        b = rng.standard_normal(10)
        p = make_problem(A, b, 1.0)
        beta = 0.7
        v = rng.standard_normal(40)
        y = y_update_least_squares(p, beta, v)
        rhs = A.T @ b + beta * v
        direct = np.linalg.solve(A.T @ A + beta * np.eye(40), rhs)
        assert np.linalg.norm(y - direct) <= 1e-10 * np.linalg.norm(direct)
        res = A.T @ (A @ y) + beta * y - rhs
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)

    def test_invalid_beta(self):
        with pytest.raises(FactorizationFailure):
            LeastSquaresYSolver(np.eye(2), np.zeros(2), 0.0)

    @pytest.mark.parametrize("shape", [(128, 1024), (256, 64)])
    @pytest.mark.parametrize("dist", [1e-3, 1.0, 1e3])
    def test_forward_error_against_qr(self, shape, dist):
        # the solve is the normal equation of the stacked least-squares
        # problem min ||[A; sqrt(beta) I] y - [b; sqrt(beta) v]||, which
        # lstsq solves without forming A^T A; v sits at distance dist from
        # the solution at v = 0, and a small beta makes the wide case hard
        rng = np.random.default_rng(3)
        m, n = shape
        A = rng.standard_normal(shape) / np.sqrt(m)
        b = rng.standard_normal(m)
        beta = 1e-3
        root = np.sqrt(beta)
        stack = np.vstack([A, root * np.eye(n)])

        def reference(v):
            rhs = np.concatenate([b, root * v])
            return np.linalg.lstsq(stack, rhs, rcond=None)[0]

        direction = rng.standard_normal(n)
        v = reference(np.zeros(n)) + dist * direction / np.linalg.norm(direction)
        y = LeastSquaresYSolver(A, b, beta).solve(v)
        ref = reference(v)
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shape, products", [((10, 40), 2), ((40, 10), 0)])
    def test_products_with_A_per_solve(self, shape, products):
        rng = np.random.default_rng(5)
        A = rng.standard_normal(shape)
        solver = LeastSquaresYSolver(A, rng.standard_normal(shape[0]), 0.3)
        counter = [0]
        solver.A = CountingMatrix.wrap(A, counter)
        y = solver.solve(rng.standard_normal(shape[1]))
        assert counter[0] == products
        assert type(y) is np.ndarray


class TestYUpdateResidualNorm:
    def test_anchor_equals_target(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(4)
        p = make_problem(np.eye(4), v, 1.0, fidelity=Fidelity.RESIDUAL_NORM)
        y = y_update_residual_norm(p, 1.0, v)
        assert y == pytest.approx(v, abs=1e-8)

    def test_block_soft_threshold(self):
        p = make_problem(np.eye(2), [0.0, 0.0], 1.0,
                         fidelity=Fidelity.RESIDUAL_NORM)
        y = y_update_residual_norm(p, 1.0, [3.0, 4.0])
        assert y == pytest.approx([2.4, 3.2], abs=1e-7)

    def test_large_beta_limit(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 8))
        p = make_problem(A, rng.standard_normal(5), 1.0,
                         fidelity=Fidelity.RESIDUAL_NORM)
        v = rng.standard_normal(8)
        for beta in (10.0, 100.0, 1000.0):
            y = y_update_residual_norm(p, beta, v)
            assert np.linalg.norm(y - v) <= 10.0 / beta


class TestAdmmStep:
    def test_z_update_arithmetic(self):
        # z' = z + beta (x' - y') with an exact 1-sparse prox
        p = make_problem(np.zeros((2, 2)), [0.0, 0.0], 1.0)
        cfg = SolverConfig(beta=2.0)
        st = AdmmState(x=np.zeros(2), y=np.array([1.0, 0.0]), z=np.zeros(2))
        nxt = step(p, cfg, st)
        assert nxt.x == pytest.approx([1.0, 0.0])
        assert nxt.z == pytest.approx(2.0 * (nxt.x - nxt.y))

    def test_exact_y_identity(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 10))
        p = make_problem(A, rng.standard_normal(6), 0.1)
        cfg = SolverConfig(beta=0.5)
        st = AdmmState(x=np.zeros(10), y=np.zeros(10), z=np.zeros(10))
        for _ in range(5):
            st = step(p, cfg, st)
            gap = np.linalg.norm(fidelity_grad(p, st.y) - st.z)
            assert gap <= 1e-9 * (1.0 + np.linalg.norm(st.z))

    def test_support_streak(self):
        # the streak counts the trailing iterates that share the last support
        p = make_problem(np.eye(3), [2.0, 0.0, 0.0], 0.1)
        cfg = SolverConfig(beta=5.0, T=2)
        st = AdmmState(x=np.zeros(3), y=np.zeros(3), z=np.zeros(3))
        supports = []
        for _ in range(6):
            st = step(p, cfg, st)
            supports.append(np.flatnonzero(st.x))
            trailing = 0
            while trailing < len(supports) and np.array_equal(
                    supports[-1 - trailing], supports[-1]):
                trailing += 1
            assert np.array_equal(st.support, supports[-1])
            assert st.streak == trailing <= st.k


class TestRelativeChange:
    def test_guarded_denominator(self):
        assert relerr(np.zeros(2), np.zeros(2)) == 0.0

    def test_formula(self):
        assert relerr([1.0, 0.0], [0.0, 0.0]) == pytest.approx(1.0)


class TestRunAdmm:
    def test_trivial_instance_stationarity(self):
        p = make_problem(np.eye(2), [5.0, 0.0], 1e-4)
        st, tr = run_admm(p, SolverConfig(beta=2.5), np.zeros(2))
        assert tr.stop_reason == "relerr"
        assert certificate(p, st.x).kkt_residual <= 1e-6

    def test_iteration_cap(self):
        p = make_problem(np.eye(2), [5.0, 0.0], 1e-4)
        st, tr = run_admm(p, SolverConfig(beta=2.5, imax=3), np.zeros(2))
        assert st.k <= 3 and tr.stop_reason in ("imax", "relerr")

    def test_zero_start_does_not_stop_at_zero(self):
        # x^0 = x^1 = 0 must not trip the relative-change stop
        p = make_problem(np.eye(2), [5.0, 0.0], 1e-4)
        st, _ = run_admm(p, SolverConfig(beta=2.5), np.zeros(2))
        assert np.any(st.x)

    def test_y_residual_decays(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((20, 60))
        x_true = np.zeros(60)
        x_true[[3, 17, 40]] = [1.0, -2.0, 1.5]
        p = make_problem(A, A @ x_true, 1e-3)
        st, tr = run_admm(p, SolverConfig(beta=0.5), np.zeros(60),
                          record=True)
        ys = np.asarray(tr.y_residual)
        k = max(1, ys.size // 10)
        assert ys[-k:].mean() < ys[:k].mean()

    def test_determinism(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((10, 30))
        p = make_problem(A, rng.standard_normal(10), 1e-2)
        cfg = SolverConfig(beta=0.5, imax=50)
        st1, tr1 = run_admm(p, cfg, np.zeros(30), record=True)
        st2, tr2 = run_admm(p, cfg, np.zeros(30), record=True)
        assert np.array_equal(st1.x, st2.x)
        assert tr1.relerr == tr2.relerr

    def test_trace_lengths_equal(self):
        p = make_problem(np.eye(2), [5.0, 0.0], 1e-4)
        _, tr = run_admm(p, SolverConfig(beta=2.5, imax=20), np.zeros(2),
                         record=True)
        lengths = {len(tr.relerr), len(tr.y_residual), len(tr.objective),
                   len(tr.kkt_upper_bound), len(tr.support),
                   len(tr.grad_gap), len(tr.subgrad_distance)}
        assert len(lengths) == 1

    @staticmethod
    def products_in_second_step(record):
        """Products with A of the second step on the wide sparse instance,
        the first one with a nonzero x: the second run adds exactly that
        step to the set-up both runs share.  Returns (products, state,
        trace) of the second run."""
        p = sparse_instance()
        counter = [0]
        object.__setattr__(p, "A", CountingMatrix.wrap(p.A, counter))
        counts = []
        for imax in (1, 2):
            counter[0] = 0
            st, tr = run_admm(p, SolverConfig(beta=0.5, imax=imax, rel_tol=0.0),
                              np.zeros(p.n), record=record)
            counts.append(counter[0])
        return counts[1] - counts[0], st, tr

    def test_passes_over_A_per_recorded_step(self):
        # two in the wide y-solve, one residual A x - b shared by the
        # objective and the subgradient distance, one A^T r for the latter,
        # two for the gradient gap at y
        products, st, tr = self.products_in_second_step(record=True)
        assert np.any(st.x) and len(tr.subgrad_distance) == 2
        assert products == 6

    def test_passes_over_A_per_unrecorded_step(self):
        # only the two of the wide y-solve
        products, st, tr = self.products_in_second_step(record=False)
        assert np.any(st.x) and tr.subgrad_distance == []
        assert products == 2 and tr.stop_reason == "imax"

    def test_unrecorded_runs_call_no_telemetry(self, no_telemetry):
        p = sparse_instance()
        _, tr = run_admm(p, SolverConfig(beta=0.5), np.zeros(p.n))
        assert tr.stop_reason == "relerr" and tr.relerr == []
        _, tr = run_admm_l1_baseline(p, SolverConfig(beta=0.5), np.zeros(p.n))
        assert tr.stop_reason and tr.objective == []


class TestL1Baseline:
    def test_over_regularization_kills_signal(self):
        p = make_problem(np.eye(3), [1.0, 0.0, 0.0], 100.0)
        st, _ = run_admm_l1_baseline(p, SolverConfig(beta=1.0), np.zeros(3))
        assert not np.any(st.x)

    def test_vanishing_gamma_recovers_target(self):
        b = np.array([1.0, -2.0, 0.5])
        p = make_problem(np.eye(3), b, 1e-8)
        st, _ = run_admm_l1_baseline(p, SolverConfig(beta=1.0), np.zeros(3))
        assert st.x == pytest.approx(b, abs=1e-4)

    def test_lasso_optimality(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((15, 40))
        x_true = np.zeros(40)
        x_true[[2, 9]] = [1.5, -1.0]
        p = make_problem(A, A @ x_true, 0.05)
        st, _ = run_admm_l1_baseline(p, SolverConfig(beta=1.0, imax=5000),
                                     np.zeros(40))
        grad = A.T @ (A @ st.x - p.b)
        off = st.x == 0.0
        assert np.max(np.abs(grad[off])) <= p.gamma + 1e-6

    def test_nonneg_cone(self):
        p = make_problem(np.eye(2), [-1.0, 1.0], 0.1, cone=Cone.NONNEG)
        st, _ = run_admm_l1_baseline(p, SolverConfig(beta=1.0), np.zeros(2))
        assert np.all(st.x >= 0.0)

    @pytest.mark.parametrize("fidelity", list(Fidelity))
    def test_recorded_objective_uses_fidelity(self, fidelity):
        # the recorded lasso objective is gamma*||x||_1 + Phi(x) for the
        # problem's own fidelity, not always the least-squares fit
        rng = np.random.default_rng(7)
        A = rng.standard_normal((64, 16))
        p = make_problem(A, rng.standard_normal(64), 1e-3, fidelity=fidelity)
        st, tr = run_admm_l1_baseline(p, SolverConfig(beta=1.0, imax=5),
                                      np.zeros(16), record=True)
        assert len(tr.objective) == 5
        expected = (p.gamma * np.abs(st.x).sum()
                    + fidelity_value(p, p.A @ st.x - p.b))
        assert tr.objective[-1] == expected


def assert_same_state(a, b):
    for name in ("x", "y", "z", "support"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.k, a.streak, a.relerr) == (b.k, b.streak, b.relerr)


class TestResume:
    """A run resumed from an AdmmState stops where one run would, bit for
    bit, whichever rule stops it."""

    @pytest.mark.parametrize("stop, window, imax, legs", [
        # legs: (window, imax) of the interrupted runs, in order
        ("support_stable", 30, 2000, [(2, 2000), (None, 9), (5, 2000)]),
        ("relerr", None, 2000, [(2, 2000), (30, 2000)]),
        ("imax", None, 40, [(None, 15), (3, 2000)]),
    ])
    def test_resume_matches_uninterrupted(self, stop, window, imax, legs):
        p = sparse_instance()
        cfg = SolverConfig(beta=0.5, imax=imax)
        ref, ref_tr = run_admm(p, cfg, np.zeros(p.n), support_window=window,
                               record=True)
        assert ref_tr.stop_reason == stop
        st = np.zeros(p.n)
        for leg_window, leg_imax in legs:
            st, _ = run_admm(p, replace(cfg, imax=leg_imax), st,
                             support_window=leg_window)
        assert st.k < ref.k
        start = st.k
        st, tr = run_admm(p, cfg, st, support_window=window, record=True)
        assert tr.stop_reason == stop
        assert_same_state(st, ref)
        assert len(tr.relerr) == ref.k - start
        assert tr.relerr == ref_tr.relerr[start:]
        assert tr.objective == ref_tr.objective[start:]

    def test_stopped_state_returns_unchanged(self):
        p = sparse_instance()
        cfg = SolverConfig(beta=0.5)
        st, tr = run_admm(p, cfg, np.zeros(p.n))
        assert tr.stop_reason == "relerr"
        again, tr2 = run_admm(p, cfg, st)
        assert again is st and tr2.stop_reason == "relerr"
        assert tr2.relerr == [] and tr2.lipschitz is None
        capped, tr3 = run_admm(p, replace(cfg, rel_tol=0.0, imax=st.k), st)
        assert capped is st and tr3.stop_reason == "imax"
        stable, tr4 = run_admm(p, cfg, st, support_window=st.streak - 1)
        assert stable is st and tr4.stop_reason == "support_stable"

    def test_window_stops_at_first_stable_window(self):
        p = sparse_instance()
        T = 3
        st, tr = run_admm(p, SolverConfig(beta=0.5), np.zeros(p.n),
                          support_window=T, record=True)
        assert tr.stop_reason == "support_stable"

        def stable(k):
            # iterates k-T..k sit at trace indices k-T-1..k-1
            window = tr.support[k - T - 1:k]
            return all(np.array_equal(s, window[0]) for s in window)

        assert stable(st.k)
        assert not any(stable(k) for k in range(T + 1, st.k))
