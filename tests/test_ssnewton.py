"""Reduced problem, generalized Hessian, and the globalized Newton phase."""

import numpy as np
import pytest

from ratiopt.exceptions import (
    DimensionMismatch,
    LineSearchStall,
    NotPositiveDefinite,
    ZeroEntry,
)
from ratiopt.model import NewtonConfig, Problem
from ratiopt.ssnewton import (
    DirectionKind,
    ReducedProblem,
    armijo,
    backtrack,
    direction_from_hessian,
    hessian,
    pd_gamma_bound,
    phi_grad,
    phi_value,
    run_ssnewton,
)


def reduced(A, b, gamma, indices):
    p = Problem(A=np.asarray(A, float), b=np.asarray(b, float), gamma=gamma)
    return ReducedProblem(p, indices)


def stationary_instance(seed, m=40, n=60):
    """Instance whose reduced problem has a known interior stationary point
    with a positive definite Hessian (gamma below the guarantee bound)."""
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
    p = Problem(A=A, b=b, gamma=gamma)
    rp = ReducedProblem(p, idx)
    return rp, u_star, rng


class TestReducedProblem:
    @pytest.mark.parametrize("indices", [
        [2, 1], [1, 1], [-1, 2], [0, 4], [], [False, True],
    ], ids=["unsorted", "duplicate", "negative", "out_of_range", "empty",
            "bool_mask"])
    def test_rejects_invalid_support(self, indices):
        # a negative index would wrap around to a column from the end, and
        # a boolean mask would select columns rather than name them
        with pytest.raises(ValueError):
            reduced(np.eye(4), np.ones(4), 1.0, indices)


class TestPhiValue:
    def test_one_dimensional(self):
        rp = reduced([[1.0]], [3.0], 1.0, [0])
        assert phi_value(rp, [3.0]) == pytest.approx(1.0)

    def test_matches_full_objective(self):
        from ratiopt.model import objective
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 9))
        rp = reduced(A, rng.standard_normal(6), 0.7, [1, 4, 6])
        u = rng.standard_normal(3) + np.sign(rng.standard_normal(3))
        x = np.zeros(9)
        x[rp.support] = u
        assert phi_value(rp, u) == pytest.approx(objective(rp.parent, x))

    def test_zero_entry_raises(self):
        rp = reduced(np.eye(2), [1.0, 1.0], 1.0, [0, 1])
        with pytest.raises(ZeroEntry):
            phi_value(rp, [1.0, 0.0])

    def test_wrong_length_raises(self):
        rp = reduced(np.eye(2), [1.0, 1.0], 1.0, [0, 1])
        with pytest.raises(DimensionMismatch):
            phi_value(rp, [1.0, 1.0, 1.0])


class TestPhiGrad:
    def test_cancellation_at_symmetric_solution(self):
        rp = reduced(np.eye(2), [1.0, 1.0], 1.0, [0, 1])
        assert phi_grad(rp, [1.0, 1.0]) == pytest.approx([0.0, 0.0])

    def test_one_sparse_ratio_term_vanishes(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 8))
        rp = reduced(A, rng.standard_normal(5), 0.5, [3])
        u = np.array([2.0])
        fit = rp.a_cols.T @ (rp.a_cols @ u - rp.parent.b)
        assert phi_grad(rp, u) == pytest.approx(fit)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 12))
        rp = reduced(A, rng.standard_normal(8), 0.3, [0, 2, 5, 9])
        u = rng.standard_normal(4) + np.sign(rng.standard_normal(4))
        g = phi_grad(rp, u)
        h = 1e-6
        fd = np.array([(phi_value(rp, u + h * e) - phi_value(rp, u - h * e))
                       / (2 * h) for e in np.eye(4)])
        assert np.linalg.norm(fd - g) <= 1e-6 * (1 + np.linalg.norm(g))


class TestHessian:
    def test_two_dimensional_spectrum(self):
        rp = reduced(np.eye(2), [1.0, 1.0], 1.0, [0, 1])
        H = hessian(rp, [1.0, 1.0])
        lam1, lam2, _ = H.q_eigenvalues()
        assert lam1 == pytest.approx(0.0, abs=1e-12)
        assert lam2 == pytest.approx(np.sqrt(2) / 2)
        ev = np.sort(np.linalg.eigvalsh(H.q_matrix))
        assert ev == pytest.approx([0.0, np.sqrt(2) / 2], abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((7, 10))
        rp = reduced(A, rng.standard_normal(7), 0.8, [0, 3, 6, 8])
        H = hessian(rp, rng.standard_normal(4) + 1.0).matrix
        assert np.max(np.abs(H - H.T)) <= 1e-12

    def test_trace_identity_and_bulk_eigenvalue(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = int(rng.integers(2, 12))
            A = rng.standard_normal((s + 4, s + 6))
            rp = reduced(A, rng.standard_normal(s + 4), 0.5, range(s))
            u = rng.standard_normal(s)
            u[u == 0.0] = 1.0
            H = hessian(rp, u)
            lam1, lam2, lam_rest = H.q_eigenvalues()
            assert lam1 + lam2 == pytest.approx(lam_rest, abs=1e-12)
            ev = np.sort(np.linalg.eigvalsh(H.q_matrix))
            pred = np.sort(np.r_[lam1, lam2, np.full(s - 2, lam_rest)])
            assert np.max(np.abs(ev - pred)) <= 1e-10
            assert lam1 <= 1e-12 and lam2 >= -1e-12

    def test_hessian_vector_consistency(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((9, 14))
        rp = reduced(A, rng.standard_normal(9), 0.4, [1, 4, 7, 11])
        u = rng.standard_normal(4) + np.sign(rng.standard_normal(4))
        H = hessian(rp, u).matrix
        v = rng.standard_normal(4)
        t = 1e-6
        hv = (phi_grad(rp, u + t * v) - phi_grad(rp, u)) / t
        assert np.linalg.norm(hv - H @ v) <= 1e-4 * (1 + np.linalg.norm(H @ v))


class TestNewtonDirection:
    def test_identity_system(self):
        g = np.array([0.3, -0.2, 0.5])
        d, kind = direction_from_hessian(np.eye(3), g, NewtonConfig())
        assert kind is DirectionKind.INEXACT
        # shifted system (1 + ||g||) d = -g
        assert d == pytest.approx(-g / (1.0 + np.linalg.norm(g)), abs=1e-6)

    def test_indefinite_fallback(self):
        g = np.array([1.0, 1.0])
        H = np.diag([-5.0, -5.0])
        d, kind = direction_from_hessian(H, g, NewtonConfig())
        assert kind is DirectionKind.FALLBACK
        assert d == pytest.approx(-10.0 * g)

    def test_acceptance_inequalities_hold(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            M = rng.standard_normal((5, 5))
            H = M @ M.T + 0.5 * np.eye(5)
            g = rng.standard_normal(5)
            cfg = NewtonConfig()
            d, kind = direction_from_hessian(H, g, cfg)
            if kind is not DirectionKind.INEXACT:
                continue
            gn = np.linalg.norm(g)
            shifted = H + gn * np.eye(5)
            assert np.linalg.norm(g + shifted @ d) <= min(cfg.eta, gn) * gn
            assert g @ d <= -min(cfg.nu, gn) * (d @ d)


class TestLineSearch:
    def test_full_step_on_quadratic(self):
        u = np.array([2.0, -1.0])
        alpha, u_next = backtrack(lambda w: 0.5 * float(w @ w), u, -u, u,
                                  NewtonConfig())
        assert alpha == 1.0 and u_next == pytest.approx([0.0, 0.0])

    def test_delta_powers(self):
        cfg = NewtonConfig()
        assert cfg.delta ** 3 == pytest.approx(0.857375)

    def test_monotone_decrease(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 12))
        rp = reduced(A, rng.standard_normal(8), 0.3, [0, 2, 5, 9])
        u = rng.standard_normal(4) + np.sign(rng.standard_normal(4))
        g = phi_grad(rp, u)
        alpha, u_next = armijo(rp, u, -g, g, NewtonConfig())
        assert phi_value(rp, u_next) < phi_value(rp, u)
        assert not np.any(u_next == 0.0)

    def test_non_descent_rejected(self):
        with pytest.raises(ValueError):
            backtrack(lambda w: float(w @ w), np.ones(2), np.ones(2),
                      np.ones(2), NewtonConfig())

    def test_stall(self):
        # a guard that rejects every point exhausts the backtracking budget
        with pytest.raises(LineSearchStall):
            backtrack(lambda w: 0.5 * float(w @ w), np.array([1.0]),
                      np.array([-1.0]), np.array([1.0]), NewtonConfig(),
                      guard=lambda w: False, max_backtracks=10)


class TestRunSsnewton:
    def test_converges_to_constructed_stationary_point(self):
        rp, u_star, rng = stationary_instance(0)
        u0 = u_star * (1.0 + 0.05 * rng.standard_normal(u_star.size))
        u, tr = run_ssnewton(rp, u0)
        assert tr.grad_norms[-1] <= 1e-11
        assert tr.iterations <= 30
        assert np.linalg.norm(u - u_star) <= 1e-8 * (1 + np.linalg.norm(u_star))

    def test_superlinear_tail(self):
        rp, u_star, rng = stationary_instance(1)
        u0 = u_star * (1.0 + 0.05 * rng.standard_normal(u_star.size))
        _, tr = run_ssnewton(rp, u0)
        gns = tr.grad_norms
        ratios = [gns[i + 1] / gns[i] for i in range(len(gns) - 1)]
        assert all(r < 0.1 for r in ratios[-3:])

    def test_objective_trace_decreasing(self):
        rp, u_star, rng = stationary_instance(2)
        u0 = u_star * (1.0 + 0.2 * rng.standard_normal(u_star.size))
        _, tr = run_ssnewton(rp, u0)
        vals = np.asarray(tr.values)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_stationarity_transfer(self):
        from ratiopt.model import certificate
        rp, u_star, rng = stationary_instance(3)
        u0 = u_star * (1.0 + 0.05 * rng.standard_normal(u_star.size))
        u, tr = run_ssnewton(rp, u0)
        x = np.zeros(rp.parent.n)
        x[rp.support] = u
        assert (certificate(rp.parent, x).kkt_residual
                <= tr.grad_norms[-1] + 1e-12)


class TestPdGammaBound:
    def test_identity_block(self):
        assert pd_gamma_bound(np.eye(4), np.ones(4)) == pytest.approx(4 / 3)

    def test_scaled_scalar(self):
        assert pd_gamma_bound(2.0 * np.eye(1), [3.0]) == pytest.approx(12.0)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((5, 5))
        V = M @ M.T + np.eye(5)
        u = rng.standard_normal(5) + np.sign(rng.standard_normal(5))
        assert pd_gamma_bound(V, 3.0 * u) == pytest.approx(
            9.0 * pd_gamma_bound(V, u))

    def test_guarantees_positive_definite(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            s = int(rng.integers(2, 8))
            M = rng.standard_normal((s + 2, s))
            V = M.T @ M + 0.1 * np.eye(s)
            u = rng.standard_normal(s) + np.sign(rng.standard_normal(s))
            gamma = 0.99 * pd_gamma_bound(V, u)
            rp = reduced(np.eye(s), np.zeros(s), gamma, range(s))
            H = hessian(rp, u)
            full = V - H.q_matrix
            assert np.linalg.eigvalsh(full)[0] > 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            pd_gamma_bound(np.diag([1.0, -1.0]), np.ones(2))
