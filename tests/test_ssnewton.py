"""Reduced objective, generalized Hessian, and the globalized Newton phase."""

import numpy as np
import pytest

from counting_matrix import CountingMatrix
from ratiopt import ssnewton
from ratiopt.exceptions import DimensionMismatch, LineSearchStall, ZeroEntry
from ratiopt.model import Fidelity, NewtonConfig, Problem
from ratiopt.ssnewton import (
    DirectionKind,
    armijo,
    backtrack,
    direction_from_hessian,
    hessian,
    phi_grad,
    phi_value,
    run_ssnewton,
)
from reduced_oracle import (
    pd_gamma_bound,
    q_from_hessian,
    q_spectrum,
    stationary_instance,
)


def reduced(A, b, gamma, indices, fidelity=Fidelity.LEAST_SQUARES):
    """The problem on the columns `indices` of A."""
    return Problem(A=np.asarray(A, float)[:, list(indices)],
                   b=np.asarray(b, float), gamma=gamma, fidelity=fidelity)


class TestPhiValue:
    def test_one_dimensional(self):
        rp = reduced([[1.0]], [3.0], 1.0, [0])
        assert phi_value(rp, [3.0]) == pytest.approx(1.0)

    def test_matches_full_objective(self):
        from ratiopt.model import objective
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 9))
        b = rng.standard_normal(6)
        idx = [1, 4, 6]
        rp = reduced(A, b, 0.7, idx)
        u = rng.standard_normal(3) + np.sign(rng.standard_normal(3))
        x = np.zeros(9)
        x[idx] = u
        full = Problem(A=A, b=b, gamma=0.7)
        assert phi_value(rp, u) == pytest.approx(objective(full, x))

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
        fit = rp.A.T @ (rp.A @ u - rp.b)
        assert phi_grad(rp, u) == pytest.approx(fit)

    @pytest.mark.parametrize("fidelity", list(Fidelity))
    def test_matches_finite_differences(self, fidelity):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 12))
        rp = reduced(A, rng.standard_normal(8), 0.3, [0, 2, 5, 9], fidelity)
        u = rng.standard_normal(4) + np.sign(rng.standard_normal(4))
        g = phi_grad(rp, u)
        h = 1e-6
        fd = np.array([(phi_value(rp, u + h * e) - phi_value(rp, u - h * e))
                       / (2 * h) for e in np.eye(4)])
        assert np.linalg.norm(fd - g) <= 1e-6 * (1 + np.linalg.norm(g))


class TestHessian:
    def test_two_dimensional_spectrum(self):
        rp = reduced(np.eye(2), [1.0, 1.0], 1.0, [0, 1])
        lam1, lam2, _ = q_spectrum(1.0, [1.0, 1.0])
        assert lam1 == pytest.approx(0.0, abs=1e-12)
        assert lam2 == pytest.approx(np.sqrt(2) / 2)
        ev = np.sort(np.linalg.eigvalsh(q_from_hessian(rp, [1.0, 1.0])))
        assert ev == pytest.approx([0.0, np.sqrt(2) / 2], abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((7, 10))
        rp = reduced(A, rng.standard_normal(7), 0.8, [0, 3, 6, 8])
        H = hessian(rp, rng.standard_normal(4) + 1.0, rp.A.T @ rp.A)
        assert np.max(np.abs(H - H.T)) <= 1e-12

    def test_trace_identity_and_bulk_eigenvalue(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = int(rng.integers(2, 12))
            A = rng.standard_normal((s + 4, s + 6))
            rp = reduced(A, rng.standard_normal(s + 4), 0.5, range(s))
            u = rng.standard_normal(s)
            u[u == 0.0] = 1.0
            lam1, lam2, lam_rest = q_spectrum(0.5, u)
            assert lam1 + lam2 == pytest.approx(lam_rest, abs=1e-12)
            ev = np.sort(np.linalg.eigvalsh(q_from_hessian(rp, u)))
            pred = np.sort(np.r_[lam1, lam2, np.full(s - 2, lam_rest)])
            assert np.max(np.abs(ev - pred)) <= 1e-10
            assert lam1 <= 1e-12 and lam2 >= -1e-12

    @pytest.mark.parametrize("fidelity", list(Fidelity))
    def test_hessian_vector_consistency(self, fidelity):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((9, 14))
        rp = reduced(A, rng.standard_normal(9), 0.4, [1, 4, 7, 11], fidelity)
        u = rng.standard_normal(4) + np.sign(rng.standard_normal(4))
        H = hessian(rp, u, rp.A.T @ rp.A)
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
            assert np.linalg.norm(g + shifted @ d) <= 1e-12 * gn
            assert g @ d <= -min(cfg.nu, gn) * (d @ d)

    def test_solves_shifted_system_to_roundoff(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            s = int(rng.integers(2, 30))
            M = rng.standard_normal((s, s))
            H = M @ M.T + 0.1 * np.eye(s)
            g = rng.standard_normal(s)
            g *= rng.uniform(0.5, 2.0) / np.linalg.norm(g)
            d, kind = direction_from_hessian(H, g, NewtonConfig())
            gn = np.linalg.norm(g)
            assert kind is DirectionKind.INEXACT
            assert np.linalg.norm(g + (H + gn * np.eye(s)) @ d) <= 1e-12 * gn


class TestLineSearch:
    def test_full_step_on_quadratic(self):
        u = np.array([2.0, -1.0])
        alpha, u_next, _ = backtrack(lambda w: 0.5 * float(w @ w), u, 2.5,
                                     -u, u, NewtonConfig())
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
        alpha, u_next, _ = armijo(rp, u, phi_value(rp, u), -g, g,
                                  NewtonConfig())
        assert phi_value(rp, u_next) < phi_value(rp, u)
        assert not np.any(u_next == 0.0)

    def test_non_descent_rejected(self):
        with pytest.raises(ValueError):
            backtrack(lambda w: float(w @ w), np.ones(2), 2.0, np.ones(2),
                      np.ones(2), NewtonConfig())

    @pytest.mark.parametrize("slope, accepted", [(1e-9, True), (1.0, False)])
    def test_rounding_floor(self, slope, accepted):
        # every trial reads one ulp above base; the predicted decrease is
        # slope^2.  At 1e-18 it is below phi's rounding and the full step is
        # taken; at 1 it is resolvable and the search must still back off
        base = 1.0
        trials = []

        def phi(w):
            trials.append(w)
            return np.nextafter(base, np.inf)

        args = (phi, np.array([1.0]), base, np.array([-slope]),
                np.array([slope]), NewtonConfig())
        if accepted:
            alpha, _, value = backtrack(*args, max_backtracks=10)
            assert alpha == 1.0 and value == np.nextafter(base, np.inf)
        else:
            with pytest.raises(LineSearchStall):
                backtrack(*args, max_backtracks=10)
            assert len(trials) == 11

    def test_stall(self):
        # a guard that rejects every point exhausts the backtracking budget
        with pytest.raises(LineSearchStall):
            backtrack(lambda w: 0.5 * float(w @ w), np.array([1.0]), 0.5,
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

    def test_products_with_A(self):
        # one Gram matrix per run, one product for phi(u0), two per gradient
        # and one per line-search trial; alpha = delta^m took m + 1 trials.
        # From a point this small the first step falls back and backtracks.
        rp, u_star, _ = stationary_instance(0)
        counter = [0]
        object.__setattr__(rp, "A", CountingMatrix.wrap(rp.A, counter))
        _, tr = run_ssnewton(rp, 0.05 * u_star)
        delta = NewtonConfig().delta
        trials = sum(round(np.log(a) / np.log(delta)) + 1 for a in tr.alphas)
        assert trials > len(tr.alphas)
        assert counter[0] == 1 + 1 + 2 * len(tr.grad_norms) + trials

    def test_products_with_A_residual_norm(self):
        # as for least squares, plus two per Hessian: the residual-norm
        # Hessian forms A u - b and A^T r again, which the gradient at the
        # same point has just formed
        rp, u_star, rng = stationary_instance(0)
        rp = Problem(A=rp.A, b=rp.b + 0.1 * rng.standard_normal(rp.m),
                     gamma=rp.gamma, fidelity=Fidelity.RESIDUAL_NORM)
        counter = [0]
        object.__setattr__(rp, "A", CountingMatrix.wrap(rp.A, counter))
        _, tr = run_ssnewton(rp, u_star)
        delta = NewtonConfig().delta
        trials = sum(round(np.log(a) / np.log(delta)) + 1 for a in tr.alphas)
        assert tr.stop_reason == "grad_tol" and len(tr.kinds) > 1
        assert counter[0] == (1 + 1 + 2 * len(tr.grad_norms) + trials
                              + 2 * len(tr.kinds))

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
        assert certificate(rp, u).kkt_residual <= tr.grad_norms[-1] + 1e-12

    @pytest.mark.parametrize("reason", ["grad_tol", "cap", "stall"])
    def test_stop_reason(self, reason, monkeypatch):
        # run_ssnewton must reach its layers through the module, where a
        # wrapper installed on ssnewton sees every call
        rp, u_star, rng = stationary_instance(4)
        u0 = u_star * (1.0 + 0.05 * rng.standard_normal(u_star.size))
        cfg = NewtonConfig()
        if reason == "cap":
            u0, cfg = 2.0 * u_star, NewtonConfig(ssn_max=1)
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        def stall(*args, **kwargs):
            raise LineSearchStall("forced stall")

        armijo_fn = stall if reason == "stall" else ssnewton.armijo
        for name, fn in (("hessian", ssnewton.hessian),
                         ("newton_direction", ssnewton.newton_direction),
                         ("armijo", armijo_fn)):
            monkeypatch.setattr(ssnewton, name, counted(name, fn))
        _, tr = run_ssnewton(rp, u0, cfg)
        assert tr.stop_reason == reason
        assert tr.stalled == (reason == "stall")
        assert (tr.grad_norms[-1] <= cfg.grad_tol) == (reason == "grad_tol")
        steps = len(tr.kinds)
        assert steps >= 1
        assert calls == dict.fromkeys(
            ("hessian", "newton_direction", "armijo"), steps)
        assert tr.iterations == len(tr.alphas) == steps - (reason == "stall")


class TestPdGammaBound:
    """The oracle's bound, checked against the library's Hessian."""

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
            full = V - q_from_hessian(rp, u)
            assert np.linalg.eigvalsh(full)[0] > 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            pd_gamma_bound(np.diag([1.0, -1.0]), np.ones(2))
