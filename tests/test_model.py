"""Data model, objective, gradients, and the stationarity certificate."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counting_matrix import CountingMatrix
from ratiopt.exceptions import (
    ConeViolation,
    DimensionMismatch,
    SingularResidual,
    ZeroVector,
)
from ratiopt.model import (
    Cone,
    Fidelity,
    NewtonConfig,
    Problem,
    SolverConfig,
    certificate,
    fidelity_grad,
    lipschitz_estimate,
    objective,
    ratio,
    subgradient_distance,
)

I2 = np.eye(2)


def make_problem(A, b, gamma, **kw):
    return Problem(A=np.asarray(A, float), b=np.asarray(b, float),
                   gamma=gamma, **kw)


class TestRatio:
    def test_one_sparse(self):
        assert ratio([0.0, 7.0, 0.0]) == 1.0

    def test_zero_convention(self):
        assert ratio(np.zeros(5)) == 1.0

    def test_equal_magnitudes(self):
        assert ratio([1.0, -1.0, 1.0]) == pytest.approx(np.sqrt(3))

    @pytest.mark.parametrize("scale", [1.2854867033640505e-158, 1e200])
    def test_extreme_scales(self, scale):
        # x @ x underflows or overflows at these scales; ratio must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ratio([scale]) == 1.0
            assert ratio([scale, -scale, scale]) == pytest.approx(np.sqrt(3))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
    def test_lower_bound(self, entries):
        assert ratio(np.array(entries)) >= 1.0 - 1e-12


class TestProblem:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_problem(I2, [1.0, 2.0, 3.0], 1.0)

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            make_problem(I2, [1.0, 0.0], 0.0)

    def test_data_condition(self):
        assert make_problem(I2, [1.0, 0.0], 1.0).data_condition_holds()
        assert not make_problem(I2, [0.0, 0.0], 1.0).data_condition_holds()
        p = make_problem(I2, [-1.0, -1.0], 1.0, cone=Cone.NONNEG)
        assert not p.data_condition_holds()

    def test_cone_violation(self):
        p = make_problem(I2, [0.0, 0.0], 1.0, cone=Cone.NONNEG)
        with pytest.raises(ConeViolation):
            objective(p, [-1.0, 0.0])


class TestConfigs:
    def test_newton_defaults(self):
        cfg = NewtonConfig()
        assert cfg.nu == 1e-8 and cfg.mu == 1e-8
        assert cfg.delta == 0.95 and cfg.b_scale == 0.1
        assert cfg.grad_tol == 1e-11 and cfg.ssn_max == 2500

    def test_newton_validation(self):
        # the method's constants lie where its convergence theory needs them,
        # and only the iteration cap is a setting
        assert 0.0 < NewtonConfig.mu < 0.5
        for value in (NewtonConfig.nu, NewtonConfig.delta):
            assert 0.0 < value < 1.0
        assert NewtonConfig.b_scale > 0.0
        with pytest.raises(TypeError):
            NewtonConfig(mu=0.5)

    def test_solver_defaults(self):
        cfg = SolverConfig(beta=0.015)
        assert cfg.rel_tol == 1e-8 and cfg.imax == 2000 and cfg.T == 5

    def test_solver_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(beta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(beta=1.0, tau=-0.1)


class TestObjective:
    def test_one_sparse(self):
        p = make_problem(I2, [0.0, 0.0], 1.0)
        assert objective(p, [1.0, 0.0]) == pytest.approx(1.5)

    def test_symmetric_vector(self):
        p = make_problem(I2, [0.0, 0.0], 1.0)
        assert objective(p, [1.0, 1.0]) == pytest.approx(np.sqrt(2) + 1.0)

    def test_zero_convention(self):
        p = make_problem(I2, [3.0, 4.0], 1.0)
        assert objective(p, [0.0, 0.0]) == pytest.approx(13.5)


class TestFidelityGrad:
    def test_least_squares_at_solution(self):
        p = make_problem(I2, [1.0, 1.0], 1.0)
        assert fidelity_grad(p, [1.0, 1.0]) == pytest.approx([0.0, 0.0])

    def test_least_squares_zero_target(self):
        p = make_problem(I2, [0.0, 0.0], 1.0)
        assert fidelity_grad(p, [2.0, -3.0]) == pytest.approx([2.0, -3.0])

    def test_residual_norm_unit_gradient(self):
        p = make_problem(I2, [0.0, 0.0], 1.0, fidelity=Fidelity.RESIDUAL_NORM)
        assert fidelity_grad(p, [3.0, 4.0]) == pytest.approx([0.6, 0.8])

    def test_residual_norm_singular(self):
        p = make_problem(I2, [1.0, 1.0], 1.0, fidelity=Fidelity.RESIDUAL_NORM)
        with pytest.raises(SingularResidual):
            fidelity_grad(p, [1.0, 1.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for fid in (Fidelity.LEAST_SQUARES, Fidelity.RESIDUAL_NORM):
            A = rng.standard_normal((6, 9))
            b = rng.standard_normal(6)
            p = make_problem(A, b, 1.0, fidelity=fid)
            x = rng.standard_normal(9)
            g = fidelity_grad(p, x)
            h = 1e-6

            def phi(v):
                r = A @ v - b
                return 0.5 * r @ r if fid is Fidelity.LEAST_SQUARES \
                    else np.linalg.norm(r)

            fd = np.array([(phi(x + h * e) - phi(x - h * e)) / (2 * h)
                           for e in np.eye(9)])
            assert np.linalg.norm(fd - g) <= 1e-6 * (1 + np.linalg.norm(g))


class TestLipschitzEstimate:
    def test_scaled_identity(self):
        p = make_problem(2.0 * np.eye(3), np.zeros(3), 1.0)
        assert lipschitz_estimate(p) == pytest.approx(4.0, rel=1e-6)

    def test_diagonal(self):
        p = make_problem(np.diag([1.0, 3.0]), np.zeros(2), 1.0)
        assert lipschitz_estimate(p) == pytest.approx(9.0, rel=1e-6)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((20, 50))
        p = make_problem(A, np.zeros(20), 1.0)
        lam = float(np.linalg.eigvalsh(A.T @ A)[-1])
        assert lipschitz_estimate(p) == pytest.approx(lam, rel=1e-6)

    def test_residual_norm_raises(self):
        p = make_problem(I2, [1.0, 0.0], 1.0, fidelity=Fidelity.RESIDUAL_NORM)
        with pytest.raises(ValueError):
            lipschitz_estimate(p)


class TestKktResidual:
    def test_one_sparse_cancellation(self):
        p = make_problem(I2, [1.0, 0.0], 0.1)
        assert certificate(p, [1.0, 0.0]).kkt_residual == pytest.approx(
            0.0, abs=1e-15)

    def test_zero_vector_raises(self):
        p = make_problem(I2, [1.0, 0.0], 0.1)
        with pytest.raises(ZeroVector):
            certificate(p, [0.0, 0.0])

    def test_matches_reduced_gradient_norm(self):
        # the support-restricted residual is the gradient of the reduced
        # objective, so it must match finite differences on the manifold
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 12))
        b = rng.standard_normal(8)
        p = make_problem(A, b, 0.3)
        x = np.zeros(12)
        idx = [1, 4, 7]
        x[idx] = rng.standard_normal(3) + np.sign(rng.standard_normal(3)) * 1.0

        def f_on_support(u):
            v = x.copy()
            v[idx] = u
            return objective(p, v)

        h = 1e-7
        u0 = x[idx]
        fd = np.array([(f_on_support(u0 + h * e) - f_on_support(u0 - h * e))
                       / (2 * h) for e in np.eye(3)])
        assert certificate(p, x).kkt_residual == pytest.approx(
            np.linalg.norm(fd), rel=1e-6, abs=1e-6)


class TestSubderivativeIdentity:
    def test_off_support_directional_rate(self):
        # (ratio(x0 + t w) - ratio(x0)) / t -> ||w||_1 / ||x0||_2 for w
        # supported off supp(x0)
        rng = np.random.default_rng(3)
        x0 = np.zeros(6)
        x0[[0, 2]] = rng.standard_normal(2) + 1.0
        w = np.zeros(6)
        w[[1, 5]] = rng.standard_normal(2)
        t = 1e-6
        rate = (ratio(x0 + t * w) - ratio(x0)) / t
        expected = np.abs(w).sum() / np.linalg.norm(x0)
        assert rate == pytest.approx(expected, rel=1e-3)


class TestNondegeneracy:
    def test_free_nondegenerate(self):
        p = make_problem(I2, [1.0, 0.0], 0.1)
        out = certificate(p, [1.0, 0.0])
        assert out.margin > 0.0 and out.margin == pytest.approx(0.1)

    def test_free_boundary_degenerate(self):
        # off-support |grad Phi| equals gamma/r exactly
        p = make_problem(I2, [1.0, 0.1], 0.1)
        out = certificate(p, [1.0, 0.0])
        assert not out.margin > 0.0
        assert out.margin == pytest.approx(0.0, abs=1e-15)

    def test_nonneg_case(self):
        p = make_problem(I2, [1.0, 0.0], 0.1, cone=Cone.NONNEG)
        out = certificate(p, [1.0, 0.0])
        assert out.margin > 0.0 and out.margin == pytest.approx(0.1)


class TestSubgradientDistance:
    def test_zero_at_nondegenerate_stationary_point(self):
        p = make_problem(I2, [1.0, 0.0], 0.1)
        assert subgradient_distance(p, [1.0, 0.0]) == pytest.approx(0.0,
                                                                    abs=1e-12)

    def test_dominates_kkt_residual(self):
        # every cone x fidelity x shape, at a small and a large gamma so that
        # the off-support excess is both positive and zero, plus one
        # full-support point; the excess alone separates the two residuals
        rng = np.random.default_rng(4)
        cases = list(itertools.product(Cone, Fidelity, [(5, 8), (8, 5)],
                                       [0.5, 50.0], [2]))
        cases.append((Cone.FREE, Fidelity.LEAST_SQUARES, (8, 5), 0.5, 5))
        excess_seen = set()
        for cone, fidelity, (m, n), gamma, k in cases:
            A = rng.standard_normal((m, n))
            p = make_problem(A, rng.standard_normal(m), gamma, cone=cone,
                             fidelity=fidelity)
            x = np.zeros(n)
            x[:k] = rng.uniform(0.5, 2.0, k)
            if cone is Cone.FREE:
                x[1] = -x[1]
            grad_off = fidelity_grad(p, x)[k:]
            thr = gamma / np.linalg.norm(x)
            if cone is Cone.FREE:
                excess = np.maximum(np.abs(grad_off) - thr, 0.0)
            else:
                excess = np.maximum(-(grad_off + thr), 0.0)
            cert = certificate(p, x)
            on, dist = cert.kkt_residual, cert.subgradient_distance
            assert on <= dist
            assert (on == dist) == (not excess.any())
            assert not cert.margin > 0.0 or not excess.any()
            if k == n:
                assert cert.margin == np.inf
            assert certificate(p, x, p.A @ x - p.b) == cert
            assert subgradient_distance(p, x) == dist
            excess_seen.add(bool(excess.any()))
        assert excess_seen == {False, True}

    def test_two_passes_over_A(self):
        # one fidelity gradient: A x - b, then A^T applied to the residual
        rng = np.random.default_rng(5)
        for fidelity in Fidelity:
            p = make_problem(rng.standard_normal((6, 9)),
                             rng.standard_normal(6), 0.5, fidelity=fidelity)
            counter = [0]
            object.__setattr__(p, "A", CountingMatrix.wrap(p.A, counter))
            x = np.zeros(9)
            x[[1, 4]] = [1.0, -2.0]
            certificate(p, x)
            assert counter[0] == 2
