"""Experiment harness: generators, metrics, profiles, real-data pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ratiopt.admm import run_admm
from ratiopt.exceptions import (DegenerateColumn, DimensionMismatch,
                                NonConvergence, ZeroReference)
from ratiopt.expkit.generate import (
    SynthSpec,
    gen_gaussian_corr,
    gen_ground_truth,
    gen_odct,
    mutual_coherence,
)
from ratiopt.expkit.metrics import iacc, relerr, rerr, tmse
from ratiopt.expkit.profiles import performance_profile, performance_ratios
from ratiopt.expkit.realdata import (
    DEFAULT_GAMMA_GRID,
    build_dataset,
    cross_validate_gamma,
    load_csv,
    make_folds,
    smoke_dataset_path,
    standardize_columns,
)
from ratiopt.expkit import studies
from ratiopt.expkit.rng import make_rng, standard_normal
from ratiopt.expkit.studies import (finite_identification_study,
                                    noisy_tau_study, profile_times)
from ratiopt.hafam import run_hafam
from ratiopt.model import Problem, SolverConfig


class TestRng:
    def test_determinism(self):
        a = standard_normal(make_rng(7), 100)
        b = standard_normal(make_rng(7), 100)
        assert np.array_equal(a, b)

    def test_moments(self):
        x = standard_normal(make_rng(0), 200_000)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01


class TestGaussianCorr:
    def test_shape(self):
        assert gen_gaussian_corr(256, 2048, 0.8, 0).shape == (256, 2048)

    def test_empirical_correlation(self):
        A = gen_gaussian_corr(400, 30, 0.5, 1)
        C = np.corrcoef(A, rowvar=False)
        off = C[~np.eye(30, dtype=bool)]
        assert abs(off.mean() - 0.5) < 0.05

    def test_seed_behavior(self):
        assert np.array_equal(gen_gaussian_corr(10, 10, 0.3, 2),
                              gen_gaussian_corr(10, 10, 0.3, 2))
        assert not np.array_equal(gen_gaussian_corr(10, 10, 0.3, 2),
                                  gen_gaussian_corr(10, 10, 0.3, 3))

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            gen_gaussian_corr(5, 5, 1.0, 0)


class TestOdct:
    def test_entry_bound(self):
        A = gen_odct(32, 128, 10.0, 0)
        assert np.max(np.abs(A)) <= 1.0 / np.sqrt(32) + 1e-15

    def test_coherence_grows_with_oversampling(self):
        means = []
        for F in (5.0, 10.0, 15.0):
            vals = [mutual_coherence(gen_odct(32, 128, F, seed))
                    for seed in range(20)]
            means.append(np.mean(vals))
        assert means[0] < means[1] < means[2]

    def test_deterministic(self):
        assert np.array_equal(gen_odct(8, 16, 5.0, 4), gen_odct(8, 16, 5.0, 4))


class TestGroundTruth:
    def test_exact_sparsity(self):
        for s in (1, 5, 20):
            assert np.count_nonzero(gen_ground_truth(64, s, 1.0, 0)) == s

    def test_zero_dynamic_range_moments(self):
        vals = np.concatenate([
            gen_ground_truth(30, 30, 0.0, seed) for seed in range(400)
        ])
        assert 0.8 <= vals.std() <= 1.2

    def test_positions_uniform(self):
        counts = np.zeros(16)
        for seed in range(4000):
            x = gen_ground_truth(16, 3, 1.0, seed)
            counts[np.flatnonzero(x)] += 1
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.01

    def test_dynamic_range_scales_entries(self):
        # D controls the spread of magnitudes around a unit geometric mean
        x4 = np.concatenate([np.abs(gen_ground_truth(20, 20, 4.0, s))
                             for s in range(200)])
        x0 = np.concatenate([np.abs(gen_ground_truth(20, 20, 0.0, s))
                             for s in range(200)])
        assert np.log10(x4).std() > np.log10(x0).std() + 0.5


class TestSynthSpec:
    def test_build_noiseless(self):
        A, b, xstar = SynthSpec("gaussian", 20, 50, 3, 0.5, seed=0).build()
        assert np.allclose(b, A @ xstar)
        assert np.count_nonzero(xstar) == 3

    def test_noise_changes_b_only(self):
        s0 = SynthSpec("odct", 16, 64, 3, 10.0, seed=1)
        s1 = SynthSpec("odct", 16, 64, 3, 10.0, noise_sigma=0.1, seed=1)
        A0, b0, x0 = s0.build()
        A1, b1, x1 = s1.build()
        assert np.array_equal(A0, A1) and np.array_equal(x0, x1)
        assert not np.array_equal(b0, b1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec("fourier", 8, 16, 2, 0.5)
        with pytest.raises(ValueError):
            SynthSpec("gaussian", 8, 16, 20, 0.5)


class TestMetrics:
    def test_iacc_examples(self):
        assert iacc([1.0, 0.0], [2.0, 0.0]) == 1.0
        assert iacc([1.0, 0.0], [0.0, 1.0]) == 0.0
        assert iacc([1.0, 0.0, 0.0, 2.0], [0.0, 0.0, 3.0, 1.0]) == 0.5

    def test_relerr_and_tmse(self):
        x = np.array([1.0, 2.0])
        assert relerr(x, x) == 0.0
        assert tmse(np.eye(2), x, x) == 0.0

    def test_rerr_zero_reference(self):
        with pytest.raises(ZeroReference):
            rerr(np.ones(2), np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            iacc([1.0], [1.0, 2.0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=10),
           st.lists(st.floats(-10, 10), min_size=1, max_size=10))
    def test_iacc_symmetric_and_bounded(self, a, b):
        n = min(len(a), len(b))
        x, y = np.array(a[:n]), np.array(b[:n])
        assert iacc(x, y) == iacc(y, x)
        assert 0.0 <= iacc(x, y) <= 1.0


class TestPerformanceProfiles:
    def test_single_solver_flat_curve(self):
        taus, pi = performance_profile(np.array([[1.0], [2.0], [0.5]]))
        assert np.all(pi == 1.0)

    def test_two_solver_example(self):
        r = performance_ratios(np.array([[1.0, 2.0]]))
        assert np.allclose(r, [[1.0, 2.0]])
        taus, pi = performance_profile(np.array([[1.0, 2.0]]),
                                       taus=[1.0, 2.0])
        assert pi[0].tolist() == [1.0, 0.0]
        assert pi[1].tolist() == [1.0, 1.0]

    def test_failures_as_inf(self):
        t = np.array([[1.0, np.inf], [2.0, 4.0]])
        taus, pi = performance_profile(t)
        assert pi[-1, 0] == 1.0
        assert pi[-1, 1] == 0.5  # terminal value = solved fraction

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(0)
        t = 10.0 ** rng.uniform(-2, 2, size=(20, 3))
        _, pi = performance_profile(t)
        assert np.all(np.diff(pi, axis=0) >= 0.0)
        assert np.all(pi <= 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            performance_ratios(np.array([[0.0, 1.0]]))


class TestStandardize:
    def test_hand_example(self):
        M, y = standardize_columns(np.array([[1.0], [3.0]]),
                                   np.array([0.0, 2.0]))
        assert M[:, 0] == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_fixed_point_and_moments(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        M1, y1 = standardize_columns(M, y)
        assert np.max(np.abs(M1.mean(axis=0))) <= 1e-14
        assert np.max(np.abs((M1 * M1).sum(axis=0) - 1.0)) <= 1e-12
        M2, y2 = standardize_columns(M1, y1)
        assert np.allclose(M1, M2) and np.allclose(y1, y2)

    def test_constant_column(self):
        with pytest.raises(DegenerateColumn):
            standardize_columns(np.ones((4, 1)), np.arange(4.0))


class TestRealdataPipeline:
    def test_smoke_csv_loads(self):
        M, y, names = load_csv(smoke_dataset_path(), "target")
        assert M.shape[0] == y.shape[0] == 120
        assert "bmi" in names and "target" not in names

    def test_folds_partition(self):
        folds = make_folds(23, 5, 0)
        allidx = np.sort(np.concatenate(folds))
        assert np.array_equal(allidx, np.arange(23))

    def test_build_dataset_split(self):
        M, y, _ = load_csv(smoke_dataset_path(), "target")
        ds = build_dataset(M, y, 0.8, 10, 0)
        assert ds.A_train.shape[0] == 96 and ds.A_test.shape[0] == 24
        assert len(ds.fold_indices) == 10

    def test_cv_single_and_tie(self):
        M, y, _ = load_csv(smoke_dataset_path(), "target")
        ds = build_dataset(M, y, 0.8, 4, 0)

        def solver(A, b, gamma):
            return np.linalg.lstsq(A, b, rcond=None)[0]

        assert cross_validate_gamma(ds, [0.3], 4, solver) == 0.3
        # duplicate entries: lowest index wins
        assert cross_validate_gamma(ds, [0.3, 0.3], 4, solver) == 0.3

    def test_cv_picks_best_on_grid(self):
        # least-squares-with-ridge solver: heavier gamma hurts on clean data,
        # so the exhaustive grid evaluation must pick the smallest
        M, y, _ = load_csv(smoke_dataset_path(), "target")
        ds = build_dataset(M, y, 0.8, 5, 0)

        def solver(A, b, gamma):
            n = A.shape[1]
            return np.linalg.solve(A.T @ A + gamma * np.eye(n), A.T @ b)

        got = cross_validate_gamma(ds, [1e-6, 1e2], 5, solver)
        assert got == 1e-6

    def test_cv_solver_failure_scores_inf(self):
        M, y, _ = load_csv(smoke_dataset_path(), "target")
        ds = build_dataset(M, y, 0.8, 4, 0)

        def solver(A, b, gamma):
            if gamma < 1.0:
                raise NonConvergence("no convergence at this gamma")
            return np.linalg.lstsq(A, b, rcond=None)[0]

        assert cross_validate_gamma(ds, [0.5, 2.0], 4, solver) == 2.0

    def test_cv_other_errors_propagate(self):
        M, y, _ = load_csv(smoke_dataset_path(), "target")
        ds = build_dataset(M, y, 0.8, 4, 0)

        def solver(A, b, gamma):
            raise ValueError("a bug, not a solver failure")

        with pytest.raises(ValueError, match="a bug"):
            cross_validate_gamma(ds, [0.5, 2.0], 4, solver)

    def test_default_grid(self):
        assert len(DEFAULT_GAMMA_GRID) == 7
        assert DEFAULT_GAMMA_GRID[0] == pytest.approx(1e-6)
        assert DEFAULT_GAMMA_GRID[-1] == pytest.approx(1e-1)


class TestIdentificationStudy:
    def test_tiny_grid(self):
        out = finite_identification_study(
            [24], [2], [5], n=96, seeds=range(2), gamma=3e-3, beta=0.015)
        assert len(out.cells) == 1
        cell = out.cells[0]
        assert 0.0 <= cell.mean_iacc <= 1.0
        assert cell.sparsity_level == pytest.approx(2 / 24)
        assert cell.n_ok + cell.n_failed == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            finite_identification_study([], [2], [5], n=16, seeds=[0],
                                        gamma=1e-3, beta=0.1)

    @pytest.mark.parametrize("imax", [60, 400])
    def test_one_trajectory_matches_from_scratch_solves(self, imax):
        # the old way: a standalone and a two-phase solve from zero per
        # (T, seed); T_list is out of order on purpose
        grid = dict(m_list=[24, 32], s_list=[2, 4], T_list=[30, 5])
        seeds = range(3)
        out = finite_identification_study(
            **grid, n=96, seeds=seeds, gamma=3e-3, beta=0.015, imax=imax)
        expected = []
        for m in grid["m_list"]:
            for s in grid["s_list"]:
                for T in grid["T_list"]:
                    vals = []
                    for seed in seeds:
                        A, b, _ = SynthSpec(family="gaussian", m=m, n=96, s=s,
                                            coherence=0.8, dynamic_D=1.0,
                                            seed=seed).build()
                        p = Problem(A=A, b=b, gamma=3e-3)
                        cfg = SolverConfig(beta=0.015, T=T, imax=imax)
                        x_hat = run_admm(p, cfg, np.zeros(p.n))[0].x
                        rep = run_hafam(p, cfg, np.zeros(p.n))
                        vals.append(iacc(x_hat, rep.x_phase1))
                    expected.append((m, s, T, float(np.mean(vals)), 3, 0))
        assert [(c.m, c.s, c.T, c.mean_iacc, c.n_ok, c.n_failed)
                for c in out.cells] == expected
        assert out.failures == []

    def _fail_with(self, monkeypatch, name, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(studies, name, fail)
        return finite_identification_study(
            [24], [2], [5, 30], n=96, seeds=[0, 1], gamma=3e-3, beta=0.015)

    def test_failed_standalone_fails_every_window(self, monkeypatch):
        out = self._fail_with(monkeypatch, "run_admm", NonConvergence("cap"))
        assert [(c.T, c.n_ok, c.n_failed) for c in out.cells] == \
            [(5, 0, 2), (30, 0, 2)]
        assert np.isnan(out.cells[0].mean_iacc)
        assert out.failures == [(24, 2, T, seed, "cap")
                                for T in (5, 30) for seed in (0, 1)]

    def test_failed_two_phase_solve_is_recorded(self, monkeypatch):
        out = self._fail_with(monkeypatch, "run_hafam", NonConvergence("ssn"))
        assert [c.n_failed for c in out.cells] == [2, 2]
        assert [f[4] for f in out.failures] == ["ssn"] * 4

    def test_other_errors_propagate(self, monkeypatch):
        with pytest.raises(ValueError, match="bug"):
            self._fail_with(monkeypatch, "run_hafam", ValueError("bug"))


class TestNoisyTauStudy:
    def test_shared_phase_one_matches_from_scratch_solves(self):
        base = dict(family="gaussian", m=32, n=96, s=3, coherence=0.5,
                    dynamic_D=1.0, noise_sigma=0.05)
        taus = [0.0, 0.05, 0.1]
        runs = noisy_tau_study(SynthSpec(**base), taus, [0, 1], gamma=1e-3,
                               beta=0.05)
        expected = []
        for seed in (0, 1):
            A, b, xstar = SynthSpec(**base, seed=seed).build()
            p = Problem(A=A, b=b, gamma=1e-3)
            for tau in taus:
                rep = run_hafam(p, SolverConfig(beta=0.05, T=5, tau=tau),
                                np.zeros(p.n))
                expected.append((tau, seed, rerr(rep.x_final, xstar)))
        assert [(r.tau, r.seed, r.rerr) for r in runs] == expected


class TestProfileTimes:
    def test_solver_failure_scores_inf(self):
        def fails(p, x0):
            raise NonConvergence("cap")

        problems = [(None, None)] * 2
        t = profile_times(problems, [("ok", lambda p, x0: x0),
                                     ("fails", fails)])
        assert np.all(np.isfinite(t[:, 0])) and np.all(np.isinf(t[:, 1]))

    def test_other_errors_propagate(self):
        def buggy(p, x0):
            raise ValueError("bug")

        with pytest.raises(ValueError, match="bug"):
            profile_times([(None, None)], [("buggy", buggy)])
