"""End-to-end acceptance suite.

Each test emits one PASS/FAIL line, replayed in the terminal summary by
conftest.py, so a plain ``pytest -v`` run shows the ten criteria at a
glance.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from prox_oracle import oracle_value
from ratiopt.admm import AdmmState, run_admm
from ratiopt.cli import main as cli_main
from ratiopt.expkit.generate import SynthSpec
from ratiopt.expkit.metrics import iacc, rerr
from ratiopt.expkit.profiles import performance_profile
from ratiopt.expkit.realdata import smoke_dataset_path
from ratiopt.expkit.studies import (
    finite_identification_study,
    noisy_tau_study,
    profile_times,
)
from ratiopt.hafam import run_hafam
from ratiopt.model import (
    Cone,
    Problem,
    SolverConfig,
    certificate,
    fidelity_grad,
    lipschitz_estimate,
    ratio,
    subgradient_distance,
)
from ratiopt.prox import (
    ProxQuery,
    fraction_tau,
    prox_l1_over_l2,
    soft_threshold,
)
from ratiopt.ssnewton import hessian, phi_grad, phi_value, run_ssnewton
from reduced_oracle import q_from_hessian, q_spectrum, stationary_instance

SEEDS = range(10)
GAMMA = 1e-4
BETA = 0.015
T_GRID = (5, 10, 20, 30)


def report(num, desc, ok):
    import conftest

    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {desc:<60s} {status}"
    print(line)
    conftest.CRITERION_LINES.append(line)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Shared Gaussian benchmark solves: the two-phase solver from zero for
    every support-stability window, and standalone ADMM, ten seeds each.
    Standalone ADMM resumes from the phase-one state of the largest window,
    a prefix of its own trajectory from zero."""
    runs = []
    for seed in SEEDS:
        spec = SynthSpec(family="gaussian", m=256, n=2048, s=12,
                         coherence=0.8, dynamic_D=1.0, seed=seed)
        A, b, xstar = spec.build()
        p = Problem(A=A, b=b, gamma=GAMMA)
        two_phase = {}
        for T in T_GRID:
            tic = time.perf_counter()
            rep = run_hafam(p, SolverConfig(beta=BETA, T=T, imax=2000),
                            np.zeros(p.n))
            two_phase[T] = (rep, time.perf_counter() - tic)
        st, _ = run_admm(p, SolverConfig(beta=BETA, imax=2000),
                         two_phase[max(T_GRID)][0].phase1)
        runs.append(dict(p=p, xstar=xstar, admm=st, two_phase=two_phase))
    return runs


def test_01_two_phase_benchmark(benchmark_runs):
    per_window_ok = {}
    max_seconds = 0.0
    for T in T_GRID:
        good = 0
        for run in benchmark_runs:
            rep, seconds = run["two_phase"][T]
            max_seconds = max(max_seconds, seconds)
            relerr_truth = rerr(rep.x_final, run["xstar"])
            kkt = certificate(run["p"], rep.x_final).kkt_residual
            agree = iacc(rep.x_phase1, run["admm"].x)
            if relerr_truth <= 1e-6 and kkt <= 1e-9 and agree == 1.0:
                good += 1
        per_window_ok[T] = good
    ok = all(v >= 8 for v in per_window_ok.values()) and max_seconds <= 60.0
    report(1, "two-phase solver accuracy/identification on the Gaussian "
              "benchmark", ok)
    assert ok, (per_window_ok, max_seconds)


def test_02_admm_standalone_benchmark(benchmark_runs):
    ok = all(
        run["admm"].relerr < 1e-8
        and 50 <= run["admm"].k <= 1000
        and rerr(run["admm"].x, run["xstar"]) <= 1e-6
        for run in benchmark_runs
    )
    report(2, "standalone splitting solver convergence on the same instances",
           ok)
    assert ok, [(r["admm"].k, r["admm"].relerr) for r in benchmark_runs]


def test_03_exact_y_solve_invariants():
    worst_gap = 0.0
    dominated = True
    for seed in range(3):
        spec = SynthSpec(family="gaussian", m=64, n=256, s=6,
                         coherence=0.8, dynamic_D=1.0, seed=seed)
        A, b, _ = spec.build()
        p = Problem(A=A, b=b, gamma=1e-3)
        cfg = SolverConfig(beta=0.1, imax=300)
        L = lipschitz_estimate(p)
        coef = L * L / cfg.beta + cfg.beta
        x0 = np.zeros(p.n)
        st = AdmmState(x=x0, y=x0.copy(), z=x0.copy())
        for _ in range(cfg.imax):
            y_prev = st.y
            # one step: the cap ends the call, and rel_tol only decides
            # when a run stops, never the iterates
            st, _ = run_admm(p, replace(cfg, imax=st.k + 1, rel_tol=0.0), st)
            gap = np.linalg.norm(fidelity_grad(p, st.y) - st.z)
            worst_gap = max(worst_gap,
                            gap / (1e-9 * (1.0 + np.linalg.norm(st.z))))
            if np.any(st.x):
                bound = coef * np.linalg.norm(y_prev - st.y)
                if subgradient_distance(p, st.x) > bound:
                    dominated = False
    ok = worst_gap <= 1.0 and dominated
    report(3, "exact y-solve stationarity gap and its computable upper bound",
           ok)
    assert ok, (worst_gap, dominated)


def test_04_prox_matches_brute_force_oracle():
    rng = np.random.default_rng(123)
    failures = 0
    for trial in range(1000):
        n = int(rng.integers(1, 5))
        q = rng.standard_normal(n) * (10.0 ** rng.uniform(-1, 1))
        rho = float(10.0 ** rng.uniform(-2, 2))
        cone = Cone.NONNEG if trial % 2 else Cone.FREE
        res = prox_l1_over_l2(ProxQuery(q, rho, cone))
        ref = oracle_value(q, rho, nonneg=(cone is Cone.NONNEG))
        if res.value > ref + 1e-8:
            failures += 1
    ok = failures == 0
    report(4, "ratio proximal operator equals a brute-force oracle (1000 "
              "cases)", ok)
    assert ok, failures


def _random_reduced(rng, s=None):
    s = s if s is not None else int(rng.integers(2, 10))
    m = s + int(rng.integers(2, 20))
    A = rng.standard_normal((m, s + int(rng.integers(0, 4))))
    b = rng.standard_normal(m)
    u = (0.5 + rng.random(s)) * rng.choice([-1.0, 1.0], s)
    rp = Problem(A=A[:, :s], b=b, gamma=float(10.0 ** rng.uniform(-3, -1)))
    return rp, u


def test_05_reduced_calculus():
    rng = np.random.default_rng(7)
    grad_ok = hess_ok = True
    for _ in range(500):
        rp, u = _random_reduced(rng)
        g = phi_grad(rp, u)
        h = 1e-6
        fd = np.array([
            (phi_value(rp, u + h * e) - phi_value(rp, u - h * e)) / (2 * h)
            for e in np.eye(u.size)
        ])
        if np.linalg.norm(fd - g) > 1e-6 * (1 + np.linalg.norm(g)):
            grad_ok = False
    for _ in range(100):
        rp, u = _random_reduced(rng)
        H = hessian(rp, u, rp.A.T @ rp.A)
        v = rng.standard_normal(u.size)
        h = 1e-6
        hv_fd = (phi_grad(rp, u + h * v) - phi_grad(rp, u - h * v)) / (2 * h)
        if np.linalg.norm(hv_fd - H @ v) > 1e-4 * (1 + np.linalg.norm(H @ v)):
            hess_ok = False
    spec_ok = True
    for _ in range(200):
        s = int(rng.integers(2, 31))
        rp, u = _random_reduced(rng, s=s)
        lam1, lam2, lam_rest = q_spectrum(rp.gamma, u)
        predicted = np.sort(np.r_[lam1, lam2, np.full(s - 2, lam_rest)])
        actual = np.linalg.eigvalsh(q_from_hessian(rp, u))
        if np.max(np.abs(predicted - actual)) > 1e-10:
            spec_ok = False
        if abs((lam1 + lam2) - lam_rest) > 1e-12:
            spec_ok = False
    ok = grad_ok and hess_ok and spec_ok
    report(5, "reduced-objective gradient, Hessian, and closed-form "
              "spectrum", ok)
    assert ok, (grad_ok, hess_ok, spec_ok)


def test_06_newton_superlinear_tail():
    good = 0
    details = []
    for seed in range(20):
        rp, u_star, rng = stationary_instance(seed)
        u0 = u_star * (1.0 + 0.05 * rng.standard_normal(u_star.size))
        _, tr = run_ssnewton(rp, u0)
        gns = tr.grad_norms
        ratios = [gns[i + 1] / gns[i] for i in range(len(gns) - 1)]
        if tr.iterations <= 40 and len(ratios) >= 3 \
                and all(r < 0.1 for r in ratios[-3:]):
            good += 1
        else:
            details.append((seed, tr.iterations, ratios[-3:]))
    ok = good == 20
    report(6, "Newton phase shows a superlinear gradient tail (20 "
              "instances)", ok)
    assert ok, details


def test_07_finite_identification_grid():
    out = finite_identification_study(
        [32, 64], [2, 4, 8], [5, 30], n=256, seeds=SEEDS,
        gamma=3e-3, beta=BETA)
    ok = not out.failures and all(c.mean_iacc >= 0.98 for c in out.cells)
    report(7, "support identification accuracy across the (m, s, T) grid",
           ok)
    assert ok, [(c.m, c.s, c.T, c.mean_iacc) for c in out.cells]


def test_08_noise_matched_shrinkage():
    sigma = 0.05
    spec = SynthSpec(family="odct", m=64, n=1024, s=6, coherence=10.0,
                     dynamic_D=1.0, noise_sigma=sigma)
    taus = [0.0, sigma, 2 * sigma, 3 * sigma]
    runs = noisy_tau_study(spec, taus, SEEDS, gamma=1e-3, beta=BETA)
    by_tau = {tau: {r.seed: r for r in runs if r.tau == tau} for tau in taus}
    wins = sum(by_tau[2 * sigma][s].rerr < by_tau[0.0][s].rerr for s in SEEDS)
    means = [np.mean([by_tau[tau][s].iacc_truth for s in SEEDS])
             for tau in taus]
    monotone = all(b >= a - 0.02 for a, b in zip(means, means[1:]))
    ok = wins >= 7 and monotone
    report(8, "noise-matched shrinkage helps recovery and support accuracy",
           ok)
    assert ok, (wins, means)


def test_09_metric_examples_and_fuzz():
    exact = (
        ratio([3.0, 4.0]) == 7.0 / 5.0
        and ratio(np.zeros(3)) == 1.0
        and iacc([1.0, 0.0], [2.0, 0.0]) == 1.0
        and iacc([1.0, 0.0, 0.0, 2.0], [0.0, 0.0, 3.0, 1.0]) == 0.5
        and np.array_equal(soft_threshold([3.0, -0.5, 0.0], 1.0),
                           [2.0, 0.0, 0.0])
        and fraction_tau([10.0, 0.1], 0.5) == 0.1
    )
    rng = np.random.default_rng(11)
    sym_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 8))
        x = rng.standard_normal(n) * rng.integers(0, 2, n)
        y = rng.standard_normal(n) * rng.integers(0, 2, n)
        v = iacc(x, y)
        if v != iacc(y, x) or not 0.0 <= v <= 1.0:
            sym_ok = False
            break
    t = 10.0 ** rng.uniform(-3, 3, size=(10_000, 4))
    t[rng.random(t.shape) < 0.05] = np.inf
    t[np.isinf(t).all(axis=1), 0] = 1.0
    _, pi = performance_profile(t)
    prof_ok = bool(np.all(np.diff(pi, axis=0) >= 0.0)
                   and np.all(pi >= 0.0) and np.all(pi <= 1.0)
                   and np.allclose(pi[-1], np.isfinite(t).mean(axis=0)))
    ok = exact and sym_ok and prof_ok
    report(9, "metric unit examples plus 10^4-case fuzzing of the "
              "invariants", ok)
    assert ok, (exact, sym_ok, prof_ok)


def test_10_profiles_and_held_out_regression(tmp_path):
    problems = []
    for seed in range(4):
        spec = SynthSpec(family="gaussian", m=24, n=96, s=3,
                         coherence=0.5, dynamic_D=1.0, seed=seed)
        A, b, _ = spec.build()
        p = Problem(A=A, b=b, gamma=1e-3)
        problems.append((p, np.zeros(p.n)))
    cfg = SolverConfig(beta=0.05, imax=20_000)
    solvers = [
        ("admm", lambda p, x0: run_admm(p, cfg, x0)[0].x),
        ("hafam", lambda p, x0: run_hafam(p, cfg, x0).x_final),
    ]
    times = profile_times(problems, solvers)
    _, pi = performance_profile(times)
    curves_ok = bool(np.all(np.diff(pi, axis=0) >= 0.0)
                     and np.all(pi <= 1.0) and np.all(pi[-1] == 1.0))

    out = tmp_path / "realdata"
    code = cli_main(["realdata", "--data", str(smoke_dataset_path()),
                     "--gamma", "1e-3", "--out", str(out)])
    import csv
    with open(out / "realdata_table.csv", encoding="utf-8") as fh:
        fh.readline()  # manifest comment
        rows = {r["solver"]: r for r in csv.DictReader(fh)}
    tmse_ok = (float(rows["hafam"]["tmse"])
               <= 1.10 * float(rows["admm"]["tmse"]))
    nnz_ok = int(rows["hafam"]["nnz"]) <= int(rows["admm-l1"]["nnz"])
    ok = code == 0 and curves_ok and tmse_ok and nnz_ok
    report(10, "well-formed timing profiles and held-out regression "
               "comparison", ok)
    assert ok, (code, curves_ok, rows.get("hafam"), rows.get("admm"))
