"""The benchmark workloads (BENCHMARK.json lists all but realdata-cv).

Each workload is a fixed list of solves.  The seed does not pick new random
instances: the iteration count of a table1-gaussian solve ranges from 119 to
518 over generation seeds 0-7, so a run of a few instances would measure
instance luck, not code.  Instead the seed presents a fixed set of base
instances in new coordinates (an orthogonal mix of the rows, a permutation
and sign flip of the columns, or for the CSV a shuffle of rows inside each
cross-validation fold).  Every input array changes with the seed while the
optimization problem, and so the work, stays the same up to roundoff.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from harness import ROOT


@dataclass
class Context:
    problems: list = field(default_factory=list)
    truths: dict = field(default_factory=dict)   # b.tobytes() -> x_star
    recover_tol: float | None = None
    extra: dict = field(default_factory=dict)


def _derived_seed(seed, index):
    return (seed + 1) * 1_000_003 + index


def equivalent_instance(lib, A, b, xstar, seed, flip_signs=True):
    """(Q A P S, Q b, S P^T x*) for a seeded orthogonal Q, permutation P and
    signs S: the same least-squares or residual-norm problem, since
    ||Q r|| = ||r|| and the ratio is invariant under P and S.  Sign flips
    would leave the nonnegative cone, so NONNEG instances skip them."""
    rng = lib.expkit.make_rng(seed)
    m, n = A.shape
    Q, R = np.linalg.qr(lib.expkit.standard_normal(rng, (m, m)))
    Q *= np.sign(np.diag(R))
    perm = rng.permutation(n)
    signs = (np.where(rng.random(n) < 0.5, -1.0, 1.0) if flip_signs
             else np.ones(n))
    return (Q @ A)[:, perm] * signs, Q @ b, xstar[perm] * signs


def _rerr_max(ledger):
    rerrs = [o.rerr for o in ledger.outcomes if not np.isnan(o.rerr)]
    return max(rerrs) if rerrs else float("nan")


class Workload:
    """Set-up builds a Context from the seed; a pass runs its solves."""

    def run_pass(self, lib, ctx, ledger):
        """Two-phase solve of every prepared problem; RatioptError is a
        failed operation the ledger has already counted."""
        for p, cfg in ctx.problems:
            try:
                lib.hafam.run_hafam(p, cfg, np.zeros(p.n))
            except lib.exceptions.RatioptError:
                pass
        return {"rerr_max": _rerr_max(ledger)}, True

    def teardown(self, ctx):
        pass


class WideGaussian(Workload):
    """table1-gaussian preset (256x2048, s=12, noiseless, tau 0), generation
    seed 0: 518 ADMM and 3 Newton iterations; the n=2048 prox dominates."""

    name = "wide-gaussian"

    def setup(self, lib, seed):
        spec = lib.expkit.SynthSpec(family="gaussian", m=256, n=2048, s=12,
                                    coherence=0.8, dynamic_D=1.0, seed=0)
        A, b, xstar = equivalent_instance(lib, *spec.build(),
                                          _derived_seed(seed, 0))
        p = lib.Problem(A=A, b=b, gamma=1e-4)
        # noiseless with a tiny gamma: the paper's exact-recovery regime
        ctx = Context(recover_tol=1e-6)
        ctx.problems.append((p, lib.SolverConfig(beta=0.015, T=5, tau=0.0)))
        ctx.truths[p.b.tobytes()] = xstar
        return ctx


class IdentifyCell(Workload):
    """One sec5b-identify cell (n=256, m=64, s=8, T=5) over study seeds
    0-9, through finite_identification_study: every instance is solved by
    standalone ADMM and by the two-phase solver."""

    name = "identify-cell"
    study_seeds = tuple(range(10))

    def setup(self, lib, seed):
        ctx = Context()
        truths = ctx.truths

        class Spec(lib.expkit.SynthSpec):
            # the study builds its instances from seeds; hand it the seeded
            # equivalent of each one and note the ground truth
            def build(self):
                A, b, xstar = equivalent_instance(
                    lib, *super().build(), _derived_seed(seed, self.seed))
                truths[b.tobytes()] = xstar
                return A, b, xstar

        ctx.extra["spec"] = Spec
        return ctx

    def run_pass(self, lib, ctx, ledger):
        studies = lib.expkit.studies
        saved = studies.SynthSpec
        studies.SynthSpec = ctx.extra["spec"]
        try:
            out = studies.finite_identification_study(
                [64], [8], [5], n=256, seeds=list(self.study_seeds),
                gamma=3e-3, beta=0.015)
        finally:
            studies.SynthSpec = saved
        cell = out.cells[0]
        correct = (len(out.cells) == 1
                   and cell.n_ok + cell.n_failed == len(self.study_seeds)
                   and len(out.failures) == cell.n_failed)
        return {"iacc_mean": cell.mean_iacc,
                "rerr_max": _rerr_max(ledger)}, correct


class RealdataCv(Workload):
    """`ratiopt realdata` in-process on the bundled diabetes smoke CSV: 3-fold
    CV over DEFAULT_GAMMA_GRID on the 96x10 train split, then admm,
    admm-l1 and hafam at the chosen gamma.  Newton carries the load."""

    name = "realdata-cv"
    folds = 3
    cli_seed = 0
    split_ratio = 0.8     # the CLI default

    def setup(self, lib, seed):
        ek = lib.expkit
        with open(ek.smoke_dataset_path(), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        # shuffle rows only inside the test split and inside each fold, which
        # build_dataset derives from the CLI seed: every CV subproblem keeps
        # its rows, in a new order
        n = len(data)
        n_train = max(1, int(round(self.split_ratio * n)))
        perm = ek.make_rng(self.cli_seed).permutation(n)
        train, test = np.sort(perm[:n_train]), np.sort(perm[n_train:])
        groups = [train[f] for f in ek.make_folds(n_train, self.folds,
                                                  self.cli_seed + 1)]
        groups.append(test)
        rng = ek.make_rng(_derived_seed(seed, 0))
        source = np.arange(n)
        for g in groups:
            source[g] = rng.permutation(g)
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=scratch)
        data_path = f"{workdir}/data.csv"
        with open(data_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(data[i] for i in source)
        return Context(extra={"workdir": workdir, "data": data_path})

    def run_pass(self, lib, ctx, ledger):
        out = f"{ctx.extra['workdir']}/out"
        argv = ["realdata", "--data", ctx.extra["data"], "--folds",
                str(self.folds), "--seed", str(self.cli_seed), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = lib.cli.main(argv)
        with open(f"{out}/realdata_table.csv", newline="",
                  encoding="utf-8") as fh:
            table = list(csv.DictReader(line for line in fh
                                        if not line.startswith("#")))
        solvers = [row["solver"] for row in table]
        tmse = {row["solver"]: float(row["tmse"]) for row in table}
        correct = (code == 0 and solvers == ["admm", "admm-l1", "hafam"]
                   and all(np.isfinite(v) and v > 0 for v in tmse.values()))
        return {"tmse": tmse.get("hafam", float("nan"))}, correct

    def teardown(self, ctx):
        shutil.rmtree(ctx.extra["workdir"], ignore_errors=True)


class ConeFidelityGrid(Workload):
    """{FREE, NONNEG} x {LEAST_SQUARES, RESIDUAL_NORM} x {tall 64x16, wide
    32x64}, base seeds 0 and 1, noise 0.01: the only workload that runs the
    residual-norm y-update, the NONNEG prox and the residual-norm Hessian.
    Known defects fail here and stay visible: wide residual-norm raises
    InnerNoConvergence, NONNEG solves return negative entries.

    Newton is capped at 20 iterations (default 2500; converging runs here
    take at most 9).  On these instances it either converges or wanders at
    the precision floor until the cap, depending on roundoff, so a larger
    cap made the pass time differ by half between seeds."""

    name = "cone-fidelity-grid"
    base_seeds = (0, 1)
    shapes = {"tall": (64, 16), "wide": (32, 64)}

    def setup(self, lib, seed):
        ctx = Context()
        cfg = lib.SolverConfig(beta=0.05, T=5,
                               newton=lib.NewtonConfig(ssn_max=20))
        index = 0
        for cone in (lib.Cone.FREE, lib.Cone.NONNEG):
            for fidelity in (lib.Fidelity.LEAST_SQUARES,
                             lib.Fidelity.RESIDUAL_NORM):
                for m, n in self.shapes.values():
                    for base in self.base_seeds:
                        spec = lib.expkit.SynthSpec(
                            family="gaussian", m=m, n=n, s=3, coherence=0.5,
                            dynamic_D=1.0, seed=base)
                        A, _, xstar = spec.build()
                        if cone is lib.Cone.NONNEG:
                            xstar = np.abs(xstar)
                        noise = lib.expkit.standard_normal(
                            lib.expkit.make_rng(base + 5), m)
                        b = A @ xstar + 0.01 * noise
                        A, b, xstar = equivalent_instance(
                            lib, A, b, xstar, _derived_seed(seed, index),
                            flip_signs=cone is lib.Cone.FREE)
                        index += 1
                        p = lib.Problem(A=A, b=b, gamma=1e-3, cone=cone,
                                        fidelity=fidelity)
                        ctx.problems.append((p, cfg))
                        ctx.truths[p.b.tobytes()] = xstar
        return ctx


WORKLOADS = {w.name: w for w in (WideGaussian(), IdentifyCell(), RealdataCv(),
                                 ConeFidelityGrid())}
