"""Output checks, span tracing and the timed run loop of the benchmark.

Nothing here edits the library: every hook is a wrapper installed on the
name a caller looks up (``ratiopt.cli.run_hafam``, ``ratiopt.admm.
prox_l1_over_l2``, ...) for the length of one run and removed afterwards.
Counts come only from objects the library already returns.
"""

from __future__ import annotations

import inspect
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# a returned point is certified when the full-space subgradient distance of
# the ratio objective is at most this (absolute; the library's Newton stop is
# 1e-11 on the reduced gradient, so certified points sit far below it)
CERT_TOL = 1e-6


def import_library():
    """Import ratiopt from this checkout's src/ and never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ratiopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ratiopt sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ratiopt
    import ratiopt.cli
    import ratiopt.expkit.studies

    if Path(ratiopt.__file__).resolve().parent != (src / "ratiopt").resolve():
        raise SystemExit(f"perfbench: ratiopt imported from {ratiopt.__file__}")
    return ratiopt


class Bug(Exception):
    """A solver raised something other than RatioptError: abort the run."""


class Patcher:
    """Sets attributes for the length of a run and restores them after."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Outcome:
    kind: str            # hafam | admm | admm-l1
    seconds: float
    failure: str = ""    # empty when the solve did not fail
    certified: bool = False
    rerr: float = math.nan

    @property
    def good(self) -> bool:
        """Passed every output check that applies to its kind."""
        return not self.failure and (self.certified or self.kind == "admm-l1")


class Ledger:
    """Classifies every solve the workload makes.

    A solve fails when it raises RatioptError, when its ADMM run hits imax,
    when Newton stalls, when it returns a non-finite point or one outside
    the cone, or (where the workload sets a recovery tolerance) when its
    error against the ground truth exceeds that tolerance.  Points that do
    not fail are certified through ``subgradient_distance``; the L1
    baseline solves another objective and is not certified.
    """

    def __init__(self, lib, truths=None, recover_tol=None):
        self.lib = lib
        self.truths = truths if truths is not None else {}
        self.recover_tol = recover_tol
        self.outcomes = []
        self.bugs = []

    def wrap(self, kind, fn):
        error = self.lib.exceptions.RatioptError

        def checked(p, *args, **kwargs):
            tic = time.perf_counter()
            try:
                out = fn(p, *args, **kwargs)
            except error as exc:
                self.outcomes.append(Outcome(kind, time.perf_counter() - tic,
                                             failure=type(exc).__name__))
                raise
            except Exception as exc:
                # callers such as cross_validate_gamma swallow exceptions, so
                # keep the bug here and abort once the pass returns
                self.bugs.append(f"{kind}: {type(exc).__name__}: {exc}")
                raise
            self.outcomes.append(self._check(kind, p, out,
                                             time.perf_counter() - tic))
            return out

        return checked

    def _check(self, kind, p, out, seconds):
        if kind == "hafam":
            x = out.x_final
            tr2 = out.phase2_trace
            if out.phase1_trace.stop_reason == "imax":
                return Outcome(kind, seconds, failure="imax")
            if tr2 is not None and tr2.stalled:
                return Outcome(kind, seconds, failure="stall")
        else:
            state, trace = out
            x = state.x
            if trace.stop_reason == "imax":
                return Outcome(kind, seconds, failure="imax")
        if not np.all(np.isfinite(x)):
            return Outcome(kind, seconds, failure="nonfinite")
        if p.cone is self.lib.Cone.NONNEG and np.any(x < 0.0):
            return Outcome(kind, seconds, failure="cone")
        rec = math.nan
        truth = self.truths.get(p.b.tobytes())
        if truth is not None:
            rec = self.lib.expkit.rerr(x, truth)
            if self.recover_tol is not None and not rec <= self.recover_tol:
                return Outcome(kind, seconds, failure="rerr", rerr=rec)
        certified = False
        if kind != "admm-l1" and np.any(x):
            dist = self.lib.model.subgradient_distance(p, x)
            certified = dist <= CERT_TOL
        return Outcome(kind, seconds, certified=certified, rerr=rec)

    def raise_bugs(self):
        if self.bugs:
            raise Bug("; ".join(self.bugs))


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps (name, start, end, parent) spans in memory while enabled."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.enabled = False

    def open(self, name) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, attrs=None):
        """fn traced as `name`; attrs(result, args) -> counts to keep."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx].attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(idx)
            if attrs is not None:
                self.spans[idx].attrs.update(attrs(out, args))
            return out

        return traced

    def subtree(self, root):
        """Indices of root and all its descendants (spans are in open order)."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def self_seconds(self, indices):
        """Span duration minus the time its direct children cover."""
        own = {i: self.spans[i].seconds for i in indices}
        for i in indices:
            parent = self.spans[i].parent
            if parent in own:
                own[parent] -= self.spans[i].seconds
        return own


def _admm_attrs(out, args):
    state, trace = out
    return {"iters": state.k, "stop": trace.stop_reason}


def _ssn_attrs(budget, default_cfg):
    def attrs(out, args):
        _, trace = out
        delta = (args[2] if len(args) > 2 else default_cfg).delta
        fallback = sum(1 for k in trace.kinds if k.value == "fallback")
        # alpha = delta^m, so each accepted step took m backtracks; a stall
        # spent the whole budget
        backtracks = sum(round(math.log(a) / math.log(delta))
                         for a in trace.alphas)
        return {"iters": trace.iterations, "stalled": trace.stalled,
                "fallback": fallback,
                "backtracks": backtracks + (budget if trace.stalled else 0)}
    return attrs


def _hafam_attrs(rep, args):
    return {"tran_it": rep.tran_it, "skipped": rep.phase2_skipped}


def install_hooks(lib, patcher, ledger, tracer):
    """Wrap the public functions of every layer where their callers find them."""
    admm, hafam, ssn = lib.admm, lib.hafam, lib.ssnewton
    cli, studies = lib.cli, lib.expkit.studies
    w = tracer.wrap

    def prox_attrs(res, args):
        return {"candidates": res.candidates_examined}

    patcher.set(admm, "prox_l1_over_l2",
                w("prox", admm.prox_l1_over_l2, prox_attrs))
    ys = admm.LeastSquaresYSolver
    patcher.set(ys, "__init__", w("admm.factor", ys.__init__))
    patcher.set(ys, "solve", w("admm.ysolve", ys.solve))
    patcher.set(admm, "y_update_residual_norm",
                w("admm.ysolve_rn", admm.y_update_residual_norm))
    for name in ("objective", "fidelity_grad", "subgradient_distance",
                 "lipschitz_estimate"):
        patcher.set(admm, name, w("admm.telemetry", getattr(admm, name)))

    budget = inspect.signature(ssn.backtrack).parameters[
        "max_backtracks"].default
    patcher.set(hafam, "run_ssnewton",
                w("ssn.run", hafam.run_ssnewton,
                  _ssn_attrs(budget, lib.NewtonConfig())))
    patcher.set(ssn, "hessian", w("ssn.hessian", ssn.hessian))
    patcher.set(ssn, "newton_direction",
                w("ssn.direction", ssn.newton_direction))
    patcher.set(ssn, "armijo", w("ssn.linesearch", ssn.armijo))

    patcher.set(hafam, "run_admm", w("admm.run", hafam.run_admm, _admm_attrs))
    solve_hafam = ledger.wrap("hafam", w("hafam.run", hafam.run_hafam,
                                         _hafam_attrs))
    for owner in (hafam, cli, studies):
        patcher.set(owner, "run_hafam", solve_hafam)
    solve_admm = ledger.wrap("admm", w("admm.run", admm.run_admm, _admm_attrs))
    for owner in (cli, studies):
        patcher.set(owner, "run_admm", solve_admm)
    patcher.set(cli, "run_admm_l1_baseline",
                ledger.wrap("admm-l1", w("admm.run", cli.run_admm_l1_baseline,
                                         _admm_attrs)))

    spec = lib.expkit.SynthSpec
    patcher.set(spec, "build", w("expkit.generate", spec.build))
    patcher.set(cli, "load_csv", w("expkit.load", cli.load_csv))
    patcher.set(cli, "build_dataset", w("expkit.load", cli.build_dataset))
    patcher.set(cli, "cross_validate_gamma",
                w("expkit.cv", cli.cross_validate_gamma))
    patcher.set(studies, "finite_identification_study",
                w("expkit.study", studies.finite_identification_study))
    for name in ("_write_csv", "_write_json"):
        patcher.set(cli, name, w("cli.write", getattr(cli, name)))


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "prox.calls": "count", "prox.busy_s": "s", "prox.call_us_p50": "us",
    "prox.candidates_per_call": "count", "prox.share": "share",
    "admm.runs": "count", "admm.iters": "count", "admm.busy_s": "s",
    "admm.self_s": "s", "admm.factor_s": "s", "admm.ysolve.calls": "count",
    "admm.ysolve.busy_s": "s", "admm.ysolve.call_us_p50": "us",
    "admm.ysolve_rn.calls": "count", "admm.ysolve_rn.busy_s": "s",
    "admm.ysolve_rn.failures": "count", "admm.telemetry_s": "s",
    "admm.stop.relerr": "count", "admm.stop.support_stable": "count",
    "admm.stop.imax": "count",
    "ssn.runs": "count", "ssn.iters": "count", "ssn.busy_s": "s",
    "ssn.hessian_s": "s", "ssn.direction_s": "s", "ssn.linesearch_s": "s",
    "ssn.backtracks": "count", "ssn.fallback_dirs": "count",
    "ssn.stalls": "count",
    "hafam.runs": "count", "hafam.busy_s": "s", "hafam.self_s": "s",
    "hafam.phase2_skipped": "count", "hafam.tran_it": "count",
    "expkit.generate_s": "s", "expkit.load_s": "s", "expkit.cv_s": "s",
    "expkit.study_s": "s", "cli.write_s": "s",
    "trace.wall_s": "s", "trace.overhead_frac": "share",
}


def layer_metrics(tracer, roots, wall):
    """Per-layer numbers over the spans under the given root spans; shares
    are of `wall`."""
    idx = [i for r in roots for i in tracer.subtree(r) if i != r]
    own = tracer.self_seconds([i for r in roots for i in tracer.subtree(r)])
    by = {}
    for i in idx:
        by.setdefault(tracer.spans[i].name, []).append(i)

    def spans(name):
        return [tracer.spans[i] for i in by.get(name, [])]

    def busy(name):
        return sum(s.seconds for s in spans(name))

    def self_s(name):
        return sum(own[i] for i in by.get(name, []))

    def p50_us(name):
        d = [s.seconds for s in spans(name)]
        return statistics.median(d) * 1e6 if d else 0.0

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in spans(name))

    prox = spans("prox")
    admm_runs = spans("admm.run")
    ssn_runs = spans("ssn.run")
    hafam_runs = spans("hafam.run")
    return {
        "prox.calls": len(prox),
        "prox.busy_s": busy("prox"),
        "prox.call_us_p50": p50_us("prox"),
        "prox.candidates_per_call":
            total("prox", "candidates") / len(prox) if prox else 0.0,
        "prox.share": busy("prox") / wall,
        "admm.runs": len(admm_runs),
        "admm.iters": total("admm.run", "iters"),
        "admm.busy_s": busy("admm.run"),
        "admm.self_s": self_s("admm.run"),
        "admm.factor_s": busy("admm.factor"),
        "admm.ysolve.calls": len(spans("admm.ysolve")),
        "admm.ysolve.busy_s": busy("admm.ysolve"),
        "admm.ysolve.call_us_p50": p50_us("admm.ysolve"),
        "admm.ysolve_rn.calls": len(spans("admm.ysolve_rn")),
        "admm.ysolve_rn.busy_s": busy("admm.ysolve_rn"),
        "admm.ysolve_rn.failures":
            sum(1 for s in spans("admm.ysolve_rn") if "error" in s.attrs),
        "admm.telemetry_s": busy("admm.telemetry"),
        "admm.stop.relerr":
            sum(1 for s in admm_runs if s.attrs.get("stop") == "relerr"),
        "admm.stop.support_stable":
            sum(1 for s in admm_runs if s.attrs.get("stop") == "support_stable"),
        "admm.stop.imax":
            sum(1 for s in admm_runs if s.attrs.get("stop") == "imax"),
        "ssn.runs": len(ssn_runs),
        "ssn.iters": total("ssn.run", "iters"),
        "ssn.busy_s": busy("ssn.run"),
        "ssn.hessian_s": busy("ssn.hessian"),
        "ssn.direction_s": self_s("ssn.direction"),
        "ssn.linesearch_s": busy("ssn.linesearch"),
        "ssn.backtracks": total("ssn.run", "backtracks"),
        "ssn.fallback_dirs": total("ssn.run", "fallback"),
        "ssn.stalls": sum(1 for s in ssn_runs if s.attrs.get("stalled")),
        "hafam.runs": len(hafam_runs),
        "hafam.busy_s": busy("hafam.run"),
        "hafam.self_s": self_s("hafam.run"),
        "hafam.phase2_skipped":
            sum(1 for s in hafam_runs if s.attrs.get("skipped")),
        "hafam.tran_it": total("hafam.run", "tran_it"),
        "expkit.generate_s": busy("expkit.generate"),
        "expkit.load_s": busy("expkit.load"),
        "expkit.cv_s": busy("expkit.cv"),
        "expkit.study_s": busy("expkit.study"),
        "cli.write_s": busy("cli.write"),
    }


# ---------------------------------------------------------------------------
# the run loop


@dataclass
class PassResult:
    wall: float
    outcomes: list
    quality: dict
    correct: bool


@dataclass
class RunResult:
    workload: str
    seed: int
    setup_s: float
    passes: list                 # untraced PassResult
    traced: list                 # traced PassResult
    tracer: Tracer
    setup_root: int = -1
    traced_roots: list = field(default_factory=list)

    @property
    def all_passes(self):
        return self.passes + self.traced

    @property
    def attempted(self) -> int:
        return sum(len(p.outcomes) for p in self.all_passes)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.all_passes for o in p.outcomes if o.failure)

    @property
    def correct(self) -> bool:
        return all(p.correct for p in self.all_passes)

    def quality(self) -> dict:
        """Quality values of the first pass; every pass solves the same
        inputs, so later passes repeat them."""
        return self.all_passes[0].quality

    def end_to_end(self, peak_rss_mb) -> dict:
        passes = self.passes
        solves = [o for p in passes for o in p.outcomes]
        ratio = [o for o in solves if not o.failure and o.kind != "admm-l1"]
        return {
            "setup_s": self.setup_s,
            "wall_s": statistics.median(p.wall for p in passes),
            # per pass, then across passes: a pass may mix millisecond solves
            # with second-long stalls, and pooling all passes would move the
            # median with the number of passes
            "solve_s_p50": statistics.median(
                statistics.median(o.seconds for o in p.outcomes)
                for p in passes),
            "goodput_per_s": statistics.median(
                sum(o.good for o in p.outcomes) / p.wall for p in passes),
            "ok_frac": sum(not o.failure for o in solves) / len(solves),
            "certified_frac":
                sum(o.certified for o in ratio) / max(len(ratio), 1),
            "peak_rss_mb": peak_rss_mb,
        }

    def per_layer(self) -> dict:
        """Set-up spans plus the median traced pass, metric by metric."""
        per_pass = [layer_metrics(self.tracer, [self.setup_root, r],
                                  self.tracer.spans[r].seconds)
                    for r in self.traced_roots]
        out = {k: statistics.median(m[k] for m in per_pass)
               for k in per_pass[0]}
        traced_wall = statistics.median(p.wall for p in self.traced)
        plain_wall = statistics.median(p.wall for p in self.passes)
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


SETUP_REPEATS = 3


def run(lib, workload, seed, seconds, trace, import_s=0.0):
    """Set up `workload` for `seed`, then run passes for `seconds`.

    Set-up runs SETUP_REPEATS times and counts once at its median, plus the
    import time the caller measured.  A traced run alternates untraced and
    traced passes so both see the same machine state.
    """
    tracer = Tracer()
    setup_times = []
    ctx = None
    for rep in range(SETUP_REPEATS):
        if ctx is not None:
            workload.teardown(ctx)
        # the last set-up is the one the passes use; trace it for expkit
        tracer.enabled = trace and rep == SETUP_REPEATS - 1
        patcher = Patcher()
        install_hooks(lib, patcher, Ledger(lib), tracer)
        root = tracer.open("setup") if tracer.enabled else -1
        tic = time.perf_counter()
        try:
            ctx = workload.setup(lib, seed)
        finally:
            setup_times.append(time.perf_counter() - tic)
            if root >= 0:
                tracer.close(root)
            patcher.restore()
    result = RunResult(workload.name, seed,
                       import_s + statistics.median(setup_times), [], [],
                       tracer, setup_root=root)
    try:
        start = time.perf_counter()
        while True:
            result.passes.append(_one_pass(lib, workload, ctx, tracer)[0])
            if trace:
                traced, root = _one_pass(lib, workload, ctx, tracer,
                                         traced=True)
                result.traced.append(traced)
                result.traced_roots.append(root)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        workload.teardown(ctx)
    return result


def _one_pass(lib, workload, ctx, tracer, traced=False):
    ledger = Ledger(lib, truths=ctx.truths, recover_tol=ctx.recover_tol)
    patcher = Patcher()
    install_hooks(lib, patcher, ledger, tracer)
    tracer.enabled = traced
    root = tracer.open("pass") if traced else -1
    tic = time.perf_counter()
    try:
        quality, correct = workload.run_pass(lib, ctx, ledger)
    finally:
        wall = time.perf_counter() - tic
        if traced:
            tracer.close(root)
        tracer.enabled = False
        patcher.restore()
    ledger.raise_bugs()
    if not ledger.outcomes:
        raise Bug(f"{workload.name}: a pass made no solves")
    return PassResult(wall, ledger.outcomes, quality, correct), root
