"""Command-line front end: solve / identify / profile / realdata.

Configuration is flat key=value text; every key can be overridden by a
flag, and RATIOPT_SEED overrides a config-file seed (flag > env > file).
Each command writes a JSON report and a CSV table that embed a RunManifest
listing both files, whose hash covers the command, the resolved
configuration, the seed, and the toolkit version (timestamps are excluded),
so identical manifests mean identical single-threaded results.

Exit codes: 0 success, 1 usage/config/data error, 2 an ADMM run that hit its
iteration cap, or a two-phase run that is not HafamReport.converged.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .admm import run_admm, run_admm_l1_baseline
from .exceptions import RatioptError, SingularResidual, ZeroVector
from .expkit.generate import SynthSpec
from .expkit.metrics import rerr, tmse
from .expkit.profiles import performance_profile
from .expkit.realdata import (DEFAULT_GAMMA_GRID, build_dataset,
                              cross_validate_gamma, load_csv)
from .expkit.rng import make_rng, standard_normal
from .expkit.studies import finite_identification_study, profile_times
from .hafam import run_hafam
from .model import (Certificate, Cone, Fidelity, Problem, SolverConfig,
                    certificate)


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like configuration errors: 2 means a solve did
    not converge."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# configuration

_KEY_TYPES = {
    "preset": str, "solver": str, "init": str, "family": str,
    "data": str, "target": str,
    "m": int, "n": int, "s": int, "T": int, "imax": int, "seeds": int,
    "seed": int, "folds": int, "repetitions": int,
    "coherence": float, "dynamic_D": float, "noise_sigma": float,
    "gamma": float, "beta": float, "tau": float, "tau_frac": float,
    "rel_tol": float, "split_ratio": float,
    "m_list": "int_list", "s_list": "int_list", "T_list": "int_list",
}


def _coerce(key: str, raw: str):
    kind = _KEY_TYPES[key]
    try:
        if kind == "int_list":
            return [int(v) for v in raw.split(",") if v.strip()]
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for key '{key}': {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            cfg[key] = _coerce(key, raw.strip())
    return cfg


PRESETS = {
    "table1-gaussian": dict(family="gaussian", m=256, n=2048, s=12,
                            coherence=0.8, dynamic_D=1.0, noise_sigma=0.0,
                            gamma=1e-4, beta=0.015, T=5, tau=0.0),
    "table1-odct": dict(family="odct", m=256, n=2048, s=12, coherence=10.0,
                        dynamic_D=1.0, noise_sigma=0.0, gamma=1e-4,
                        beta=0.015, T=5, tau=0.0),
    "fig3-noisy": dict(family="odct", m=64, n=1024, s=6, coherence=10.0,
                       dynamic_D=1.0, noise_sigma=0.05, gamma=1e-3,
                       beta=0.015, T=5, tau=0.1),
    "sec5b-identify": dict(n=256, m_list=[32, 64], s_list=[2, 4, 8],
                           T_list=[5, 30], seeds=10, gamma=3e-3, beta=0.015),
    "fig2-profiles": dict(m=64, n=512, s_list=[4, 8], seeds=3, dynamic_D=2.0,
                          gamma=1e-4, beta=0.015, T=5),
}


def resolve_config(args, defaults: dict) -> dict:
    """Merge defaults < preset < config file < flags; seed: flag > env > file."""
    cfg = dict(defaults)
    file_cfg = parse_config_file(args.config) if args.config else {}
    preset_name = getattr(args, "preset", None) or file_cfg.get("preset")
    if preset_name:
        if preset_name not in PRESETS:
            raise ConfigError(f"unknown preset '{preset_name}'")
        cfg.update(PRESETS[preset_name])
        cfg["preset"] = preset_name
    cfg.update(file_cfg)
    for key in _KEY_TYPES:
        flag = getattr(args, key, None)
        if flag is not None and key != "preset":
            cfg[key] = flag
    env_seed = os.environ.get("RATIOPT_SEED")
    if getattr(args, "seed", None) is None and env_seed is not None:
        cfg["seed"] = _coerce("seed", env_seed)
    cfg.setdefault("seed", 0)
    return cfg


# ---------------------------------------------------------------------------
# manifests and output plumbing

@dataclasses.dataclass
class RunManifest:
    """One command run; its seed is config["seed"]."""

    command: str
    config: dict
    started: str
    finished: str = ""
    outputs: tuple = ()

    @property
    def hash(self) -> str:
        payload = json.dumps(
            {"command": self.command, "config": self.config,
             "seed": self.config["seed"], "version": __version__},
            sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {"command": self.command, "config": self.config,
                "seed": self.config["seed"], "version": __version__,
                "started": self.started, "finished": self.finished,
                "outputs": list(self.outputs), "hash": self.hash}

    def write(self, out: str, csv_name: str, header, rows, json_name: str,
              report: dict):
        """Write the command's CSV table and JSON report into out; both
        carry this manifest, which lists the two files."""
        json_path = os.path.join(out, json_name)
        csv_path = os.path.join(out, csv_name)
        self.outputs = (json_path, csv_path)
        _write_csv(csv_path, header, rows, self)
        self.finished = _now()
        _write_json(json_path, {"manifest": self.to_dict(), **report})


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _strict(obj):
    """obj with every non-finite float replaced by None: strict JSON has no
    NaN or Infinity, so null stands for a value that is undefined or
    unbounded."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict(payload), fh, indent=2, default=str,
                  allow_nan=False)
        fh.write("\n")


def _write_csv(path: str, header, rows, manifest: RunManifest):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# manifest_hash={manifest.hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _start(args, command: str, cfg: dict):
    """The run's manifest and its output directory, created here."""
    out = args.out or f"ratiopt-{command}-out"
    os.makedirs(out, exist_ok=True)
    return RunManifest(command, cfg, _now()), out


# ---------------------------------------------------------------------------
# solve

def _given(cfg: dict, keys) -> dict:
    """cfg's entries under keys; an absent key keeps the callee's default."""
    return {key: cfg[key] for key in keys if key in cfg}


def _build_synthetic(cfg: dict):
    spec = SynthSpec(family=cfg["family"], m=cfg["m"], n=cfg["n"], s=cfg["s"],
                     coherence=cfg["coherence"], seed=cfg["seed"],
                     **_given(cfg, ("dynamic_D", "noise_sigma")))
    A, b, xstar = spec.build()
    return Problem(A=A, b=b, gamma=cfg["gamma"], cone=Cone.FREE,
                   fidelity=Fidelity.LEAST_SQUARES), xstar


def _initial_point(cfg: dict, n: int) -> np.ndarray:
    init = cfg.get("init", "zero")
    if init == "zero":
        return np.zeros(n)
    if init == "randn":
        return standard_normal(make_rng(cfg["seed"] + 7_000_003), n)
    raise ConfigError(f"unknown init '{init}' (expected zero or randn)")


def _solver_config(cfg: dict) -> SolverConfig:
    return SolverConfig(beta=cfg["beta"],
                        **_given(cfg, ("T", "tau", "imax", "rel_tol")))


def _run_solver(p: Problem, cfg: dict, x0, record=False):
    """Solves p from x0; returns (x, iterations, converged, admm_trace,
    tran_it).  The ADMM trace is phase one's for hafam and holds
    per-iteration series only with record=True; tran_it is None for the
    one-phase solvers."""
    scfg = _solver_config(cfg)
    solver = cfg.get("solver", "hafam")
    if solver == "hafam":
        # an explicit positive tau beats the mass-fraction rule
        tau_frac = cfg.get("tau_frac") if scfg.tau <= 0.0 else None
        rep = run_hafam(p, scfg, x0, tau_frac=tau_frac, record=record)
        return (rep.x_final, rep.total_it, rep.converged, rep.phase1_trace,
                rep.tran_it)
    one_phase = {"admm": run_admm, "admm-l1": run_admm_l1_baseline}
    if solver not in one_phase:
        raise ConfigError(f"unknown solver '{solver}'")
    st, tr = one_phase[solver](p, scfg, x0, record=record)
    return st.x, st.k, tr.stop_reason != "imax", tr, None


def cmd_solve(args) -> int:
    cfg = resolve_config(args, dict(solver="hafam", init="zero"))
    for key in ("family", "m", "n", "s", "coherence", "gamma", "beta"):
        if key not in cfg:
            raise ConfigError(f"missing required key '{key}'")
    manifest, out = _start(args, "solve", cfg)
    p, xstar = _build_synthetic(cfg)
    x, iters, converged, trace, tran_it = _run_solver(
        p, cfg, _initial_point(cfg, p.n), record=True)
    nnz = int(np.count_nonzero(x))
    try:
        cert = certificate(p, x)
    except (ZeroVector, SingularResidual):
        # undefined at x = 0, or where a residual-norm fit has Ax = b
        cert = Certificate(math.nan, math.nan, math.nan)
    margin = cert.margin if cert.kkt_residual <= 1e-6 else None
    rec = rerr(x, xstar)
    rows = [
        (k + 1, trace.relerr[k], trace.y_residual[k], trace.objective[k],
         trace.kkt_upper_bound[k], trace.grad_gap[k],
         trace.subgrad_distance[k], len(trace.support[k]))
        for k in range(len(trace.relerr))
    ]
    manifest.write(
        out, "series.csv",
        ("iteration", "relerr", "y_residual", "objective", "kkt_upper_bound",
         "grad_gap", "subgrad_distance", "nnz"), rows,
        "report.json", {
            "rerr": rec, "kkt_residual": cert.kkt_residual, "nnz": nnz,
            "subgradient_distance": cert.subgradient_distance,
            "nondegeneracy_margin": margin,
            "iterations": iters, "converged": converged, "tran_it": tran_it,
        })
    print(f"RErr={rec:.3e} KKT_R={cert.kkt_residual:.3e} nnz={nnz} "
          f"iters={iters}")
    return 0 if converged else 2


# ---------------------------------------------------------------------------
# identify

def cmd_identify(args) -> int:
    cfg = resolve_config(args, PRESETS["sec5b-identify"])
    if not (cfg["m_list"] and cfg["s_list"] and cfg["T_list"]):
        raise ConfigError("identification grid must be nonempty")
    manifest, out = _start(args, "identify", cfg)
    seeds = [cfg["seed"] + i for i in range(cfg["seeds"])]
    result = finite_identification_study(
        cfg["m_list"], cfg["s_list"], cfg["T_list"], n=cfg["n"], seeds=seeds,
        gamma=cfg["gamma"], beta=cfg["beta"], **_given(cfg, ("imax",)))
    rows = [(c.m, c.s, c.T, f"{c.sparsity_level:.6f}",
             f"{c.sample_level:.6f}", f"{c.mean_iacc:.6f}", c.n_ok,
             c.n_failed) for c in result.cells]
    manifest.write(
        out, "identify_heatmap.csv",
        ("m", "s", "T", "s_over_m", "m_over_mmax", "mean_iacc", "runs_ok",
         "runs_failed"), rows,
        "identify_report.json", {
            "failures": result.failures,
            "min_mean_iacc": min(c.mean_iacc for c in result.cells),
        })
    for c in result.cells:
        print(f"m={c.m} s={c.s} T={c.T} IAcc={c.mean_iacc:.4f}")
    return 0 if not result.failures else 1


# ---------------------------------------------------------------------------
# profile

def _profile_solvers(cfg: dict):
    """(name, fn) pairs for profile_times; fn(p, x0) solves p from x0
    through _run_solver and raises when the run did not converge."""

    def solver(name):
        def fn(p, x0):
            x, _, converged, _, _ = _run_solver(p, dict(cfg, solver=name),
                                                x0)
            if not converged:
                raise RatioptError(f"{name} did not converge")
            return x
        return fn

    available = {name: solver(name) for name in ("admm", "hafam")}
    names = cfg.get("solver", "admm,hafam").split(",")
    try:
        return [(name, available[name]) for name in names]
    except KeyError as exc:
        raise ConfigError(f"unknown profile solver {exc}") from exc


def cmd_profile(args) -> int:
    cfg = resolve_config(args, PRESETS["fig2-profiles"])
    manifest, out = _start(args, "profile", cfg)
    problems = []
    for family, coh in (("gaussian", 0.8), ("odct", 10.0)):
        for s in cfg["s_list"]:
            for i in range(cfg["seeds"]):
                p, _ = _build_synthetic(dict(cfg, family=family, s=s,
                                             coherence=coh,
                                             seed=cfg["seed"] + i))
                problems.append((p, _initial_point(cfg, p.n)))
    solvers = _profile_solvers(cfg)
    t = profile_times(problems, solvers)
    taus, pi = performance_profile(t)
    rows = [(f"{taus[i]:.8f}", solvers[j][0], f"{pi[i, j]:.6f}")
            for j in range(len(solvers)) for i in range(len(taus))]
    manifest.write(
        out, "profile_curves.csv", ("tau", "solver", "pi"), rows,
        "profile_report.json", {
            "n_problems": len(problems),
            "solvers": [name for name, _ in solvers],
            "solved_fraction": {name: float(np.isfinite(t[:, j]).mean())
                                for j, (name, _) in enumerate(solvers)},
        })
    print(f"profiled {len(problems)} problems x {len(solvers)} solvers")
    return 0


# ---------------------------------------------------------------------------
# realdata

def cmd_realdata(args) -> int:
    cfg = resolve_config(args, dict(target="target", split_ratio=0.8,
                                    folds=10, repetitions=1, beta=0.05,
                                    T=5, tau=0.0, tau_frac=0.01))
    if "data" not in cfg:
        raise ConfigError("missing required key 'data' (CSV path)")
    if not 0.0 < cfg["split_ratio"] < 1.0:
        raise ConfigError("split_ratio must lie in (0, 1)")
    manifest, out = _start(args, "realdata", cfg)
    M, y, _ = load_csv(cfg["data"], cfg["target"])

    def cv_solver(A, b, gamma):
        run_cfg = dict(cfg, gamma=gamma, solver="hafam", init="randn")
        p = Problem(A=A, b=b, gamma=gamma)
        return _run_solver(p, run_cfg, _initial_point(run_cfg, p.n))[0]

    rows = []
    for rep_i in range(cfg["repetitions"]):
        seed = cfg["seed"] + rep_i
        ds = build_dataset(M, y, cfg["split_ratio"], cfg["folds"], seed)
        gamma = cfg.get("gamma")
        if gamma is None:
            gamma = cross_validate_gamma(ds, DEFAULT_GAMMA_GRID,
                                         cfg["folds"], cv_solver)
        p = Problem(A=ds.A_train, b=ds.b_train, gamma=gamma)
        for solver in ("admm", "admm-l1", "hafam"):
            run_cfg = dict(cfg, gamma=gamma, solver=solver, init="randn",
                           seed=seed)
            tic = time.perf_counter()
            x, iters, converged, _, _ = _run_solver(
                p, run_cfg, _initial_point(run_cfg, p.n))
            cpu = time.perf_counter() - tic
            rows.append((rep_i, solver, f"{gamma:.3e}",
                         f"{tmse(ds.A_test, ds.b_test, x):.6e}",
                         int(np.count_nonzero(x)), iters, int(converged),
                         f"{cpu:.3f}"))
    manifest.write(
        out, "realdata_table.csv",
        ("repetition", "solver", "gamma", "tmse", "nnz", "iterations",
         "converged", "cpu_seconds"), rows,
        "realdata_report.json", {"rows": rows})
    for row in rows:
        print(" ".join(str(v) for v in row))
    return 0


# ---------------------------------------------------------------------------
# entry point

def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--preset", choices=sorted(PRESETS))
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int)
    for key in _KEY_TYPES:
        if key in ("preset", "seed"):
            continue
        # a bad flag value is reported like a bad config-file value
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key,
                         type=lambda raw, key=key: _coerce(key, raw))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ratiopt",
        description="L1-over-L2 ratio sparse recovery toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    handlers = {"solve": cmd_solve, "identify": cmd_identify,
                "profile": cmd_profile, "realdata": cmd_realdata}
    for name in handlers:
        sub = subs.add_parser(name)
        _add_common(sub)
        sub.set_defaults(handler=handlers[name])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ConfigError, OSError, ValueError, RatioptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
