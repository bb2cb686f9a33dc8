"""ratiopt benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload wide-gaussian --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its src/.
One process, one caller, BLAS pinned to one thread.  The workload's fixed
list of solves (a pass) repeats back to back until --seconds have passed.
--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes, prints the per-layer metrics and writes the spans to
.perfbench_out/.  The last line of standard output is one JSON object.
"""

import os
import time

_START = time.perf_counter()
# before numpy loads OpenBLAS; threadpoolctl is not available to do it later
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "solve_s_p50": "s",
    "goodput_per_s": "1/s", "ok_frac": "share", "certified_frac": "share",
    "peak_rss_mb": "MB",
}


def _git_sha():
    if not (harness.ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, to show the pin took."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "pinning": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "blas_threads": _blas_threads(),
    }


def _write_spans(result, env):
    out_dir = harness.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{result.workload}-seed{result.seed}-spans.json"
    spans = [{"name": s.name, "start": s.start, "end": s.end,
              "parent": s.parent, **s.attrs} for s in result.tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": result.workload,
                   "seed": result.seed, "quality": result.quality(),
                   "spans": spans}, fh)
        fh.write("\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = harness.import_library()
    import_s = time.perf_counter() - _START
    result = harness.run(lib, WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), import_s=import_s)
    env = environment()

    if args.trace:
        metrics = result.per_layer()
        units = harness.LAYER_UNITS
        print(f"# spans written to {_write_spans(result, env)}")
    else:
        metrics = result.end_to_end(harness.peak_rss_mb())
        units = E2E_UNITS
    solves = len(result.passes[0].outcomes)
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {len(result.passes)} untraced "
          f"and {len(result.traced)} traced passes of {solves} solves; "
          f"{result.attempted} attempted, {result.failed} failed")
    reasons = Counter(o.failure for p in result.all_passes for o in p.outcomes
                      if o.failure)
    print(f"# failures {dict(sorted(reasons.items()))}")
    quality = " ".join(f"{k}={v:.6g}" for k, v in result.quality().items())
    print(f"# quality {quality}")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
