"""Self-tests of the benchmark: determinism in the seed and sane spans.

Each workload below runs twice with seed 0 (one untraced and one traced
pass each); wide-gaussian is left out because its counters are a subset of
identify-cell's and one pass of it costs as much as the whole cell.
"""

import math

import numpy as np
import pytest

import harness
from workloads import WORKLOADS

LIB = harness.import_library()
CHECKED = ("identify-cell", "realdata-cv", "cone-fidelity-grid")
COUNTS = ("prox.calls", "admm.iters", "ssn.iters", "ssn.stalls")


def _run(name, seed):
    return harness.run(LIB, WORKLOADS[name], seed, seconds=0, trace=True)


@pytest.fixture(scope="module", params=CHECKED)
def twin_runs(request):
    return _run(request.param, 0), _run(request.param, 0)


def _summary(result):
    layers = result.per_layer()
    out = {name: layers[name] for name in COUNTS}
    out["fail_frac"] = result.failed / result.attempted
    out.update(result.quality())
    return out


def test_same_seed_same_counts_and_quality(twin_runs):
    first, second = (_summary(r) for r in twin_runs)
    assert first.keys() == second.keys()
    for key, value in first.items():
        assert value == second[key] or (math.isnan(value)
                                        and math.isnan(second[key])), key
    assert all(r.correct for r in twin_runs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_changes_inputs(name):
    workload = WORKLOADS[name]
    contexts = [workload.setup(LIB, seed) for seed in (0, 1)]
    try:
        if name == "identify-cell":
            spec = [c.extra["spec"](family="gaussian", m=64, n=256, s=8,
                                    coherence=0.8, seed=3) for c in contexts]
            inputs = [s.build()[0] for s in spec]
        elif name == "realdata-cv":
            inputs = []
            for c in contexts:
                with open(c.extra["data"], encoding="utf-8") as fh:
                    inputs.append(fh.read())
        else:
            inputs = [np.concatenate([p.A.ravel() for p, _ in c.problems])
                      for c in contexts]
        assert not np.array_equal(inputs[0], inputs[1])
    finally:
        for c in contexts:
            workload.teardown(c)


def test_spans_nest_and_self_times_cover_the_pass(twin_runs):
    result = twin_runs[1]
    tracer = result.tracer
    for span in tracer.spans:
        assert math.isfinite(span.end) and span.start <= span.end
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    layers = result.per_layer()
    wall = layers["trace.wall_s"]
    for root in result.traced_roots:
        subtree = tracer.subtree(root)
        own = tracer.self_seconds(subtree)
        assert sum(own.values()) == pytest.approx(tracer.spans[root].seconds,
                                                  rel=1e-9)
    # time in no layer span (the benchmark's own checks and glue) stays
    # within the tracing overhead, or 5 % of the pass
    root = result.traced_roots[0]
    layer_self = sum(v for i, v in tracer.self_seconds(
        tracer.subtree(root)).items() if i != root)
    slack = max(abs(layers["trace.overhead_frac"]), 0.05)
    assert abs(layer_self - tracer.spans[root].seconds) <= slack * wall
