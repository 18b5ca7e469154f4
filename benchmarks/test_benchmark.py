"""Tests of the benchmark's own machinery: span arithmetic, tracing, inputs."""

import random
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import bml  # noqa: E402
import bml.cli  # noqa: E402,F401  (traced() wraps it; the snapshot must see it)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_times_of_nested_spans():
    spans = [
        Span("membership.check_direct", 0.0, 10.0, -1, 0),
        Span("laurent.evaluate_grid", 1.0, 4.0, 0, 0),
        Span("laurent.z_fprime", 2.0, 3.0, 1, 0),
        Span("operator.build_kernel", 3.5, 6.0, 0, 0),  # overlaps its sibling: counted once
        Span("special_fn.gamma_pos", 8.0, 12.0, 0, 0),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 1.0, 2.5, 4.0])


def test_layer_metrics_count_nonmember_checks_and_scan_bytes():
    spans = [
        Span("membership.construct_nonmember", 0.0, 5.0, -1, -1),
        Span("membership.check_direct", 1.0, 2.0, 0, -1),
        Span("membership.check_direct", 2.0, 3.0, 0, -1, failed=True),
        Span("membership.check_direct", 6.0, 7.0, -1, 0),
        Span("membership.check_convolution", 7.0, 9.0, -1, 1, work=100.0),
        Span("membership.check_convolution", 9.0, 10.0, -1, 2, work=40.0),
    ]
    m = tracing.layer_metrics(spans)
    assert m["membership.nonmember_checks"] == 2
    assert m["membership.checks"] == 5
    assert m["membership.failed"] == 1
    assert m["membership.scan_bytes"] == 100.0
    assert m["membership.self_s"] == pytest.approx(3.0 + 1.0 + 1.0 + 1.0 + 2.0 + 1.0)
    assert m["membership.direct_self_s"] == pytest.approx(3.0)
    per_pass = tracing.layer_metrics(spans, passes=2)
    assert per_pass["membership.checks"] == 2 + 3 / 2
    assert per_pass["membership.nonmember_checks"] == 2


def _namespace_snapshot():
    return {(ns.__name__, k): v for ns in tracing.bml_namespaces() for k, v in vars(ns).items()}


def test_traced_run_restores_every_name():
    before = _namespace_snapshot()
    f = bml.extremal_function(0.5, 0.0, 16)
    spec = bml.ClassSpec(0.0, bml.JanowskiTheta(0.0, -1.0), "spirallike", bml.BMLParams(1.0, 1.0, 1.0))
    grid = bml.GridSpec(angles=16, boundary_x=16)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert bml.check_direct is not before["bml", "check_direct"]
        assert bml.membership.build_kernel is not before["bml.membership", "build_kernel"]
        assert bml.cli.check_direct is not before["bml.cli", "check_direct"]
        bml.check_direct(f, spec, grid)
        with pytest.raises(ValueError):
            bml.gamma_pos(-1.0)
    names = {s.name for s in tracer.spans}
    assert {"membership.check_direct", "operator.build_kernel", "laurent.evaluate_grid"} <= names
    assert tracer.spans[-1].failed
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_generator_is_deterministic():
    for name in workloads.WORKLOADS:
        first = workloads.digest(workloads.recipe(name, 7))
        assert workloads.digest(workloads.recipe(name, 7)) == first
        assert workloads.digest(workloads.recipe(name, 8)) != first


def test_built_inputs_repeat_for_a_seed():
    a = workloads.build(bml, "janowski-scan", 3, "", "")
    b = workloads.build(bml, "janowski-scan", 3, "", "")
    assert [(j.method, j.label) for j in a.jobs] == [(j.method, j.label) for j in b.jobs]
    assert all((ja.f.tail == jb.f.tail).all() for ja, jb in zip(a.jobs, b.jobs))


def _univalent(co):
    return abs(co[1]) > sum(k * abs(t) for k, t in enumerate(co[2:], 2))


def test_polynomial_targets_are_univalent():
    for seed in range(200):
        for c in workloads.recipe("polynomial-scan", seed):
            assert 3 <= len(c["poly"]) <= 4 and c["poly"][0] == 1
            assert _univalent(c["poly"])
    rng = random.Random(0)
    assert all(_univalent(workloads.univalent_polynomial(rng, 3)) for _ in range(1000))


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(100)))
    assert (value, pct, beyond) == (89, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
