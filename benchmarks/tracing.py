"""Span tracing of the public bml API, done from outside the package.

`traced(tracer)` rebinds every public function of the traced modules, in
every `bml` namespace that holds it (the package itself, and modules that
imported it by name), to a wrapper that records one span per call.
Leaving the block puts the original objects back.  Cross-module calls are
therefore captured, but private helpers stay inside their caller's self
time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("special_fn", "operator", "laurent", "membership", "integral_repr", "cli")

CHECKS = ("membership.check_direct", "membership.check_convolution", "membership.check_alexander")

# work recorded with a span, from the call's bound arguments
WORK = {
    "laurent.evaluate": lambda a: a["f"].order,
    "laurent.evaluate_grid": lambda a: a["f"].order * np.size(a["zs"]),
    "operator.build_kernel": lambda a: a["order"],
    # bytes of the complex (interior x boundary) matrix the dense scan builds
    "membership.check_convolution": lambda a: 16 * len(a["grid"].radii) * a["grid"].angles * a["grid"].boundary_x,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: int  # op id; -1 during set-up
    failed: bool = False
    work: float = 0.0


class Tracer:
    """Collects spans in memory; single-threaded, one open span stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            if work:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = work(bound.arguments)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper


def public_functions(module):
    """Functions defined in `module` whose names do not start with an underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    }


def bml_namespaces():
    return [m for n, m in sorted(sys.modules.items()) if n == "bml" or n.startswith("bml.")]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every public call of the traced layers through `tracer`."""
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = importlib.import_module(f"bml.{layer}")
        for name, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    rebound = []
    try:
        for ns in bml_namespaces():
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    rebound.append((ns, attr, value))
        yield tracer
    finally:
        for ns, attr, value in reversed(rebound):
            setattr(ns, attr, value)


# ---------------------------------------------------------------------------
# arithmetic on spans


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        out.append((s.end - s.start) - _covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out


def layer_metrics(spans, passes=1):
    """Per-layer metrics of set-up plus one pass of the timed loop.

    Set-up spans (op id -1) count in full; spans of the timed loop are
    summed and divided by `passes`, so every figure is per set-up and pass,
    and counts repeat exactly from run to run.  scan_bytes is a maximum.
    """
    parts = (defaultdict(float), defaultdict(float))  # set-up, timed loop
    scan_bytes = 0.0
    for s, own in zip(spans, self_times(spans)):
        m = parts[s.op >= 0]
        layer = s.name.split(".", 1)[0]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += own
        m[f"{layer}.failed"] += s.failed
        if s.name == "membership.check_convolution":
            m["membership.conv_self_s"] += own
            scan_bytes = max(scan_bytes, s.work)
        elif s.name == "membership.check_direct":
            m["membership.direct_self_s"] += own
            if s.parent >= 0 and spans[s.parent].name == "membership.construct_nonmember":
                m["membership.nonmember_checks"] += 1
        elif s.name in ("laurent.evaluate", "laurent.evaluate_grid"):
            m["laurent.coef_points"] += s.work
        elif s.name == "operator.build_kernel":
            m["operator.kernel_builds"] += 1
            m["operator.kernel_weights"] += s.work
        if s.name in CHECKS:
            m["membership.checks"] += 1
    setup, loop = parts
    out = {k: setup[k] + loop[k] / passes for k in setup.keys() | loop.keys()}
    out["membership.scan_bytes"] = scan_bytes
    return out
