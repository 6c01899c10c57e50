"""Span tracing of qmcbounds layers, done from outside the package.

The traced run replaces each layer function listed in ``TRACED`` with a
wrapper that records a span (name, start, end, parent).  A function is
replaced in every ``qmcbounds`` module namespace that binds it, because
``from .spaces import make_partition`` copies the name into the
importing module; methods are replaced on their class.  Nothing is
patched outside the ``Tracer.patched()`` block, so an untraced run
executes the library exactly as shipped.

Spans stay in memory for one pass; ``summarize`` turns them into
per-layer self time (a span's duration minus its children's) and call
counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (metric prefix, module, attribute path inside the module).  The prefix
# is the layer module plus the function name; methods drop the class.
TRACED = (
    ("spaces.make_partition", "qmcbounds.spaces", "make_partition"),
    ("spaces.cell_index_of", "qmcbounds.spaces", "Partition.cell_index_of"),
    ("funcmodel.evaluate", "qmcbounds.funcmodel", "FunctionModel.evaluate"),
    ("funcmodel.essential_range", "qmcbounds.funcmodel", "FunctionModel.essential_range"),
    ("funcmodel.cell_integral", "qmcbounds.funcmodel", "FunctionModel.cell_integral"),
    ("pointsets.allocation", "qmcbounds.pointsets", "allocation"),
    ("pointsets.construct_uniform", "qmcbounds.pointsets", "construct_uniform"),
    ("pointsets.is_uniform", "qmcbounds.pointsets", "is_uniform"),
    ("pointsets.enumerate_uniform", "qmcbounds.pointsets", "enumerate_uniform"),
    ("bounds.bound_set", "qmcbounds.bounds", "bound_set"),
    ("estimator.qmc_estimate", "qmcbounds.estimator", "qmc_estimate"),
    ("estimator.bound_report", "qmcbounds.estimator", "bound_report"),
    ("oracle.worst_case_error", "qmcbounds.oracle", "worst_case_error"),
    ("oracle.verify_bounds_exhaustive", "qmcbounds.oracle", "verify_bounds_exhaustive"),
    ("oracle.minimax_distance_finite", "qmcbounds.oracle", "minimax_distance_finite"),
    ("experiments.convergence_table", "qmcbounds.experiments", "convergence_table"),
    ("experiments.edge_placement_worst_error", "qmcbounds.experiments",
     "edge_placement_worst_error"),
    ("experiments.naive_pointwise_s", "qmcbounds.experiments", "naive_pointwise_s"),
    ("experiments.perturb_table", "qmcbounds.experiments", "perturb_table"),
    ("experiments.run_verification", "qmcbounds.experiments", "run_verification"),
    ("instances.instance_to_json", "qmcbounds.instances", "instance_to_json"),
    ("reports.render_csv", "qmcbounds.reports", "render_csv"),
)

LAYER_NAMES = tuple(name for name, _, _ in TRACED)

ROOT = -1


class Tracer:
    """Records spans of the traced layer functions while patched in."""

    def __init__(self):
        # (name, start, end, parent index); a slot is reserved at entry
        # so parents always precede their children.
        self.spans: list = []
        self._stack = [ROOT]

    def reset(self) -> None:
        self.spans = []
        self._stack = [ROOT]

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        undo = []
        try:
            for name, module_name, path in TRACED:
                owner = sys.modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                if outer:
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))
                    continue
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "qmcbounds" and not mod_name.startswith("qmcbounds."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def summarize(spans, pass_seconds: float) -> dict:
    """Per-layer self time and calls, plus the time no span covers."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent != ROOT:
            child_time[parent] += end - start
    self_time = {name: 0.0 for name in LAYER_NAMES}
    calls = {name: 0 for name in LAYER_NAMES}
    covered = 0.0
    for (name, start, end, parent), inner in zip(spans, child_time):
        self_time[name] += (end - start) - inner
        calls[name] += 1
        if parent == ROOT:
            covered += end - start
    return {
        "self_s": self_time,
        "calls": calls,
        "uncovered_s": pass_seconds - covered,
        "spans": len(spans),
    }
