"""Spans for the end-to-end benchmark: recording, storage, attribution.

A span is one timed call into a layer's public function: its name, its
start and end on the monotonic ``perf_counter`` clock, the id of the
span that was open when it began (its parent) and optional counts
(``attrs``).  The benchmark records spans from outside the program: a
:class:`Tracer` wraps public functions of ``repro`` in a fresh
interpreter and keeps every span in memory; the process writes them as
JSON lines when it ends, and :func:`layer_metrics` turns the file into
the per-layer numbers.

This module imports nothing from ``repro``, so the parent side of the
benchmark can read span files without loading the simulator.
"""

import dataclasses
import functools
import importlib
import json
import sys
import time


@dataclasses.dataclass(frozen=True)
class Probe:
    """One public function to wrap.

    ``attr`` is a function name or ``Class.method``.  ``name`` is the span
    name; ``{0}`` in it is replaced by the call's first argument (the
    exhibit name of ``run_exhibit``).  ``count``, when given, maps
    ``(args, result)`` to the span's ``attrs``.
    """

    module: str
    attr: str
    name: str
    count: object = None


class Tracer:
    """In-memory span recorder.

    Spans are only recorded while :attr:`active` is true, so a process can
    install its probes and trace just the region it measures.
    """

    def __init__(self):
        self.active = False
        self.spans = []
        self._stack = []

    def open(self, name, start=None):
        """Start a span now (or at *start*) under the innermost open one."""
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record)
        return record

    def close(self, record):
        record["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, function, probe):
        """Return *function* wrapped so each call records one span."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            name = probe.name.format(*args) if "{" in probe.name \
                else probe.name
            record = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(record)
            if probe.count is not None:
                record["attrs"] = probe.count(args, result)
            return result

        return wrapper


def install(tracer, probes):
    """Wrap every probe's function and rebind names bound to it.

    Modules that did ``from module import function`` hold their own
    reference, so after wrapping, every loaded ``repro`` module global
    that still points at an original function is pointed at its wrapper.
    Modules imported later bind the wrapper directly.
    """
    wrapped = {}
    for probe in probes:
        owner = importlib.import_module(probe.module)
        attr = probe.attr
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(original, probe)
        setattr(owner, attr, wrapper)
        wrapped[id(original)] = (original, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])


def write_jsonl(spans, path):
    """Write *spans* to *path*, one JSON object per line."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_jsonl(path):
    """Read spans written by :func:`write_jsonl`."""
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """``{span id: duration minus the time its child spans cover}``."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: span["end"] - span["start"] - _covered(
            span["start"], span["end"], children.get(span["id"], ())
        )
        for span in spans
    }


def outermost(spans, covers):
    """Spans with no ancestor *a* for which ``covers(a, span)`` holds.

    Nested calls into the same layer, or from one engine entry point into
    another, then count once.
    """
    by_id = {span["id"]: span for span in spans}
    found = []
    for span in spans:
        parent = span["parent"]
        while parent is not None and not covers(by_id[parent], span):
            parent = by_id[parent]["parent"]
        if parent is None:
            found.append(span)
    return found


#: Engine entry points that return simulation results; the outermost of
#: them on a call path owns that path's simulated instructions.
ENGINE_SPANS = frozenset({
    "core.mlpsim.simulate",
    "core.inorder.simulate_inorder",
    "core.ckernel.run_plan",
    "cyclesim.ckernel.run_cycle_plan",
})


def simulated_instructions(spans):
    """Config-instructions simulated by the engine calls in *spans*."""
    engine = [
        span for span in outermost(
            spans, lambda ancestor, _: ancestor["name"] in ENGINE_SPANS)
        if span["name"] in ENGINE_SPANS
    ]
    return sum(span["attrs"].get("instructions", 0) for span in engine)


def layer_metrics(spans, names, harness):
    """Compute the per-layer metrics *names* from one traced process.

    Generic names end in ``.calls``, ``.s`` or ``.self_s`` of a span name,
    or in an ``attrs`` key summed over that span (``.configs``,
    ``.fired``).  The rest are derived below.  Time inside ``harness.*``
    spans that no layer span covers is unattributed.  *harness* holds the
    metrics the caller measured itself, such as the tracing overhead.
    """
    selfs = self_times(spans)
    by_name = {}
    same_name = outermost(
        spans, lambda ancestor, span: ancestor["name"] == span["name"])
    for span in same_name:
        by_name.setdefault(span["name"], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    plan_configs = attr_sum("core.ckernel.run_plan", "configs")
    annotate_calls = calls("trace.annotate")
    get_calls = calls("experiments.get_annotated")
    derived = {
        "experiments.get_annotated.reuse_ratio":
            1.0 - annotate_calls / get_calls if get_calls else 0.0,
        "core.kernel_share":
            _ratio(plan_configs, plan_configs + calls("core.mlpsim.simulate")),
        "core.ckernel.ms_per_config":
            _ratio(1000.0 * seconds("core.ckernel.run_plan"), plan_configs),
        "robustness.journal.appends": calls("robustness.journal.append"),
        "robustness.journal.append_s": seconds("robustness.journal.append"),
        "robustness.supervisor.worker_replacements": attr_sum(
            "robustness.supervisor.supervised_sweep", "worker_replacements"
        ),
        "robustness.supervisor.quarantined": attr_sum(
            "robustness.supervisor.supervised_sweep", "quarantined"
        ),
        "harness.unattributed_s": sum(
            selfs[s["id"]] for s in spans if s["name"].startswith("harness.")
        ),
        "harness.traced_wall_s": sum(
            s["end"] - s["start"] for s in spans if s["parent"] is None
        ),
        **harness,
    }
    metrics = {}
    for metric in names:
        if metric in derived:
            metrics[metric] = derived[metric]
            continue
        span_name, _, suffix = metric.rpartition(".")
        if suffix == "calls":
            metrics[metric] = calls(span_name)
        elif suffix == "s":
            metrics[metric] = seconds(span_name)
        elif suffix == "self_s":
            metrics[metric] = sum(
                selfs[s["id"]] for s in spans if s["name"] == span_name
            )
        else:
            metrics[metric] = attr_sum(span_name, suffix)
    return metrics


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
