"""Per-layer tracing from outside the library.

The tracer replaces library functions at the names their callers look up
(``tockta.harness.network_traces``, ``tockta.taexec.apply_step``, ...)
with wrappers that record a span (name, start, end, parent, input id) or
bump a call counter, and puts the originals back afterwards.  Spans stay
in memory; self time is derived from them when a pass ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from tockta import harness, parser, semantics, taexec, translate, uppaalxml
from tockta.semantics import BoundExceeded


def _assembled(args, net):
    return {
        "translate.automata": len(net.automata),
        "translate.edges": sum(len(ta.edges) for ta in net.automata),
        "translate.channels": len(net.channels),
    }


def _compared(args, report):
    return {
        "harness.mismatches": int(report.verdict == harness.MISMATCH),
        "harness.witnesses": len(report.witnesses),
    }


# (module, attribute, span name, counts taken from (args, result))
SPANS = (
    (parser, "parse", "parser.parse", lambda args, _: {"parser.chars": len(args[0])}),
    (translate, "assemble", "translate.assemble", _assembled),
    (harness, "assemble", "translate.assemble", _assembled),
    (uppaalxml, "emit", "uppaalxml.emit", lambda _, doc: {"uppaalxml.bytes": len(doc.encode("utf-8"))}),
    (uppaalxml, "load", "uppaalxml.load", None),
    (harness, "check_spec", "harness.check_spec", None),
    (harness, "csp_traces", "semantics.csp_traces", lambda _, ts: {"semantics.traces": len(ts)}),
    (harness, "network_traces", "taexec.network_traces", lambda _, ts: {"taexec.traces": len(ts)}),
    (taexec, "timelock_witnesses", "taexec.timelock", None),
    (harness, "compare_traces", "harness.compare", _compared),
)

# Hot functions get a call counter only: a span per call would swamp them.
COUNTERS = (
    (semantics, "step", "semantics.step_calls"),
    (taexec, "enabled_steps", "taexec.enabled_steps_calls"),
    (taexec, "apply_step", "taexec.apply_step_calls"),
)

TIMED_LAYERS = (
    "parser.parse",
    "translate.assemble",
    "uppaalxml.emit",
    "uppaalxml.load",
    "semantics.csp_traces",
    "taexec.network_traces",
    "taexec.timelock",
    "harness.compare",
)
COUNTED = (
    "parser.chars",
    "translate.automata",
    "translate.edges",
    "translate.channels",
    "uppaalxml.bytes",
    "semantics.traces",
    "semantics.step_calls",
    "taexec.traces",
    "taexec.enabled_steps_calls",
    "taexec.apply_step_calls",
    "taexec.cap_hits",
    "harness.mismatches",
    "harness.witnesses",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []  # name, start, end, parent, input
        self.counts: Counter = Counter()
        self.input_id = ""
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name, measure in SPANS:
            self._patch(module, attr, self._span(name, getattr(module, attr), measure))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, self._counter(name, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span(self, name, fn, measure):
        def wrapper(*args, **kwargs):
            return self.record(name, fn, args, kwargs, measure)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def record(self, name, fn, args=(), kwargs=None, measure=None):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.input_id))
        self._open.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except BoundExceeded:
            if name == "taexec.network_traces":
                self.counts["taexec.cap_hits"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.input_id)
        if measure is not None:
            self.counts.update(measure(args, result))
        return result

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time of its children."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child_time[index]
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        times = self.self_times()
        metrics = {f"{name}_s": times.get(name, 0.0) for name in TIMED_LAYERS}
        metrics.update({name: self.counts.get(name, 0) for name in COUNTED})
        return metrics

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
