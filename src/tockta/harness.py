"""Exact trace comparison, the systematic corpus, and the bounded proof
that the deadlock translation preserves traces at every depth."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .cspast import (
    TOCK,
    CspProcess,
    CspSpec,
    ExtChoice,
    GenPar,
    Hide,
    IntChoice,
    Interleave,
    Interrupt,
    Prefix,
    Rename,
    Seq,
    Skip,
    Stop,
    format_process,
)
from .lts import BoundExceeded, TraceSet, reachable, subset_graph
from .semantics import TERMINATED, csp_traces, step, trace_to_text
from .tamodel import ChannelKind, NetworkModel, erasure_set
from .taexec import network_traces, raw_network_traces
from .translate import assemble

__all__ = [
    "EQUAL_AT_STAGE1",
    "MISMATCH",
    "ComparisonReport",
    "compare_traces",
    "check_spec",
    "CorpusEntry",
    "generate_corpus",
    "control_states",
    "StopBaseReport",
    "prove_stop_base",
]

EQUAL_AT_STAGE1 = "EqualAtStage1"
MISMATCH = "Mismatch"


@dataclass
class ComparisonReport:
    spec_id: str
    depth: int
    verdict: str
    witnesses: tuple[tuple[str, str], ...] = ()  # (side, trace text)
    millis: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict != MISMATCH

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.spec_id,
                "depth": self.depth,
                "verdict": self.verdict,
                "witnesses": [{"side": side, "trace": text} for side, text in self.witnesses],
                "millis": round(self.millis, 3),
            }
        )


def compare_traces(csp: TraceSet, ta: TraceSet, *, spec_id: str = "") -> ComparisonReport:
    """Equal exactly when the two sets are, decided on their subset graphs;
    otherwise a mismatch whose witnesses are, for each side, the least trace
    of the shortest differing length that only that side has."""
    difference = csp.first_difference(ta) or ()
    witnesses = tuple((side, trace_to_text(t)) for side, t in zip(("csp", "ta"), difference) if t is not None)
    return ComparisonReport(spec_id, csp.depth, MISMATCH if difference else EQUAL_AT_STAGE1, witnesses)


def check_spec(
    spec: CspSpec, depth: int, *, spec_id: str = "", net: NetworkModel | None = None
) -> ComparisonReport:
    """Translate and compare both engines' bounded traces, all of it timed."""
    begin = time.perf_counter()
    if net is None:
        net = assemble(spec)
    source = csp_traces(spec, depth)
    target = network_traces(net, depth)
    report = compare_traces(source, target, spec_id=spec_id)
    report.millis = (time.perf_counter() - begin) * 1000.0
    return report


# --- systematic corpus ------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    id: str
    spec: CspSpec
    text: str


def control_states(spec: CspSpec, cap: int = 64) -> int:
    """Distinct reachable process terms (the terminated pseudo-state aside),
    or ``cap + 1`` when there are more than ``cap``."""

    def successors(p: CspProcess):
        # every move is internal, so the first closure reaches every term
        return ((None, succ) for _, succ in step(p, spec.definitions) if succ is not TERMINATED)

    try:
        return len(reachable(spec.body(), successors, 0, state_cap=cap))
    except BoundExceeded:
        return cap + 1


def _corpus_processes() -> list[CspProcess]:
    a_stop = Prefix("a", Stop())
    b_stop = Prefix("b", Stop())
    c_stop = Prefix("c", Stop())
    a_skip = Prefix("a", Skip())
    b_skip = Prefix("b", Skip())
    tock_stop = Prefix(TOCK, Stop())
    left_atoms = [Stop(), Skip(), a_stop, tock_stop, a_skip]
    right_atoms = [Stop(), Skip(), b_stop, tock_stop, b_skip]

    out: list[CspProcess] = []
    # every binary construct over the atom grid
    for make in (Seq, ExtChoice, IntChoice, Interleave, Interrupt):
        for left in left_atoms:
            for right in right_atoms:
                out.append(make(left, right))
    # synchronising parallel needs a shared event to be interesting
    sync_a = frozenset({"a"})
    out += [
        GenPar(a_stop, Prefix("a", Stop()), sync_a),
        GenPar(a_skip, Prefix("a", Skip()), sync_a),
        GenPar(a_stop, Prefix("a", Skip()), sync_a),
        GenPar(a_stop, Stop(), sync_a),
        GenPar(a_skip, Skip(), sync_a),
        GenPar(a_stop, b_stop, sync_a),
        GenPar(Prefix(TOCK, a_stop), Prefix("a", Skip()), sync_a),
        GenPar(a_stop, b_skip, frozenset({"a", "b"})),
    ]
    # the unary constructs over event atoms
    out += [
        Hide(a_stop, frozenset({"a"})),
        Hide(a_skip, frozenset({"a"})),
        Hide(Prefix("a", b_stop), frozenset({"a"})),
        Hide(Prefix("a", b_stop), frozenset({"b"})),
        Hide(GenPar(a_skip, Prefix("a", Skip()), sync_a), frozenset({"a"})),
        Rename(a_stop, (("a", "b"),)),
        Rename(a_skip, (("a", "b"),)),
        Rename(Prefix("a", b_stop), (("a", "b"), ("b", "a"))),
    ]
    # nested pairs of distinct binary operators (within the translatable
    # envelope: no parallelism inside a choice or an interrupted side)
    out += [
        Seq(ExtChoice(a_skip, b_skip), c_stop),
        Seq(IntChoice(a_skip, b_skip), c_stop),
        Seq(Interleave(a_skip, b_skip), c_stop),
        Seq(Interrupt(a_skip, b_skip), c_stop),
        Seq(a_skip, ExtChoice(b_stop, c_stop)),
        Seq(a_skip, IntChoice(b_stop, c_stop)),
        Seq(a_skip, Interleave(b_stop, c_stop)),
        Seq(a_skip, Interrupt(b_stop, c_stop)),
        ExtChoice(Seq(a_skip, b_stop), c_stop),
        ExtChoice(IntChoice(a_stop, b_stop), c_stop),
        ExtChoice(a_stop, Seq(b_skip, c_stop)),
        ExtChoice(a_stop, IntChoice(b_stop, c_stop)),
        IntChoice(Seq(a_skip, b_stop), c_stop),
        IntChoice(ExtChoice(a_stop, b_stop), c_stop),
        IntChoice(Interleave(a_stop, b_stop), c_stop),
        IntChoice(a_stop, Interrupt(b_stop, c_stop)),
        Interleave(Seq(a_skip, b_stop), c_stop),
        Interleave(ExtChoice(a_stop, b_stop), c_stop),
        Interleave(IntChoice(a_stop, b_stop), c_stop),
        Interrupt(Seq(a_skip, b_stop), c_stop),
        Interrupt(ExtChoice(a_stop, b_stop), c_stop),
        Interrupt(IntChoice(a_stop, b_stop), c_stop),
        Interrupt(a_stop, Seq(b_skip, c_stop)),
        Interrupt(a_stop, IntChoice(b_stop, c_stop)),
    ]
    return out


def generate_corpus() -> tuple[CorpusEntry, ...]:
    """The deterministic list of small processes pairing the constructs.

    Structurally de-duplicated; every entry has at most five control
    states, so bounded checking at depth five explores each completely.
    """
    entries = []
    seen: set[CspProcess] = set()
    index = 0
    for process in _corpus_processes():
        if process in seen:
            continue
        seen.add(process)
        spec = CspSpec(definitions={"P": process}, main="P")
        if control_states(spec) > 5:
            continue
        entries.append(CorpusEntry(f"c{index:03d}", spec, format_process(process)))
        index += 1
    return tuple(entries)


# --- deadlock base case ------------------------------------------------------

@dataclass
class StopBaseReport:
    max_n: int
    lines: list[str] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)  # (n, law)

    @property
    def passed(self) -> bool:
        return not self.failures

    def text(self) -> str:
        verdict = "all laws hold" if self.passed else "FAILED"
        return "\n".join(self.lines + [f"result: {verdict} up to depth {self.max_n}"])


def _component_free_traces(net: NetworkModel, automaton_index: int, depth: int) -> frozenset:
    """Traces of one automaton run in isolation: every edge may fire, and
    every synchronisation label (either direction) is recorded."""
    ta = net.automata[automaton_index]
    outgoing: dict[str, list] = {}
    for edge in ta.edges:  # guards ignored: path view only
        outgoing.setdefault(edge.source, []).append(
            (edge.sync.channel if edge.sync else None, edge.target)
        )
    return subset_graph(
        ta.initial, lambda loc: outgoing.get(loc, ()), depth, state_cap=len(ta.locations)
    ).traces


def prove_stop_base(max_n: int, *, net: NetworkModel | None = None) -> StopBaseReport:
    """Check, for every depth up to ``max_n``, that the deadlock process
    and its translation have exactly the all-tocks trace ladder.

    Three laws per depth: the source side produces the tock ladder
    (law ``csp-tock-ladder``); the raw network traces are the start action
    followed by tocks (law ``raw-trace-shape``); and after erasing
    coordinating actions both the network and the deadlock component
    automaton itself reproduce the ladder (law ``erased-equality``).
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    spec = CspSpec(definitions={"P": Stop()}, main="P")
    if net is None:
        net = assemble(Stop())
    erased = erasure_set(net)
    start_channels = sorted(
        c.name for c in net.channels if c.kind is ChannelKind.FLOW
    )
    report = StopBaseReport(max_n)

    def fail(n: int, law: str, detail: str) -> None:
        report.failures.append((n, law))
        report.lines.append(f"n={n}: {law} FAILED ({detail})")

    for n in range(max_n + 1):
        ladder = frozenset(("tock",) * k for k in range(n + 1))

        got = csp_traces(spec, n).traces
        if got == ladder:
            report.lines.append(f"n={n}: csp-tock-ladder ok ({len(got)} traces)")
        else:
            fail(n, "csp-tock-ladder", f"{len(got)} traces")
            continue

        raw = raw_network_traces(net, n).traces
        expected_raw = {()}
        for start in start_channels:
            for k in range(n):
                expected_raw.add((start,) + ("tock",) * k)
        if raw == frozenset(expected_raw):
            report.lines.append(f"n={n}: raw-trace-shape ok ({len(raw)} traces)")
        else:
            fail(n, "raw-trace-shape", f"got {sorted(raw)[:4]}")

        net_erased = network_traces(net, n).traces
        component = _component_free_traces(net, 0, n + 1)
        component_erased = set()
        for trace in component:
            stripped = tuple(a for a in trace if a not in erased)[: n]
            component_erased.add(stripped)
        if net_erased == ladder and frozenset(component_erased) == ladder:
            report.lines.append(f"n={n}: erased-equality ok")
        else:
            which = "network" if net_erased != ladder else "component"
            fail(n, "erased-equality", f"{which} side differs")
    return report
