"""Small-step operational semantics and the bounded trace oracle.

Traces are finite sequences over the visible user events plus ``tock``.
Internal actions (tau, the termination signal, and hidden events) never
appear in traces and do not count toward the depth bound.

The step rules fix a particular timed reading: every construct lets time
pass (``tock``) except an unresolved internal choice, a ``tock`` prefix
consumes exactly one time unit, time never resolves an external choice,
and termination of one side resolves an external choice.  An interrupted
process may progress internally (tau) on the right-hand side, but only a
visible event of the right-hand side discards the left, and only
termination of the left terminates the whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    Ref,
    Rename,
    Seq,
    Skip,
    Stop,
)
from .lts import BoundExceeded, TraceSet, subset_graph, trie_graph

__all__ = [
    "ActionKind",
    "Action",
    "Terminated",
    "TERMINATED",
    "BoundExceeded",
    "step",
    "initials",
    "csp_traces",
    "TraceSet",
    "trace_to_text",
    "traces_to_text",
    "traces_from_text",
]


class ActionKind(Enum):
    VISIBLE = "visible"
    TOCK = "tock"
    TAU = "tau"
    TICK = "tick"


@dataclass(frozen=True, slots=True)
class Action:
    kind: ActionKind
    name: str | None = None  # event name; for tau from hiding, the hidden event

    @staticmethod
    def visible(name: str) -> "Action":
        return Action(ActionKind.VISIBLE, name)


_TOCK_ACTION = Action(ActionKind.TOCK, TOCK)
_TAU = Action(ActionKind.TAU)
_TICK = Action(ActionKind.TICK)


@dataclass(frozen=True, slots=True)
class Terminated(CspProcess):
    """The state after successful termination; time still passes."""


TERMINATED = Terminated()


def step(p: CspProcess, defs: dict[str, CspProcess]) -> frozenset[tuple[Action, CspProcess]]:
    """The exact successor set of ``p`` under the small-step rules."""
    if isinstance(p, Terminated):
        return frozenset({(_TOCK_ACTION, TERMINATED)})
    if isinstance(p, Stop):
        return frozenset({(_TOCK_ACTION, p)})
    if isinstance(p, Skip):
        return frozenset({(_TOCK_ACTION, p), (_TICK, TERMINATED)})
    if isinstance(p, Prefix):
        if p.event == TOCK:
            return frozenset({(_TOCK_ACTION, p.cont)})
        return frozenset({(Action.visible(p.event), p.cont), (_TOCK_ACTION, p)})
    if isinstance(p, Seq):
        out = set()
        for act, succ in step(p.left, defs):
            if act.kind is ActionKind.TICK:
                out.add((_TAU, p.right))
            else:
                out.add((act, Seq(succ, p.right)))
        return frozenset(out)
    if isinstance(p, ExtChoice):
        out = set()
        left_tocks, right_tocks = [], []
        for act, succ in step(p.left, defs):
            if act.kind is ActionKind.VISIBLE:
                out.add((act, succ))
            elif act.kind is ActionKind.TAU:
                out.add((act, ExtChoice(succ, p.right)))
            elif act.kind is ActionKind.TICK:
                out.add((_TICK, TERMINATED))
            else:
                left_tocks.append(succ)
        for act, succ in step(p.right, defs):
            if act.kind is ActionKind.VISIBLE:
                out.add((act, succ))
            elif act.kind is ActionKind.TAU:
                out.add((act, ExtChoice(p.left, succ)))
            elif act.kind is ActionKind.TICK:
                out.add((_TICK, TERMINATED))
            else:
                right_tocks.append(succ)
        for ls in left_tocks:
            for rs in right_tocks:
                out.add((_TOCK_ACTION, ExtChoice(ls, rs)))
        return frozenset(out)
    if isinstance(p, IntChoice):
        return frozenset({(_TAU, p.left), (_TAU, p.right)})
    if isinstance(p, (GenPar, Interleave)):
        sync = p.sync_set if isinstance(p, GenPar) else frozenset()
        rebuild = (lambda l, r: GenPar(l, r, sync)) if isinstance(p, GenPar) else Interleave
        out = set()
        lsteps = step(p.left, defs)
        rsteps = step(p.right, defs)
        for act, succ in lsteps:
            if act.kind is ActionKind.VISIBLE and act.name in sync:
                continue
            if act.kind in (ActionKind.VISIBLE, ActionKind.TAU):
                out.add((act, rebuild(succ, p.right)))
        for act, succ in rsteps:
            if act.kind is ActionKind.VISIBLE and act.name in sync:
                continue
            if act.kind in (ActionKind.VISIBLE, ActionKind.TAU):
                out.add((act, rebuild(p.left, succ)))
        # synchronised events, tock and termination need both sides
        for name in sync:
            lsucc = [s for a, s in lsteps if a.kind is ActionKind.VISIBLE and a.name == name]
            rsucc = [s for a, s in rsteps if a.kind is ActionKind.VISIBLE and a.name == name]
            for ls in lsucc:
                for rs in rsucc:
                    out.add((Action.visible(name), rebuild(ls, rs)))
        for ls in (s for a, s in lsteps if a.kind is ActionKind.TOCK):
            for rs in (s for a, s in rsteps if a.kind is ActionKind.TOCK):
                out.add((_TOCK_ACTION, rebuild(ls, rs)))
        if any(a.kind is ActionKind.TICK for a, _ in lsteps) and any(
            a.kind is ActionKind.TICK for a, _ in rsteps
        ):
            out.add((_TICK, TERMINATED))
        return frozenset(out)
    if isinstance(p, Interrupt):
        out = set()
        lsteps = step(p.left, defs)
        rsteps = step(p.right, defs)
        for act, succ in lsteps:
            if act.kind in (ActionKind.VISIBLE, ActionKind.TAU):
                out.add((act, Interrupt(succ, p.right)))
            elif act.kind is ActionKind.TICK:
                out.add((_TICK, TERMINATED))
        for act, succ in rsteps:
            if act.kind is ActionKind.VISIBLE:
                out.add((act, succ))  # interrupting event discards the left
            elif act.kind is ActionKind.TAU:
                out.add((act, Interrupt(p.left, succ)))
        for ls in (s for a, s in lsteps if a.kind is ActionKind.TOCK):
            for rs in (s for a, s in rsteps if a.kind is ActionKind.TOCK):
                out.add((_TOCK_ACTION, Interrupt(ls, rs)))
        return frozenset(out)
    if isinstance(p, Hide):
        out = set()
        for act, succ in step(p.body, defs):
            if act.kind is ActionKind.VISIBLE and act.name in p.hidden:
                out.add((Action(ActionKind.TAU, act.name), Hide(succ, p.hidden)))
            elif act.kind is ActionKind.TICK:
                out.add((_TICK, TERMINATED))
            else:
                out.add((act, Hide(succ, p.hidden)))
        return frozenset(out)
    if isinstance(p, Rename):
        mapping = p.as_dict()
        out = set()
        for act, succ in step(p.body, defs):
            if act.kind is ActionKind.VISIBLE:
                out.add((Action.visible(mapping.get(act.name, act.name)), Rename(succ, p.mapping)))
            elif act.kind is ActionKind.TICK:
                out.add((_TICK, TERMINATED))
            else:
                out.add((act, Rename(succ, p.mapping)))
        return frozenset(out)
    if isinstance(p, Ref):
        return step(defs[p.name], defs)
    raise TypeError(f"unknown process node {p!r}")


def _successors(defs: dict[str, CspProcess]):
    """``step`` as labelled moves: tau is internal, the termination signal
    is dropped, visible events and tock keep their name."""

    def successors(p: CspProcess):
        for act, succ in step(p, defs):
            if act.kind is ActionKind.TAU:
                yield None, succ
            elif act.kind is not ActionKind.TICK:
                yield act.name, succ

    return successors


def initials(p: CspProcess, defs: dict[str, CspProcess]) -> frozenset[str]:
    """First visible non-tock events of ``p``, looking through tau steps."""
    graph = subset_graph(p, _successors(defs), 1, state_cap=100_000)
    return frozenset(graph.moves[graph.root]) - {TOCK}


# --- bounded traces --------------------------------------------------------

def csp_traces(
    spec: CspSpec, depth: int, *, state_cap: int = 200_000
) -> TraceSet:
    """All traces of length <= depth.

    Visible events and tocks count toward the depth; tau and the
    termination signal are projected out.  Exceeding ``state_cap``
    distinct process states raises :class:`BoundExceeded` rather than
    silently truncating.
    """
    return TraceSet(
        subset_graph(spec.body(), _successors(spec.definitions), depth, state_cap=state_cap)
    )


# --- canonical text format --------------------------------------------------

def trace_to_text(trace: tuple[str, ...]) -> str:
    """Events comma-separated; the empty trace is <>."""
    return "<>" if not trace else ",".join(trace)


def traces_to_text(ts: TraceSet) -> str:
    """One trace per line as :func:`trace_to_text` writes it, lines sorted."""
    lines = sorted(map(trace_to_text, ts.traces))
    return "\n".join(lines) + "\n"


def traces_from_text(text: str, depth: int) -> TraceSet:
    """The inverse of :func:`traces_to_text`; ``ValueError`` unless the
    lines hold ``<>``, are prefix-closed and fit within ``depth``."""
    traces = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        traces.add(() if line == "<>" else tuple(line.split(",")))
    return TraceSet(trie_graph(traces, depth))
