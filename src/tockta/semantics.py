"""Small-step operational semantics and the bounded trace oracle.

:func:`step` yields the moves of a labelled transition system in the
vocabulary of :mod:`lts`: ``(label, successor)`` pairs, where the label is
an event name, ``tock``, ``None`` for an internal move (tau or a hidden
event), or :data:`TICK` for termination.  Traces are finite sequences
over the visible user events plus ``tock``; internal moves and the
termination signal never appear in them and do not count toward the
depth bound.  By the CSP laws a nested hiding or renaming is folded into
one and a hiding moves beneath a renaming, so recursion under them
reaches finitely many terms.

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
from .lts import BoundExceeded, TraceSet, subset_graph

__all__ = [
    "TICK",
    "Terminated",
    "TERMINATED",
    "BoundExceeded",
    "step",
    "csp_traces",
    "TraceSet",
    "trace_to_text",
    "traces_to_text",
]


TICK = "<tick>"  # the termination signal; no event name can equal it
_JOINED = frozenset({TOCK, TICK})  # both sides of a parallel take these together


@dataclass(slots=True)
class Terminated(CspProcess):
    """The state after successful termination; time still passes."""


TERMINATED = Terminated()


def _hide(p: CspProcess, hidden: frozenset[str]) -> CspProcess:
    """``p \\ hidden``, merging a nested hiding, ``(P \\ A) \\ B = P \\ (A | B)``,
    and pushing it beneath a renaming, ``P[[m]] \\ A = (P \\ m⁻¹(A))[[m]]``,
    so that any chain of both is ``Rename(Hide(body))``."""
    if isinstance(p, Rename):
        inverse = {old for old, new in p.mapping if new in hidden} | (hidden - p.as_dict().keys())
        return _rename(_hide(p.body, frozenset(inverse)), p.mapping)
    if isinstance(p, Hide):
        return Hide(p.body, p.hidden | hidden, checked=True)
    return Hide(p, hidden, checked=True)


def _rename(p: CspProcess, mapping: tuple[tuple[str, str], ...]) -> Rename:
    """``p[[mapping]]``, composing a nested renaming: ``P[[m1]][[m2]] = P[[m2 . m1]]``."""
    if isinstance(p, Rename):
        outer = dict(mapping)
        inner = {old: outer.get(new, new) for old, new in p.mapping}
        return Rename(p.body, tuple({**outer, **inner}.items()), checked=True)
    return Rename(p, mapping, checked=True)


def step(
    p: CspProcess, defs: dict[str, CspProcess], *, memo: dict | None = None
) -> frozenset[tuple[str | None, CspProcess]]:
    """The exact successor set of ``p`` under the small-step rules, as
    ``(label, successor)`` moves.  A label is an event name, ``tock``,
    ``None`` for an internal move, or :data:`TICK`, whose successor is
    always :data:`TERMINATED`.

    ``memo``, kept by the caller for one search, maps each term already
    stepped to its moves; it is read for ``p`` and for every subterm the
    rules recurse into, so each is stepped once per search."""
    if memo is None:
        return _moves(p, defs, None)
    out = memo.get(p)
    if out is None:
        out = memo[p] = _moves(p, defs, memo)
    return out


def _moves(p: CspProcess, defs: dict[str, CspProcess], memo: dict | None) -> frozenset:
    if isinstance(p, Terminated):
        return frozenset({(TOCK, TERMINATED)})
    if isinstance(p, Stop):
        return frozenset({(TOCK, p)})
    if isinstance(p, Skip):
        return frozenset({(TOCK, p), (TICK, TERMINATED)})
    if isinstance(p, Prefix):
        if p.event == TOCK:
            return frozenset({(TOCK, p.cont)})
        return frozenset({(p.event, p.cont), (TOCK, p)})
    if isinstance(p, Seq):
        return frozenset(
            (None, p.right) if label == TICK else (label, Seq(succ, p.right))
            for label, succ in step(p.left, defs, memo=memo)
        )
    if isinstance(p, ExtChoice):
        out = set()
        left_tocks, right_tocks = [], []
        for label, succ in step(p.left, defs, memo=memo):
            if label == TOCK:
                left_tocks.append(succ)
            else:
                out.add((label, ExtChoice(succ, p.right) if label is None else succ))
        for label, succ in step(p.right, defs, memo=memo):
            if label == TOCK:
                right_tocks.append(succ)
            else:
                out.add((label, ExtChoice(p.left, succ) if label is None else succ))
        out.update((TOCK, ExtChoice(ls, rs)) for ls in left_tocks for rs in right_tocks)
        return frozenset(out)
    if isinstance(p, IntChoice):
        return frozenset({(None, p.left), (None, p.right)})
    if isinstance(p, (GenPar, Interleave)):
        sync = p.sync_set if isinstance(p, GenPar) else frozenset()
        rebuild = (lambda l, r: GenPar(l, r, sync, checked=True)) if isinstance(p, GenPar) else Interleave
        joined = sync | _JOINED
        out = set()
        left: dict = {}
        for label, succ in step(p.left, defs, memo=memo):
            if label in joined:
                left.setdefault(label, []).append(succ)
            else:
                out.add((label, rebuild(succ, p.right)))
        right: dict = {}
        for label, succ in step(p.right, defs, memo=memo):
            if label in joined:
                right.setdefault(label, []).append(succ)
            else:
                out.add((label, rebuild(p.left, succ)))
        # synchronised events, tock and termination need both sides
        for label, lsuccs in left.items():
            for rs in right.get(label, ()):
                for ls in lsuccs:
                    out.add((label, TERMINATED if label == TICK else rebuild(ls, rs)))
        return frozenset(out)
    if isinstance(p, Interrupt):
        out = set()
        left_tocks, right_tocks = [], []
        for label, succ in step(p.left, defs, memo=memo):
            if label == TOCK:
                left_tocks.append(succ)
            else:
                out.add((label, succ if label == TICK else Interrupt(succ, p.right)))
        for label, succ in step(p.right, defs, memo=memo):
            if label == TOCK:
                right_tocks.append(succ)
            elif label != TICK:  # an interrupting event discards the left
                out.add((label, Interrupt(p.left, succ) if label is None else succ))
        out.update((TOCK, Interrupt(ls, rs)) for ls in left_tocks for rs in right_tocks)
        return frozenset(out)
    if isinstance(p, Hide):
        return frozenset(
            (TICK, succ) if label == TICK
            else (None if label in p.hidden else label, _hide(succ, p.hidden))
            for label, succ in step(p.body, defs, memo=memo)
        )
    if isinstance(p, Rename):
        mapping = p.as_dict()
        return frozenset(
            (TICK, succ) if label == TICK
            else (mapping.get(label, label), _rename(succ, p.mapping))
            for label, succ in step(p.body, defs, memo=memo)
        )
    if isinstance(p, Ref):
        return step(defs[p.name], defs, memo=memo)
    raise TypeError(f"unknown process node {p!r}")



def _successors(defs: dict[str, CspProcess], state_cap: int = 200_000):
    """``step`` as the moves of one search: the termination signal is
    dropped, and the search's memo counts toward its ``state_cap``, so a
    term that keeps growing ends in :class:`BoundExceeded`."""
    memo: dict = {}

    def successors(p: CspProcess):
        moves = step(p, defs, memo=memo)
        if len(memo) > state_cap:
            raise BoundExceeded(f"exploration exceeded {state_cap} states")
        return ((label, succ) for label, succ in moves if label != TICK)

    return successors


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
    return subset_graph(spec.body(), _successors(spec.definitions, state_cap), depth, state_cap=state_cap)


# --- canonical text format --------------------------------------------------

def trace_to_text(trace: tuple[str, ...]) -> str:
    """Events comma-separated; the empty trace is <>."""
    return "<>" if not trace else ",".join(trace)


def traces_to_text(ts: TraceSet) -> str:
    """One trace per line as :func:`trace_to_text` writes it, lines sorted."""
    lines = sorted(map(trace_to_text, ts.traces))
    return "\n".join(lines) + "\n"

