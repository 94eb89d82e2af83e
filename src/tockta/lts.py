"""Searches over labelled transition systems, shared by both engines.

A system is a start state and a ``successors(state)`` function yielding
``(label, state)`` pairs, where the label ``None`` marks an internal move.
A search may also treat a set of ``hidden`` labels as internal.  Internal
moves are never recorded and never count toward a depth bound.

Bounded traces come in two steps: :func:`subset_graph` closes each state
set that a trace shorter than the bound reaches, once, and keeps its
visible moves; :func:`unfold` turns that graph into traces.
:func:`same_traces` compares two graphs by walking pairs of their state
sets, so a caller that only compares never unfolds.

Each search memoises successors per state and raises
:class:`BoundExceeded` once it has expanded more than ``state_cap``
distinct states, so a capped search fails explicitly instead of returning
a truncated result.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from typing import NamedTuple

__all__ = ["BoundExceeded", "SubsetGraph", "subset_graph", "unfold", "same_traces",
           "bounded_traces", "reachable", "cannot_reach"]

Successors = Callable[[Hashable], Iterable[tuple[str | None, Hashable]]]


class BoundExceeded(RuntimeError):
    """Raised when exploration exceeds the configured state cap."""


class _Graph:
    """Memoised successors under a cap on the number of expanded states."""

    def __init__(self, successors: Successors, state_cap: int):
        self._successors = successors
        self._state_cap = state_cap
        self._memo: dict = {}

    def __call__(self, state) -> tuple:
        out = self._memo.get(state)
        if out is None:
            out = tuple(self._successors(state))
            self._memo[state] = out
            if len(self._memo) > self._state_cap:
                raise BoundExceeded(f"exploration exceeded {self._state_cap} states")
        return out

    def close(self, states, hidden: frozenset) -> tuple[set, dict]:
        """The states reachable from ``states`` by internal or hidden moves,
        and the visible moves out of them as ``label -> frozenset(targets)``."""
        closure = set(states)
        stack = list(closure)
        moves: dict = {}
        while stack:
            for label, succ in self(stack.pop()):
                if label is None or label in hidden:
                    if succ not in closure:
                        closure.add(succ)
                        stack.append(succ)
                else:
                    moves.setdefault(label, set()).add(succ)
        return closure, {label: frozenset(targets) for label, targets in moves.items()}

    def reachable(self, start, depth: int, hidden: frozenset) -> frozenset:
        """Level by level on the fewest visible moves."""
        seen: set = set()
        frontier = {start}
        for _ in range(depth + 1):
            if not frontier:
                break
            closure, moves = self.close(frontier, hidden)
            seen |= closure
            frontier = {succ for targets in moves.values() for succ in targets} - seen
        return frozenset(seen)


class SubsetGraph(NamedTuple):
    """The visible moves ``label -> frozenset(targets)`` of every state set
    that a trace shorter than ``depth`` reaches from ``root``."""

    root: frozenset
    moves: dict
    depth: int


def subset_graph(
    start, successors: Successors, depth: int, *, hidden: frozenset = frozenset(), state_cap: int
) -> SubsetGraph:
    """Built level by level from ``{start}``; each state set is closed
    once, at the shallowest level a trace reaches it."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    graph = _Graph(successors, state_cap)
    root = frozenset({start})
    moves: dict[frozenset, dict] = {}
    level = {root}
    for _ in range(depth):
        for states in level:
            moves[states] = graph.close(states, hidden)[1]
        level = {t for states in level for t in moves[states].values()} - moves.keys()
    return SubsetGraph(root, moves, depth)


def unfold(graph: SubsetGraph) -> frozenset[tuple[str, ...]]:
    """Every trace of ``graph``, as a map from each trace to the state set
    its last move reaches, one level at a time."""
    level = {(): graph.root}
    traces = [()]
    for _ in range(graph.depth):
        level = {
            trace + (label,): targets
            for trace, states in level.items()
            for label, targets in graph.moves[states].items()
        }
        traces.extend(level)
    return frozenset(traces)


def same_traces(a: SubsetGraph, b: SubsetGraph) -> bool:
    """Whether two graphs of one depth unfold to the same traces: every
    pair of state sets that a common trace reaches within the depth must
    enable the same labels.  Breadth first, each pair checked once."""
    level = seen = {(a.root, b.root)}
    for _ in range(a.depth):
        if any(a.moves[left].keys() != b.moves[right].keys() for left, right in level):
            return False
        level = {
            (t, b.moves[right][label]) for left, right in level for label, t in a.moves[left].items()
        } - seen
        seen |= level
    return True


def bounded_traces(
    start, successors: Successors, depth: int, *, hidden: frozenset = frozenset(), state_cap: int
) -> frozenset[tuple[str, ...]]:
    """Every trace of at most ``depth`` visible labels from ``start``."""
    return unfold(subset_graph(start, successors, depth, hidden=hidden, state_cap=state_cap))


def reachable(
    start, successors: Successors, depth: int, *, hidden: frozenset = frozenset(), state_cap: int
) -> frozenset:
    """The states reachable from ``start`` with at most ``depth`` visible moves."""
    return _Graph(successors, state_cap).reachable(start, depth, hidden)


def cannot_reach(
    start,
    successors: Successors,
    depth: int,
    is_target: Callable[[Hashable], bool],
    *,
    hidden: frozenset = frozenset(),
    state_cap: int,
) -> frozenset:
    """The states reachable from ``start`` with at most ``depth`` visible
    moves from which no state satisfying ``is_target`` is reachable by any
    moves at all.

    Everything reachable from those states is explored forward once, then
    one backward pass from the targets marks every state that can reach
    one.  ``is_target`` is called only after the forward pass, so it may
    read what ``successors`` recorded about the states it expanded.
    """
    graph = _Graph(successors, state_cap)
    reach = graph.reachable(start, depth, hidden)
    preds: dict = {state: [] for state in reach}
    stack = list(preds)
    while stack:
        state = stack.pop()
        for _, succ in graph(state):
            if succ not in preds:
                preds[succ] = []
                stack.append(succ)
            preds[succ].append(state)
    live = {state for state in preds if is_target(state)}
    stack = list(live)
    while stack:
        for pred in preds[stack.pop()]:
            if pred not in live:
                live.add(pred)
                stack.append(pred)
    return reach - live
