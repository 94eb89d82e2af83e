"""Searches over labelled transition systems, shared by both engines.

A system is a start state and a ``successors(state)`` function yielding
``(label, state)`` pairs, where the label ``None`` marks an internal move.
A search may also treat a set of ``hidden`` labels as internal.  Internal
moves are never recorded and never count toward a depth bound.

Bounded traces are a subset graph: :func:`subset_graph` closes each
state set that a trace shorter than the bound reaches, once, and keeps
its visible moves.  A :class:`TraceSet` is a view of one such graph: it
compares by :func:`same_traces`, a walk over pairs of state sets, counts
its traces path by path, and unfolds them (:func:`unfold`) only when they
are read.
An explicit set of traces becomes a graph through :func:`trie_graph`.

Each search memoises successors per state and raises
:class:`BoundExceeded` once it has expanded more than ``state_cap``
distinct states, so a capped search fails explicitly instead of returning
a truncated result.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from functools import cached_property
from typing import NamedTuple

__all__ = ["BoundExceeded", "SubsetGraph", "subset_graph", "trie_graph", "unfold", "same_traces",
           "TraceSet", "reachable", "cannot_reach"]

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


def trie_graph(traces: Iterable[tuple[str, ...]], depth: int) -> SubsetGraph:
    """The subset graph of an explicit set of traces, in which each trace
    is its own state.  The set must hold ``()``, be prefix-closed and hold
    no trace longer than ``depth``."""
    traces = frozenset(map(tuple, traces))
    if () not in traces:
        raise ValueError("a trace set must hold the empty trace")
    children: dict[tuple, list] = {}
    for trace in traces:
        if len(trace) > depth:
            raise ValueError(f"trace {trace} is longer than depth {depth}")
        if trace:
            if trace[:-1] not in traces:
                raise ValueError(f"trace {trace} lacks its prefix {trace[:-1]}")
            children.setdefault(trace[:-1], []).append((trace[-1], trace))
    return subset_graph((), lambda t: children.get(t, ()), depth, state_cap=len(traces))


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


class TraceSet:
    """The prefix-closed set of traces of a subset graph, tagged with its
    depth.  Two sets compare by a walk over their graphs; the traces are
    unfolded on first read and kept."""

    def __init__(self, graph: SubsetGraph):
        self.graph, self.depth = graph, graph.depth

    @cached_property
    def traces(self) -> frozenset[tuple[str, ...]]:
        return unfold(self.graph)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceSet):
            return NotImplemented
        return self.depth == other.depth and same_traces(self.graph, other.graph)

    def __hash__(self) -> int:
        return hash((self.traces, self.depth))

    def __contains__(self, trace: tuple[str, ...]) -> bool:
        return tuple(trace) in self.traces

    def __len__(self) -> int:
        """The number of paths from the root, counted level by level; the
        graph is deterministic, so each path spells a distinct trace."""
        level, total = {self.graph.root: 1}, 1
        for _ in range(self.depth):
            paths: dict = {}
            for states, count in level.items():
                for targets in self.graph.moves[states].values():
                    paths[targets] = paths.get(targets, 0) + count
            level = paths
            total += sum(paths.values())
        return total


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
