"""Searches over labelled transition systems, shared by both engines.

A system is a start state and a ``successors(state)`` function yielding
``(label, state)`` pairs, where the label ``None`` marks an internal move.
A search may also treat a set of ``hidden`` labels as internal.  Internal
moves are never recorded and never count toward a depth bound.

Bounded traces are a subset graph, and a :class:`TraceSet` is one:
:func:`subset_graph` closes each state set that a trace shorter than the
bound reaches, once, and keeps its visible moves.  A trace set compares
by one walk over pairs of state sets, counts its traces path by path, and
unfolds them (its ``traces``) only when they are read.

Each search memoises successors per state and raises
:class:`BoundExceeded` once it has expanded more than ``state_cap``
distinct states, so a capped search fails explicitly instead of returning
a truncated result.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from functools import cached_property

__all__ = ["BoundExceeded", "TraceSet", "subset_graph", "reachable", "cannot_reach"]

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
        memo = self._memo
        while stack:
            state = stack.pop()
            for label, succ in memo.get(state) or self(state):
                if label is None or label in hidden:
                    if succ not in closure:
                        closure.add(succ)
                        stack.append(succ)
                elif label in moves:
                    moves[label].add(succ)
                else:
                    moves[label] = {succ}
        return closure, {label: frozenset(targets) for label, targets in moves.items()}

    def reachable(self, start, depth: int, hidden: frozenset) -> frozenset:
        """Level by level on the fewest visible moves."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        seen: set = set()
        frontier = {start}
        for _ in range(depth + 1):
            if not frontier:
                break
            closure, moves = self.close(frontier, hidden)
            seen |= closure
            frontier = {succ for targets in moves.values() for succ in targets} - seen
        return frozenset(seen)


class TraceSet:
    """The prefix-closed set of traces of length at most ``depth``, held as
    a subset graph: ``moves`` maps every state set that a trace shorter
    than ``depth`` reaches from ``root`` to its visible moves
    ``label -> frozenset(targets)``.  Two sets compare by a walk over
    their graphs; the traces are unfolded on first read and kept."""

    def __init__(self, root: frozenset, moves: dict, depth: int):
        self.root, self.moves, self.depth = root, moves, depth

    @cached_property
    def traces(self) -> frozenset[tuple[str, ...]]:
        """Every trace, unfolded as a map from each trace to the state set
        its last move reaches, one level at a time."""
        level = {(): self.root}
        traces = [()]
        for _ in range(self.depth):
            level = {
                trace + (label,): targets
                for trace, states in level.items()
                for label, targets in self.moves[states].items()
            }
            traces.extend(level)
        return frozenset(traces)

    def first_difference(self, other: TraceSet) -> tuple | None:
        """None when the two sets are equal, otherwise the least trace that
        only ``self`` has and the least that only ``other`` has (or None),
        of the shortest length at which they differ.  Breadth first over
        pairs of state sets, each checked once; after a pair that enables
        other labels, the levels to it are walked again in trace order."""
        if self.depth != other.depth:
            raise ValueError(f"depth mismatch: {self.depth} vs {other.depth}")
        level = seen = {(self.root, other.root)}
        for length in range(self.depth):
            if any(self.moves[left].keys() != other.moves[right].keys() for left, right in level):
                break
            level = {
                (t, other.moves[right][label])
                for left, right in level
                for label, t in self.moves[left].items()
            } - seen
            seen |= level
        else:
            return None
        least = {(self.root, other.root): ()}
        for _ in range(length):
            after: dict = {}
            for (left, right), trace in sorted(least.items(), key=lambda item: item[1]):
                for label in sorted(self.moves[left]):
                    after.setdefault((self.moves[left][label], other.moves[right][label]), trace + (label,))
            least = after
        ends = [(trace, self.moves[left].keys(), other.moves[right].keys()) for (left, right), trace in least.items()]
        return (
            min((trace + (min(mine - theirs),) for trace, mine, theirs in ends if mine - theirs), default=None),
            min((trace + (min(theirs - mine),) for trace, mine, theirs in ends if theirs - mine), default=None),
        )

    def __len__(self) -> int:
        """The number of paths from the root, counted level by level; the
        graph is deterministic, so each path spells a distinct trace."""
        level, total = {self.root: 1}, 1
        for _ in range(self.depth):
            paths: dict = {}
            for states, count in level.items():
                for targets in self.moves[states].values():
                    paths[targets] = paths.get(targets, 0) + count
            level = paths
            total += sum(paths.values())
        return total


def subset_graph(
    start, successors: Successors, depth: int, *, hidden: frozenset = frozenset(), state_cap: int
) -> TraceSet:
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
    return TraceSet(root, moves, depth)


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
