"""Searches over labelled transition systems, shared by both engines.

A system is a start state and a ``successors(state)`` function yielding
``(label, state)`` pairs, where the label ``None`` marks an internal move.
A search may also treat a set of ``hidden`` labels as internal.  Internal
moves are never recorded and never count toward a depth bound.

Each search memoises successors per state and raises
:class:`BoundExceeded` once it has expanded more than ``state_cap``
distinct states, so a capped search fails explicitly instead of returning
a truncated result.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

__all__ = ["BoundExceeded", "bounded_traces", "reachable", "cannot_reach"]

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


def bounded_traces(
    start, successors: Successors, depth: int, *, hidden: frozenset = frozenset(), state_cap: int
) -> frozenset[tuple[str, ...]]:
    """Every trace of at most ``depth`` visible labels from ``start``.

    The traces are expanded level by level as a map from each trace to the
    set of states its last visible move reaches.  The visible moves out of
    a state set are computed once, so traces that reach the same set share
    the work.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    graph = _Graph(successors, state_cap)
    moves_of: dict[frozenset, dict] = {}
    level = {(): frozenset({start})}
    traces = [()]
    for _ in range(depth):
        nxt = {}
        for trace, states in level.items():
            moves = moves_of.get(states)
            if moves is None:
                moves = moves_of[states] = graph.close(states, hidden)[1]
            for label, targets in moves.items():
                nxt[trace + (label,)] = targets
        traces.extend(nxt)
        level = nxt
    return frozenset(traces)


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
