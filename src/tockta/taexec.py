"""Discrete-time executor for automata networks.

Semantics: unit time ticks increment every clock by one; a binary channel
pairs one enabled sender with one enabled receiver; a broadcast fires from
an enabled sender alone and takes every automaton whose matching receive
edge is enabled at that moment (possibly none).  If any automaton sits in
a committed location, only steps involving a committed automaton may
fire, and time may not pass.  Time also may not pass while an urgent
location is occupied or an urgent channel has a matched enabled pair.

Unit delays are exact here because every constraint in scope compares a
clock against an integer constant and the only time-sensitive action is
the environment's tock broadcast, so no dense-time zone machinery is
needed.

Network traces record one entry (the channel name) per binary or
broadcast step; silent edges and time ticks are unrecorded.  The
coordinating channels can additionally be erased, which is the view
compared against the source process semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, NamedTuple

from .lts import BoundExceeded  # noqa: F401  (re-exported: every search here raises it)
from .lts import TraceSet, cannot_reach, reachable, subset_graph
from .tamodel import _RELATIONS, ClockAtom, LocationKind, NetworkModel, erasure_set

__all__ = [
    "Configuration",
    "TimeTick",
    "Silent",
    "Binary",
    "Broadcast",
    "initial_configuration",
    "enabled_steps",
    "apply_step",
    "raw_network_traces",
    "network_traces",
    "reachable_configurations",
    "timelock_witnesses",
]


class Configuration(NamedTuple):
    """Locations, integer variable values and clock values, in the fixed
    orders defined by the network (automata order, declaration order)."""

    locations: tuple[str, ...]
    ints: tuple[int, ...]
    clocks: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class TimeTick:
    """One unit delay: every clock advances by 1, nobody moves."""


@dataclass(frozen=True, slots=True)
class Silent:
    automaton: int
    edge: int


@dataclass(frozen=True, slots=True)
class Binary:
    channel: str
    sender: int
    sender_edge: int
    receiver: int
    receiver_edge: int


@dataclass(frozen=True, slots=True)
class Broadcast:
    channel: str
    sender: int
    sender_edge: int
    receivers: tuple[tuple[int, int], ...]  # (automaton, edge), ascending


_COMMITTED, _URGENT = LocationKind.COMMITTED, LocationKind.URGENT

#: A resolved clock atom: (clock slot, comparison, constant).
_ClockTest = tuple[int, Callable[[int, int], bool], int]


class _Runtime:
    """Index structures for fast stepping of one network, and the moves
    explored on it so far (see :meth:`successors`)."""

    def __init__(self, net: NetworkModel):
        self.net = net
        self.var_pos = {name: i for i, (name, _) in enumerate(net.int_vars)}
        self.init_ints = tuple(value for _, value in net.int_vars)
        self.clock_pos: dict[tuple[int | None, str], int] = {}
        slots: list[int] = []
        for name in net.global_clocks:
            self.clock_pos[(None, name)] = len(slots)
            slots.append(0)
        for ai, ta in enumerate(net.automata):
            for name in ta.clocks:
                self.clock_pos[(ai, name)] = len(slots)
                slots.append(0)
        self.n_clocks = len(slots)
        self.channel_mode = {c.name: c.mode for c in net.channels}

        max_const = 1
        # edges[ai][ei] = (source, target, clock updates, int updates).
        self.edges: list[tuple[tuple, ...]] = []
        # locs[ai][location] = (kind, invariant, silent and send edges,
        # channel -> receive edges).  Each edge there is (clock tests, int
        # tests, channel or None, step): the step is Silent(ai, ei) for a
        # silent edge, (ai, ei) otherwise.  The clock tests include the
        # target's invariant on every clock the edge does not reset.
        self.locs: list[dict[str, tuple]] = []
        receivers: dict[str, set[int]] = {}
        for ai, ta in enumerate(net.automata):
            invs: dict[str, tuple[_ClockTest, ...]] = {}
            for loc in ta.locations:
                invs[loc.id] = tuple(
                    (self._clock_slot(ai, atom.clock), _RELATIONS[atom.op], atom.const)
                    for atom in loc.invariant
                )
                max_const = max([max_const] + [a.const for a in loc.invariant])
            local: dict[str, list] = {loc.id: [] for loc in ta.locations}
            receive: dict[str, dict[str, list]] = {loc.id: {} for loc in ta.locations}
            resolved = []
            for ei, edge in enumerate(ta.edges):
                clock_tests = []
                int_tests = []
                for atom in edge.guard.atoms if edge.guard is not None else ():
                    if isinstance(atom, ClockAtom):
                        slot = self._clock_slot(ai, atom.clock)
                        clock_tests.append((slot, _RELATIONS[atom.op], atom.const))
                        max_const = max(max_const, atom.const)
                    else:
                        positions = tuple(self.var_pos[v] for v in atom.variables)
                        int_tests.append((positions, _RELATIONS[atom.op], atom.const))
                clock_updates: dict[int, int] = {}
                int_updates = []
                for upd in edge.updates:
                    if (ai, upd.target) in self.clock_pos or (None, upd.target) in self.clock_pos:
                        clock_updates[self._clock_slot(ai, upd.target)] = upd.value
                    else:
                        int_updates.append((self.var_pos[upd.target], upd.value))
                resolved.append((edge.source, edge.target, tuple(clock_updates.items()), tuple(int_updates)))
                # A test on a clock the edge resets is decided here, once.
                fires = True
                for slot, holds, const in invs[edge.target]:
                    if slot not in clock_updates:
                        clock_tests.append((slot, holds, const))
                    elif not holds(clock_updates[slot], const):
                        fires = False
                if not fires:
                    continue
                channel = edge.sync.channel if edge.sync else None
                step = Silent(ai, ei) if channel is None else (ai, ei)
                entry = (tuple(clock_tests), tuple(int_tests), channel, step)
                if channel is not None and edge.sync.direction == "receive":
                    receive[edge.source].setdefault(channel, []).append(entry)
                    receivers.setdefault(channel, set()).add(ai)
                else:
                    local[edge.source].append(entry)
            self.edges.append(tuple(resolved))
            self.locs.append(
                {
                    loc.id: (
                        loc.kind,
                        invs[loc.id],
                        tuple(local[loc.id]),
                        {channel: tuple(es) for channel, es in receive[loc.id].items()},
                    )
                    for loc in ta.locations
                }
            )
        self.receivers = {channel: tuple(sorted(autos)) for channel, autos in receivers.items()}
        self.clock_cap = max_const + 1
        self.moves: dict[Configuration, tuple] = {}
        self.ticking: set[Configuration] = set()

    def _clock_slot(self, automaton: int, name: str) -> int:
        key = (automaton, name)
        if key in self.clock_pos:
            return self.clock_pos[key]
        return self.clock_pos[(None, name)]

    def successors(self, cfg: Configuration) -> tuple:
        """Steps as labelled moves: a binary or broadcast step carries its
        channel name, silent edges and time ticks are internal.

        The moves of each configuration are computed once for the life of
        the runtime and shared by every search over its network;
        configurations that let time pass are collected in ``ticking``.
        A miss looks ``enabled_steps`` and ``apply_step`` up by their
        module names, so a wrapper patched in their place sees every call.
        """
        out = self.moves.get(cfg)
        if out is None:
            net = self.net
            out = []
            for step in enabled_steps(net, cfg):
                if isinstance(step, TimeTick):
                    self.ticking.add(cfg)
                label = step.channel if isinstance(step, (Binary, Broadcast)) else None
                out.append((label, _normalise(self, apply_step(net, cfg, step))))
            out = self.moves[cfg] = tuple(out)
        return out


# Each runtime keeps every move explored on its network, so only a few
# are kept alive.
@lru_cache(maxsize=8)
def _runtime(net: NetworkModel) -> _Runtime:
    return _Runtime(net)


def initial_configuration(net: NetworkModel) -> Configuration:
    rt = _runtime(net)
    return Configuration(
        locations=tuple(ta.initial for ta in net.automata),
        ints=rt.init_ints,
        clocks=(0,) * rt.n_clocks,
    )


def _guard_holds(
    clock_tests: tuple, int_tests: tuple, clocks: tuple[int, ...], ints: tuple[int, ...]
) -> bool:
    for slot, holds, const in clock_tests:
        if not holds(clocks[slot], const):
            return False
    for positions, holds, const in int_tests:
        if not holds(sum([ints[p] for p in positions]), const):
            return False
    return True


def enabled_steps(net: NetworkModel, cfg: Configuration) -> frozenset:
    """All steps legal from ``cfg``; a pure function of its arguments."""
    rt = _runtime(net)
    locations, ints, clocks = cfg
    committed = set()
    urgent_loc = False
    invariants: list[_ClockTest] = []
    steps: list = []
    senders: dict[str, list[tuple[int, int]]] = {}
    for ai, loc in enumerate(locations):
        kind, inv, local, _ = rt.locs[ai][loc]
        if kind is _COMMITTED:
            committed.add(ai)
        elif kind is _URGENT:
            urgent_loc = True
        if inv:
            invariants.extend(inv)
        for clock_tests, int_tests, channel, step in local:
            if (clock_tests or int_tests) and not _guard_holds(clock_tests, int_tests, clocks, ints):
                continue
            if channel is None:
                steps.append(step)
            else:
                senders.setdefault(channel, []).append(step)

    # A receive edge only matters on a channel with an enabled sender.
    urgent_pair = False
    for channel, sends in senders.items():
        receives = [
            receiver
            for rj in rt.receivers.get(channel, ())
            for clock_tests, int_tests, _, receiver in rt.locs[rj][locations[rj]][3].get(channel, ())
            if not (clock_tests or int_tests) or _guard_holds(clock_tests, int_tests, clocks, ints)
        ]
        mode = rt.channel_mode.get(channel, "binary")
        if mode == "broadcast":
            for ai, ei in sends:
                by_auto: dict[int, list[int]] = {}
                for rj, re in receives:
                    if rj != ai:
                        by_auto.setdefault(rj, []).append(re)
                autos = sorted(by_auto)
                for combo in product(*(by_auto[a] for a in autos)):
                    steps.append(Broadcast(channel, ai, ei, tuple(zip(autos, combo))))
        else:
            for ai, ei in sends:
                for rj, re in receives:
                    if rj != ai:
                        steps.append(Binary(channel, ai, ei, rj, re))
                        if mode == "urgent-binary":
                            urgent_pair = True

    if committed:
        def involves_committed(step) -> bool:
            if isinstance(step, Silent):
                return step.automaton in committed
            if isinstance(step, Binary):
                return step.sender in committed or step.receiver in committed
            return step.sender in committed or any(a in committed for a, _ in step.receivers)

        steps = [s for s in steps if involves_committed(s)]
    elif not urgent_loc and not urgent_pair:
        if all(holds(clocks[slot] + 1, const) for slot, holds, const in invariants):
            steps.append(TimeTick())
    return frozenset(steps)


def apply_step(net: NetworkModel, cfg: Configuration, step) -> Configuration:
    """Advance the configuration; ``step`` must come from enabled_steps."""
    if isinstance(step, TimeTick):
        return Configuration(cfg.locations, cfg.ints, tuple(v + 1 for v in cfg.clocks))
    if isinstance(step, Silent):
        moves: tuple = ((step.automaton, step.edge),)
    elif isinstance(step, Binary):
        moves = ((step.sender, step.sender_edge), (step.receiver, step.receiver_edge))
    else:
        moves = ((step.sender, step.sender_edge),) + step.receivers
    edges = _runtime(net).edges
    locations, ints, clocks = map(list, cfg)
    for ai, ei in moves:
        source, target, clock_updates, int_updates = edges[ai][ei]
        if locations[ai] != source:
            # not an assert: under -O the step would be applied anyway
            raise AssertionError("step not enabled in this configuration")
        locations[ai] = target
        for slot, value in clock_updates:
            clocks[slot] = value
        for slot, value in int_updates:
            ints[slot] = value
    return Configuration(tuple(locations), tuple(ints), tuple(clocks))


def _normalise(rt: _Runtime, cfg: Configuration) -> Configuration:
    # Clock values beyond every constant are indistinguishable; capping them
    # keeps the reachable configuration space finite.
    cap = rt.clock_cap
    if max(cfg.clocks, default=0) <= cap:
        return cfg
    return Configuration(cfg.locations, cfg.ints, tuple(min(v, cap) for v in cfg.clocks))


def _start(rt: _Runtime) -> Configuration:
    return _normalise(rt, initial_configuration(rt.net))


def raw_network_traces(
    net: NetworkModel, depth: int, *, state_cap: int = 500_000
) -> TraceSet:
    """Bounded traces over *all* channel names, coordinating ones included."""
    rt = _runtime(net)
    return TraceSet(subset_graph(_start(rt), rt.successors, depth, state_cap=state_cap))


def network_traces(
    net: NetworkModel, depth: int, *, state_cap: int = 500_000
) -> TraceSet:
    """Bounded traces with coordinating actions erased.

    Erased actions are internal moves of the search, so they never count
    toward the depth; blowing the state cap is an explicit failure, never
    a silent truncation.
    """
    rt = _runtime(net)
    return TraceSet(
        subset_graph(_start(rt), rt.successors, depth, hidden=erasure_set(net), state_cap=state_cap)
    )


def reachable_configurations(
    net: NetworkModel, observable_depth: int, *, state_cap: int = 500_000
) -> frozenset[Configuration]:
    """Configurations reachable while recording at most ``observable_depth``
    non-coordinating actions."""
    rt = _runtime(net)
    return reachable(
        _start(rt), rt.successors, observable_depth, hidden=erasure_set(net), state_cap=state_cap
    )


def timelock_witnesses(
    net: NetworkModel, *, observable_depth: int = 4, state_cap: int = 500_000
) -> list[Configuration]:
    """Configurations reachable within ``observable_depth`` recorded
    non-coordinating actions from which no step sequence at all re-enables
    the passage of time.  Empty on a healthy translation."""
    rt = _runtime(net)
    stuck = cannot_reach(
        _start(rt),
        rt.successors,
        observable_depth,
        rt.ticking.__contains__,
        hidden=erasure_set(net),
        state_cap=state_cap,
    )
    return sorted(stuck, key=lambda c: (c.locations, c.ints, c.clocks))
