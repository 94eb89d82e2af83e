"""Discrete-time executor for automata networks.

Semantics: unit time ticks increment every clock by one; a binary channel
pairs one enabled sender with one enabled receiver; a broadcast fires from
an enabled sender alone and takes every automaton whose matching receive
edge is enabled at that moment (possibly none).  If any automaton sits in
a committed location, only moves involving a committed automaton may
fire, and time may not pass.  Time also may not pass while an urgent
location is occupied or an urgent channel has a matched enabled pair.

Unit delays are exact here because every constraint in scope compares a
clock against an integer constant and the only time-sensitive action is
the environment's tock broadcast, so no dense-time zone machinery is
needed.  Each clock is capped at its own threshold, the least value from
which on every atom on that clock holds alike, now and after any delay
(the integer-clock case of LU-extrapolation).  A translated network's one
clock ``ck`` is tested only by ``ck>=1``, so it takes the values 0 and 1.

Network traces record one entry (the channel name) per binary or
broadcast move; silent edges and time ticks are unrecorded.  The
coordinating channels can additionally be erased, which is the view
compared against the source process semantics.

The searches of :mod:`lts` run over dense integer ids, one per
configuration met; only what the API returns maps them back.  Each edge
is compiled once per runtime into its part of a move (automaton, edge,
target, clock and integer updates); a move is ``(label, parts)``, and the
searches fire its parts directly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, NamedTuple

from .lts import BoundExceeded  # noqa: F401  (re-exported: every search here raises it)
from .lts import TraceSet, cannot_reach, subset_graph
from .tamodel import _RELATIONS, ClockAtom, LocationKind, NetworkModel, erasure_set

__all__ = [
    "Configuration",
    "initial_configuration",
    "enabled_steps",
    "apply_step",
    "raw_network_traces",
    "network_traces",
    "timelock_witnesses",
]


class Configuration(NamedTuple):
    """Locations, integer variable values and clock values, in the fixed
    orders defined by the network (automata order, declaration order)."""

    locations: tuple[str, ...]
    ints: tuple[int, ...]
    clocks: tuple[int, ...]


_COMMITTED, _URGENT = LocationKind.COMMITTED, LocationKind.URGENT

#: A resolved clock atom: (clock slot, comparison, constant).
_ClockTest = tuple[int, Callable[[int, int], bool], int]

#: Added to an atom's constant, the least clock value from which on the atom
#: holds alike for every larger value: ``>= c`` and ``< c`` from ``c``;
#: ``> c``, ``<= c`` and ``== c`` from ``c + 1``.
_PAST = {">=": 0, "<": 0, ">": 1, "<=": 1, "==": 1}


class _Runtime:
    """Index structures for fast stepping of one network, and the moves
    explored on it so far (see :meth:`successors`)."""

    def __init__(self, net: NetworkModel):
        self.net = net
        self.var_pos = {name: i for i, (name, _) in enumerate(net.int_vars)}
        self.init_ints = tuple(value for _, value in net.int_vars)
        # clock_slots[ai] = {clock name: slot} as automaton ai sees its
        # clocks: a local clock hides a global one of the same name.
        shared = {name: slot for slot, name in enumerate(net.global_clocks)}
        self.clock_slots: list[dict[str, int]] = []
        self.n_clocks = len(net.global_clocks)
        for ta in net.automata:
            self.clock_slots.append({**shared, **{name: self.n_clocks + i for i, name in enumerate(ta.clocks)}})
            self.n_clocks += len(ta.clocks)
        self.channel_mode = {c.name: c.mode for c in net.channels}

        # caps[slot] = the largest threshold of an atom on that clock, 0 if none.
        caps = [0] * self.n_clocks

        def clock_test(clocks: dict[str, int], atom: ClockAtom) -> _ClockTest:
            """``atom`` as a test on its slot in ``clocks``; raises that slot's cap."""
            slot = clocks[atom.clock]
            caps[slot] = max(caps[slot], atom.const + _PAST[atom.op])
            return slot, _RELATIONS[atom.op], atom.const

        # locs[ai][location] = (kind, invariant, silent and send edges,
        # channel -> receive edges).  Each edge there is (clock tests, int
        # tests, channel or None, part).  The clock tests include the
        # target's invariant on every clock the edge does not reset.
        self.locs: list[dict[str, tuple]] = []
        receivers: dict[str, set[int]] = {}
        for ai, ta in enumerate(net.automata):
            clocks = self.clock_slots[ai]
            invs = {loc.id: tuple(clock_test(clocks, atom) for atom in loc.invariant) for loc in ta.locations}
            local: dict[str, list] = {loc.id: [] for loc in ta.locations}
            receive: dict[str, dict[str, list]] = {loc.id: {} for loc in ta.locations}
            for ei, edge in enumerate(ta.edges):
                clock_tests = []
                int_tests = []
                for atom in edge.guard.atoms if edge.guard is not None else ():
                    if isinstance(atom, ClockAtom):
                        clock_tests.append(clock_test(clocks, atom))
                    else:
                        positions = tuple(self.var_pos[v] for v in atom.variables)
                        int_tests.append((positions, _RELATIONS[atom.op], atom.const))
                clock_updates: dict[int, int] = {}
                int_updates = []
                for upd in edge.updates:
                    if upd.target in clocks:
                        clock_updates[clocks[upd.target]] = upd.value
                    else:
                        int_updates.append((self.var_pos[upd.target], upd.value))
                part = (ai, ei, edge.target, tuple(clock_updates.items()), tuple(int_updates))
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
                entry = (tuple(clock_tests), tuple(int_tests), channel, part)
                if channel is not None and edge.sync.direction == "receive":
                    receive[edge.source].setdefault(channel, []).append(entry)
                    receivers.setdefault(channel, set()).add(ai)
                else:
                    local[edge.source].append(entry)
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
        self.clock_caps = tuple(caps)
        # configs[i] is the configuration with id i; moves[i] its moves, or None.
        self.ids: dict[Configuration, int] = {}
        self.configs: list[Configuration] = []
        self.moves: list[tuple | None] = []
        self.ticking: set[int] = set()

    def intern(self, cfg: Configuration) -> int:
        index = self.ids.get(cfg)
        if index is None:
            index = self.ids[cfg] = len(self.configs)
            self.configs.append(cfg)
            self.moves.append(None)
        return index

    def successors(self, state: int) -> tuple:
        """Moves between ids: a binary or broadcast move is labelled with
        its channel name, silent edges and time ticks are internal.

        The moves of each configuration are computed once for the life of
        the runtime and shared by every search over its network; the ids
        that let time pass are collected in ``ticking``.  A miss calls
        ``enabled_steps`` by its module name, so a wrapper patched in its
        place sees every call, and fires each compiled move directly.
        """
        out = self.moves[state]
        if out is None:
            cfg = self.configs[state]
            moves, tick = enabled_steps(self.net, cfg)
            # No guard or invariant tells apart a clock's values at or beyond
            # its cap, now or after any delay, so capping each clock there
            # loses nothing and keeps the configuration space finite.
            caps = self.clock_caps
            out = [(label, self.intern(_fire(cfg, parts, caps))) for label, parts in moves]
            if tick:
                self.ticking.add(state)
                # every interned clock is at or below its cap already
                clocks = tuple([v + 1 if v < cap else v for v, cap in zip(cfg.clocks, caps)])
                out.append((None, self.intern(Configuration(cfg.locations, cfg.ints, clocks))))
            out = self.moves[state] = tuple(out)
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


def enabled_steps(net: NetworkModel, cfg: Configuration) -> tuple[list, bool]:
    """The moves legal from ``cfg`` and whether time may pass, as
    ``(moves, tick)``; a pure function of its arguments.  Each move is
    ``(label, parts)``: the channel name, or None for a silent edge, and
    one part ``(automaton, edge, target, clock updates, int updates)`` per
    edge that fires, the sender's first."""
    rt = _runtime(net)
    locations, ints, clocks = cfg
    committed = set()
    urgent_loc = False
    invariants: list[_ClockTest] = []
    moves: list = []
    senders: dict[str, list[tuple]] = {}
    for ai, loc in enumerate(locations):
        kind, inv, local, _ = rt.locs[ai][loc]
        if kind is _COMMITTED:
            committed.add(ai)
        elif kind is _URGENT:
            urgent_loc = True
        if inv:
            invariants.extend(inv)
        for clock_tests, int_tests, channel, part in local:
            if (clock_tests or int_tests) and not _guard_holds(clock_tests, int_tests, clocks, ints):
                continue
            if channel is None:
                moves.append((None, (part,)))
            else:
                senders.setdefault(channel, []).append(part)

    # A receive edge only matters on a channel with an enabled sender.
    urgent_pair = False
    for channel, sends in senders.items():
        receives = [
            part
            for rj in rt.receivers.get(channel, ())
            for clock_tests, int_tests, _, part in rt.locs[rj][locations[rj]][3].get(channel, ())
            if not (clock_tests or int_tests) or _guard_holds(clock_tests, int_tests, clocks, ints)
        ]
        mode = rt.channel_mode.get(channel, "binary")
        for send in sends:
            others = [receive for receive in receives if receive[0] != send[0]]
            if mode == "broadcast":
                by_auto: dict[int, list[tuple]] = {}
                for receive in others:
                    by_auto.setdefault(receive[0], []).append(receive)
                moves += [(channel, (send, *combo)) for combo in product(*(by_auto[a] for a in sorted(by_auto)))]
            else:
                moves += [(channel, (send, receive)) for receive in others]
                urgent_pair = urgent_pair or (mode == "urgent-binary" and bool(others))

    if committed:
        moves = [move for move in moves if any(part[0] in committed for part in move[1])]
    tick = not (committed or urgent_loc or urgent_pair) and all(
        holds(clocks[slot] + 1, const) for slot, holds, const in invariants
    )
    return moves, tick


def apply_step(net: NetworkModel, cfg: Configuration, move) -> Configuration:
    """``cfg`` after ``move``, one of the moves of ``enabled_steps``, fires,
    or after one time unit if ``move`` is None.  No clock is capped."""
    if move is None:
        return cfg._replace(clocks=tuple([v + 1 for v in cfg.clocks]))
    _, parts = move
    if any(cfg.locations[ai] != net.automata[ai].edges[ei].source for ai, ei, *_ in parts):
        # not an assert: under -O the move would be fired anyway
        raise AssertionError("move not enabled in this configuration")
    return _fire(cfg, parts)


def _fire(cfg: Configuration, parts, caps: tuple[int, ...] | None = None) -> Configuration:
    """``cfg`` after the edges of ``parts`` fire together, each clock they
    assign capped at ``caps`` if given."""
    locations, ints, clocks = cfg
    locations = list(locations)
    new_ints = new_clocks = None
    for ai, _, target, clock_updates, int_updates in parts:
        locations[ai] = target
        if int_updates:
            new_ints = new_ints or list(ints)
            for slot, value in int_updates:
                new_ints[slot] = value
        if clock_updates:
            new_clocks = new_clocks or list(clocks)
            for slot, value in clock_updates:
                new_clocks[slot] = value if caps is None else min(value, caps[slot])
    return Configuration(
        tuple(locations),
        ints if new_ints is None else tuple(new_ints),
        clocks if new_clocks is None else tuple(new_clocks),
    )


def _start(rt: _Runtime) -> int:
    return rt.intern(initial_configuration(rt.net))  # every clock 0, within its cap


def raw_network_traces(
    net: NetworkModel, depth: int, *, state_cap: int = 500_000
) -> TraceSet:
    """Bounded traces over *all* channel names, coordinating ones included."""
    rt = _runtime(net)
    return subset_graph(_start(rt), rt.successors, depth, state_cap=state_cap)


def network_traces(
    net: NetworkModel, depth: int, *, state_cap: int = 500_000
) -> TraceSet:
    """Bounded traces with coordinating actions erased.

    Erased actions are internal moves of the search, so they never count
    toward the depth; blowing the state cap is an explicit failure, never
    a silent truncation.
    """
    rt = _runtime(net)
    return subset_graph(_start(rt), rt.successors, depth, hidden=erasure_set(net), state_cap=state_cap)


def timelock_witnesses(
    net: NetworkModel, *, observable_depth: int = 4, state_cap: int = 500_000
) -> list[Configuration]:
    """Configurations reachable within ``observable_depth`` recorded
    non-coordinating actions from which no sequence of moves re-enables
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
    return sorted(rt.configs[state] for state in stuck)
