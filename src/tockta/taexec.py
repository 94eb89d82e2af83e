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
from operator import eq, ge, gt, le, lt
from typing import Callable

from .lts import BoundExceeded  # noqa: F401  (re-exported: every search here raises it)
from .lts import bounded_traces, cannot_reach, reachable
from .semantics import TraceSet
from .tamodel import ClockAtom, IntAtom, LocationKind, NetworkModel, erasure_set

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


@dataclass(frozen=True, slots=True)
class Configuration:
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


#: Comparison function for each relation a guard or invariant atom may use;
#: the runtime resolves every atom's relation once, when it is built.
_RELATIONS = {"<": lt, "<=": le, "==": eq, ">=": ge, ">": gt}

#: A resolved clock atom: (clock slot, comparison, constant).
_ClockTest = tuple[int, Callable[[int, int], bool], int]


class _Runtime:
    """Index structures for fast stepping of one network."""

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
        self.edges: list[list[dict]] = []
        self.out_edges: list[dict[str, list[int]]] = []
        self.loc_kind: list[dict[str, LocationKind]] = []
        self.invariants: list[dict[str, list[_ClockTest]]] = []
        for ai, ta in enumerate(net.automata):
            resolved = []
            outs: dict[str, list[int]] = {loc.id: [] for loc in ta.locations}
            kinds = {loc.id: loc.kind for loc in ta.locations}
            invs: dict[str, list[_ClockTest]] = {}
            for loc in ta.locations:
                if loc.invariant:
                    invs[loc.id] = [
                        (self._clock_slot(ai, atom.clock), _RELATIONS[atom.op], atom.const)
                        for atom in loc.invariant
                    ]
                    max_const = max([max_const] + [a.const for a in loc.invariant])
            for ei, edge in enumerate(ta.edges):
                clock_atoms = []
                int_atoms = []
                if edge.guard is not None:
                    for atom in edge.guard.atoms:
                        if isinstance(atom, ClockAtom):
                            clock_atoms.append(
                                (self._clock_slot(ai, atom.clock), _RELATIONS[atom.op], atom.const)
                            )
                            max_const = max(max_const, atom.const)
                        else:
                            int_atoms.append(
                                (
                                    tuple(self.var_pos[v] for v in atom.variables),
                                    _RELATIONS[atom.op],
                                    atom.const,
                                )
                            )
                updates = []
                for upd in edge.updates:
                    key = (ai, upd.target)
                    if key in self.clock_pos or (None, upd.target) in self.clock_pos:
                        slot = self.clock_pos.get(key, self.clock_pos.get((None, upd.target)))
                        updates.append(("clock", slot, upd.value))
                    else:
                        updates.append(("int", self.var_pos[upd.target], upd.value))
                resolved.append(
                    {
                        "source": edge.source,
                        "target": edge.target,
                        "clock_atoms": clock_atoms,
                        "int_atoms": int_atoms,
                        "sync": (edge.sync.channel, edge.sync.direction) if edge.sync else None,
                        "updates": updates,
                    }
                )
                outs[edge.source].append(ei)
            self.edges.append(resolved)
            self.out_edges.append(outs)
            self.loc_kind.append(kinds)
            self.invariants.append(invs)
        self.clock_cap = max_const + 1

    def _clock_slot(self, automaton: int, name: str) -> int:
        key = (automaton, name)
        if key in self.clock_pos:
            return self.clock_pos[key]
        return self.clock_pos[(None, name)]


@lru_cache(maxsize=64)
def _runtime(net: NetworkModel) -> _Runtime:
    return _Runtime(net)


def initial_configuration(net: NetworkModel) -> Configuration:
    rt = _runtime(net)
    return Configuration(
        locations=tuple(ta.initial for ta in net.automata),
        ints=rt.init_ints,
        clocks=(0,) * rt.n_clocks,
    )


def _edge_enabled(rt: _Runtime, ai: int, ei: int, cfg: Configuration) -> bool:
    edge = rt.edges[ai][ei]
    for slot, holds, const in edge["clock_atoms"]:
        if not holds(cfg.clocks[slot], const):
            return False
    for positions, holds, const in edge["int_atoms"]:
        if not holds(sum(cfg.ints[p] for p in positions), const):
            return False
    inv = rt.invariants[ai].get(edge["target"])
    if inv:
        clocks = list(cfg.clocks)
        for kind, slot, value in edge["updates"]:
            if kind == "clock":
                clocks[slot] = value
        for slot, holds, const in inv:
            if not holds(clocks[slot], const):
                return False
    return True


def enabled_steps(net: NetworkModel, cfg: Configuration) -> frozenset:
    """All steps legal from ``cfg``; a pure function of its arguments."""
    rt = _runtime(net)
    n = len(net.automata)
    enabled: list[list[int]] = []
    committed = set()
    urgent_loc = False
    for ai in range(n):
        loc = cfg.locations[ai]
        kind = rt.loc_kind[ai][loc]
        if kind is LocationKind.COMMITTED:
            committed.add(ai)
        elif kind is LocationKind.URGENT:
            urgent_loc = True
        enabled.append([ei for ei in rt.out_edges[ai].get(loc, ()) if _edge_enabled(rt, ai, ei, cfg)])

    sends: dict[str, list[tuple[int, int]]] = {}
    receives: dict[str, list[tuple[int, int]]] = {}
    steps: list = []
    for ai in range(n):
        for ei in enabled[ai]:
            sync = rt.edges[ai][ei]["sync"]
            if sync is None:
                steps.append(Silent(ai, ei))
            elif sync[1] == "send":
                sends.setdefault(sync[0], []).append((ai, ei))
            else:
                receives.setdefault(sync[0], []).append((ai, ei))

    urgent_pair = False
    for channel, senders in sends.items():
        mode = rt.channel_mode.get(channel, "binary")
        if mode == "broadcast":
            for ai, ei in senders:
                by_auto: dict[int, list[int]] = {}
                for rj, re in receives.get(channel, ()):
                    if rj != ai:
                        by_auto.setdefault(rj, []).append(re)
                autos = sorted(by_auto)
                for combo in product(*(by_auto[a] for a in autos)):
                    steps.append(Broadcast(channel, ai, ei, tuple(zip(autos, combo))))
        else:
            for ai, ei in senders:
                for rj, re in receives.get(channel, ()):
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
        ticked = [v + 1 for v in cfg.clocks]
        ok = True
        for ai in range(n):
            inv = rt.invariants[ai].get(cfg.locations[ai])
            if inv and not all(holds(ticked[slot], const) for slot, holds, const in inv):
                ok = False
                break
        if ok:
            steps.append(TimeTick())
    return frozenset(steps)


def apply_step(net: NetworkModel, cfg: Configuration, step) -> Configuration:
    """Advance the configuration; ``step`` must come from enabled_steps."""
    rt = _runtime(net)
    if isinstance(step, TimeTick):
        return Configuration(cfg.locations, cfg.ints, tuple(v + 1 for v in cfg.clocks))
    locations = list(cfg.locations)
    ints = list(cfg.ints)
    clocks = list(cfg.clocks)

    def move(ai: int, ei: int) -> None:
        edge = rt.edges[ai][ei]
        assert locations[ai] == edge["source"], "step not enabled in this configuration"
        locations[ai] = edge["target"]
        for kind, slot, value in edge["updates"]:
            if kind == "clock":
                clocks[slot] = value
            else:
                ints[slot] = value

    if isinstance(step, Silent):
        move(step.automaton, step.edge)
    elif isinstance(step, Binary):
        move(step.sender, step.sender_edge)
        move(step.receiver, step.receiver_edge)
    else:
        move(step.sender, step.sender_edge)
        for ai, ei in step.receivers:
            move(ai, ei)
    return Configuration(tuple(locations), tuple(ints), tuple(clocks))


def _normalise(rt: _Runtime, cfg: Configuration) -> Configuration:
    # Clock values beyond every constant are indistinguishable; capping them
    # keeps the reachable configuration space finite.
    cap = rt.clock_cap
    if all(v <= cap for v in cfg.clocks):
        return cfg
    return Configuration(cfg.locations, cfg.ints, tuple(min(v, cap) for v in cfg.clocks))


def _start(net: NetworkModel) -> Configuration:
    return _normalise(_runtime(net), initial_configuration(net))


def _successors(net: NetworkModel, ticking: set[Configuration] | None = None):
    """Steps as labelled moves: a binary or broadcast step carries its
    channel name, silent edges and time ticks are internal.  Configurations
    that let time pass are added to ``ticking`` when it is given."""
    rt = _runtime(net)

    def successors(cfg: Configuration):
        for step in enabled_steps(net, cfg):
            if isinstance(step, TimeTick) and ticking is not None:
                ticking.add(cfg)
            label = step.channel if isinstance(step, (Binary, Broadcast)) else None
            yield label, _normalise(rt, apply_step(net, cfg, step))

    return successors


def raw_network_traces(
    net: NetworkModel, depth: int, *, state_cap: int = 500_000
) -> TraceSet:
    """Bounded traces over *all* channel names, coordinating ones included."""
    traces = bounded_traces(_start(net), _successors(net), depth, state_cap=state_cap)
    return TraceSet(traces, depth)


def network_traces(
    net: NetworkModel, depth: int, *, state_cap: int = 500_000
) -> TraceSet:
    """Bounded traces with coordinating actions erased.

    Erased actions are internal moves of the search, so they never count
    toward the depth; blowing the state cap is an explicit failure, never
    a silent truncation.
    """
    traces = bounded_traces(
        _start(net), _successors(net), depth, hidden=erasure_set(net), state_cap=state_cap
    )
    return TraceSet(traces, depth)


def reachable_configurations(
    net: NetworkModel, observable_depth: int, *, state_cap: int = 500_000
) -> frozenset[Configuration]:
    """Configurations reachable while recording at most ``observable_depth``
    non-coordinating actions."""
    return reachable(
        _start(net), _successors(net), observable_depth, hidden=erasure_set(net), state_cap=state_cap
    )


def timelock_witnesses(
    net: NetworkModel, *, observable_depth: int = 4, state_cap: int = 500_000
) -> list[Configuration]:
    """Configurations reachable within ``observable_depth`` recorded
    non-coordinating actions from which no step sequence at all re-enables
    the passage of time.  Empty on a healthy translation."""
    ticking: set[Configuration] = set()
    stuck = cannot_reach(
        _start(net),
        _successors(net, ticking),
        observable_depth,
        ticking.__contains__,
        hidden=erasure_set(net),
        state_cap=state_cap,
    )
    return sorted(stuck, key=lambda c: (c.locations, c.ints, c.clocks))
