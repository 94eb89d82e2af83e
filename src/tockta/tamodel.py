"""Data model for UPPAAL-style timed automata networks.

Automata are immutable value objects.  Every channel carries a
:class:`ChannelKind` distinguishing user events, the tock broadcast, and
the generated coordination channels; the coordination kinds (plus hidden
events) form the erasure set removed from traces before comparison with
the source process.  Clocks take non-negative integer values: time only
advances in unit ticks, which is exact for the constraints this model
ever contains (comparisons against integer constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import eq, ge, gt, le, lt

__all__ = [
    "ChannelKind",
    "LocationKind",
    "Location",
    "ClockAtom",
    "IntAtom",
    "GuardExpr",
    "SyncLabel",
    "Assignment",
    "Edge",
    "TimedAutomaton",
    "ChannelDecl",
    "NetworkModel",
    "validate",
    "erasure_set",
    "kind_from_name",
    "COORDINATING_KINDS",
]


class ChannelKind(Enum):
    USER_EVENT = "user"
    TOCK = "tock"
    FLOW = "flow"
    TERMINATING = "terminating"
    SYNCHRONISATION = "synchronisation"
    EXT_CHOICE = "ext-choice"
    INTERRUPT = "interrupt"
    EXCEPTION = "exception"
    HIDDEN_ITAU = "hidden"


#: Kinds whose actions are erased from network traces before comparison.
COORDINATING_KINDS = frozenset(
    {
        ChannelKind.FLOW,
        ChannelKind.TERMINATING,
        ChannelKind.SYNCHRONISATION,
        ChannelKind.EXT_CHOICE,
        ChannelKind.INTERRUPT,
        ChannelKind.EXCEPTION,
        ChannelKind.HIDDEN_ITAU,
    }
)


def kind_from_name(name: str) -> ChannelKind:
    """Classify a channel by the reserved naming convention.

    Fallback for models loaded from foreign files that carry no kind
    metadata; generated models always carry explicit kinds.
    """
    if name == "tock":
        return ChannelKind.TOCK
    if name.startswith("startID"):
        return ChannelKind.FLOW
    if name.startswith("finishID"):
        return ChannelKind.TERMINATING
    if name.startswith("extID") or name.endswith("_exch"):
        return ChannelKind.EXT_CHOICE
    if name.startswith("intrpID") or name.endswith("_intrpt"):
        return ChannelKind.INTERRUPT
    if name.startswith("excpID"):
        return ChannelKind.EXCEPTION
    if name.endswith("___sync"):
        return ChannelKind.SYNCHRONISATION
    if name == "itau" or name.startswith("itau_"):
        return ChannelKind.HIDDEN_ITAU
    return ChannelKind.USER_EVENT


#: The relations a guard or invariant atom may use, each with its
#: comparison function.
_RELATIONS = {"<": lt, "<=": le, "==": eq, ">=": ge, ">": gt}


class LocationKind(Enum):
    NORMAL = "normal"
    URGENT = "urgent"
    COMMITTED = "committed"


@dataclass(frozen=True, slots=True)
class ClockAtom:
    clock: str
    op: str  # one of < <= == >= >
    const: int

    def __post_init__(self) -> None:
        if self.op not in _RELATIONS:
            raise ValueError(f"bad relation {self.op!r}")
        if self.const < 0:
            raise ValueError("clock constants must be >= 0")

    def render(self) -> str:
        return f"{self.clock}{self.op}{self.const}"


@dataclass(frozen=True, slots=True)
class IntAtom:
    """Linear atom: sum of integer variables compared with a constant."""

    variables: tuple[str, ...]
    op: str  # one of < <= == >= >
    const: int

    def __post_init__(self) -> None:
        if self.op not in _RELATIONS:
            raise ValueError(f"bad relation {self.op!r}")

    def render(self) -> str:
        if len(self.variables) == 1:
            return f"{self.variables[0]}{self.op}{self.const}"
        return f"({' + '.join(self.variables)}){self.op}{self.const}"


@dataclass(frozen=True, slots=True)
class GuardExpr:
    atoms: tuple[ClockAtom | IntAtom, ...]

    def render(self) -> str:
        return " && ".join(a.render() for a in self.atoms)


@dataclass(frozen=True, slots=True)
class Location:
    id: str
    display_name: str = ""
    kind: LocationKind = LocationKind.NORMAL
    invariant: tuple[ClockAtom, ...] = ()


@dataclass(frozen=True, slots=True)
class SyncLabel:
    channel: str
    direction: str  # "send" prints "!", "receive" prints "?"

    def __post_init__(self) -> None:
        if self.direction not in ("send", "receive"):
            raise ValueError(f"bad direction {self.direction!r}")

    def render(self) -> str:
        return self.channel + ("!" if self.direction == "send" else "?")


@dataclass(frozen=True, slots=True)
class Assignment:
    """Integer variable assignment or clock reset (value 0)."""

    target: str
    value: int

    def render(self) -> str:
        return f"{self.target}:={self.value}"


@dataclass(frozen=True, slots=True)
class Edge:
    source: str
    target: str
    guard: GuardExpr | None = None
    sync: SyncLabel | None = None
    updates: tuple[Assignment, ...] = ()


@dataclass(frozen=True, slots=True)
class TimedAutomaton:
    name: str
    locations: tuple[Location, ...]
    initial: str
    clocks: tuple[str, ...]
    edges: tuple[Edge, ...]

    def location(self, loc_id: str) -> Location:
        for loc in self.locations:
            if loc.id == loc_id:
                return loc
        raise KeyError(loc_id)


@dataclass(frozen=True, slots=True)
class ChannelDecl:
    name: str
    mode: str  # "binary", "broadcast" or "urgent-binary"
    kind: ChannelKind

    def __post_init__(self) -> None:
        if self.mode not in ("binary", "broadcast", "urgent-binary"):
            raise ValueError(f"bad channel mode {self.mode!r}")


@dataclass(frozen=True, slots=True)
class NetworkModel:
    automata: tuple[TimedAutomaton, ...]
    channels: tuple[ChannelDecl, ...]
    int_vars: tuple[tuple[str, int], ...]
    global_clocks: tuple[str, ...] = ()
    environment_index: int = -1
    # The structural hash walks every automaton, and the executor looks
    # its per-network index up by this hash on every step, so it is
    # computed once per instance.  String hashes are salted per process,
    # so the memo must never be pickled or copied: ``__reduce__`` rebuilds
    # from the compared fields alone.
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def _key(self) -> tuple:
        return (self.automata, self.channels, self.int_vars, self.global_clocks, self.environment_index)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key()))
        return self._hash

    def __reduce__(self):
        return (NetworkModel, self._key())

    def channel(self, name: str) -> ChannelDecl | None:
        for decl in self.channels:
            if decl.name == name:
                return decl
        return None

    def environment(self) -> TimedAutomaton:
        return self.automata[self.environment_index]


@dataclass(frozen=True)
class Diagnostic:
    message: str
    automaton: str | None = None
    edge: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.automaton is not None:
            where = f" [{self.automaton}" + (f", edge {self.edge}" if self.edge is not None else "") + "]"
        return self.message + where


def validate(net: NetworkModel) -> list[Diagnostic]:
    """All invariant violations of the network; empty means well-formed."""
    out: list[Diagnostic] = []
    channel_names = [c.name for c in net.channels]
    seen_channels: set[str] = set()
    for name in channel_names:
        if name in seen_channels:
            out.append(Diagnostic(f"duplicate channel {name!r}"))
        seen_channels.add(name)
    for decl in net.channels:
        if decl.kind is ChannelKind.TOCK and decl.mode != "broadcast":
            out.append(Diagnostic("'tock' must be a broadcast channel"))
    var_names = {name for name, _ in net.int_vars}
    seen_vars: set[str] = set()
    for name, _ in net.int_vars:
        if name in seen_vars:
            out.append(Diagnostic(f"duplicate variable {name!r}"))
        seen_vars.add(name)

    if not (0 <= net.environment_index < len(net.automata)):
        out.append(Diagnostic("no environment automaton designated"))
    seen_ta: set[str] = set()
    for ta in net.automata:
        if ta.name in seen_ta:
            out.append(Diagnostic(f"duplicate automaton name {ta.name!r}"))
        seen_ta.add(ta.name)
        loc_ids = set()
        for loc in ta.locations:
            if loc.id in loc_ids:
                out.append(Diagnostic(f"duplicate location {loc.id!r}", ta.name))
            loc_ids.add(loc.id)
            for atom in loc.invariant:
                if atom.clock not in ta.clocks and atom.clock not in net.global_clocks:
                    out.append(Diagnostic(f"invariant uses undeclared clock {atom.clock!r}", ta.name))
        if ta.initial not in loc_ids:
            out.append(Diagnostic("missing initial location", ta.name))
        for idx, edge in enumerate(ta.edges):
            if edge.source not in loc_ids or edge.target not in loc_ids:
                out.append(Diagnostic("edge endpoints unresolved", ta.name, idx))
            if edge.sync is not None and edge.sync.channel not in seen_channels:
                out.append(Diagnostic(f"unresolved channel {edge.sync.channel!r}", ta.name, idx))
            if edge.guard is not None:
                for atom in edge.guard.atoms:
                    if isinstance(atom, ClockAtom):
                        if atom.clock not in ta.clocks and atom.clock not in net.global_clocks:
                            out.append(Diagnostic(f"guard uses undeclared clock {atom.clock!r}", ta.name, idx))
                    else:
                        for var in atom.variables:
                            if var not in var_names:
                                out.append(Diagnostic(f"guard uses undeclared variable {var!r}", ta.name, idx))
            for upd in edge.updates:
                is_clock = upd.target in ta.clocks or upd.target in net.global_clocks
                if not is_clock and upd.target not in var_names:
                    out.append(Diagnostic(f"update of undeclared name {upd.target!r}", ta.name, idx))
                if is_clock and upd.value != 0:
                    out.append(Diagnostic(f"clock {upd.target!r} can only reset to 0", ta.name, idx))
    return out


def erasure_set(net: NetworkModel) -> frozenset[str]:
    """Channel names whose actions are deleted from observed traces."""
    return frozenset(c.name for c in net.channels if c.kind in COORDINATING_KINDS)
