"""Data model for UPPAAL-style timed automata networks.

Automata are hashable value objects, immutable by contract (the tests
enforce it) rather than frozen: the translator and the XML loader build
them by the hundred thousand, and a frozen dataclass stores each field
through ``object.__setattr__``, about four times dearer.  Two fields are
derived, never passed in: a channel's :class:`ChannelKind` follows from
its name (:func:`kind_from_name`), and a network's environment is the
first automaton with one location and a ``tock!`` edge
(:func:`find_environment`).  The coordination kinds (plus hidden events)
form the erasure set removed from traces before comparison with the
source process.

The model holds what the translator emits, plus local clocks and closed
clock guards: committed and normal locations, binary, urgent and
broadcast channels, integer variables, and clocks local to an automaton,
compared only by ``<=``, ``==`` and ``>=``.  Clocks take non-negative
integer values and time advances in unit ticks.  For closed constraints
(no strict ``<`` or ``>`` on a clock) integer time gives the untimed
traces of dense time (Henzinger, Manna & Pnueli, ICALP 1992), with
committed locations, urgent channels and broadcasts too (Bošnački, FMICS
1999), so :class:`ClockAtom` refuses a strict relation.  Invariants,
urgent locations and global clocks are not in the model; see
:mod:`taexec`.
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
    "find_environment",
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

    This is the only home of a channel's kind: :class:`ChannelDecl` derives
    it from the name, so the XML format carries it only this way.
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


#: The relations a guard atom may use, each with its comparison function.
_RELATIONS = {"<": lt, "<=": le, "==": eq, ">=": ge, ">": gt}


class LocationKind(Enum):
    NORMAL = "normal"
    COMMITTED = "committed"


@dataclass(unsafe_hash=True, slots=True)
class ClockAtom:
    clock: str
    op: str  # one of <= == >=
    const: int

    def __post_init__(self) -> None:
        if self.op not in _RELATIONS:
            raise ValueError(f"bad relation {self.op!r}")
        if self.op in ("<", ">"):
            raise ValueError(f"strict clock atom {self.render()!r}: integer time is exact only for closed ones")
        if self.const < 0:
            raise ValueError("clock constants must be >= 0")

    def render(self) -> str:
        return f"{self.clock}{self.op}{self.const}"


@dataclass(unsafe_hash=True, slots=True)
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


@dataclass(unsafe_hash=True, slots=True)
class GuardExpr:
    atoms: tuple[ClockAtom | IntAtom, ...]

    def render(self) -> str:
        return " && ".join(a.render() for a in self.atoms)


@dataclass(unsafe_hash=True, slots=True)
class Location:
    id: str
    kind: LocationKind = LocationKind.NORMAL


@dataclass(unsafe_hash=True, slots=True)
class SyncLabel:
    channel: str
    direction: str  # "send" prints "!", "receive" prints "?"

    def __post_init__(self) -> None:
        if self.direction not in ("send", "receive"):
            raise ValueError(f"bad direction {self.direction!r}")

    def render(self) -> str:
        return self.channel + ("!" if self.direction == "send" else "?")


@dataclass(unsafe_hash=True, slots=True)
class Assignment:
    """Integer variable assignment or clock reset (value 0)."""

    target: str
    value: int

    def render(self) -> str:
        return f"{self.target}:={self.value}"


@dataclass(unsafe_hash=True, slots=True)
class Edge:
    source: str
    target: str
    guard: GuardExpr | None = None
    sync: SyncLabel | None = None
    updates: tuple[Assignment, ...] = ()


@dataclass(unsafe_hash=True, slots=True)
class TimedAutomaton:
    name: str
    locations: tuple[Location, ...]
    initial: str
    clocks: tuple[str, ...]
    edges: tuple[Edge, ...]


_TOCK_SEND = SyncLabel("tock", "send")


def find_environment(automata: tuple[TimedAutomaton, ...]) -> int:
    """The shape rule: the index of the first automaton with one location
    and an edge that sends ``tock``, or -1."""
    for i, ta in enumerate(automata):
        if len(ta.locations) == 1 and _TOCK_SEND in (e.sync for e in ta.edges):
            return i
    return -1


@dataclass(unsafe_hash=True, slots=True)
class ChannelDecl:
    name: str
    mode: str  # "binary", "broadcast" or "urgent-binary"
    kind: ChannelKind = field(init=False, compare=False)  # ``kind_from_name(name)``

    def __post_init__(self) -> None:
        if self.mode not in ("binary", "broadcast", "urgent-binary"):
            raise ValueError(f"bad channel mode {self.mode!r}")
        self.kind = kind_from_name(self.name)


@dataclass(slots=True)
class NetworkModel:
    automata: tuple[TimedAutomaton, ...]
    channels: tuple[ChannelDecl, ...]
    int_vars: tuple[tuple[str, int], ...]
    environment_index: int = field(init=False, compare=False)  # ``find_environment(automata)``
    # The executor looks its per-network index up by this hash on every
    # step, so it is computed once.  String hashes are salted per process,
    # so ``__reduce__`` rebuilds from the compared fields, without the memo.
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.environment_index = find_environment(self.automata)

    def _key(self) -> tuple:
        return (self.automata, self.channels, self.int_vars)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __reduce__(self):
        return (NetworkModel, self._key())

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
    """Every way the network is malformed; empty means well-formed."""
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
                        if atom.clock not in ta.clocks:
                            out.append(Diagnostic(f"guard uses undeclared clock {atom.clock!r}", ta.name, idx))
                    else:
                        for var in atom.variables:
                            if var not in var_names:
                                out.append(Diagnostic(f"guard uses undeclared variable {var!r}", ta.name, idx))
            for upd in edge.updates:
                is_clock = upd.target in ta.clocks
                if not is_clock and upd.target not in var_names:
                    out.append(Diagnostic(f"update of undeclared name {upd.target!r}", ta.name, idx))
                if is_clock and upd.value != 0:
                    out.append(Diagnostic(f"clock {upd.target!r} can only reset to 0", ta.name, idx))
    return out


def erasure_set(net: NetworkModel) -> frozenset[str]:
    """Channel names whose actions are deleted from observed traces."""
    return frozenset(c.name for c in net.channels if c.kind in COORDINATING_KINDS)
