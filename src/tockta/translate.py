"""Compile processes into networks of small timed automata.

Each event occurrence becomes one small automaton; generated coordination
channels wire the automata into a network that replays the process:

* flow channels (``startID<branch>_<counter>``) chain successive automata,
* terminating channels (``finishID...``) signal successful termination,
* ``<event>___sync`` broadcasts release multiway synchronisations, gated
  by a controller whose guard sums per-participant readiness variables,
* ``<event>_exch`` handshakes let the first event of one choice branch
  knock every other branch back to its inert initial location,
* ``<event>_intrpt`` handshakes let the interrupting process retire every
  automaton of the interrupted one.

A channel's kind follows from its name (``tamodel.kind_from_name``).

An occurrence is wired as its context's event view resolves it: plain,
hidden, or a participant of the innermost scope synchronising on it; a
group that can fire joins an enclosing such scope as one participant.

Every small automaton returns to its inert initial location after its
contribution, so recursion re-enters a definition on the start channel
allocated when it was first translated: a prefix hands off on it, every
other re-entry goes through a relay automaton.

Timing lives on the environment automaton: its ``tock`` broadcast is
guarded ``ck>=1`` and resets ``ck``, so one tock is at least one time
unit; component automata carry unguarded ``tock?`` self-loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    View,
    alphabet,
    wrap,
)
from .tamodel import (
    _RELATIONS,
    Assignment,
    ChannelDecl,
    ClockAtom,
    Edge,
    GuardExpr,
    IntAtom,
    Location,
    LocationKind,
    NetworkModel,
    SyncLabel,
    TimedAutomaton,
    validate,
)

__all__ = ["TranslationError", "assemble"]

_MAX_EXPANSION_DEPTH = 64
# The terminating channel the whole process signals the environment on.
_FINISH = "finishID0"
# The environment's clock, which times every tock.
_CLOCK = "ck"
# The mode of each kind of gate by its channel suffix: a choice's handshake
# knocks back one automaton, an interrupt's kill retires them all at once.
_GATES = {"_exch": "binary", "_intrpt": "broadcast"}


class TranslationError(Exception):
    pass


class _Registry:
    """Global name registry; every generated name is claimed exactly once."""

    def __init__(self) -> None:
        self.used: set[str] = set()

    def claim(self, name: str) -> str:
        if name in self.used:
            raise TranslationError(f"name collision on {name!r}")
        self.used.add(name)
        return name

    def unique(self, base: str, suffix: str = "") -> str:
        candidate = base + suffix
        k = 1
        while candidate in self.used:
            candidate = f"{base}_{k}{suffix}"
            k += 1
        self.used.add(candidate)
        return candidate


class _Shared(dict):
    """One object per key for a whole network, made by ``make(*key)`` on
    first use: ``labels[channel, "send"]`` is its one such ``SyncLabel``."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: tuple):
        value = self[key] = self.make(*key)
        return value


class _TaBuilder:
    """An automaton under construction.  Its edges are final; the few
    constructs that change one replace it at its index (edges are only
    ever appended, so indices stay valid)."""

    def __init__(self) -> None:
        self.loc_kinds: list[LocationKind] = []
        # where the automaton waits: every normal location but the inert
        # initial s0; gate and committed locations are only passed through
        self.waiting: list[str] = []
        self.edges: list[Edge] = []
        self.reset_map: dict[str, tuple[Assignment, ...]] = {}

    def add_loc(self, kind: LocationKind = LocationKind.NORMAL) -> str:
        loc_id = f"s{len(self.loc_kinds)}"
        if kind is LocationKind.NORMAL and self.loc_kinds:
            self.waiting.append(loc_id)
        self.loc_kinds.append(kind)
        return loc_id

    def add_edge(self, source: str, target: str, **kw) -> int:
        self.edges.append(Edge(source, target, **kw))
        return len(self.edges) - 1

    def freeze(self, name: str, locations: _Shared, clocks: tuple[str, ...] = ()) -> TimedAutomaton:
        return TimedAutomaton(
            name=name,
            locations=tuple(locations[i, kind] for i, kind in enumerate(self.loc_kinds)),
            initial="s0",
            clocks=clocks,
            edges=tuple(self.edges),
        )


@dataclass
class _Slot:
    """A gatable first-event entry of a compiled branch.

    ``entry_edges`` index the edges currently leaving the ready location
    on the way to the event; a new gate re-sources all of them.
    """

    builder: _TaBuilder
    ready: str
    entry_edges: list[int]
    event: str


@dataclass
class _Unit:
    tas: list[_TaBuilder] = field(default_factory=list)
    slots: list[_Slot] = field(default_factory=list)
    blockable: list[tuple[_TaBuilder, str]] = field(default_factory=list)
    # a relay back into an expansion on the stack, bare or under wrappers
    looped: bool = False

    def absorb(self, other: "_Unit", opening: bool = True) -> None:
        """Take over ``other``'s automata; its slots and blockable locations
        stay gatable only if it is ``opening`` here, not behind a first event."""
        self.tas.extend(other.tas)
        if opening:
            self.slots.extend(other.slots)
            self.blockable.extend(other.blockable)

    def waiting(self) -> list[tuple[_TaBuilder, str]]:
        """Every location where one of the unit's automata waits, which a
        knock-back must reset."""
        return [(b, loc) for b in self.tas for loc in b.waiting]


class _SyncScope:
    """One synchronising parallel composition.  It is compared by identity,
    so view keys that resolve an event to it tell scopes apart."""

    def __init__(self, sync_set: frozenset[str]):
        self.sync_set = sync_set
        self.groups: dict[str, dict] = {}
        self.side = "L"  # which operand is being compiled right now


@dataclass
class _StartInfo:
    channel: str
    branch: str
    counter: int


@dataclass
class _Ctx:
    branch: str
    counter: int
    finish: str
    view: View  # how each event is seen through the enclosing wrappers
    # identity of every enclosing interrupted side: recursion crossing one
    # stacks armed interrupts in the source semantics, which no finite
    # network can replay, so such loops must not be collapsed
    markers: tuple[int, ...] = ()


class _Compiler:
    def __init__(self, spec: CspSpec, registry: _Registry):
        self.spec = spec
        self.registry = registry
        self.channels: dict[str, ChannelDecl] = {}
        self.int_vars: dict[str, int] = {}
        self.active: dict[tuple, str] = {}
        self.labels = _Shared(SyncLabel)
        self._marker_seq = 0

    def loop_key(self, name: str, ctx: _Ctx) -> tuple:
        return (name, ctx.view.key, ctx.markers, ctx.finish)

    # -- channel bookkeeping ------------------------------------------------

    def ensure_channel(self, name: str, mode: str) -> str:
        if name not in self.channels:
            self.channels[name] = ChannelDecl(name, mode)
        return name

    def alloc_numbered(self, prefix: str, branch: str, ctx: _Ctx) -> _StartInfo:
        # Flow channels are urgent: wiring a successor automaton in must
        # never wait on the clock, only on the partner being ready.
        mode = "urgent-binary" if prefix == "startID" else "binary"
        while True:
            counter = ctx.counter
            ctx.counter += 1
            name = f"{prefix}{branch}_{counter}"
            if name not in self.registry.used:
                self.registry.claim(name)
                self.ensure_channel(name, mode)
                return _StartInfo(name, branch, counter)

    def new_var(self, name: str, init: int = 0) -> str:
        name = self.registry.unique(name)
        self.int_vars[name] = init
        return name

    def event_channel(self, kind: str, name: str) -> str:
        """The channel of a plain occurrence, or the itau broadcast of a
        hidden one."""
        if kind == "plain":
            return self.ensure_channel(name, "binary")
        chan = f"itau_{name}"
        if chan not in self.channels:
            self.registry.used.add(chan)
        return self.ensure_channel(chan, "broadcast")

    def register_participant(self, scope: _SyncScope, name: str, var: str | None) -> str:
        """Join ``scope``'s group for ``name`` on its current side with a readiness
        variable, or None for a forwarded inner group; the first variable brings the channel."""
        group = scope.groups.setdefault(name, {"channel": None, "vars": [], "sides": []})
        if var is not None and group["channel"] is None:
            group["channel"] = self.registry.unique(name, "___sync")
            self.ensure_channel(group["channel"], "broadcast")
        group["vars"].append(var)
        group["sides"].append(scope.side)
        return group["channel"]

    def close_compound(
        self, b: _TaBuilder, start: _StartInfo, left: _Unit, right: _Unit, *between: _TaBuilder
    ) -> _Unit:
        """The unit of a compound construct: its coordinator ``b``, the left
        operand, ``between`` and the right operand.

        The start becomes the construct's own reset, a broadcast: besides
        dispatching the coordinator it knocks every waiting automaton of
        the operands back to its inert initial location, so recursion may
        re-enter the construct mid-flight (anything still running belongs
        to an abandoned round).
        """
        self.channels[start.channel] = ChannelDecl(start.channel, "broadcast")
        _knock_back(left.waiting() + right.waiting(), self.labels[start.channel, "receive"])
        unit = _Unit(tas=[b])
        unit.absorb(left)
        unit.tas.extend(between)
        unit.absorb(right)
        return unit

    def _gate(self, suffix: str, slots: list[_Slot], var: str, value: int, knock: list) -> None:
        """Gate each slot's first event on a fresh handshake named with
        ``suffix``, which claims ``var`` for ``value`` and knocks every
        automaton at one of the ``knock`` locations back to its inert
        initial location."""
        mode = _GATES[suffix]
        for slot in slots:
            channel = self.registry.unique(slot.event, suffix)
            self.ensure_channel(channel, mode)
            _gate_slot(slot, self.labels[channel, "send"], var, value)
            _knock_back(knock, self.labels[channel, "receive"])

    # -- compilation ---------------------------------------------------------

    def compile(self, p: CspProcess, ctx: _Ctx, start: _StartInfo) -> _Unit:
        if isinstance(p, Stop):
            return self._compile_stop(start)
        if isinstance(p, Skip):
            return self._compile_skip(ctx, start)
        if isinstance(p, Prefix):
            return self._compile_prefix(p, ctx, start)
        if isinstance(p, Seq):
            return self._compile_seq(p, ctx, start)
        if isinstance(p, (GenPar, Interleave)):
            return self._compile_parallel(p, ctx, start)
        if isinstance(p, ExtChoice):
            return self._compile_ext_choice(p, ctx, start)
        if isinstance(p, IntChoice):
            return self._compile_int_choice(p, ctx, start)
        if isinstance(p, Interrupt):
            return self._compile_interrupt(p, ctx, start)
        if isinstance(p, (Hide, Rename)):
            sub = _Ctx(ctx.branch, ctx.counter, ctx.finish, wrap(ctx.view, p), ctx.markers)
            unit = self.compile(p.body, sub, start)
            ctx.counter = sub.counter
            return unit
        if isinstance(p, Ref):
            return self._compile_ref(p, ctx, start)
        raise TranslationError(f"no translation rule for {type(p).__name__}")

    def _compile_ref(self, p: Ref, ctx: _Ctx, start: _StartInfo) -> _Unit:
        key = self.loop_key(p.name, ctx)
        looped = self.active.get(key)
        if looped is not None:
            # A reference re-entered its own expansion: relay the fresh
            # flow action onto the loop entry.
            b = _TaBuilder()
            s0 = b.add_loc()
            s1 = b.add_loc(LocationKind.COMMITTED)
            b.add_edge(s0, s1, sync=self.labels[start.channel, "receive"])
            b.add_edge(s1, s0, sync=self.labels[looped, "send"])
            return _Unit(tas=[b], looped=True)
        if len(self.active) >= _MAX_EXPANSION_DEPTH:
            raise TranslationError(
                f"recursion through {p.name!r} grows its context; "
                "such processes have no finite network translation"
            )
        self.active[key] = start.channel
        try:
            return self.compile(self.spec.definitions[p.name], ctx, start)
        finally:
            del self.active[key]

    def _compile_cont(self, p: CspProcess, ctx: _Ctx) -> tuple[str, _Unit]:
        """Continuation start channel plus its compiled unit (empty when the
        prefix hands off straight to an expansion on the stack)."""
        looped = isinstance(p, Ref) and self.active.get(self.loop_key(p.name, ctx))
        if looped:
            return looped, _Unit()
        info = self.alloc_numbered("startID", ctx.branch, ctx)
        return info.channel, self.compile(p, ctx, info)

    def _then(self, unit: _Unit, p: Prefix, ctx: _Ctx, start: _StartInfo) -> _Unit:
        """Hand the flow from the last location of ``unit``'s one automaton
        to the continuation of ``p``, whose openings stay ``unit``'s while
        ``unit`` has no slot.

        A definition consisting of a single automaton cannot synchronise
        with itself to loop, so re-entering one's own start short-circuits
        silently back to the ready location ``s1``.
        """
        (b,) = unit.tas
        next_chan, cont = self._compile_cont(p.cont, ctx)
        last = f"s{len(b.loc_kinds) - 1}"
        if next_chan == start.channel:
            b.add_edge(last, "s1")
        else:
            b.add_edge(last, "s0", sync=self.labels[next_chan, "send"])
        unit.absorb(cont, opening=not unit.slots)
        return unit

    def _operands(self, p, ctx: _Ctx, finishes: tuple, view: View, left_markers: tuple = (), scope=None) -> list:
        """Compile both operands of a binary construct under ``view``, as
        (entry flow action, fresh finish, unit) per side.  ``finishes`` holds
        each one's termination channel, or None for a fresh ``finishID`` (an
        operand that loops back into its expansion does so via a relay).  Both
        entries are numbered first, then the fresh finishes; then left and
        right are compiled, as ``scope``'s sides."""
        sides = []
        for digit, q, finish, markers in (
            ("0", p.left, finishes[0], ctx.markers + left_markers),
            ("1", p.right, finishes[1], ctx.markers),
        ):
            child = _Ctx(ctx.branch + digit, 0, finish, view, markers)
            info = self.alloc_numbered("startID", child.branch, ctx)
            child.counter = info.counter + 1
            sides.append((q, child, info))
        fresh = [
            None if child.finish else self.alloc_numbered("finishID", child.branch, ctx)
            for _, child, _ in sides
        ]
        out = []
        for side, (q, child, info), fin in zip("LR", sides, fresh):
            child.finish = child.finish or fin.channel
            if scope is not None:
                scope.side = side
            out.append((info.channel, fin, self.compile(q, child, info)))
        return out

    # individual constructs

    def _waiting_ta(self, start: _StartInfo, size: int = 2, tock_to: str = "s1") -> _TaBuilder:
        """The paper's TA1, STOP's automaton: the start action moves it from
        its inert initial location ``s0`` to ``s1``, where it lets time pass.
        The other atomic rules extend it to ``size`` normal locations; a
        ``tock`` prefix moves on to ``tock_to`` with the first time unit."""
        b = _TaBuilder()
        for _ in range(size):
            b.add_loc()
        b.add_edge("s0", "s1", sync=self.labels[start.channel, "receive"])
        b.add_edge("s1", tock_to, sync=self.labels[TOCK, "receive"])
        return b

    def _compile_stop(self, start: _StartInfo) -> _Unit:
        b = self._waiting_ta(start)
        return _Unit(tas=[b], blockable=[(b, "s1")])

    def _compile_skip(self, ctx: _Ctx, start: _StartInfo) -> _Unit:
        unit = self._compile_stop(start)
        (b,) = unit.tas
        # back to the inert initial once termination is signalled: a
        # terminated process cannot be chosen against or interrupted, and
        # a later activation may legitimately run it again
        b.add_edge("s1", "s0", sync=self.labels[ctx.finish, "send"])
        return unit

    def _compile_prefix(self, p: Prefix, ctx: _Ctx, start: _StartInfo) -> _Unit:
        if p.event == TOCK:
            b = self._waiting_ta(start, 3, tock_to="s2")
        else:
            resolved = ctx.view[p.event]
            if resolved[0] == "sync":
                return self._compile_sync_participant(p, ctx, start, resolved[1], resolved[2])
            channel = self.event_channel(*resolved)
            b = self._waiting_ta(start, 3)
            ev_edge = b.add_edge("s1", "s2", sync=self.labels[channel, "send"])
            if resolved[0] == "plain":
                unit = _Unit(tas=[b], slots=[_Slot(b, "s1", [ev_edge], channel)], blockable=[(b, "s1")])
                return self._then(unit, p, ctx, start)
        # Time and a hidden occurrence are invisible: they neither resolve a
        # choice nor interrupt, so the branch stays gatable through them.
        return self._then(_Unit(tas=[b], blockable=[(b, "s1"), (b, "s2")]), p, ctx, start)

    def _compile_sync_participant(
        self, p: Prefix, ctx: _Ctx, start: _StartInfo, scope: _SyncScope, name: str
    ) -> _Unit:
        var = self.new_var(f"g_{name}{start.branch}_{start.counter}")
        sync_chan = self.register_participant(scope, name, var)
        b = self._waiting_ta(start, 4)
        ready_edge = b.add_edge("s1", "s2", updates=(Assignment(var, 1),))
        b.add_edge("s2", "s2", sync=self.labels[TOCK, "receive"])
        b.add_edge("s2", "s3", sync=self.labels[sync_chan, "receive"], updates=(Assignment(var, 0),))
        b.reset_map["s2"] = (Assignment(var, 0),)
        unit = _Unit(tas=[b], slots=[_Slot(b, "s1", [ready_edge], name)], blockable=[(b, "s1")])
        return self._then(unit, p, ctx, start)

    def _compile_seq(self, p: Seq, ctx: _Ctx, start: _StartInfo) -> _Unit:
        handover = self.alloc_numbered("finishID", ctx.branch, ctx)
        left_ctx = _Ctx(ctx.branch, ctx.counter, handover.channel, ctx.view, ctx.markers)
        left = self.compile(p.left, left_ctx, start)
        ctx.counter = left_ctx.counter
        right = self.compile(p.right, ctx, handover)
        unit = _Unit()
        unit.absorb(left)
        unit.absorb(right, opening=self.spec.nullable(p.left))
        return unit

    def _compile_parallel(self, p: GenPar | Interleave, ctx: _Ctx, start: _StartInfo) -> _Unit:
        sync_set = p.sync_set if isinstance(p, GenPar) else frozenset()
        scope = _SyncScope(sync_set) if sync_set else None

        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc(LocationKind.COMMITTED)
        s2 = b.add_loc(LocationKind.COMMITTED)
        s3 = b.add_loc(LocationKind.COMMITTED)
        s4 = b.add_loc()
        s5 = b.add_loc()
        s6 = b.add_loc()
        s7 = b.add_loc()

        view = wrap(ctx.view, scope) if scope else ctx.view
        (start_l, fin_l, left), (start_r, fin_r, right) = self._operands(p, ctx, (None, None), view, scope=scope)

        b.add_edge(s0, s1, sync=self.labels[start.channel, "receive"])
        # starting both operands is a compound action, in either order
        b.add_edge(s1, s2, sync=self.labels[start_l, "send"])
        b.add_edge(s2, s4, sync=self.labels[start_r, "send"])
        b.add_edge(s1, s3, sync=self.labels[start_r, "send"])
        b.add_edge(s3, s4, sync=self.labels[start_l, "send"])
        # termination can come in either order and at different times
        b.add_edge(s4, s5, sync=self.labels[fin_l.channel, "receive"])
        b.add_edge(s5, s7, sync=self.labels[fin_r.channel, "receive"])
        b.add_edge(s4, s6, sync=self.labels[fin_r.channel, "receive"])
        b.add_edge(s6, s7, sync=self.labels[fin_l.channel, "receive"])
        b.add_edge(s7, s0, sync=self.labels[ctx.finish, "send"])
        # a recursion may re-enter while this round still waits on finishes
        for parked in (s4, s5, s6, s7):
            b.add_edge(parked, s1, sync=self.labels[start.channel, "receive"])

        controllers = []
        if scope is not None:
            reqs = []
            for name in sorted(scope.groups):
                group = scope.groups[name]
                sides = group["sides"]
                if "L" not in sides or "R" not in sides:
                    # the event needs both operands; with one side silent it
                    # can never happen, so the participants stay blocked
                    continue
                outer = ctx.view[name]
                if outer[0] == "sync":
                    # the whole group is one participant of the enclosing scope
                    self.register_participant(outer[1], outer[2], None)
                    continue
                if None in group["vars"] or sides.count("L") > 1 or sides.count("R") > 1:
                    raise TranslationError(
                        f"several occurrences of the synchronised event {name!r} "
                        "on one side of a parallel composition have no sum-guard "
                        "translation"
                    )
                reqs.append((self.event_channel(*outer), group["channel"], tuple(group["vars"])))
            if reqs:
                controllers.append(_controller(reqs, self.labels))
        return self.close_compound(b, start, left, right, *controllers)

    def _compile_ext_choice(self, p: ExtChoice, ctx: _Ctx, start: _StartInfo) -> _Unit:
        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc(LocationKind.COMMITTED)
        s2 = b.add_loc(LocationKind.COMMITTED)
        (start_l, _, left), (start_r, _, right) = self._operands(p, ctx, (ctx.finish, ctx.finish), ctx.view)
        if left.looped or right.looped:
            # an operand that is itself a loop's relay starts with no event
            # of its own for the choice to gate
            raise TranslationError("an external-choice operand that loops back into its expansion cannot be gated")
        picked = self.new_var(f"pick{start.branch}_{start.counter}")
        # re-arming the choice (recursion) re-opens it
        b.add_edge(
            s0, s1, sync=self.labels[start.channel, "receive"], updates=(Assignment(picked, 0),)
        )
        b.add_edge(s1, s2, sync=self.labels[start_l, "send"])
        b.add_edge(s2, s0, sync=self.labels[start_r, "send"])

        # The first event of one branch blocks the other: its handshake
        # knocks one automaton of the losing branch back to its inert
        # initial location and records the winner in ``picked``.
        self._gate("_exch", left.slots, picked, 1, right.blockable)
        self._gate("_exch", right.slots, picked, 2, left.blockable)
        # termination of a side resolves the choice too: the first branch
        # to signal the shared finish claims it, silencing the other
        _claim_finish_edges(left.tas, ctx.finish, picked, 1)
        _claim_finish_edges(right.tas, ctx.finish, picked, 2)
        return self.close_compound(b, start, left, right)

    def _compile_int_choice(self, p: IntChoice, ctx: _Ctx, start: _StartInfo) -> _Unit:
        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc(LocationKind.COMMITTED)
        s2 = b.add_loc(LocationKind.COMMITTED)
        s3 = b.add_loc(LocationKind.COMMITTED)
        (start_l, _, left), (start_r, _, right) = self._operands(p, ctx, (ctx.finish, ctx.finish), ctx.view)
        b.add_edge(s0, s1, sync=self.labels[start.channel, "receive"])
        b.add_edge(s1, s2)  # silent: the choice is the machine's own
        b.add_edge(s1, s3)
        b.add_edge(s2, s0, sync=self.labels[start_l, "send"])
        b.add_edge(s3, s0, sync=self.labels[start_r, "send"])
        return self.close_compound(b, start, left, right)

    def _compile_interrupt(self, p: Interrupt, ctx: _Ctx, start: _StartInfo) -> _Unit:
        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc(LocationKind.COMMITTED)
        s2 = b.add_loc(LocationKind.COMMITTED)
        s3 = b.add_loc()
        s4 = b.add_loc(LocationKind.COMMITTED)

        self._marker_seq += 1
        (start_l, _, left), (start_r, fin_r, right) = self._operands(
            p, ctx, (ctx.finish, None), ctx.view, left_markers=(self._marker_seq,)
        )
        # interrupt state: 0 armed, 1 interrupted, 2 left side terminated
        state = self.new_var(f"intrpd{ctx.branch}_{fin_r.counter}")

        b.add_edge(
            s0, s1, sync=self.labels[start.channel, "receive"], updates=(Assignment(state, 0),)
        )
        b.add_edge(s1, s2, sync=self.labels[start_l, "send"])
        b.add_edge(s2, s3, sync=self.labels[start_r, "send"])
        # the interrupting side may terminate the whole only once it has
        # actually interrupted; before that its termination stays latent
        b.add_edge(
            s3,
            s4,
            guard=GuardExpr((IntAtom((state,), "==", 1),)),
            sync=self.labels[fin_r.channel, "receive"],
        )
        b.add_edge(s4, s0, sync=self.labels[ctx.finish, "send"])
        # a recursion may re-enter while this round is still armed
        b.add_edge(
            s3, s1, sync=self.labels[start.channel, "receive"], updates=(Assignment(state, 0),)
        )
        unit = self.close_compound(b, start, left, right)

        # successful termination of the interrupted side retires the whole
        # construct: nothing may interrupt it any more
        for builder, i in _finish_edges(left.tas, ctx.finish):
            edge = builder.edges[i]
            builder.edges[i] = replace(edge, updates=edge.updates + (Assignment(state, 2),))
        # the kill is a broadcast: every automaton of the interrupted side
        # that is waiting retires at once
        self._gate("_intrpt", right.slots, state, 1, left.waiting())
        return unit


def _knock_back(locations: list[tuple[_TaBuilder, str]], receive: SyncLabel) -> None:
    """Receiving on ``receive``'s channel sends each automaton at one of
    ``locations`` back to its inert initial location, undoing what it had
    set.  Automata that share a location id and its reset share the edge."""
    edges: dict[tuple, Edge] = {}
    for builder, loc in locations:
        key = (loc, builder.reset_map.get(loc, ()))
        builder.edges.append(edges.get(key) or edges.setdefault(key, Edge(loc, "s0", None, receive, key[1])))


def _finish_edges(tas: list[_TaBuilder], finish: str) -> list[tuple[_TaBuilder, int]]:
    """Every edge of ``tas`` that sends on ``finish``, as (builder, index).

    The list is complete before the caller changes anything, so edges the
    caller then adds are never in it."""
    return [
        (builder, i)
        for builder in tas
        for i, edge in enumerate(builder.edges)
        if edge.sync is not None and edge.sync.direction == "send" and edge.sync.channel == finish
    ]


def _claim_finish_edges(
    tas: list[_TaBuilder], finish: str, var: str, side: int
) -> None:
    """Split every edge signalling ``finish`` into a resolving variant
    (fires while the decision variable is 0 and claims it) and a
    follow-up variant for when this side already won."""
    for builder, i in _finish_edges(tas, finish):
        edge = builder.edges[i]
        atoms = edge.guard.atoms if edge.guard else ()
        builder.edges[i] = replace(
            edge,
            guard=GuardExpr(atoms + (IntAtom((var,), "==", 0),)),
            updates=edge.updates + (Assignment(var, side),),
        )
        builder.edges.append(
            replace(edge, guard=GuardExpr(atoms + (IntAtom((var,), "==", side),)))
        )


def _gate_slot(slot: _Slot, sync: SyncLabel, var: str, value: int) -> None:
    """Insert a gate before the slot's event.

    The handshake edge performs the coordinating action: while ``var``
    is undecided (0) it claims it for ``value``.  The silent free-pass
    edge lets the event fire once ``var`` already holds ``value``, decided
    in this slot's favour (an armed interrupt firing after its choice was
    won, a loop re-offering its own branch).
    """
    b = slot.builder
    gate = b.add_loc(LocationKind.COMMITTED)
    handshake = b.add_edge(
        slot.ready, gate, guard=GuardExpr((IntAtom((var,), "==", 0),)), sync=sync, updates=(Assignment(var, value),)
    )
    freepass = b.add_edge(slot.ready, gate, guard=GuardExpr((IntAtom((var,), "==", value),)))
    for i in slot.entry_edges:
        b.edges[i] = replace(b.edges[i], source=gate)
    slot.entry_edges = [handshake, freepass]


def _controller(reqs: list[tuple[str, str, tuple[str, ...]]], labels: _Shared) -> _TaBuilder:
    """One committed round-trip per (notify, release, readiness variables)
    requirement: when every participant's readiness variable is up,
    announce the event, then broadcast the release."""
    b = _TaBuilder()
    s0 = b.add_loc()
    for notify, release, ready in reqs:
        committed = b.add_loc(LocationKind.COMMITTED)
        guard = GuardExpr((IntAtom(ready, "==", len(ready)),))
        b.add_edge(s0, committed, guard=guard, sync=labels[notify, "send"])
        b.add_edge(committed, s0, sync=labels[release, "send"])
    return b


def _environment(events: frozenset[str], start_action: str, start_var: str, labels: _Shared) -> _TaBuilder:
    """The single-location automaton that closes the network.

    It launches the system once (guard ``start==0`` blocks a restart),
    offers a co-action for every user event, accepts the final
    termination signal, and broadcasts ``tock`` every time unit.
    """
    b = _TaBuilder()
    s0 = b.add_loc()
    b.add_edge(
        s0,
        s0,
        guard=GuardExpr((IntAtom((start_var,), "==", 0),)),
        sync=labels[start_action, "send"],
        updates=(Assignment(start_var, 1),),
    )
    for event in sorted(events):
        b.add_edge(s0, s0, sync=labels[event, "receive"])
    b.add_edge(s0, s0, sync=labels[_FINISH, "receive"])
    b.add_edge(
        s0,
        s0,
        guard=GuardExpr((ClockAtom(_CLOCK, ">=", 1),)),
        sync=labels[TOCK, "send"],
        updates=(Assignment(_CLOCK, 0),),
    )
    return b


def _movable(tas: list[_TaBuilder], env: _TaBuilder) -> list[_TaBuilder]:
    """The automata of ``tas`` that may ever move in the network ``env``
    closes, in order (a cone-of-influence reduction).  A worklist over the
    edges of reached (automaton, location) pairs takes an edge once each of
    its integer atoms can hold and, for a receive, once some taken edge sends
    on its channel.  Every variable starts at 0 and ranges over 0 and the
    values taken edges assign to it: an atom that no combination of those
    values satisfies waits under its variables and is retried when one of
    their ranges grows.  Clock atoms are ignored.  So every edge a run fires
    is taken: the others stay in a normal initial location, which neither
    blocks time nor commits, and dropping them maps reachable configurations
    one to one.
    """
    builders = [*tas, env]
    edges_from: list[dict[str, list[Edge]]] = []  # per automaton, by source
    for b in builders:
        index: dict[str, list[Edge]] = {}
        for edge in b.edges:
            if edge.source in index:
                index[edge.source].append(edge)
            else:
                index[edge.source] = [edge]
        edges_from.append(index)
    moves = [False] * len(builders)
    sent: set[str] = set()
    ranges: dict[str, set[int]] = {}
    # (automaton, edges) entries awaiting a sender, or a variable's value
    receiving: dict[str, list[tuple[int, tuple[Edge]]]] = {}
    guarded: dict[str, list[tuple[int, tuple[Edge]]]] = {}
    todo = [(i, index.pop("s0", ())) for i, index in enumerate(edges_from)]
    while todo:
        i, edges = todo.pop()
        for edge in edges:
            atom = edge.guard and _blocking(edge.guard, ranges)
            if atom:
                for var in atom.variables:
                    guarded.setdefault(var, []).append((i, (edge,)))
                continue
            sync = edge.sync
            if sync is not None and sync.channel not in sent:
                if sync.direction == "receive":
                    receiving.setdefault(sync.channel, []).append((i, (edge,)))
                    continue
                sent.add(sync.channel)
                todo += receiving.pop(sync.channel, ())
            for update in edge.updates:
                values = ranges.get(update.target)
                if values is None:
                    values = ranges[update.target] = {0}
                if update.value not in values:
                    values.add(update.value)
                    todo += guarded.pop(update.target, ())
            moves[i] = True
            if edge.target in edges_from[i]:  # taken on the first visit only
                todo.append((i, edges_from[i].pop(edge.target)))
    return [b for b, moved in zip(tas, moves) if moved or b.loc_kinds[0] is not LocationKind.NORMAL]


def _blocking(guard: GuardExpr, ranges: dict[str, set[int]]) -> IntAtom | None:
    """The first integer atom of ``guard`` that no values in ``ranges``
    satisfy (a missing variable holds 0), or None."""
    for atom in guard.atoms:
        if isinstance(atom, IntAtom):
            sums = (0,)
            for var in atom.variables:
                sums = {s + v for s in sums for v in ranges.get(var, (0,))}
            holds = _RELATIONS[atom.op]
            for s in sums:
                if holds(s, atom.const):
                    break
            else:
                return atom
    return None


def assemble(process_or_spec: CspSpec | CspProcess) -> NetworkModel:
    """The closed network of a process or spec: its component automata,
    then the environment.

    A named spec starts on ``startID<main>``, a bare process on the
    numbered ``startID0_0``."""
    if isinstance(process_or_spec, CspSpec):
        spec = process_or_spec
    else:
        spec = CspSpec(definitions={"P": process_or_spec}, main="P")
    registry = _Registry()
    registry.claim(TOCK)
    events = alphabet(spec)
    for event in sorted(events):
        registry.claim(event)

    compiler = _Compiler(spec, registry)
    compiler.ensure_channel(TOCK, "broadcast")
    for event in sorted(events):
        compiler.ensure_channel(event, "binary")

    root = _Ctx("0", 0, registry.claim(_FINISH), spec.view)
    compiler.ensure_channel(_FINISH, "binary")
    if isinstance(process_or_spec, CspSpec):
        start = _StartInfo(registry.claim(f"startID{spec.main}"), root.branch, root.counter)
        compiler.ensure_channel(start.channel, "urgent-binary")
        root.counter += 1
    else:
        start = compiler.alloc_numbered("startID", root.branch, root)

    try:
        # Entering via the reference registers main for loop-backs.
        unit = compiler._compile_ref(Ref(spec.main), root, start)
    except RecursionError:
        raise TranslationError("input nests too deeply to translate") from None

    env = _environment(events, start.channel, compiler.new_var("start"), compiler.labels)
    kept = _movable(unit.tas, env)
    # The claim order fixes the emitted names: the start variable, the
    # components, then Env.
    locations = _Shared(lambda i, kind: Location(id=f"s{i}", kind=kind))
    tas = [
        builder.freeze(registry.unique(f"TA{index:02d}"), locations)
        for index, builder in enumerate(kept)
    ]
    tas.append(env.freeze(registry.unique("Env"), locations, clocks=(_CLOCK,)))

    # only what some kept edge names is declared
    named: set[str] = set()
    for builder in (*kept, env):
        for edge in builder.edges:
            if edge.sync is not None:
                named.add(edge.sync.channel)
            if edge.guard is not None:
                for atom in edge.guard.atoms:
                    if isinstance(atom, IntAtom):
                        named.update(atom.variables)
            for update in edge.updates:
                named.add(update.target)
    net = NetworkModel(
        automata=tuple(tas),
        channels=tuple(decl for name, decl in compiler.channels.items() if name in named),
        int_vars=tuple(item for item in compiler.int_vars.items() if item[0] in named),
    )
    problems = validate(net)
    if problems:
        raise TranslationError(
            "generated network failed validation: " + "; ".join(map(str, problems))
        )
    return net
