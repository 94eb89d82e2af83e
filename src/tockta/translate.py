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

Every small automaton returns to its inert initial location after its
contribution, so recursive definitions close the loop simply by reusing
the flow channel allocated when the definition was first translated.

Timing lives on the environment automaton: its ``tock`` broadcast is
guarded ``ck>=1`` and resets ``ck``, so one tock is at least one time
unit; component automata carry unguarded ``tock?`` self-loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    _nullable,
    _nullable_map,
    alphabet,
    event_universe,
    resolve_event,
    wrapper_key,
)
from .tamodel import (
    Assignment,
    ChannelDecl,
    ChannelKind,
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


@dataclass
class _MutEdge:
    source: str
    target: str
    guard: GuardExpr | None = None
    sync: SyncLabel | None = None
    updates: tuple[Assignment, ...] = ()

    def freeze(self) -> Edge:
        return Edge(self.source, self.target, self.guard, self.sync, self.updates)


class _TaBuilder:
    def __init__(self) -> None:
        self.loc_kinds: list[LocationKind] = []
        self.edges: list[_MutEdge] = []
        self.reset_map: dict[str, tuple[Assignment, ...]] = {}
        self.name = ""

    def add_loc(self, kind: LocationKind = LocationKind.NORMAL) -> str:
        loc_id = f"s{len(self.loc_kinds)}"
        self.loc_kinds.append(kind)
        return loc_id

    def add_edge(self, source: str, target: str, **kw) -> _MutEdge:
        edge = _MutEdge(source, target, **kw)
        self.edges.append(edge)
        return edge

    def freeze(self, name: str, clocks: tuple[str, ...] = ()) -> TimedAutomaton:
        locations = tuple(
            Location(id=f"s{i}", display_name=f"s{i}", kind=kind)
            for i, kind in enumerate(self.loc_kinds)
        )
        return TimedAutomaton(
            name=name,
            locations=locations,
            initial="s0",
            clocks=clocks,
            edges=tuple(e.freeze() for e in self.edges),
        )


@dataclass
class _Slot:
    """A gatable first-event entry of a compiled branch.

    ``entry_edges`` are the edges currently leaving the ready location on
    the way to the event; a new gate re-sources all of them.
    """

    builder: _TaBuilder
    ready: str
    entry_edges: list[_MutEdge]
    event: str


@dataclass
class _Unit:
    tas: list[_TaBuilder] = field(default_factory=list)
    slots: list[_Slot] = field(default_factory=list)
    blockable: list[tuple[_TaBuilder, str]] = field(default_factory=list)
    stable: list[tuple[_TaBuilder, str]] = field(default_factory=list)

    def absorb(self, other: "_Unit", *, slots: bool = True, blockable: bool = True) -> None:
        self.tas.extend(other.tas)
        if slots:
            self.slots.extend(other.slots)
        if blockable:
            self.blockable.extend(other.blockable)
        self.stable.extend(other.stable)


class _SyncScope:
    """One synchronising parallel composition.  It is compared by identity,
    so loop keys that resolve an event to it tell scopes apart."""

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
    wrappers: tuple  # innermost first: ("rename", dict) | ("hide", set) | ("sync", scope)
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
        self.nullable_defs = _nullable_map(spec.definitions)
        self.universe = sorted(event_universe(spec.definitions))
        self._marker_seq = 0

    def loop_key(self, name: str, ctx: _Ctx) -> tuple:
        return (name, wrapper_key(self.universe, ctx.wrappers), ctx.markers, ctx.finish)

    # -- channel bookkeeping ------------------------------------------------

    def ensure_channel(self, name: str, kind: ChannelKind, mode: str) -> str:
        decl = self.channels.get(name)
        if decl is None:
            self.channels[name] = ChannelDecl(name, mode, kind)
        elif decl.kind is not kind:
            raise TranslationError(f"channel {name!r} used with conflicting kinds")
        return name

    def alloc_numbered(self, prefix: str, branch: str, ctx: _Ctx, kind: ChannelKind) -> _StartInfo:
        # Flow channels are urgent: wiring a successor automaton in must
        # never wait on the clock, only on the partner being ready.
        mode = "urgent-binary" if kind is ChannelKind.FLOW else "binary"
        while True:
            counter = ctx.counter
            ctx.counter += 1
            name = f"{prefix}{branch}_{counter}"
            if name not in self.registry.used:
                self.registry.claim(name)
                self.ensure_channel(name, kind, mode)
                return _StartInfo(name, branch, counter)

    def new_var(self, name: str, init: int = 0) -> str:
        name = self.registry.unique(name)
        self.int_vars[name] = init
        return name

    # -- event occurrence resolution ----------------------------------------

    def resolve_occurrence(self, event: str, wrappers: tuple) -> tuple:
        """``resolve_event`` with a channel for a plain or hidden result:
        ("plain", channel), ("hidden", itau-channel) or ("sync", scope,
        name-at-scope)."""
        resolved = resolve_event(event, wrappers)
        if resolved[0] == "sync":
            return resolved
        return resolved[0], self.event_channel(*resolved)

    def event_channel(self, kind: str, name: str) -> str:
        """The channel of a plain occurrence, or the itau broadcast of a
        hidden one."""
        if kind == "plain":
            return self.ensure_channel(name, ChannelKind.USER_EVENT, "binary")
        chan = f"itau_{name}"
        if chan not in self.channels:
            self.registry.used.add(chan)
        return self.ensure_channel(chan, ChannelKind.HIDDEN_ITAU, "broadcast")

    def register_participant(self, scope: _SyncScope, name: str, var: str) -> str:
        group = scope.groups.get(name)
        if group is None:
            chan = self.registry.unique(name, "___sync")
            self.ensure_channel(chan, ChannelKind.SYNCHRONISATION, "broadcast")
            group = {"channel": chan, "vars": [], "sides": []}
            scope.groups[name] = group
        group["vars"].append(var)
        group["sides"].append(scope.side)
        return group["channel"]

    def make_compound_start(
        self, stable: list[tuple[_TaBuilder, str]], start: _StartInfo
    ) -> None:
        """Turn a compound construct's start into its own reset.

        The start becomes a broadcast: besides dispatching the
        coordinator it knocks every stale automaton of the subtree back
        to its inert initial location, so recursion may re-enter the
        construct mid-flight (anything still running belongs to an
        abandoned round).
        """
        decl = self.channels[start.channel]
        self.channels[start.channel] = ChannelDecl(start.channel, "broadcast", decl.kind)
        _knock_back(stable, start.channel)

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
            wrapper = ("hide", p.hidden) if isinstance(p, Hide) else ("rename", p.as_dict())
            sub = _Ctx(ctx.branch, ctx.counter, ctx.finish, (wrapper,) + ctx.wrappers, ctx.markers)
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
            # A wrapped reference re-entered its own expansion: relay the
            # fresh flow action onto the loop entry.
            b = _TaBuilder()
            s0 = b.add_loc()
            s1 = b.add_loc(LocationKind.COMMITTED)
            b.add_edge(s0, s1, sync=SyncLabel(start.channel, "receive"))
            b.add_edge(s1, s0, sync=SyncLabel(looped, "send"))
            return _Unit(tas=[b])
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

    def _loop_target(self, p: CspProcess, ctx: _Ctx) -> str | None:
        """Flow channel to reuse when ``p`` is a reference back into an
        expansion currently on the stack."""
        if isinstance(p, Ref):
            return self.active.get(self.loop_key(p.name, ctx))
        return None

    def _compile_cont(self, p: CspProcess, ctx: _Ctx) -> tuple[str, _Unit]:
        """Continuation start channel plus its compiled unit (empty on loop)."""
        looped = self._loop_target(p, ctx)
        if looped is not None:
            return looped, _Unit()
        info = self.alloc_numbered("startID", ctx.branch, ctx, ChannelKind.FLOW)
        return info.channel, self.compile(p, ctx, info)

    def _close_chain(self, b: _TaBuilder, source: str, ready: str, start: _StartInfo, next_chan: str) -> None:
        """Final edge of a small automaton: hand the flow to the successor.

        A definition consisting of a single automaton cannot synchronise
        with itself to loop, so re-entering one's own start short-circuits
        silently back to the ready location.
        """
        if next_chan == start.channel:
            b.add_edge(source, ready)
        else:
            b.add_edge(source, "s0", sync=SyncLabel(next_chan, "send"))

    def _child_entry(
        self,
        p: CspProcess,
        ctx: _Ctx,
        digit: str,
        finish: str | None,
        markers: tuple[int, ...] | None = None,
    ) -> tuple[str, _StartInfo | None, _Ctx | None]:
        """Allocate the flow action starting one operand of a binary
        construct; entries are numbered before any sibling channels.

        ``finish=None`` means the operand will get a fresh termination
        channel of its own, so it can never be a loop re-entry.
        """
        branch = ctx.branch + digit
        if markers is None:
            markers = ctx.markers
        if finish is not None:
            looped = self._loop_target(p, _Ctx(branch, 0, finish, ctx.wrappers, markers))
            if looped is not None:
                return looped, None, None
        info = self.alloc_numbered("startID", branch, ctx, ChannelKind.FLOW)
        return info.channel, info, _Ctx(branch, info.counter + 1, finish or "", ctx.wrappers, markers)

    def _compile_entry(self, p: CspProcess, info: _StartInfo | None, child: _Ctx | None) -> _Unit:
        if info is None:
            return _Unit()
        return self.compile(p, child, info)

    # individual constructs

    def _compile_stop(self, start: _StartInfo) -> _Unit:
        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc()
        b.add_edge(s0, s1, sync=SyncLabel(start.channel, "receive"))
        b.add_edge(s1, s1, sync=SyncLabel(TOCK, "receive"))
        return _Unit(tas=[b], blockable=[(b, s1)], stable=[(b, s1)])

    def _compile_skip(self, ctx: _Ctx, start: _StartInfo) -> _Unit:
        unit = self._compile_stop(start)
        (b,) = unit.tas
        # back to the inert initial once termination is signalled: a
        # terminated process cannot be chosen against or interrupted, and
        # a later activation may legitimately run it again
        b.add_edge("s1", "s0", sync=SyncLabel(ctx.finish, "send"))
        return unit

    def _compile_prefix(self, p: Prefix, ctx: _Ctx, start: _StartInfo) -> _Unit:
        if p.event == TOCK:
            b = _TaBuilder()
            s0 = b.add_loc()
            s1 = b.add_loc()
            s2 = b.add_loc()
            b.add_edge(s0, s1, sync=SyncLabel(start.channel, "receive"))
            b.add_edge(s1, s2, sync=SyncLabel(TOCK, "receive"))
            next_chan, cont = self._compile_cont(p.cont, ctx)
            self._close_chain(b, s2, s1, start, next_chan)
            unit = _Unit(
                tas=[b],
                blockable=[(b, s1), (b, s2)],
                stable=[(b, s1), (b, s2)],
            )
            unit.absorb(cont)
            return unit

        resolved = self.resolve_occurrence(p.event, ctx.wrappers)
        if resolved[0] == "sync":
            return self._compile_sync_participant(p, ctx, start, resolved[1], resolved[2])

        hidden = resolved[0] == "hidden"
        channel = resolved[1]
        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc()
        s2 = b.add_loc()
        b.add_edge(s0, s1, sync=SyncLabel(start.channel, "receive"))
        b.add_edge(s1, s1, sync=SyncLabel(TOCK, "receive"))
        ev_edge = b.add_edge(s1, s2, sync=SyncLabel(channel, "send"))
        next_chan, cont = self._compile_cont(p.cont, ctx)
        self._close_chain(b, s2, s1, start, next_chan)

        unit = _Unit(tas=[b], stable=[(b, s1), (b, s2)])
        if hidden:
            # The occurrence is invisible: it neither resolves a choice nor
            # interrupts, so the branch stays gatable through it.
            unit.blockable = [(b, s1), (b, s2)]
            unit.absorb(cont)
        else:
            unit.slots = [_Slot(b, s1, [ev_edge], channel)]
            unit.blockable = [(b, s1)]
            unit.absorb(cont, slots=False, blockable=False)
        return unit

    def _compile_sync_participant(
        self, p: Prefix, ctx: _Ctx, start: _StartInfo, scope: _SyncScope, name: str
    ) -> _Unit:
        var = self.new_var(f"g_{name}{start.branch}_{start.counter}")
        sync_chan = self.register_participant(scope, name, var)
        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc()
        s2 = b.add_loc()
        s3 = b.add_loc()
        b.add_edge(s0, s1, sync=SyncLabel(start.channel, "receive"))
        b.add_edge(s1, s1, sync=SyncLabel(TOCK, "receive"))
        ready_edge = b.add_edge(s1, s2, updates=(Assignment(var, 1),))
        b.add_edge(s2, s2, sync=SyncLabel(TOCK, "receive"))
        b.add_edge(
            s2, s3, sync=SyncLabel(sync_chan, "receive"), updates=(Assignment(var, 0),)
        )
        next_chan, cont = self._compile_cont(p.cont, ctx)
        self._close_chain(b, s3, s1, start, next_chan)
        b.reset_map[s2] = (Assignment(var, 0),)

        unit = _Unit(
            tas=[b],
            slots=[_Slot(b, s1, [ready_edge], name)],
            blockable=[(b, s1)],
            stable=[(b, s1), (b, s2), (b, s3)],
        )
        unit.absorb(cont, slots=False, blockable=False)
        return unit

    def _compile_seq(self, p: Seq, ctx: _Ctx, start: _StartInfo) -> _Unit:
        looped = self._loop_target(p.right, ctx)
        if looped is not None:
            return self.compile(p.left, _Ctx(ctx.branch, ctx.counter, looped, ctx.wrappers, ctx.markers), start)
        handover = self.alloc_numbered("finishID", ctx.branch, ctx, ChannelKind.TERMINATING)
        left_ctx = _Ctx(ctx.branch, ctx.counter, handover.channel, ctx.wrappers, ctx.markers)
        left = self.compile(p.left, left_ctx, start)
        ctx.counter = left_ctx.counter
        right = self.compile(p.right, ctx, handover)
        unit = _Unit()
        left_nullable = _nullable(p.left, self.nullable_defs)
        unit.absorb(left)
        unit.absorb(right, slots=left_nullable, blockable=left_nullable)
        return unit

    def _compile_parallel(self, p: GenPar | Interleave, ctx: _Ctx, start: _StartInfo) -> _Unit:
        sync_set = p.sync_set if isinstance(p, GenPar) else frozenset()
        scope = _SyncScope(sync_set) if sync_set else None
        child_wrappers = ((("sync", scope),) if scope else ()) + ctx.wrappers

        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc(LocationKind.COMMITTED)
        s2 = b.add_loc(LocationKind.COMMITTED)
        s3 = b.add_loc(LocationKind.COMMITTED)
        s4 = b.add_loc()
        s5 = b.add_loc()
        s6 = b.add_loc()
        s7 = b.add_loc()

        wrapped = _Ctx(ctx.branch, ctx.counter, ctx.finish, child_wrappers, ctx.markers)
        start_l, info_l, child_l = self._child_entry(p.left, wrapped, "0", None)
        start_r, info_r, child_r = self._child_entry(p.right, wrapped, "1", None)
        fin_l = self.alloc_numbered("finishID", ctx.branch + "0", wrapped, ChannelKind.TERMINATING)
        fin_r = self.alloc_numbered("finishID", ctx.branch + "1", wrapped, ChannelKind.TERMINATING)
        child_l.finish = fin_l.channel
        child_r.finish = fin_r.channel
        if scope is not None:
            scope.side = "L"
        left = self._compile_entry(p.left, info_l, child_l)
        if scope is not None:
            scope.side = "R"
        right = self._compile_entry(p.right, info_r, child_r)
        ctx.counter = wrapped.counter

        b.add_edge(s0, s1, sync=SyncLabel(start.channel, "receive"))
        # starting both operands is a compound action, in either order
        b.add_edge(s1, s2, sync=SyncLabel(start_l, "send"))
        b.add_edge(s2, s4, sync=SyncLabel(start_r, "send"))
        b.add_edge(s1, s3, sync=SyncLabel(start_r, "send"))
        b.add_edge(s3, s4, sync=SyncLabel(start_l, "send"))
        # termination can come in either order and at different times
        b.add_edge(s4, s5, sync=SyncLabel(fin_l.channel, "receive"))
        b.add_edge(s5, s7, sync=SyncLabel(fin_r.channel, "receive"))
        b.add_edge(s4, s6, sync=SyncLabel(fin_r.channel, "receive"))
        b.add_edge(s6, s7, sync=SyncLabel(fin_l.channel, "receive"))
        b.add_edge(s7, s0, sync=SyncLabel(ctx.finish, "send"))
        # a recursion may re-enter while this round still waits on finishes
        for parked in (s4, s5, s6, s7):
            b.add_edge(parked, s1, sync=SyncLabel(start.channel, "receive"))
        self.make_compound_start(left.stable + right.stable, start)

        unit = _Unit(tas=[b], stable=[(b, s4), (b, s5), (b, s6), (b, s7)])
        unit.absorb(left)
        if scope is not None:
            reqs = []
            for name in sorted(scope.groups):
                group = scope.groups[name]
                sides = group["sides"]
                if "L" not in sides or "R" not in sides:
                    # the event needs both operands; with one side silent it
                    # can never happen, so the participants stay blocked
                    continue
                if sides.count("L") > 1 or sides.count("R") > 1:
                    raise TranslationError(
                        f"several occurrences of the synchronised event {name!r} "
                        "on one side of a parallel composition have no sum-guard "
                        "translation"
                    )
                # Never a scope: the participants registered with the
                # outermost scope over their whole wrapper stack.
                notify = self.event_channel(*resolve_event(name, ctx.wrappers))
                reqs.append((notify, group["channel"], tuple(group["vars"])))
            if reqs:
                unit.tas.append(_controller(reqs))
        unit.absorb(right)
        return unit

    def _compile_ext_choice(self, p: ExtChoice, ctx: _Ctx, start: _StartInfo) -> _Unit:
        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc(LocationKind.COMMITTED)
        s2 = b.add_loc(LocationKind.COMMITTED)
        start_l, info_l, child_l = self._child_entry(p.left, ctx, "0", ctx.finish)
        start_r, info_r, child_r = self._child_entry(p.right, ctx, "1", ctx.finish)
        left = self._compile_entry(p.left, info_l, child_l)
        right = self._compile_entry(p.right, info_r, child_r)
        picked = self.new_var(f"pick{start.branch}_{start.counter}")
        # re-arming the choice (recursion) re-opens it
        b.add_edge(
            s0, s1, sync=SyncLabel(start.channel, "receive"), updates=(Assignment(picked, 0),)
        )
        b.add_edge(s1, s2, sync=SyncLabel(start_l, "send"))
        b.add_edge(s2, s0, sync=SyncLabel(start_r, "send"))

        self._wire_choice(left, right, picked)
        # termination of a side resolves the choice too: the first branch
        # to signal the shared finish claims it, silencing the other
        _claim_finish_edges(left.tas, ctx.finish, picked, 1)
        _claim_finish_edges(right.tas, ctx.finish, picked, 2)
        self.make_compound_start(left.stable + right.stable, start)

        unit = _Unit(tas=[b])
        unit.absorb(left)
        unit.absorb(right)
        return unit

    def _wire_choice(self, left: _Unit, right: _Unit, picked: str) -> None:
        """The first event of one branch blocks the other branch.

        The handshake knocks one automaton of the losing branch back to
        its inert initial location and records the winner in ``picked``;
        events the winning branch offers later (an armed interrupt, a
        loop re-offering) pass the gate silently.
        """
        for side, own, other in ((1, left, right), (2, right, left)):
            for slot in own.slots:
                channel = self.registry.unique(slot.event, "_exch")
                self.ensure_channel(channel, ChannelKind.EXT_CHOICE, "binary")
                _gate_slot(
                    slot,
                    SyncLabel(channel, "send"),
                    handshake_guard=GuardExpr((IntAtom((picked,), "==", 0),)),
                    updates=(Assignment(picked, side),),
                    freepass_guard=GuardExpr((IntAtom((picked,), "==", side),)),
                )
                _knock_back(other.blockable, channel)

    def _compile_int_choice(self, p: IntChoice, ctx: _Ctx, start: _StartInfo) -> _Unit:
        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc(LocationKind.COMMITTED)
        s2 = b.add_loc(LocationKind.COMMITTED)
        s3 = b.add_loc(LocationKind.COMMITTED)
        start_l, info_l, child_l = self._child_entry(p.left, ctx, "0", ctx.finish)
        start_r, info_r, child_r = self._child_entry(p.right, ctx, "1", ctx.finish)
        left = self._compile_entry(p.left, info_l, child_l)
        right = self._compile_entry(p.right, info_r, child_r)
        b.add_edge(s0, s1, sync=SyncLabel(start.channel, "receive"))
        b.add_edge(s1, s2)  # silent: the choice is the machine's own
        b.add_edge(s1, s3)
        b.add_edge(s2, s0, sync=SyncLabel(start_l, "send"))
        b.add_edge(s3, s0, sync=SyncLabel(start_r, "send"))
        self.make_compound_start(left.stable + right.stable, start)
        unit = _Unit(tas=[b])
        unit.absorb(left)
        unit.absorb(right)
        return unit

    def _compile_interrupt(self, p: Interrupt, ctx: _Ctx, start: _StartInfo) -> _Unit:
        b = _TaBuilder()
        s0 = b.add_loc()
        s1 = b.add_loc(LocationKind.COMMITTED)
        s2 = b.add_loc(LocationKind.COMMITTED)
        s3 = b.add_loc()
        s4 = b.add_loc(LocationKind.COMMITTED)

        self._marker_seq += 1
        start_l, info_l, child_l = self._child_entry(
            p.left, ctx, "0", ctx.finish, markers=ctx.markers + (self._marker_seq,)
        )
        start_r, info_r, child_r = self._child_entry(p.right, ctx, "1", None)
        fin_r = self.alloc_numbered("finishID", ctx.branch + "1", ctx, ChannelKind.TERMINATING)
        child_r.finish = fin_r.channel
        left = self._compile_entry(p.left, info_l, child_l)
        right = self._compile_entry(p.right, info_r, child_r)
        # interrupt state: 0 armed, 1 interrupted, 2 left side terminated
        state = self.new_var(f"intrpd{ctx.branch}_{fin_r.counter}")

        b.add_edge(
            s0, s1, sync=SyncLabel(start.channel, "receive"), updates=(Assignment(state, 0),)
        )
        b.add_edge(s1, s2, sync=SyncLabel(start_l, "send"))
        b.add_edge(s2, s3, sync=SyncLabel(start_r, "send"))
        # the interrupting side may terminate the whole only once it has
        # actually interrupted; before that its termination stays latent
        b.add_edge(
            s3,
            s4,
            guard=GuardExpr((IntAtom((state,), "==", 1),)),
            sync=SyncLabel(fin_r.channel, "receive"),
        )
        b.add_edge(s4, s0, sync=SyncLabel(ctx.finish, "send"))
        # a recursion may re-enter while this round is still armed
        b.add_edge(
            s3, s1, sync=SyncLabel(start.channel, "receive"), updates=(Assignment(state, 0),)
        )
        self.make_compound_start(left.stable + right.stable, start)

        # successful termination of the interrupted side retires the whole
        # construct: nothing may interrupt it any more
        for _, edge in _finish_edges(left.tas, ctx.finish):
            edge.updates = edge.updates + (Assignment(state, 2),)

        for slot in right.slots:
            # the kill is a broadcast: every automaton of the interrupted
            # side that is at a stable location retires at once
            channel = self.registry.unique(slot.event, "_intrpt")
            self.ensure_channel(channel, ChannelKind.INTERRUPT, "broadcast")
            _gate_slot(
                slot,
                SyncLabel(channel, "send"),
                handshake_guard=GuardExpr((IntAtom((state,), "==", 0),)),
                updates=(Assignment(state, 1),),
                freepass_guard=GuardExpr((IntAtom((state,), "==", 1),)),
            )
            _knock_back(left.stable, channel)

        unit = _Unit(tas=[b], stable=[(b, s3)])
        unit.absorb(left)
        unit.absorb(right)
        return unit


def _knock_back(locations: list[tuple[_TaBuilder, str]], channel: str) -> None:
    """Receiving on ``channel`` sends each automaton at one of ``locations``
    back to its inert initial location, undoing what it had set."""
    for builder, loc in locations:
        builder.add_edge(
            loc, "s0", sync=SyncLabel(channel, "receive"), updates=builder.reset_map.get(loc, ())
        )


def _finish_edges(tas: list[_TaBuilder], finish: str) -> list[tuple[_TaBuilder, _MutEdge]]:
    """Every edge of ``tas`` that sends on ``finish``, with its builder.

    The list is complete before the caller changes anything, so edges the
    caller then adds are never in it."""
    return [
        (builder, edge)
        for builder in tas
        for edge in builder.edges
        if edge.sync is not None and edge.sync.direction == "send" and edge.sync.channel == finish
    ]


def _claim_finish_edges(
    tas: list[_TaBuilder], finish: str, var: str, side: int
) -> None:
    """Split every edge signalling ``finish`` into a resolving variant
    (fires while the decision variable is 0 and claims it) and a
    follow-up variant for when this side already won."""
    for builder, edge in _finish_edges(tas, finish):
        atoms = edge.guard.atoms if edge.guard else ()
        follow_up = _MutEdge(
            edge.source,
            edge.target,
            guard=GuardExpr(atoms + (IntAtom((var,), "==", side),)),
            sync=edge.sync,
            updates=edge.updates,
        )
        edge.guard = GuardExpr(atoms + (IntAtom((var,), "==", 0),))
        edge.updates = edge.updates + (Assignment(var, side),)
        builder.edges.append(follow_up)


def _gate_slot(
    slot: _Slot,
    sync: SyncLabel,
    handshake_guard: GuardExpr,
    updates: tuple[Assignment, ...],
    freepass_guard: GuardExpr,
) -> None:
    """Insert a gate before the slot's event.

    The handshake edge performs the coordinating action; the silent
    free-pass edge lets the event fire once the coordination has already
    been decided in this slot's favour (an armed interrupt firing after
    its choice was won, a loop re-offering its own branch).
    """
    gate = slot.builder.add_loc(LocationKind.COMMITTED)
    handshake = _MutEdge(slot.ready, gate, guard=handshake_guard, sync=sync, updates=updates)
    freepass = _MutEdge(slot.ready, gate, guard=freepass_guard)
    slot.builder.edges.append(handshake)
    slot.builder.edges.append(freepass)
    for edge in slot.entry_edges:
        edge.source = gate
    slot.entry_edges = [handshake, freepass]


def _controller(reqs: list[tuple[str, str, tuple[str, ...]]]) -> _TaBuilder:
    """One committed round-trip per (notify, release, readiness variables)
    requirement: when every participant's readiness variable is up,
    announce the event, then broadcast the release."""
    b = _TaBuilder()
    s0 = b.add_loc()
    for notify, release, ready in reqs:
        committed = b.add_loc(LocationKind.COMMITTED)
        guard = GuardExpr((IntAtom(ready, "==", len(ready)),))
        b.add_edge(s0, committed, guard=guard, sync=SyncLabel(notify, "send"))
        b.add_edge(committed, s0, sync=SyncLabel(release, "send"))
    return b


def _environment(events: frozenset[str], start_action: str, start_var: str) -> _TaBuilder:
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
        sync=SyncLabel(start_action, "send"),
        updates=(Assignment(start_var, 1),),
    )
    for event in sorted(events):
        b.add_edge(s0, s0, sync=SyncLabel(event, "receive"))
    b.add_edge(s0, s0, sync=SyncLabel(_FINISH, "receive"))
    b.add_edge(
        s0,
        s0,
        guard=GuardExpr((ClockAtom(_CLOCK, ">=", 1),)),
        sync=SyncLabel(TOCK, "send"),
        updates=(Assignment(_CLOCK, 0),),
    )
    return b


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
    compiler.ensure_channel(TOCK, ChannelKind.TOCK, "broadcast")
    for event in sorted(events):
        compiler.ensure_channel(event, ChannelKind.USER_EVENT, "binary")

    root = _Ctx("0", 0, registry.claim(_FINISH), ())
    compiler.ensure_channel(_FINISH, ChannelKind.TERMINATING, "binary")
    if isinstance(process_or_spec, CspSpec):
        start = _StartInfo(registry.claim(f"startID{spec.main}"), root.branch, root.counter)
        compiler.ensure_channel(start.channel, ChannelKind.FLOW, "urgent-binary")
        root.counter += 1
    else:
        start = compiler.alloc_numbered("startID", root.branch, root, ChannelKind.FLOW)

    try:
        # Entering via the reference registers main for loop-backs.
        unit = compiler._compile_ref(Ref(spec.main), root, start)
    except RecursionError:
        raise TranslationError("input nests too deeply to translate") from None

    # The claim order fixes the emitted names: components, the start
    # variable, then Env.
    tas = [builder.freeze(registry.unique(f"TA{index:02d}")) for index, builder in enumerate(unit.tas)]
    env = _environment(events, start.channel, compiler.new_var("start"))
    tas.append(env.freeze(registry.unique("Env"), clocks=(_CLOCK,)))

    net = NetworkModel(
        automata=tuple(tas),
        channels=tuple(compiler.channels.values()),
        int_vars=tuple(compiler.int_vars.items()),
        global_clocks=(),
        environment_index=len(unit.tas),
    )
    problems = validate(net)
    if problems:
        raise TranslationError(
            "generated network failed validation: " + "; ".join(map(str, problems))
        )
    return net
