"""Discrete-time executor for automata networks.

Semantics: unit time ticks increment every clock by one; a binary channel
pairs one enabled sender with one enabled receiver; a broadcast fires from
an enabled sender alone and takes every automaton whose matching receive
edge is enabled at that moment (possibly none).  If any automaton sits in
a committed location, only moves involving a committed automaton may
fire, and time may not pass.  Time also may not pass while an urgent
channel has a matched enabled pair.

Unit delays give the untimed traces of dense time when every clock
constraint is closed (no strict ``<`` or ``>`` on a clock): then integer
time is exact (Henzinger, Manna & Pnueli, ICALP 1992), also with
committed locations, urgent channels and broadcasts (Bošnački, FMICS
1999).  The model admits closed clock atoms only, and no invariants,
urgent locations or global clocks, so every network here is in that
class (see :mod:`tamodel`).  Each clock is capped at its own threshold,
the least value from which on every atom on that clock holds alike, now
and after any delay (the integer-clock case of LU-extrapolation).  A
translated network's one clock ``ck`` is tested only by ``ck>=1``, so it
takes the values 0 and 1.

Network traces record one entry (the channel name) per binary or
broadcast move; silent edges and time ticks are unrecorded.  The
coordinating channels can additionally be erased, which is the view
compared against the source process semantics.

The searches of :mod:`lts` run over dense integer ids, one per
configuration met; only what the API returns maps them back.  Each edge
is compiled once per runtime into its part of a move (automaton, edge,
target, clock and integer updates); a move is ``(label, parts)``, and the
searches fire its parts directly.

Settling.  ``network_traces`` and ``timelock_witnesses`` search a reduced
graph: after a move fires, the moves below fire at once, so
configurations that wait for one are never interned.  First, while one
automaton alone is committed, its only move fires if its location is
committed, has no receive edge and one edge, without guard or update,
that is silent or sends on a coordinating channel, and, for a send,
exactly one receive edge on that channel, without guard or update, is
where its automaton is.  That move is then the configuration's only
move, which time cannot pass, so the two configurations have the same
erased traces and reach ticks alike.  Then each pending flow hand-off
``h`` that passes the test below fires.  ``h`` is a move on an
urgent-binary FLOW channel ``c`` from automaton A at ``la`` to B at
``lb``, with targets ``ta`` and ``tb``:

(a) no automaton is in a committed location;
(b) the send is ``la``'s one silent or send edge, without guard or
    update; ``la`` is normal and receives only broadcasts;
(c) B alone receives ``c``, by one edge at ``lb`` without guard or update;
    ``lb`` is normal, has no silent or send edge, and receives only
    broadcasts besides; ``ta`` and ``tb`` are normal;
(d) no edge sending ``c`` can fire first;
(e) each broadcast received at ``la``, ``lb``, ``ta`` or ``tb`` commutes
    with ``h`` (its receives there are self-loops without updates), or
    no edge sending it can fire first;
(f) no edge from a normal location into a committed one can fire first.

"First" is before A or B moves.  Until then the urgent pair keeps time
from passing, so clocks and ints change only by assignment, and by (a)
and (f) no edge from a committed location fires.  Any other edge cannot
fire first if a test of its guard is false that no assignment makes
true, if no edge sending what it receives can fire first, or if its
automaton is still: it cannot move first, being at a location that is
not committed, that no silent or send edge leaves, and where it
receives only what no edge can send first (A and B are still).  A sum
of ints in a guard of (f), such as a synchronisation controller's
``(g_close00_3 + g_close01_2)==2``, is read by value range: an int whose
writers are all still keeps its value, any other may hold its initial
value or one written to it, and the edge cannot fire first if the sum
cannot hold.  Where one int's value alone would keep the sum from
holding, its writers are tried as still.  Why this is exact: until A or
B moves, no automaton is committed and ``h`` stays enabled; every move
fires alike after ``h``; and the first move of A or B is ``h``.  So a
run from ``y`` with ``h`` first has the same labels and ends in the same
configuration, or ``h`` short of it: ``y`` and ``h(y)`` have the same
erased traces at every depth and reach ticks, and configurations that
reach none, alike.  The settled graph's timelock witnesses are thus some
of the full graph's, and empty exactly when they are.  ``h`` is strongly
confluent in the full graph (partial tau-confluence, Groote & van de
Pol, MFCS 2000; a stubborn set of one move, Valmari 1990).  A settle loop
that comes back to a configuration, as hand-offs in a cycle do, stops
there and keeps it; each kept configuration is expanded in full.  The
test is compiled on first use: per ``(A, la, lb)``, (b), (c), one tuple
of the edges that (d)-(f) watch and, apart, the sent or silent ones of
(f), less A's and B's; per automaton and location, None if it can move by
itself there, else the edges it waits for; a check then tests guards
only.  (a) is a scan of the automata that have a committed location.
``raw_network_traces`` records every hand-off: it searches the full graph.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .lts import BoundExceeded  # noqa: F401  (re-exported: every search here raises it)
from .lts import TraceSet, cannot_reach, subset_graph
from .tamodel import _RELATIONS, ChannelKind, ClockAtom, LocationKind, NetworkModel, erasure_set

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


_NORMAL, _COMMITTED = LocationKind.NORMAL, LocationKind.COMMITTED

#: Added to an atom's constant, the least clock value from which on the atom
#: holds alike for every larger value: ``>= c`` from ``c``; ``<= c`` and
#: ``== c`` from ``c + 1``.
_PAST = {">=": 0, "<=": 1, "==": 1}


class _Runtime:
    """Index structures for fast stepping of one network, and the moves
    explored on it so far (see :meth:`successors`)."""

    def __init__(self, net: NetworkModel):
        self.net = net
        self.var_pos = {name: i for i, (name, _) in enumerate(net.int_vars)}
        self.init_ints = tuple(value for _, value in net.int_vars)
        # clock_slots[ai] = {clock name: slot} for automaton ai's clocks
        self.clock_slots: list[dict[str, int]] = []
        self.n_clocks = 0
        for ta in net.automata:
            self.clock_slots.append({name: self.n_clocks + i for i, name in enumerate(ta.clocks)})
            self.n_clocks += len(ta.clocks)
        self.channel_mode = {c.name: c.mode for c in net.channels}

        # caps[slot] = the largest threshold of an atom on that clock, 0 if none.
        caps = [0] * self.n_clocks

        # locs[ai][location] = (kind, silent and send edges, channel ->
        # receive edges).  Each edge there is (clock tests, int tests,
        # channel or None, part).
        self.locs: list[dict[str, tuple]] = []
        receivers: dict[str, set[int]] = {}
        # For settling: writes[0 or 1, slot] = the values edges assign to a
        # clock or an int, writers[slot] = the automata that assign int slot;
        # sending[c] = the edges from a normal location that send c (silent
        # ones under None);
        # flow_at[ai][location] = the urgent flow channel sent there, if the
        # location passes (b) of the module docstring; only_at[ai][location]
        # = the channel and target of a committed location's one edge, if
        # it may fire alone; watch[ai] = the locations of both.
        self.writes: dict[tuple[int, int], set[int]] = {}
        self.writers: dict[int, set[int]] = {}
        self.sending: dict[str | None, list] = {}
        flows = {c.name for c in net.channels if c.kind is ChannelKind.FLOW and c.mode == "urgent-binary"}
        hidden = erasure_set(net) | {None}
        self.flow_at: list[dict[str, str]] = []
        self.only_at: list[dict[str, tuple]] = []
        self.watch: list[dict[str, str | tuple]] = []
        # For (a): (automaton, its committed locations); for (f): the edges
        # from a normal location into a committed one, as sending entries and
        # as the channels they receive.
        self.committed: list[tuple[int, set[str]]] = []
        self.entering: tuple[list, list] = ([], [])
        for ai, ta in enumerate(net.automata):
            clocks = self.clock_slots[ai]
            flow_at: dict[str, str] = {}
            local: dict[str, list] = {loc.id: [] for loc in ta.locations}
            receive: dict[str, dict[str, list]] = {loc.id: {} for loc in ta.locations}
            committed = {loc.id for loc in ta.locations if loc.kind is _COMMITTED}
            for ei, edge in enumerate(ta.edges):
                channel = edge.sync.channel if edge.sync else None
                if edge.guard is None and not edge.updates:
                    entry = ((), (), channel, (ai, ei, edge.target, (), ()))
                else:
                    clock_tests, int_tests, clock_updates, int_updates = [], [], {}, []
                    for atom in edge.guard.atoms if edge.guard is not None else ():
                        if isinstance(atom, ClockAtom):
                            slot = clocks[atom.clock]
                            caps[slot] = max(caps[slot], atom.const + _PAST[atom.op])
                            clock_tests.append((slot, _RELATIONS[atom.op], atom.const))
                        else:
                            positions = tuple(self.var_pos[v] for v in atom.variables)
                            int_tests.append((positions, _RELATIONS[atom.op], atom.const))
                    for upd in edge.updates:
                        key = (0, clocks[upd.target]) if upd.target in clocks else (1, self.var_pos[upd.target])
                        if key[0] == 0:
                            clock_updates[key[1]] = upd.value
                        else:
                            int_updates.append((key[1], upd.value))
                            self.writers.setdefault(key[1], set()).add(ai)
                        self.writes.setdefault(key, set()).add(upd.value)
                    part = (ai, ei, edge.target, tuple(clock_updates.items()), tuple(int_updates))
                    entry = (tuple(clock_tests), tuple(int_tests), channel, part)
                receives = channel is not None and edge.sync.direction == "receive"
                if committed and edge.target in committed and edge.source not in committed:
                    self.entering[receives].append(channel if receives else entry)
                if receives:
                    receive[edge.source].setdefault(channel, []).append(entry)
                    receivers.setdefault(channel, set()).add(ai)
                else:
                    local[edge.source].append(entry)
                    if edge.source not in committed:  # by (a) and (f), never first
                        self.sending.setdefault(channel, []).append(entry)
                    if channel in flows:
                        flow_at[edge.source] = channel
            self.locs.append({loc.id: (loc.kind, local[loc.id], receive[loc.id]) for loc in ta.locations})
            flow_at = flow_at and {
                loc: c
                for loc, c in flow_at.items()
                if len(local[loc]) == 1 and local[loc][0][:2] == ((), ()) and local[loc][0][3][3:] == ((), ())
                and self.locs[ai][loc][0] is _NORMAL
                and all(self.channel_mode.get(d) == "broadcast" for d in receive[loc])
            }
            only_at = {
                loc: (local[loc][0][2], local[loc][0][3][2])
                for loc in committed
                if len(local[loc]) == 1 and not receive[loc] and local[loc][0][:2] == ((), ())
                and local[loc][0][3][3:] == ((), ()) and local[loc][0][2] in hidden
            }
            self.flow_at.append(flow_at)
            self.only_at.append(only_at)
            self.watch.append({**flow_at, **only_at} if only_at else flow_at)
            if committed:
                self.committed.append((ai, committed))
        self.receivers = {channel: tuple(sorted(autos)) for channel, autos in receivers.items()}
        # flows[c] = the one automaton that receives urgent flow channel c
        self.flows = {c: autos[0] for c, autos in self.receivers.items() if c in flows and len(autos) == 1}
        self.clock_caps = tuple(caps)
        # configs[i] is the configuration with id i; moves[i] its moves and
        # settled_moves[i] its settled moves, or None.
        self.ids: dict[Configuration, int] = {}
        self.configs: list[Configuration] = []
        self.moves: list[tuple | None] = []
        self.settled_moves: list[tuple | None] = []
        self.ticking: set[int] = set()
        # memos of _pair, _wait, _sent and _entered, filled as hand-offs are
        # checked
        self.pairs: dict[tuple[int, str, str], tuple | None] = {}
        self.waits: dict[tuple[int, str], tuple | None] = {}
        self.sent: dict[str, list] = {}
        self.entered: tuple | None = None

    def intern(self, cfg: Configuration) -> int:
        index = self.ids.get(cfg)
        if index is None:
            index = self.ids[cfg] = len(self.configs)
            self.configs.append(cfg)
            self.moves.append(None)
            self.settled_moves.append(None)
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
        return self._expand(state, self.moves, None) if out is None else out

    def settled(self, state: int) -> tuple:
        """:meth:`successors`, each move followed by the moves that
        :meth:`_settle` fires; a memo of its own over the same ids."""
        out = self.settled_moves[state]
        return self._expand(state, self.settled_moves, self) if out is None else out

    def _expand(self, state: int, memo: list, rt: _Runtime | None) -> tuple:
        """The moves of ``state`` into ``memo``, each settled by ``rt`` if
        given (see ``_fire``)."""
        cfg = self.configs[state]
        moves, tick = enabled_steps(self.net, cfg)
        # No guard tells apart a clock's values at or beyond its cap, now
        # or after any delay, so capping each clock there loses nothing and
        # keeps the configuration space finite.
        caps = self.clock_caps
        out = [(label, self.intern(_fire(cfg, parts, caps, rt))) for label, parts in moves]
        if tick:
            self.ticking.add(state)
            # every interned clock is at or below its cap already
            clocks = tuple([v + 1 if v < cap else v for v, cap in zip(cfg.clocks, caps)])
            out.append((None, self.intern(Configuration(cfg.locations, cfg.ints, clocks))))
        out = memo[state] = tuple(out)
        return out

    def _settle(self, locations: list, values: tuple, todo: list) -> list:
        """``locations``, just reached by the move of the automata ``todo``,
        after every move that settles has fired: while one automaton is
        committed, its only move, and once none is, each hand-off that
        passes the test of the module docstring, those of the automata that
        moved first; ``values`` are the clocks and ints.  A loop that comes
        back to locations it met stops there."""
        flow_at, seen, committed = self.flow_at, {tuple(locations)}, []
        for x, locs in self.committed:
            if locations[x] in locs:
                committed.append(x)
        if committed:  # those of todo have no hand-off to check where they are
            todo = [x for x in todo if x not in committed]
        while committed:
            step = len(committed) == 1 and self._only_move(locations, a := committed[0])
            if not step:
                return locations
            b, ta, tb = step
            locations[a], locations[b] = ta, tb
            now = tuple(locations)
            if now in seen:
                return locations
            seen.add(now)
            moved = (a,) if a == b else (a, b)
            committed = [x for x in moved if self.locs[x][now[x]][0] is _COMMITTED]
            todo += [x for x in moved if now[x] in flow_at[x]]
        while todo:
            step = self._handoff(locations, values, a := todo.pop())
            if step is not None:
                b, ta, tb = step
                locations[a], locations[b] = ta, tb
                now = tuple(locations)
                if now in seen:
                    break
                seen.add(now)
                todo += [x for x in (a, b) if now[x] in flow_at[x]]
        return locations

    def _only_move(self, locations: list, a: int) -> tuple | None:
        """(receiver, ``a``'s target, receiver's target) of the move of the
        only committed automaton ``a``, if it is at a location of
        ``only_at`` and, for a send, exactly one receive edge, without guard
        or update, is where its automaton is; for a silent edge the
        receiver is ``a`` and both targets are its one.  That move is then
        the only one of the configuration."""
        move = self.only_at[a].get(locations[a])
        if move is None:
            return None
        channel, ta = move
        if channel is None:
            return a, ta, ta
        found = None
        for b in self.receivers.get(channel, ()):
            for clock_tests, int_tests, _, part in self.locs[b][locations[b]][2].get(channel, ()):
                if found or clock_tests or int_tests or part[3:] != ((), ()):
                    return None
                found = part
        return found and (found[0], ta, found[2])

    def _handoff(self, locations: list, values: tuple, a: int) -> tuple | None:
        """(receiver, sender's target, receiver's target) of the hand-off
        that automaton ``a`` sends from where it is, if one passes (b)-(f),
        where no automaton is committed."""
        b = self.flows.get(self.flow_at[a].get(locations[a]))
        if b is None:
            return None
        key = (a, locations[a], locations[b])
        pair = self.pairs[key] if key in self.pairs else self._pair(*key)
        if pair is None or not self._quiet(pair[2], locations, values, {a, b}, pair[3]):
            return None
        return b, pair[0], pair[1]

    def _quiet(self, entries: tuple, locations: list, values: tuple, still: set, sums: tuple = ()) -> bool:
        """Whether no edge of ``entries`` (``_sent`` entries) or ``sums``
        (see ``_summed``) can fire before time passes or an automaton of
        ``still`` (A, B and those shown to wait) moves: a test of the edge
        is false, or its automaton cannot move first, since it waits (see
        ``_wait``) only for edges that cannot fire first.  Those automata
        are added to ``still``."""
        stack, waits = [entries], self.waits
        while stack:
            for tests, y in stack.pop():
                if y in still:
                    continue
                for kind, i, holds, const in tests:
                    if not holds(values[kind][i], const):
                        break
                else:
                    wait = waits[key] if (key := (y, locations[y])) in waits else self._wait(*key)
                    if wait is None:
                        return False
                    still.add(y)
                    stack.append(wait)
        return not sums or self._summed(sums, locations, values, still)

    def _summed(self, sums: tuple, locations: list, values: tuple, still: set) -> bool:
        """Whether no edge of ``sums``, the sent or silent edges of (f), can
        fire first: a test of its guard other than a sum is false, an int of
        a sum keeps a value with which the sum cannot hold (see
        ``_entered``), its writers being still, or else its automaton is
        still.  The writers of each such int are tried in turn, by a walk of
        their own that ``still`` keeps only if it passes."""
        ints = values[1]
        for tests, y, pins in sums:
            if y in still or not all(holds(values[kind][i], const) for kind, i, holds, const in tests):
                continue
            for p, allowed, writers in pins:
                if ints[p] not in allowed and self._quiet(writers, locations, values, trial := set(still)):
                    still |= trial
                    break
            else:
                if not self._quiet((((), y),), locations, values, still):
                    return False
        return True

    def _pair(self, a: int, la: str, lb: str) -> tuple | None:
        """The static part of the test for the hand-off from automaton ``a``
        at ``la`` to the receiver at ``lb``: None if it can never pass,
        else both targets, the ``_sent`` entries, of automata other than A
        and B, that must not fire, for (d), (e) and (f), and the sent or
        silent edges of (f) (see ``_entered``)."""
        c = self.flow_at[a][la]
        b = self.flows[c]
        out = self.pairs[a, la, lb] = None
        kind, local, receive = self.locs[b][lb]
        takes = receive.get(c, ())
        if kind is not _NORMAL or local or len(takes) != 1 or takes[0][:2] != ((), ()):
            return out
        ta, tb = self.locs[a][la][1][0][3][2], takes[0][3][2]
        mode = self.channel_mode
        if takes[0][3][3:] != ((), ()) or any(mode.get(d) != "broadcast" for d in receive if d != c):
            return out
        if self.locs[a][ta][0] is not _NORMAL or self.locs[b][tb][0] is not _NORMAL:
            return out
        moving = set()  # (e): broadcasts that move A or B there
        for x, loc in ((a, la), (b, lb), (a, ta), (b, tb)):
            for d, entries in self.locs[x][loc][2].items():
                for *_, part in entries if mode.get(d) == "broadcast" else ():
                    if part[2:] != (loc, (), ()):
                        moving.add(d)
        taken, sums = self._entered()
        groups = self._sent(c), *map(self._sent, moving), taken
        entries = tuple(dict.fromkeys(e for g in groups for e in g if e[1] not in (a, b)))
        out = self.pairs[a, la, lb] = (ta, tb, entries, tuple(e for e in sums if e[1] not in (a, b)))
        return out

    def _wait(self, y: int, loc: str) -> tuple | None:
        """What automaton ``y`` at ``loc`` waits for, kept in ``waits``: None
        if it can move by itself there (a silent or send edge, or a
        committed location), else the ``_sent`` entries of everything it
        receives there."""
        kind, local, receive = self.locs[y][loc]
        wait = None if local or kind is _COMMITTED else tuple(dict.fromkeys(e for d in receive for e in self._sent(d)))
        self.waits[y, loc] = wait
        return wait

    def _entered(self) -> tuple:
        """For (f), the edges that enter a committed location: the ``_sent``
        entries of what those received take, and each sent or silent one as
        ``(tests, automaton, pins)`` with its ``_held`` tests; kept in
        ``entered``.

        A pin ``(slot, allowed, writers)`` reads one int of a sum in the
        guard: the sum can hold only if the int holds a value of
        ``allowed``, every other int ranging over its initial value and the
        values written to it.  An edge whose sum can never hold is left
        out."""
        if self.entered is None:
            sends, channels = self.entering
            ranges = [{v, *self.writes.get((1, p), ())} for p, v in enumerate(self.init_ints)]
            sums = []
            for entry in sends:
                pins = []
                for ps, holds, const in entry[1]:
                    for i, p in enumerate(ps) if len(ps) > 1 else ():
                        others = {0}
                        for q in ps[:i] + ps[i + 1:]:
                            others = {s + v for s in others for v in ranges[q]}
                        allowed = frozenset(v for v in ranges[p] if any(holds(v + s, const) for s in others))
                        pins.append((p, allowed, tuple(((), w) for w in self.writers.get(p, ()))))
                if all(allowed for _, allowed, _ in pins):
                    sums.append((*self._held(entry), tuple(pins)))
            self.entered = [e for d in channels for e in self._sent(d)], sums
        return self.entered

    def _sent(self, d: str) -> list:
        """The ``_held`` entry of each edge that sends ``d``."""
        if d not in self.sent:
            self.sent[d] = list(map(self._held, self.sending.get(d, ())))
        return self.sent[d]

    def _held(self, entry: tuple) -> tuple:
        """``(tests, automaton)`` for a silent or send edge, where the tests
        are those of its guard on one clock or int that no assignment makes
        true, each as (0 for a clock or 1 for an int, slot, relation,
        constant)."""
        clock_tests, int_tests, _, part = entry
        tests = [(0, *test) for test in clock_tests] if clock_tests else []
        tests += [(1, ps[0], holds, const) for ps, holds, const in int_tests if len(ps) == 1]
        return tuple(t for t in tests if not any(t[2](v, t[3]) for v in self.writes.get(t[:2], ()))), part[0]


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
    moves: list = []
    senders: dict[str, list[tuple]] = {}
    for ai, loc in enumerate(locations):
        kind, local, _ = rt.locs[ai][loc]
        if kind is _COMMITTED:
            committed.add(ai)
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
            for clock_tests, int_tests, _, part in rt.locs[rj][locations[rj]][2].get(channel, ())
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
    return moves, not (committed or urgent_pair)


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


def _fire(cfg: Configuration, parts, caps: tuple[int, ...] | None = None, rt: _Runtime | None = None) -> Configuration:
    """``cfg`` after the edges of ``parts`` fire together, each clock they
    assign capped at ``caps`` if given; settled by runtime ``rt`` if given
    and an automaton of ``parts`` lands where a hand-off may start."""
    locations, ints, clocks = cfg
    locations = list(locations)
    new_ints = new_clocks = None
    watch, pending = rt and rt.watch, []
    for ai, _, target, clock_updates, int_updates in parts:
        locations[ai] = target
        if watch and target in watch[ai]:
            pending.append(ai)
        if int_updates:
            new_ints = new_ints or list(ints)
            for slot, value in int_updates:
                new_ints[slot] = value
        if clock_updates:
            new_clocks = new_clocks or list(clocks)
            for slot, value in clock_updates:
                new_clocks[slot] = value if caps is None else min(value, caps[slot])
    ints = ints if new_ints is None else tuple(new_ints)
    clocks = clocks if new_clocks is None else tuple(new_clocks)
    if pending:
        locations = rt._settle(locations, (clocks, ints), pending)
    return Configuration(tuple(locations), ints, clocks)


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
    return subset_graph(_start(rt), rt.settled, depth, hidden=erasure_set(net), state_cap=state_cap)


def timelock_witnesses(
    net: NetworkModel, *, observable_depth: int = 4, state_cap: int = 500_000
) -> list[Configuration]:
    """Configurations reachable within ``observable_depth`` recorded
    non-coordinating actions from which no sequence of moves re-enables
    the passage of time.  Empty on a healthy translation."""
    rt = _runtime(net)
    stuck = cannot_reach(
        _start(rt),
        rt.settled,
        observable_depth,
        rt.ticking.__contains__,
        hidden=erasure_set(net),
        state_cap=state_cap,
    )
    return sorted(rt.configs[state] for state in stuck)
