"""Settling: the reduced graph that ``network_traces`` and
``timelock_witnesses`` search must give the answers of the full graph,
and every hand-off it fires must be globally confluent."""

from pathlib import Path

import pytest

from tockta import taexec
from tockta.cspast import CspSpec
from tockta.harness import generate_corpus
from tockta.lts import cannot_reach, subset_graph
from tockta.parser import parse, parse_file
from tockta.tamodel import (
    Assignment,
    ChannelDecl,
    ChannelKind,
    Edge,
    GuardExpr,
    IntAtom,
    Location,
    LocationKind,
    NetworkModel,
    SyncLabel,
    TimedAutomaton,
    erasure_set,
)
from tockta.taexec import network_traces, timelock_witnesses
from tockta.translate import assemble

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def family(n):
    """``MAIN = P0 ||| ... ||| P(n-1)`` with ``Pi = ai -> tock -> bi -> Pi``."""
    return parse(
        "MAIN = " + " ||| ".join(f"P{i}" for i in range(n)) + "\n"
        + "".join(f"P{i} = a{i} -> tock -> b{i} -> P{i}\n" for i in range(n))
    )


def fixture_specs():
    return [parse_file(str(path)) for path in sorted(FIXTURES.glob("*.tcsp"))]


def full_search(net, depth):
    """Erased traces and timelock witnesses of the full graph, searched by
    ``_Runtime.successors``, which fires no hand-off on its own."""
    rt = taexec._runtime(net)
    hidden, start = erasure_set(net), taexec._start(rt)
    traces = subset_graph(start, rt.successors, depth, hidden=hidden, state_cap=500_000)
    stuck = cannot_reach(start, rt.successors, 4, rt.ticking.__contains__, hidden=hidden, state_cap=500_000)
    return traces, sorted(rt.configs[state] for state in stuck)


def settled_steps(net, depth):
    """The erased traces and timelock witnesses of the settled search, and
    each hand-off it fired as (configuration, sender, receiver, sender's
    target, receiver's target)."""
    taexec._runtime.cache_clear()
    rt = taexec._runtime(net)
    steps, handoff = [], rt._handoff

    def recording(locations, values, a):
        step = handoff(locations, values, a)
        if step is not None:
            clocks, ints = values
            steps.append((taexec.Configuration(tuple(locations), ints, clocks), a, *step))
        return step

    rt._handoff = recording
    try:
        return network_traces(net, depth), timelock_witnesses(net), steps
    finally:
        del rt._handoff


def assert_settling_is_exact(net, depth):
    traces, stuck, steps = settled_steps(net, depth)
    full_traces, full_stuck = full_search(net, depth)
    assert traces == full_traces
    assert set(stuck) <= set(full_stuck) and bool(stuck) == bool(full_stuck)
    return steps, stuck


def test_settled_and_full_searches_agree_on_the_corpus_and_every_mutant(workloads):
    stuck_in = []
    checked = 0
    for entry in generate_corpus():
        process = entry.spec.definitions["P"]
        specs = [entry.spec] + [CspSpec(definitions={"P": m}, main="P") for m in workloads.mutants(process)]
        for i, spec in enumerate(specs):
            _, stuck = assert_settling_is_exact(assemble(spec), workloads.CORPUS_DEPTH)
            if stuck:
                stuck_in.append(entry.id)
            checked += i > 0
    assert checked == 1384
    assert stuck_in == ["c142", "c145", "c147", "c155"]


@pytest.mark.parametrize(
    "spec, depth",
    [(spec, 10) for spec in fixture_specs()] + [(family(n), d) for n, d in ((1, 10), (2, 10), (3, 8), (4, 6), (3, 9))],
    ids=[path.stem for path in sorted(FIXTURES.glob("*.tcsp"))] + ["n1d10", "n2d10", "n3d8", "n4d6", "n3d9"],
)
def test_settled_and_full_searches_agree_on_the_fixtures_and_the_family(spec, depth):
    _, stuck = assert_settling_is_exact(assemble(spec), depth)
    assert not stuck


def confluent_hand_offs(net):
    """The greatest set T of tau moves over the full reachable graph such
    that for each (s, t) in T and each move s -a-> u, either a is tau and
    u = t, or t -a-> v with u = v or (u, v) in T.  Erased and silent moves
    are tau; a time tick is a visible label of its own."""
    rt = taexec._runtime(net)
    hidden, tick = erasure_set(net), object()
    out, stack = {}, [taexec._start(rt)]
    while stack:
        state = stack.pop()
        if state in out:
            continue
        moves = list(rt.successors(state))
        if state in rt.ticking:  # the tick is the last move
            moves[-1] = (tick, moves[-1][1])
        out[state] = {(None if label in hidden else label, succ) for label, succ in moves}
        stack += [succ for _, succ in moves]
    confluent = {(s, t) for s, moves in out.items() for label, t in moves if label is None}
    changed = True
    while changed:
        changed = False
        for s, t in list(confluent):
            if not all(
                (label is None and u == t)
                or any(label == other and (u == v or (u, v) in confluent) for other, v in out[t])
                for label, u in out[s]
            ):
                confluent.discard((s, t))
                changed = True
    return {(rt.configs[s], rt.configs[t]) for s, t in confluent}


@pytest.mark.parametrize(
    "spec",
    fixture_specs() + [entry.spec for entry in generate_corpus()] + [family(n) for n in (1, 2, 3)],
    ids=[path.stem for path in sorted(FIXTURES.glob("*.tcsp"))]
    + [entry.id for entry in generate_corpus()]
    + ["n1", "n2", "n3"],
)
def test_every_settled_hand_off_is_globally_confluent(spec):
    net = assemble(spec)
    _, _, steps = settled_steps(net, 8)
    confluent = confluent_hand_offs(net)
    for cfg, a, b, ta, tb in steps:
        locations = list(cfg.locations)
        locations[a], locations[b] = ta, tb
        assert (cfg, cfg._replace(locations=tuple(locations))) in confluent, (cfg, a, b)


# Hand-built networks.  A sends the visible x, then hands off on the
# urgent flow channel h to B, which then sends z.  Env receives every
# visible channel.  Each variant adds one hazard that must stop settling.

def _ta(name, edges, initial="s0", committed=()):
    ids = sorted({e.source for e in edges} | {e.target for e in edges} | {initial})
    kinds = {i: LocationKind.COMMITTED if i in committed else LocationKind.NORMAL for i in ids}
    return TimedAutomaton(name, tuple(Location(i, kinds[i]) for i in ids), initial, (), tuple(edges))


def _edge(source, target, channel=None, direction="send", guard=None, updates=()):
    sync = SyncLabel(channel, direction) if channel else None
    return Edge(source, target, GuardExpr(tuple(guard)) if guard else None, sync, tuple(updates))


A = _ta("A", [_edge("s0", "s1", "x"), _edge("s1", "s2", "h")])
B = _ta("B", [_edge("s0", "s1", "h", "receive"), _edge("s1", "s2", "z")])
#: A broadcasts go instead of sending x, and receives k after the hand-off
A_GO_K = _ta("A", [_edge("s0", "s1", "go"), _edge("s1", "s2", "h"), _edge("s2", "s3", "k", "receive")])
#: on go, moves on to the committed c1, where it sends k
C_GO_K = _ta("C", [_edge("s0", "s1", "go", "receive"), _edge("s1", "c1"), _edge("c1", "s2", "k")], committed=("c1",))


def _network(a=A, b=B, *extra, broadcasts=(), flows=("h",), unheard=(), ints=()):
    """A, B and ``extra``, and Env receiving every binary channel but the
    ``unheard`` ones."""
    automata = [a, b, *extra]
    sent = {e.sync.channel for ta in automata for e in ta.edges if e.sync and e.sync.direction == "send"}
    visible = sorted(sent - set(flows) - set(broadcasts) - set(unheard))
    automata.append(_ta("Env", [_edge("s0", "s0", c, "receive") for c in visible]))
    channels = [ChannelDecl(c, "binary", ChannelKind.USER_EVENT) for c in [*visible, *unheard]]
    channels += [ChannelDecl(c, "broadcast", ChannelKind.USER_EVENT) for c in broadcasts]
    channels += [ChannelDecl(c, "urgent-binary", ChannelKind.FLOW) for c in flows]
    return NetworkModel(tuple(automata), tuple(channels), tuple(ints), environment_index=len(automata) - 1)


def test_a_plain_hand_off_settles():
    steps, _ = assert_settling_is_exact(_network(), 4)
    assert [(cfg.locations, a, b) for cfg, a, b, *_ in steps] == [(("s1", "s0", "s0"), 0, 1)]


@pytest.mark.parametrize(
    "net",
    [
        # (c) a second automaton that can receive h
        _network(A, B, _ta("B2", [_edge("s0", "s1", "h", "receive"), _edge("s1", "s2", "w")])),
        # (d) a second sender of h, enabled only after a silent move
        _network(A, B, _ta("A2", [_edge("s0", "s1"), _edge("s1", "s2", "h"), _edge("s2", "s3", "v")])),
        # (d) a second sender of h, enabled now
        _network(A, B, _ta("A2", [_edge("s0", "s1", "h"), _edge("s1", "s2", "v")])),
        # (e) a broadcast without guard that moves B after the hand-off only
        _network(
            A,
            _ta("B", [_edge("s0", "s1", "h", "receive"), _edge("s1", "s2", "z"), _edge("s1", "s3", "bc", "receive")]),
            _ta("S", [_edge("s0", "s0", "bc")]),
            broadcasts=("bc",),
        ),
        # (e) the same broadcast, guarded by g==1, which g:=1 makes true
        _network(
            A,
            _ta("B", [_edge("s0", "s1", "h", "receive"), _edge("s1", "s2", "z"), _edge("s1", "s3", "bc", "receive")]),
            _ta("S", [_edge("s0", "s0", "bc", guard=[IntAtom(("g",), "==", 1)])]),
            _ta("T", [_edge("s0", "s1", updates=[Assignment("g", 1)])]),
            broadcasts=("bc",),
            ints=(("g", 0),),
        ),
        # (e) a broadcast whose receive after the hand-off is a self-loop
        # that assigns g, which w reads
        _network(
            A,
            _ta(
                "B",
                [
                    _edge("s0", "s1", "h", "receive"),
                    _edge("s1", "s1", "bc", "receive", updates=[Assignment("g", 1)]),
                    _edge("s1", "s2", "w", guard=[IntAtom(("g",), "==", 0)]),
                ],
            ),
            _ta("S", [_edge("s0", "s0", "bc")]),
            broadcasts=("bc",),
            ints=(("g", 0),),
        ),
        # (b) a send whose guard only the visible t makes true
        _network(
            _ta("A", [_edge("s0", "s1", "x"), _edge("s1", "s2", "h", guard=[IntAtom(("g",), "==", 1)])]),
            B,
            _ta("T", [_edge("s0", "s1", "t", updates=[Assignment("g", 1)])]),
            ints=(("g", 0),),
        ),
        # (d) a second sender of h, enabled once it receives r, which R sends
        _network(
            A,
            B,
            _ta("A2", [_edge("s0", "s1", "r", "receive"), _edge("s1", "s2", "h"), _edge("s2", "s3", "v")]),
            _ta("R", [_edge("s0", "s1", "r")]),
            unheard=("r",),
        ),
        # (a) the move that makes the hand-off pending leaves C committed
        # where nothing can take it on: the hand-off waits for ever
        _network(
            _ta("A", [_edge("s0", "s1", "go", "receive"), _edge("s1", "s2", "h")]),
            B,
            _ta("C", [_edge("s0", "c1", "go", "receive"), _edge("c1", "s0", "never", "receive")], committed=("c1",)),
            _ta("S", [_edge("s0", "s1", "go")]),
            broadcasts=("go",),
            unheard=("never",),
        ),
        # (f) an automaton that can enter a committed location, and send
        # there what A receives only after the hand-off
        _network(A_GO_K, B, C_GO_K, broadcasts=("go",), unheard=("k",)),
        # (f) an automaton that can always move, into a committed location
        _network(A, B, _ta("X", [_edge("s0", "c1"), _edge("c1", "s0")], committed=("c1",))),
    ],
    ids=[
        "second-receiver",
        "sender-enabled-later",
        "sender-enabled-now",
        "broadcast-moves-B",
        "guard-made-true",
        "broadcast-assigns",
        "guarded-send",
        "sender-enabled-by-receive",
        "committed-now",
        "committed-sender",
        "committed-always-possible",
    ],
)
def test_a_hazard_stops_settling(net):
    steps, _ = assert_settling_is_exact(net, 5)
    assert steps == []


def test_a_sender_that_can_always_move_may_still_hand_off():
    # A can move, or is committed, wherever it is, but stays put until its
    # hand-off fires
    edges = [_edge("s0", "s1", "x"), _edge("s1", "s2", "h"), _edge("s2", "c1"), _edge("c1", "s0")]
    a = _ta("A", edges, committed=("c1",))
    net = _network(a)
    steps, _ = assert_settling_is_exact(net, 4)
    assert taexec._runtime(net).blockers == {0} and len(steps) == 1


def test_the_committed_hazard_is_a_timelock_only_before_the_hand_off():
    # C stuck in c1 waits for A to receive k, and A for the hand-off,
    # which waits while C is committed; had the hand-off fired on go, C
    # would never be stuck
    _, stuck, _ = settled_steps(_network(A_GO_K, B, C_GO_K, broadcasts=("go",), unheard=("k",)), 4)
    assert [cfg.locations for cfg in stuck] == [("s1", "s0", "c1", "s0")]


def test_a_cycle_of_hand_offs_stops_and_keeps_a_configuration():
    # after x, A and B hand h1 and h2 back and forth for ever
    a = _ta("A", [_edge("s0", "a0", "x"), _edge("a0", "a1", "h1"), _edge("a1", "a0", "h2", "receive")])
    b = _ta("B", [_edge("b0", "b1", "h1", "receive"), _edge("b1", "b0", "h2")], initial="b0")
    steps, stuck = assert_settling_is_exact(_network(a, b, flows=("h1", "h2")), 3)
    assert steps and stuck  # time never passes the urgent pairs again


# The hand-off test as first written, kept as a reference for the compiled
# one: ``_pair``'s groups of ``_sent`` entries, A's and B's included, with
# the committed-automaton scan, walked with each waiting automaton's
# receives looked up at every step.

def reference_groups(rt, a, la, lb):
    """Both targets and the groups of ``_sent`` entries that must not fire
    for the hand-off from ``a`` at ``la`` to the receiver at ``lb``, or
    None if it can never pass."""
    normal, committed_kind = LocationKind.NORMAL, LocationKind.COMMITTED
    c = rt.flow_at[a][la]
    b = rt.flows[c]
    kind, local, receive = rt.locs[b][lb]
    takes = receive.get(c, ())
    if kind is not normal or local or len(takes) != 1 or takes[0][:2] != ((), ()):
        return None
    ta, tb = rt.locs[a][la][1][0][3][2], takes[0][3][2]
    mode = rt.channel_mode
    if takes[0][3][3:] != ((), ()) or any(mode.get(d) != "broadcast" for d in receive if d != c):
        return None
    if rt.locs[a][ta][0] is not normal or rt.locs[b][tb][0] is not normal:
        return None
    committed = [x for x, locs in enumerate(rt.locs) if any(e[0] is committed_kind for e in locs.values())]
    blockers = {x for x in committed if all(e[0] is committed_kind or e[1] for e in rt.locs[x].values())}
    if blockers - {a}:
        return None
    moving = set()
    for x, loc in ((a, la), (b, lb), (a, ta), (b, tb)):
        for d, entries in rt.locs[x][loc][2].items():
            for *_, part in entries if mode.get(d) == "broadcast" else ():
                if part[2:] != (loc, (), ()):
                    moving.add(d)
    return ta, tb, (rt._sent(c), *map(rt._sent, moving), tuple(((), x) for x in committed))


def reference_walk(rt, groups, locations, values, a, b, reached=None):
    """Whether no entry of ``groups`` can fire first.  If ``reached`` is a
    set, the walk does not stop at the first automaton that can move: it
    adds every (automaton, location) whose wait any walk order could read."""
    still, stack = {a, b}, list(groups)
    quiet = True
    while stack:
        for tests, y in stack.pop():
            if y in still or not all(holds(values[kind][i], const) for kind, i, holds, const in tests):
                continue
            kind, local, receive = rt.locs[y][locations[y]]
            if reached is not None:
                reached.add((y, locations[y]))
            if local or kind is LocationKind.COMMITTED:
                quiet = False
                if reached is None:
                    return False
                continue
            still.add(y)
            stack += map(rt._sent, receive)
    return quiet


def reference_handoff(rt, locations, values, a, reached=None):
    b = rt.flows.get(rt.flow_at[a].get(locations[a]))
    if b is None:
        return None
    pair = reference_groups(rt, a, locations[a], locations[b])
    if pair is None or not reference_walk(rt, pair[2], locations, values, a, b, reached):
        return None
    return b, pair[0], pair[1]


def compared_checks(net, depth):
    """Search ``net`` as ``network_traces`` and ``timelock_witnesses`` do,
    on a fresh runtime, asserting at each hand-off check that the compiled
    test gives the reference's verdict; the runtime, the verdicts in order,
    and every (automaton, location) a walk of the reference could read."""
    taexec._runtime.cache_clear()
    rt = taexec._runtime(net)
    assert (rt.pairs, rt.waits, rt.sent) == ({}, {}, {})
    verdicts, reached, handoff = [], set(), rt._handoff

    def comparing(locations, values, a):
        step = handoff(locations, values, a)
        assert step == reference_handoff(rt, locations, values, a), (locations, values, a)
        reference_handoff(rt, locations, values, a, reached)
        verdicts.append(step is not None)
        return step

    rt._handoff = comparing
    try:
        network_traces(net, depth)
        timelock_witnesses(net)
    finally:
        del rt._handoff
    return rt, verdicts, reached


def test_the_compiled_hand_off_test_agrees_with_the_reference(workloads):
    verdicts = []
    families = [(family(n), d) for n, d in ((1, 10), (2, 10), (3, 8), (4, 6))]
    for spec, depth in [(spec, 10) for spec in fixture_specs()] + families:
        verdicts += compared_checks(assemble(spec), depth)[1]
    # hand-built: a committed automaton that waits, and one that can move
    committed_now = _network(
        _ta("A", [_edge("s0", "s1", "go", "receive"), _edge("s1", "s2", "h")]),
        B,
        _ta("C", [_edge("s0", "c1", "go", "receive"), _edge("c1", "s0", "never", "receive")], committed=("c1",)),
        _ta("S", [_edge("s0", "s1", "go")]),
        broadcasts=("go",),
        unheard=("never",),
    )
    for net in (_network(), committed_now, _network(A_GO_K, B, C_GO_K, broadcasts=("go",), unheard=("k",))):
        verdicts += compared_checks(net, 5)[1]
    mutants = 0
    for entry in generate_corpus():
        variants = workloads.mutants(entry.spec.definitions["P"])
        mutants += len(variants)
        for spec in [entry.spec] + [CspSpec(definitions={"P": m}, main="P") for m in variants]:
            verdicts += compared_checks(assemble(spec), workloads.CORPUS_DEPTH)[1]
    assert mutants == 1384
    # both verdicts are well exercised; the settled graph fixes how often
    assert (verdicts.count(True), verdicts.count(False)) == (5207, 1410)


def test_the_wait_table_holds_only_what_the_searches_checked():
    net = assemble(family(4))
    rt, verdicts, reached = compared_checks(net, 6)
    assert len(verdicts) == 1280
    locations = {(y, loc.id) for y, ta in enumerate(net.automata) for loc in ta.locations}
    assert rt.waits and set(rt.waits) <= reached < locations


def test_a_network_that_never_settles_builds_no_wait_entries():
    # ads has a parallel-synchronisation controller, which blocks (f)
    rt, verdicts, _ = compared_checks(assemble(parse_file(str(FIXTURES / "ads.tcsp"))), 10)
    assert rt.blockers and not any(rt.flow_at)
    assert verdicts == [] and rt.pairs == {} and rt.waits == {}
