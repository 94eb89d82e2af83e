import os
import re
import subprocess
import sys
from collections import Counter
from functools import cache
from itertools import product
from operator import eq, ge, gt, le, lt
from pathlib import Path

import pytest

from tockta import taexec
from tockta.cspast import Skip, Stop
from tockta.harness import generate_corpus
from tockta.lts import reachable, subset_graph
from tockta.parser import parse, parse_file
from tockta.semantics import BoundExceeded, csp_traces
from tockta.tamodel import (
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
    erasure_set,
)
from tockta.taexec import (
    apply_step,
    enabled_steps,
    initial_configuration,
    network_traces,
    raw_network_traces,
    timelock_witnesses,
)
from tockta.translate import assemble
from tockta.uppaalxml import XmlLoadError, load

from test_uppaalxml import clock_guarded_document

ADS = parse(
    "ADS = Controller [|{close}|] Lighting\n"
    "Controller = open -> tock -> close -> Controller\n"
    "Lighting = close -> offLight -> Lighting\n"
)


def reachable_configurations(net, observable_depth, *, state_cap=500_000):
    """Configurations reachable while recording at most ``observable_depth``
    non-coordinating actions, read back from the executor's interned ids."""
    rt = taexec._runtime(net)
    found = reachable(
        taexec._start(rt), rt.successors, observable_depth, hidden=erasure_set(net), state_cap=state_cap
    )
    return frozenset(rt.configs[state] for state in found)


def interleaved_cycles(n):
    """``MAIN = P0 ||| ... ||| P(n-1)`` with ``Pi = ai -> tock -> bi -> Pi``."""
    return parse(
        "MAIN = " + " ||| ".join(f"P{i}" for i in range(n)) + "\n"
        + "".join(f"P{i} = a{i} -> tock -> b{i} -> P{i}\n" for i in range(n))
    )


THREE_CYCLES = interleaved_cycles(3)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def spelled(move):
    """A move as ``(label, ((automaton, edge), ...))``, the sender first."""
    label, parts = move
    return label, tuple((ai, ei) for ai, ei, *_ in parts)


def spelled_steps(net, cfg):
    moves, tick = enabled_steps(net, cfg)
    return [spelled(move) for move in moves], tick


def test_initial_steps_of_translated_stop_is_exactly_the_start():
    net = assemble(Stop())
    # the urgent start pair outruns time, and tock needs ck>=1 anyway
    assert spelled_steps(net, initial_configuration(net)) == ([("startID0_0", ((1, 0), (0, 0)))], False)


def test_tock_broadcast_enabled_after_start_and_one_tick():
    net = assemble(Stop())
    cfg = initial_configuration(net)
    (start,), _ = enabled_steps(net, cfg)
    cfg = apply_step(net, cfg, start)
    assert enabled_steps(net, cfg)[1]
    cfg = apply_step(net, cfg, None)
    assert spelled_steps(net, cfg) == ([("tock", ((1, 2), (0, 1)))], True)


def test_committed_location_blocks_unrelated_steps():
    committed_ta = TimedAutomaton(
        "C",
        (Location("s0"), Location("s1", LocationKind.COMMITTED)),
        "s1",
        (),
        (Edge("s1", "s0"),),
    )
    idle_ta = TimedAutomaton(
        "I", (Location("s0"), Location("s1")), "s0", (), (Edge("s0", "s1"),)
    )
    net = NetworkModel((committed_ta, idle_ta), (), ())
    assert spelled_steps(net, initial_configuration(net)) == ([(None, ((0, 0),))], False)


def test_time_tick_increments_clocks_and_moves_nobody():
    net = assemble(Stop())
    cfg = initial_configuration(net)
    (start,), _ = enabled_steps(net, cfg)
    cfg = apply_step(net, cfg, start)
    ticked = apply_step(net, cfg, None)
    assert ticked.locations == cfg.locations
    assert ticked.ints == cfg.ints
    assert ticked.clocks == tuple(v + 1 for v in cfg.clocks)


def test_start_edge_sets_the_restart_guard_variable():
    net = assemble(Stop())
    cfg = initial_configuration(net)
    (start,), _ = enabled_steps(net, cfg)
    after = apply_step(net, cfg, start)
    var_names = [name for name, _ in net.int_vars]
    assert after.ints[var_names.index("start")] == 1


def drive_until(net, cfg, predicate, limit=200):
    """Breadth-first search for a configuration satisfying the predicate."""
    frontier, seen = [cfg], {cfg}
    for _ in range(limit):
        nxt = []
        for state in frontier:
            if predicate(state):
                return state
            moves, tick = enabled_steps(net, state)
            for move in moves + [None] * tick:
                succ = apply_step(net, state, move)
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    raise AssertionError("no configuration found")


def test_sync_broadcast_moves_both_participants_and_resets_readiness():
    net = assemble(ADS)
    names = [name for name, _ in net.int_vars]
    gl, gr = names.index("g_close00_3"), names.index("g_close01_2")

    def both_ready(cfg):
        return cfg.ints[gl] == 1 and cfg.ints[gr] == 1

    cfg = drive_until(net, initial_configuration(net), both_ready)
    # the controller announces close, then releases the broadcast
    (close,) = [m for m in enabled_steps(net, cfg)[0] if m[0] == "close"]
    assert len(close[1]) == 2
    cfg = apply_step(net, cfg, close)
    (release,) = [m for m in enabled_steps(net, cfg)[0] if m[0] == "close___sync"]
    _, (_, *receivers) = spelled(release)
    assert len(receivers) == 2
    after = apply_step(net, cfg, release)
    assert after.ints[gl] == 0 and after.ints[gr] == 0
    for automaton, _ in receivers:
        assert after.locations[automaton] != cfg.locations[automaton]


def test_broadcast_fires_with_zero_receivers():
    sender = TimedAutomaton(
        "S",
        (Location("s0"), Location("s1")),
        "s0",
        (),
        (Edge("s0", "s1", sync=SyncLabel("shout", "send")),),
    )
    net = NetworkModel((sender,), (ChannelDecl("shout", "broadcast"),), ())
    assert ("shout", ((0, 0),)) in spelled_steps(net, initial_configuration(net))[0]


def test_raw_traces_of_translated_stop():
    net = assemble(Stop())
    assert raw_network_traces(net, 2).traces == frozenset(
        {(), ("startID0_0",), ("startID0_0", "tock")}
    )
    assert raw_network_traces(net, 0).traces == frozenset({()})


def test_raw_traces_of_ads_start_with_the_flow_chain():
    # starting the two operands is one committed compound action, so the
    # first event can only follow both branch starts
    got = raw_network_traces(assemble(ADS), 4).traces
    assert ("startIDADS", "startID00_1", "startID01_2", "open") in got
    assert not any("open" in t and "startID00_1" not in t for t in got)


def test_erased_traces_examples():
    assert network_traces(assemble(Stop()), 2).traces == frozenset(
        {(), ("tock",), ("tock", "tock")}
    )
    assert network_traces(assemble(Skip()), 1).traces == frozenset({(), ("tock",)})
    pe = assemble(parse("Pe = (left->STOP)[](right->STOP)"))
    assert network_traces(pe, 1).traces == frozenset(
        {(), ("tock",), ("left",), ("right",)}
    )


def test_erasure_is_exactly_strip_and_retruncate():
    for source in ("P = a -> tock -> b -> STOP", "Pe = (left->STOP)[](right->STOP)"):
        net = assemble(parse(source))
        depth = 3
        erased = erasure_set(net)
        # The source is guarded, so no cycle fires only coordinating
        # actions: between two observable actions each coordinating send
        # edge fires at most once, which bounds the raw depth needed.
        per_gap = sum(
            1
            for ta in net.automata
            for edge in ta.edges
            if edge.sync is not None and edge.sync.direction == "send" and edge.sync.channel in erased
        )
        raw = raw_network_traces(net, depth * (1 + per_gap) + per_gap)
        stripped = set()
        for trace in raw.traces:
            image = tuple(a for a in trace if a not in erased)[:depth]
            stripped.add(image)
        assert network_traces(net, depth).traces == frozenset(stripped)


def test_enabled_steps_is_a_pure_function():
    net = assemble(ADS)
    cfg = initial_configuration(net)
    assert enabled_steps(net, cfg) == enabled_steps(net, cfg)


def test_step_outside_its_source_location_is_a_programming_error():
    net = assemble(Stop())
    cfg = initial_configuration(net)
    (start,), _ = enabled_steps(net, cfg)
    after = apply_step(net, cfg, start)
    with pytest.raises(AssertionError):
        apply_step(net, after, start)


_REAPPLY_START_STEP = """
from tockta.cspast import Stop
from tockta.taexec import apply_step, enabled_steps, initial_configuration
from tockta.translate import assemble
net = assemble(Stop())
cfg = initial_configuration(net)
(start,), _ = enabled_steps(net, cfg)
after = apply_step(net, cfg, start)
try:
    apply_step(net, after, start)
except AssertionError:
    raise SystemExit(0)
raise SystemExit("fired a move that is not enabled")
"""


def test_step_outside_its_source_location_raises_under_optimisation():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(taexec.__file__).parents[1]), env.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, "-O", "-c", _REAPPLY_START_STEP],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr.decode()


def test_translated_networks_never_timelock():
    for source in (
        "P = STOP",
        "Pe = (left->STOP)[](right->STOP)",
        "Pi = (open->STOP)/\\(fire->close->STOP)",
    ):
        net = assemble(parse(source))
        assert timelock_witnesses(net, observable_depth=3) == []


def _silent_chain(kinds, final):
    """One automaton walking silently through locations of the given kinds
    into a last location of kind ``final``, which has no outgoing edge."""
    kinds = list(kinds) + [final]
    locations = tuple(Location(f"s{i}", kind) for i, kind in enumerate(kinds))
    edges = tuple(Edge(f"s{i}", f"s{i + 1}") for i in range(len(kinds) - 1))
    ta = TimedAutomaton("T", locations, "s0", (), edges)
    return NetworkModel((ta,), (), ())


def test_timelock_reports_a_dead_committed_location():
    net = _silent_chain([LocationKind.NORMAL], LocationKind.COMMITTED)
    (stuck,) = timelock_witnesses(net)
    assert stuck.locations == ("s1",)


@pytest.mark.parametrize(
    "search",
    [lambda net: timelock_witnesses(net, observable_depth=-1), lambda net: reachable_configurations(net, -1)],
    ids=["timelock_witnesses", "reachable"],
)
def test_a_negative_depth_is_refused(search):
    # reaching nothing, not even the start, would read as a healthy network
    with pytest.raises(ValueError, match="depth must be >= 0"):
        search(_silent_chain([LocationKind.NORMAL], LocationKind.COMMITTED))


def test_timelock_follows_a_long_committed_chain_to_time():
    # 25 committed silent edges, then a location where time passes
    net = _silent_chain([LocationKind.COMMITTED] * 25, LocationKind.NORMAL)
    assert len(reachable_configurations(net, 0)) == 26
    assert timelock_witnesses(net) == []


@pytest.mark.parametrize(
    "explore",
    [
        lambda: csp_traces(ADS, 4, state_cap=3),
        lambda: network_traces(assemble(ADS), 4, state_cap=3),
        lambda: raw_network_traces(assemble(ADS), 4, state_cap=3),
        lambda: timelock_witnesses(assemble(ADS), state_cap=3),
    ],
    ids=["csp_traces", "network_traces", "raw_network_traces", "timelock_witnesses"],
)
def test_state_cap_raises_instead_of_truncating(explore):
    # the result is never read: the cap must fire inside the engine call,
    # not later when a trace set is unfolded
    with pytest.raises(BoundExceeded):
        explore()


def test_reachable_configurations_cover_the_initial():
    net = assemble(Stop())
    assert initial_configuration(net) in reachable_configurations(net, 1)


def test_network_and_source_traces_agree_on_ads():
    net = assemble(ADS)
    for depth in (0, 1, 4):
        assert network_traces(net, depth).traces == csp_traces(ADS, depth).traces


def test_network_and_source_traces_agree_on_three_interleaved_cycles():
    assert network_traces(assemble(THREE_CYCLES), 9).traces == csp_traces(THREE_CYCLES, 9).traces


def test_each_automaton_is_hashed_at_most_once(monkeypatch):
    # The executor looks its per-network index up by the network's hash on
    # every step; the network must not be re-hashed on each lookup.
    spec = parse(
        "MAIN = P0 ||| P1\n"
        + "".join(f"P{i} = a{i} -> tock -> b{i} -> P{i}\n" for i in range(2))
    )
    net = assemble(spec)
    calls = 0
    structural_hash = TimedAutomaton.__hash__

    def counting_hash(self):
        nonlocal calls
        calls += 1
        return structural_hash(self)

    monkeypatch.setattr(TimedAutomaton, "__hash__", counting_hash)
    network_traces(net, 6)
    timelock_witnesses(net)
    assert calls <= len(net.automata)


_RELATION = {"<": lt, "<=": le, "==": eq, ">=": ge, ">": gt}


def reference_slots(net):
    """The clock slot of an automaton's clock name (None for an integer
    variable), and each integer variable's position."""
    slots = {}
    for ai, ta in enumerate(net.automata):
        slots.update({(ai, name): len(slots) + i for i, name in enumerate(ta.clocks)})
    var_pos = {name: i for i, (name, _) in enumerate(net.int_vars)}

    def slot(ai, name):
        return slots.get((ai, name))

    return slot, var_pos


def reference_enabled_steps(net, cfg):
    """``enabled_steps`` without indexes, its moves spelled: every out-edge
    of every automaton is tested, then each enabled sender is paired with
    every enabled receiver on its channel."""
    slot, var_pos = reference_slots(net)

    def all_hold(ai, atoms):
        for atom in atoms:
            if isinstance(atom, ClockAtom):
                value = cfg.clocks[slot(ai, atom.clock)]
            else:
                value = sum(cfg.ints[var_pos[v]] for v in atom.variables)
            if not _RELATION[atom.op](value, atom.const):
                return False
        return True

    moves, sends, receives, committed, urgent = [], {}, {}, set(), False
    for ai, ta in enumerate(net.automata):
        (location,) = (loc for loc in ta.locations if loc.id == cfg.locations[ai])
        if location.kind is LocationKind.COMMITTED:
            committed.add(ai)
        for ei, edge in enumerate(ta.edges):
            if edge.source == cfg.locations[ai] and (edge.guard is None or all_hold(ai, edge.guard.atoms)):
                if edge.sync is None:
                    moves.append((None, ((ai, ei),)))
                else:
                    side = sends if edge.sync.direction == "send" else receives
                    side.setdefault(edge.sync.channel, []).append((ai, ei))
    modes = {decl.name: decl.mode for decl in net.channels}
    for channel, senders in sends.items():
        mode = modes.get(channel, "binary")
        for ai, ei in senders:
            others = [(rj, re) for rj, re in receives.get(channel, ()) if rj != ai]
            if mode == "broadcast":
                autos = sorted({rj for rj, _ in others})
                choices = [[(rj, re) for rj, re in others if rj == a] for a in autos]
                moves += [(channel, ((ai, ei), *c)) for c in product(*choices)]
            else:
                moves += [(channel, ((ai, ei), (rj, re))) for rj, re in others]
                urgent = urgent or (mode == "urgent-binary" and bool(others))

    if committed:
        return [m for m in moves if any(a in committed for a, _ in m[1])], False
    return moves, not urgent


def reference_apply_step(net, cfg, move):
    """``apply_step`` without compiled effects: the edges of a spelled move
    are read from ``net.automata`` and applied one after another; None is
    one time unit."""
    if move is None:
        return cfg._replace(clocks=tuple(v + 1 for v in cfg.clocks))
    slot, var_pos = reference_slots(net)
    locations, ints, clocks = map(list, cfg)
    for ai, ei in move[1]:
        edge = net.automata[ai].edges[ei]
        assert locations[ai] == edge.source
        locations[ai] = edge.target
        for upd in edge.updates:
            if slot(ai, upd.target) is not None:
                clocks[slot(ai, upd.target)] = upd.value
            else:
                ints[var_pos[upd.target]] = upd.value
    return type(cfg)(tuple(locations), tuple(ints), tuple(clocks))


def _mixed_network(y_guard=ClockAtom("y", ">=", 1), g_guard=ClockAtom("g", ">=", 2)):
    """A committed location and a sum guard, with what no translated
    network has: an urgent channel for a user event, clocks besides the
    environment's, and a broadcast receiver with a choice.  ``y_guard``
    guards the receiver's silent way back from ``r1``; ``g_guard`` guards
    a sender edge on its clock ``g``, which nothing resets."""
    def guard(*atoms):
        return GuardExpr(atoms)

    def sync(channel, direction):
        return SyncLabel(channel, direction)

    reset_x = (Assignment("x", 0),)
    sender = TimedAutomaton(
        "S",
        (
            Location("s0"),
            Location("s1"),
            Location("s2", LocationKind.COMMITTED),
            Location("s3"),
        ),
        "s0",
        ("x", "g"),
        (
            Edge("s0", "s0", guard(ClockAtom("x", ">=", 1)), updates=reset_x),
            Edge("s0", "s3", updates=reset_x),
            Edge("s0", "s1", guard(IntAtom(("a", "b"), ">=", 1)), sync("bin", "send")),
            Edge("s1", "s2", sync=sync("urg", "send")),
            Edge("s2", "s0", sync=sync("bc", "send"), updates=(Assignment("a", 1),)),
            Edge("s3", "s0"),
            Edge("s0", "s3", guard(g_guard)),
        ),
    )
    receiver = TimedAutomaton(
        "R",
        (Location("r0"), Location("r1")),
        "r0",
        ("y",),
        (
            Edge("r0", "r1", sync=sync("bin", "receive")),
            Edge("r0", "r1", sync=sync("bin", "receive"), updates=(Assignment("y", 0),)),
            Edge("r1", "r0", sync=sync("urg", "receive")),
            Edge("r0", "r0", sync=sync("bc", "receive")),
            Edge("r0", "r1", guard(IntAtom(("a",), "==", 0)), sync("bc", "receive")),
            Edge("r1", "r1", sync=sync("bc", "receive")),
            Edge("r1", "r0", guard(y_guard)),
        ),
    )
    bystander = TimedAutomaton(
        "Q",
        (Location("q0"),),
        "q0",
        (),
        (
            Edge("q0", "q0", sync=sync("bc", "receive")),
            Edge("q0", "q0", guard(IntAtom(("b",), "==", 1)), sync("bin", "receive")),
        ),
    )
    channels = (
        ChannelDecl("bin", "binary"),
        ChannelDecl("urg", "urgent-binary"),
        ChannelDecl("bc", "broadcast"),
    )
    return NetworkModel((sender, receiver, bystander), channels, (("a", 0), ("b", 1)))


def every_reachable_configuration(net, *, state_cap=2_500, max_depth=20):
    """Deepens until the set stops growing.  The reference networks settle
    by depth 10 with at most 1,965 configurations; a network whose clocks
    are not capped keeps growing, and fails here by either bound."""
    found = reachable_configurations(net, 0, state_cap=state_cap)
    for depth in range(1, max_depth + 1):
        more = reachable_configurations(net, depth, state_cap=state_cap)
        if more == found:
            return found
        found = more
    raise AssertionError(f"still growing at depth {max_depth}")


@cache
def reference_networks():
    """The corpus, the fixtures, two interleaving families and the mixed
    network, each with every configuration it reaches."""
    specs = [entry.spec for entry in generate_corpus()]
    specs += [parse_file(str(path)) for path in sorted(FIXTURES.glob("*.tcsp"))]
    specs += [THREE_CYCLES, interleaved_cycles(4)]
    assert len(specs) == 156 + 5 + 2
    nets = [assemble(spec) for spec in specs] + [_mixed_network()]
    return [(net, every_reachable_configuration(net)) for net in nets]


def test_indexed_enabled_steps_equal_the_unindexed_reference():
    # as multisets, so a move found twice fails too
    checked = 0
    for net, configurations in reference_networks():
        for cfg in configurations:
            moves, tick = spelled_steps(net, cfg)
            reference, reference_tick = reference_enabled_steps(net, cfg)
            assert Counter(moves) == Counter(reference) and tick == reference_tick, cfg
            checked += 1
    assert checked > 4000


def _over_assigning_network():
    """A clock assigned 3 where no atom tells apart values from 1 on."""
    ta = TimedAutomaton(
        "A",
        (Location("s0"), Location("s1")),
        "s0",
        ("x",),
        (
            Edge("s0", "s1", updates=(Assignment("x", 3),)),
            Edge("s1", "s0", GuardExpr((ClockAtom("x", ">=", 1),))),
        ),
    )
    return NetworkModel((ta,), (), ())


def test_compiled_moves_equal_the_reference_steps_applied_and_capped():
    # successors fires compiled moves and caps clocks inline, and must
    # agree with the move-by-move reference; apply_step caps nothing.
    over = _over_assigning_network()
    assert taexec._runtime(over).clock_caps == (1,)
    cfg = initial_configuration(over)
    (assign,), _ = enabled_steps(over, cfg)
    assert apply_step(over, cfg, assign).clocks == (3,)
    moves = 0
    for net, configurations in [*reference_networks(), (over, every_reachable_configuration(over))]:
        rt = taexec._runtime(net)
        for cfg in configurations:
            state = rt.intern(cfg)
            found = Counter((label, rt.configs[succ]) for label, succ in rt.successors(state))
            expected = Counter()
            reference, tick = reference_enabled_steps(net, cfg)
            for move in reference + [None] * tick:
                succ = reference_apply_step(net, cfg, move)
                succ = succ._replace(clocks=tuple(map(min, succ.clocks, rt.clock_caps)))
                expected[(move[0] if move else None, succ)] += 1
            assert found == expected, cfg
            assert (state in rt.ticking) == tick, cfg
            moves += len(reference) + tick
    assert moves > 10000


def test_compiled_step_effects_equal_the_edge_by_edge_reference():
    applied = 0
    for net, configurations in reference_networks():
        for cfg in configurations:
            moves, tick = enabled_steps(net, cfg)
            for move in moves + [None] * tick:
                reference = reference_apply_step(net, cfg, move and spelled(move))
                assert apply_step(net, cfg, move) == reference, (cfg, move)
                applied += 1
    assert applied > 10000


def test_timelock_check_reuses_the_moves_of_the_trace_search(monkeypatch):
    # Every search over one network shares its moves; a miss still calls
    # the module's enabled_steps, which is what per-layer tracing counts.
    calls = 0
    uncounted = taexec.enabled_steps

    def counting(net, cfg):
        nonlocal calls
        calls += 1
        return uncounted(net, cfg)

    monkeypatch.setattr(taexec, "enabled_steps", counting)
    for entry in generate_corpus():
        # processes whose dead automata are dropped may assemble to a
        # network seen before, whose moves are cached already
        taexec._runtime.cache_clear()
        net = assemble(entry.spec)
        calls = 0
        network_traces(net, 5)
        assert calls > 0
        interned = len(taexec._runtime(net).configs)
        calls = 0
        assert timelock_witnesses(net) == []
        assert calls == 0, entry.id
        assert len(taexec._runtime(net).configs) == interned, entry.id


@pytest.mark.parametrize(
    "explore",
    [
        lambda net: network_traces(net, 4, state_cap=3),
        lambda net: timelock_witnesses(net, state_cap=3),
    ],
    ids=["network_traces", "timelock_witnesses"],
)
def test_a_warm_memo_never_loosens_the_state_cap(explore):
    net = assemble(ADS)
    network_traces(net, 4)
    with pytest.raises(BoundExceeded):
        explore(net)


def test_timelock_after_a_warm_up_search_still_finds_the_dead_location():
    net = _silent_chain([LocationKind.NORMAL], LocationKind.COMMITTED)
    network_traces(net, 3)
    reachable_configurations(net, 2)
    (stuck,) = timelock_witnesses(net)
    assert stuck.locations == ("s1",)


#: Each closed relation against each constant 0-3, on ``y`` and on ``g``.
_CLOCK_GUARDS = [ClockAtom(c, op, const) for c in "yg" for op in ("<=", "==", ">=") for const in range(4)]

#: The same with each strict relation, which integer time does not answer
#: as dense time does.
_STRICT_CLOCK_GUARDS = [f"{c}{op}{const}" for c in "yg" for op in "<>" for const in range(4)]


@pytest.mark.parametrize("text", _STRICT_CLOCK_GUARDS)
def test_strict_clock_atoms_are_refused(text):
    clock, op, const = text[0], text[1], int(text[2:])
    with pytest.raises(ValueError, match=re.escape(f"strict clock atom {text!r}")):
        ClockAtom(clock, op, const)
    with pytest.raises(XmlLoadError, match=re.escape(f"unsupported strict clock atom {text!r}")):
        load(clock_guarded_document(text, clock))


def _capped(configurations, caps):
    return {c._replace(clocks=tuple(map(min, c.clocks, caps))) for c in configurations}


#: About three times the most states one search of the test below expands
#: (830, under the reference caps of 5), so an executor that stops capping
#: clocks fails it in seconds instead of exploring up to the default 500,000.
_MIXED_STATE_CAP = 2_500


@pytest.mark.parametrize("guard", _CLOCK_GUARDS, ids=ClockAtom.render)
def test_per_clock_caps_are_exact(guard):
    # y>=1 and g>=2 make _mixed_network() itself one of the variants
    net = _mixed_network(**{f"{guard.clock}_guard": guard})

    def explore():
        cap = {"state_cap": _MIXED_STATE_CAP}
        traces = [
            (network_traces(net, d, **cap).traces, raw_network_traces(net, d, **cap).traces)
            for d in range(7)
        ]
        return traces, timelock_witnesses(net, **cap), reachable_configurations(net, 5, **cap)

    atoms = [a for ta in net.automata for e in ta.edges if e.guard is not None for a in e.guard.atoms]
    max_const = max(a.const for a in atoms if isinstance(a, ClockAtom))
    taexec._runtime.cache_clear()
    try:
        # the reference caps every clock beyond all of the network's constants
        reference = taexec._runtime(net)
        caps = reference.clock_caps
        reference.clock_caps = (max(max_const + 1, 5),) * len(caps)
        traces, stuck, reached = explore()
    finally:
        taexec._runtime.cache_clear()
    # the guard's own threshold: no other atom tests its clock
    slot = reference.clock_slots[{"g": 0, "y": 1}[guard.clock]][guard.clock]
    assert caps[slot] == guard.const + (guard.op != ">=")
    assert explore() == (traces, sorted(_capped(stuck, caps)), _capped(reached, caps))


def named_spec(name):
    """A fixture by its file name, or ``cyclesN`` for ``interleaved_cycles(N)``."""
    if name.startswith("cycles"):
        return interleaved_cycles(int(name[-1]))
    return parse_file(str(FIXTURES / f"{name}.tcsp"))


@pytest.mark.parametrize(
    "name, count",
    [("ads", 73), ("rail_crossing", 119), ("pe", 20), ("pi", 22), ("thermostat", 73),
     ("cycles2", 69), ("cycles3", 361), ("cycles4", 1965)],
)
def test_per_clock_caps_keep_the_reachable_configurations_down(name, count):
    # One cap above every constant gives 106, 174, 30, 33, 106, 98, 496 and
    # 2,612: the translated clock ck, tested only by ck>=1, then takes 0, 1, 2.
    assert len(every_reachable_configuration(assemble(named_spec(name)))) == count


#: (spec, depth, configurations the full search expands, those the settled
#: search of network_traces expands)
_PINNED_EXPANSIONS = [
    ("ads", 10, 73, 36), ("pe", 10, 20, 12), ("pi", 10, 22, 14), ("rail_crossing", 10, 119, 56),
    ("thermostat", 10, 73, 36), ("cycles2", 10, 69, 36), ("cycles3", 8, 361, 146), ("cycles4", 6, 1329, 554),
    ("cycles3", 9, 361, 146),
]


@pytest.mark.parametrize(
    "name, depth, full, settled", _PINNED_EXPANSIONS, ids=[f"{n}-{d}-{full}" for n, d, full, _ in _PINNED_EXPANSIONS]
)
def test_network_traces_expand_a_pinned_number_of_configurations(monkeypatch, name, depth, full, settled):
    # A faster step must not change either search: the configurations whose
    # moves a fresh trace search computes stay put, both in the settled
    # search of network_traces and in the full one over _Runtime.successors.
    # Only a change to what settles may move the first count.
    expanded = []
    uncounted = taexec.enabled_steps

    def counting(net, cfg):
        expanded.append(cfg)
        return uncounted(net, cfg)

    net = assemble(named_spec(name))
    monkeypatch.setattr(taexec, "enabled_steps", counting)
    taexec._runtime.cache_clear()
    network_traces(net, depth)
    assert len(expanded) == len(set(expanded)) == settled
    expanded.clear()
    taexec._runtime.cache_clear()
    rt = taexec._runtime(net)
    subset_graph(taexec._start(rt), rt.successors, depth, hidden=erasure_set(net), state_cap=500_000)
    assert len(expanded) == len(set(expanded)) == full
