import pytest

from tockta.cspast import Skip, Stop
from tockta.parser import parse
from tockta.semantics import BoundExceeded, csp_traces
from tockta.tamodel import (
    ChannelDecl,
    ChannelKind,
    Edge,
    Location,
    LocationKind,
    NetworkModel,
    SyncLabel,
    TimedAutomaton,
)
from tockta.taexec import (
    Binary,
    Broadcast,
    Silent,
    TimeTick,
    apply_step,
    enabled_steps,
    initial_configuration,
    network_traces,
    raw_network_traces,
    reachable_configurations,
    timelock_witnesses,
)
from tockta.translate import assemble

ADS = parse(
    "ADS = Controller [|{close}|] Lighting\n"
    "Controller = open -> tock -> close -> Controller\n"
    "Lighting = close -> offLight -> Lighting\n"
)


def test_initial_steps_of_translated_stop_is_exactly_the_start():
    net = assemble(Stop())
    cfg = initial_configuration(net)
    steps = enabled_steps(net, cfg)
    # the urgent start pair outruns time, and tock needs ck>=1 anyway
    assert steps == frozenset(
        {Binary("startID0_0", sender=1, sender_edge=0, receiver=0, receiver_edge=0)}
    )


def test_tock_broadcast_enabled_after_start_and_one_tick():
    net = assemble(Stop())
    cfg = initial_configuration(net)
    (start,) = enabled_steps(net, cfg)
    cfg = apply_step(net, cfg, start)
    assert TimeTick() in enabled_steps(net, cfg)
    cfg = apply_step(net, cfg, TimeTick())
    broadcasts = [s for s in enabled_steps(net, cfg) if isinstance(s, Broadcast)]
    assert broadcasts == [Broadcast("tock", sender=1, sender_edge=2, receivers=((0, 1),))]


def test_committed_location_blocks_unrelated_steps():
    committed_ta = TimedAutomaton(
        "C",
        (Location("s0", "s0"), Location("s1", "s1", LocationKind.COMMITTED)),
        "s1",
        (),
        (Edge("s1", "s0"),),
    )
    idle_ta = TimedAutomaton(
        "I", (Location("s0", "s0"), Location("s1", "s1")), "s0", (), (Edge("s0", "s1"),)
    )
    net = NetworkModel((committed_ta, idle_ta), (), (), (), environment_index=0)
    steps = enabled_steps(net, initial_configuration(net))
    assert steps == frozenset({Silent(0, 0)})


def test_time_tick_increments_clocks_and_moves_nobody():
    net = assemble(Stop())
    cfg = initial_configuration(net)
    (start,) = enabled_steps(net, cfg)
    cfg = apply_step(net, cfg, start)
    ticked = apply_step(net, cfg, TimeTick())
    assert ticked.locations == cfg.locations
    assert ticked.ints == cfg.ints
    assert ticked.clocks == tuple(v + 1 for v in cfg.clocks)


def test_start_edge_sets_the_restart_guard_variable():
    net = assemble(Stop())
    cfg = initial_configuration(net)
    (start,) = enabled_steps(net, cfg)
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
            for step in enabled_steps(net, state):
                succ = apply_step(net, state, step)
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
    close = next(
        s for s in enabled_steps(net, cfg) if isinstance(s, Binary) and s.channel == "close"
    )
    cfg = apply_step(net, cfg, close)
    release = next(
        s for s in enabled_steps(net, cfg)
        if isinstance(s, Broadcast) and s.channel == "close___sync"
    )
    assert len(release.receivers) == 2
    after = apply_step(net, cfg, release)
    assert after.ints[gl] == 0 and after.ints[gr] == 0
    moved = [i for i, _ in release.receivers]
    for automaton in moved:
        assert after.locations[automaton] != cfg.locations[automaton]


def test_broadcast_fires_with_zero_receivers():
    sender = TimedAutomaton(
        "S",
        (Location("s0", "s0"), Location("s1", "s1")),
        "s0",
        (),
        (Edge("s0", "s1", sync=SyncLabel("shout", "send")),),
    )
    net = NetworkModel(
        (sender,),
        (ChannelDecl("shout", "broadcast", ChannelKind.USER_EVENT),),
        (),
        (),
        environment_index=0,
    )
    steps = enabled_steps(net, initial_configuration(net))
    assert Broadcast("shout", 0, 0, ()) in steps


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
    from tockta.tamodel import erasure_set

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
    (start,) = enabled_steps(net, cfg)
    after = apply_step(net, cfg, start)
    with pytest.raises(AssertionError):
        apply_step(net, after, start)


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
    locations = tuple(Location(f"s{i}", f"s{i}", kind) for i, kind in enumerate(kinds))
    edges = tuple(Edge(f"s{i}", f"s{i + 1}") for i in range(len(kinds) - 1))
    ta = TimedAutomaton("T", locations, "s0", (), edges)
    return NetworkModel((ta,), (), (), (), environment_index=0)


def test_timelock_reports_a_dead_committed_location():
    net = _silent_chain([LocationKind.NORMAL], LocationKind.COMMITTED)
    (stuck,) = timelock_witnesses(net)
    assert stuck.locations == ("s1",)


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
    spec = parse(
        "MAIN = P0 ||| P1 ||| P2\n"
        + "".join(f"P{i} = a{i} -> tock -> b{i} -> P{i}\n" for i in range(3))
    )
    assert network_traces(assemble(spec), 9).traces == csp_traces(spec, 9).traces


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
