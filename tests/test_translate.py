import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from tockta import taexec, translate
from tockta.cspast import Prefix, Skip, Stop
from tockta.harness import EQUAL_AT_STAGE1, check_spec, generate_corpus
from tockta.lts import reachable
from tockta.parser import parse, parse_file
from tockta.semantics import csp_traces, traces_to_text
from tockta.tamodel import ChannelKind, GuardExpr, IntAtom, LocationKind, SyncLabel
from tockta.taexec import network_traces
from tockta.translate import TranslationError, assemble
from tockta.uppaalxml import emit

ADS = parse(
    "ADS = Controller [|{close}|] Lighting\n"
    "Controller = open -> tock -> close -> Controller\n"
    "Lighting = close -> offLight -> Lighting\n"
)
PE = parse("Pe = (left->STOP)[](right->STOP)")
PI = parse("Pi = (open->STOP)/\\(fire->close->STOP)")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_and_corpus_specs():
    return [parse_file(str(path)) for path in sorted(FIXTURES.glob("*.tcsp"))] + [
        entry.spec for entry in generate_corpus()
    ]


def components(process_or_spec):
    """The automata ``assemble`` builds before the environment."""
    net = assemble(process_or_spec)
    return net.automata[: net.environment_index]


def readiness_sums(net):
    """The guard atoms of every sync controller: each guards the edge that
    announces an event, into the location whose edge releases it."""
    release = {c.name for c in net.channels if c.kind is ChannelKind.SYNCHRONISATION}
    sums = []
    for ta in net.automata:
        releasing = {
            e.source
            for e in ta.edges
            if e.sync and e.sync.direction == "send" and e.sync.channel in release
        }
        sums += [(ta.name, atom) for e in ta.edges if e.target in releasing for atom in e.guard.atoms]
    return sums


def edge_views(ta):
    return [
        (e.source, e.sync.render() if e.sync else None, e.target)
        for e in ta.edges
    ]


def test_stop_becomes_receive_then_tock_loop():
    (ta,) = components(Stop())
    assert [loc.id for loc in ta.locations] == ["s0", "s1"]
    assert ta.initial == "s0"
    assert edge_views(ta) == [("s0", "startID0_0?", "s1"), ("s1", "tock?", "s1")]


def test_skip_signals_termination_and_rearms():
    (ta,) = components(Skip())
    assert edge_views(ta) == [
        ("s0", "startID0_0?", "s1"),
        ("s1", "tock?", "s1"),
        ("s1", "finishID0!", "s0"),
    ]


def test_prefix_chains_through_a_fresh_flow_action():
    tas = components(Prefix("open", Stop()))
    assert len(tas) == 2
    opener = tas[0]
    assert edge_views(opener) == [
        ("s0", "startID0_0?", "s1"),
        ("s1", "tock?", "s1"),
        ("s1", "open!", "s2"),
        ("s2", "startID0_1!", "s0"),
    ]
    assert edge_views(tas[1])[0] == ("s0", "startID0_1?", "s1")


def test_ads_produces_seven_components_with_the_sum_guard():
    net = assemble(ADS)
    tas = net.automata[: net.environment_index]
    assert len(tas) == 7
    controller = tas[4]
    assert [(name, atom.render()) for name, atom in readiness_sums(net)] == [
        (controller.name, "(g_close00_3 + g_close01_2)==2")
    ]
    assert controller.edges[0].guard.render() == "(g_close00_3 + g_close01_2)==2"
    assert controller.edges[0].sync.render() == "close!"
    assert controller.edges[1].sync.render() == "close___sync!"
    committed = [l for l in controller.locations if l.kind is LocationKind.COMMITTED]
    assert len(committed) == 1


def test_pe_produces_five_components_with_exchange_wiring():
    net = assemble(PE)
    tas = net.automata[: net.environment_index]
    assert len(tas) == 5 and readiness_sums(net) == []
    left = tas[1]
    labels = {e.sync.render() for e in left.edges if e.sync}
    assert {"startID00_1?", "left_exch!", "right_exch?", "left!", "tock?"} <= labels
    # blocking returns to the inert initial location
    bounce = [e for e in left.edges if e.sync and e.sync.render() == "right_exch?"]
    assert bounce[0].target == "s0"


def test_pi_produces_six_components_with_interrupt_wiring():
    tas = components(PI)
    assert len(tas) == 6
    fire_gates = [
        e
        for ta in tas
        for e in ta.edges
        if e.sync and e.sync.channel == "fire_intrpt" and e.sync.direction == "send"
    ]
    assert len(fire_gates) == 1
    receivers = {
        ta.name
        for ta in tas
        for e in ta.edges
        if e.sync and e.sync.channel == "fire_intrpt" and e.sync.direction == "receive"
    }
    # both automata of the interrupted side carry the co-action
    assert receivers == {tas[1].name, tas[2].name}


def test_environment_for_ads_has_one_location_and_six_edges():
    env = assemble(ADS).environment()
    assert len(env.locations) == 1
    assert len(env.edges) == 6
    assert all(e.source == e.target == "s0" for e in env.edges)


def test_environment_for_stop_has_three_edges():
    env = assemble(Stop()).environment()
    assert [e.sync.render() for e in env.edges] == ["startID0_0!", "finishID0?", "tock!"]


def test_environment_for_pe_has_five_edges():
    env = assemble(PE).environment()
    assert [e.sync.render() for e in env.edges] == [
        "startIDPe!", "left?", "right?", "finishID0?", "tock!"
    ]


def test_environment_start_guard_and_tock_clock():
    net = assemble(parse("P = a -> STOP"))
    env = net.environment()
    assert env.name == "Env" and net.environment_index == len(net.automata) - 1
    start_edge = next(e for e in env.edges if e.sync.channel == "startIDP")
    assert start_edge.guard.render() == "start==0"
    assert [u.render() for u in start_edge.updates] == ["start:=1"]
    tock_edge = next(e for e in env.edges if e.sync.channel == "tock")
    assert tock_edge.guard.render() == "ck>=1"
    assert [u.render() for u in tock_edge.updates] == ["ck:=0"]
    assert env.clocks == ("ck",)


def test_every_readiness_sum_has_exactly_two_variables():
    # A multiway event becomes a controller requirement only when each side
    # of its parallel composition registered exactly one participant.
    sums = [atom for spec in fixture_and_corpus_specs() for _, atom in readiness_sums(assemble(spec))]
    assert sums
    assert all((len(atom.variables), atom.op, atom.const) == (2, "==", 2) for atom in sums)


def test_three_way_sync_guard_sums_three_variables():
    # The translation only builds two-variable sums, but a readiness guard
    # over more participants renders as one sum compared with their count.
    guard = GuardExpr((IntAtom(("v1", "v2", "v3"), "==", 3),))
    assert guard.render() == "(v1 + v2 + v3)==3"


def test_assemble_automaton_counts():
    assert len(assemble(ADS).automata) == 8
    assert len(assemble(PE).automata) == 6
    assert len(assemble(PI).automata) == 7
    assert len(assemble(Stop()).automata) == 2


@pytest.mark.parametrize(
    "source, automata",
    [
        # a continuation that can never start has no automata
        ("STOP ; (b -> STOP)", 2),
        ("(a -> STOP) ; (b -> SKIP)", 3),
        # the controller never sends the handover: STOP never finishes
        ("(STOP ||| SKIP) ; (b -> STOP)", 4),
        ("((a -> STOP) [] STOP) ; (b -> STOP)", 5),
        # the live control keeps every automaton
        ("(a -> SKIP) ; (b -> STOP)", 5),
    ],
)
def test_automata_that_can_never_move_are_dropped(source, automata):
    spec = parse("P = " + source)
    net = assemble(spec)
    assert len(net.automata) == automata
    assert net.environment_index == automata - 1
    assert [ta.name for ta in net.automata] == [f"TA{i:02d}" for i in range(automata - 1)] + ["Env"]
    assert check_spec(spec, 6, net=net).verdict == EQUAL_AT_STAGE1


def _automaton(*edges):
    """A builder with locations s0..sN and ``(source, target, channel,
    direction)`` edges."""
    b = translate._TaBuilder()
    for _ in range(1 + max(int(loc[1:]) for edge in edges for loc in edge[:2])):
        b.add_loc()
    for source, target, channel, direction in edges:
        b.add_edge(source, target, sync=SyncLabel(channel, direction))
    return b


def test_a_channel_once_sent_releases_every_receive_waiting_on_it():
    # Both receivers on c are met before its sender is reached; each then
    # sends what keeps one more automaton alive.
    sender = _automaton(("s0", "s1", "go", "receive"), ("s1", "s0", "c", "send"))
    first = _automaton(("s0", "s1", "c", "receive"), ("s1", "s0", "x", "send"))
    second = _automaton(("s0", "s1", "c", "receive"), ("s1", "s0", "y", "send"))
    on_x = _automaton(("s0", "s1", "x", "receive"))
    on_y = _automaton(("s0", "s1", "y", "receive"))
    never = _automaton(("s0", "s1", "z", "receive"), ("s1", "s0", "c", "send"))
    env = _automaton(("s0", "s0", "go", "send"))
    # an initial location that is not normal may stop time: it stays
    committed = translate._TaBuilder()
    committed.add_loc(LocationKind.COMMITTED)
    tas = [sender, on_x, on_y, first, second, never, committed]
    assert translate._movable(tas, env) == [sender, on_x, on_y, first, second, committed]


def all_reachable_configurations(net):
    rt = taexec._runtime(net)
    every_channel = frozenset(c.name for c in net.channels)
    found = reachable(taexec._start(rt), rt.successors, 0, hidden=every_channel, state_cap=100_000)
    return [rt.configs[i] for i in found]


def test_every_component_leaves_its_initial_location_in_some_run():
    for spec in fixture_and_corpus_specs():
        net = assemble(spec)
        configurations = all_reachable_configurations(net)
        for i, ta in enumerate(net.automata[: net.environment_index]):
            assert any(cfg.locations[i] != ta.initial for cfg in configurations), (spec.main, ta.name)


def test_deleting_any_visible_send_of_a_corpus_network_changes_its_traces():
    mutants = 0
    for entry in generate_corpus():
        net = assemble(entry.spec)
        expected = csp_traces(entry.spec, 5)
        user = {c.name for c in net.channels if c.kind is ChannelKind.USER_EVENT}
        for i, ta in enumerate(net.automata[: net.environment_index]):
            for j, edge in enumerate(ta.edges):
                if edge.sync is None or edge.sync.direction != "send":
                    continue
                if edge.sync.channel not in user:
                    continue
                mutant = replace(ta, edges=ta.edges[:j] + ta.edges[j + 1 :])
                automata = net.automata[:i] + (mutant,) + net.automata[i + 1 :]
                changed = network_traces(replace(net, automata=automata), 5)
                assert changed.first_difference(expected) is not None, (entry.id, ta.name, j)
                mutants += 1
    assert mutants == 150


def test_assemble_declares_channel_kinds():
    net = assemble(ADS)
    modes = {c.name: c.mode for c in net.channels}
    kinds = {c.name: c.kind for c in net.channels}
    assert modes["tock"] == "broadcast" and kinds["tock"] is ChannelKind.TOCK
    assert modes["close___sync"] == "broadcast"
    assert kinds["close___sync"] is ChannelKind.SYNCHRONISATION
    assert modes["startID00_1"] == "urgent-binary"
    assert kinds["startIDADS"] is ChannelKind.FLOW
    assert kinds["finishID0"] is ChannelKind.TERMINATING
    assert kinds["open"] is ChannelKind.USER_EVENT
    assert all(v == 0 for _, v in net.int_vars)


def test_every_generated_name_is_unique():
    for entry in generate_corpus()[::4]:
        net = assemble(entry.spec)
        names = [c.name for c in net.channels] + [n for n, _ in net.int_vars]
        assert len(names) == len(set(names))


def test_every_visible_event_occurrence_emits_from_one_component():
    net = assemble(PI)
    emitters = {}
    for ta in net.automata[: net.environment_index]:
        for e in ta.edges:
            if e.sync and e.sync.direction == "send" and e.sync.channel in {
                "open", "fire", "close"
            }:
                emitters.setdefault(e.sync.channel, []).append(ta.name)
    assert {k: len(v) for k, v in emitters.items()} == {"open": 1, "fire": 1, "close": 1}


def test_environment_has_exactly_one_location_in_every_translation():
    for entry in generate_corpus()[::10]:
        net = assemble(entry.spec)
        assert len(net.environment().locations) == 1


def test_assemble_is_deterministic_byte_for_byte():
    first = emit(assemble(ADS))
    second = emit(assemble(parse(
        "ADS = Controller [|{close}|] Lighting\n"
        "Controller = open -> tock -> close -> Controller\n"
        "Lighting = close -> offLight -> Lighting\n"
    )))
    assert first == second


@pytest.mark.parametrize(
    "source",
    [
        # an inner scope blocks the event that an outer scope also
        # synchronises on, directly or after a renaming
        "P = (STOP [|{b}|] (b -> SKIP)) [|{b}|] (b -> STOP)",
        "P = ((STOP [|{b}|] (b -> STOP)) [[b <- c]]) [|{c}|] (c -> STOP)",
        "P = ((a -> STOP) [|{b}|] (b -> STOP)) [|{a, b}|] (a -> b -> STOP)",
        "P = a -> a -> b -> (Q [|{a, c}|] Q)\nQ = b -> (STOP [|{a, c}|] (a -> tock -> STOP))",
        # an inner scope that could release the event, blocked further out
        "P = ((a -> STOP) [|{a, b}|] (a -> STOP)) [|{a}|] (STOP |~| STOP)",
    ],
)
def test_nested_synchronisation_keeps_every_block(source):
    assert check_spec(parse(source), 6).verdict == EQUAL_AT_STAGE1


def test_unbounded_parallel_recursion_is_rejected():
    with pytest.raises(TranslationError, match="recursion"):
        assemble(parse("P = a -> ((b -> SKIP) ||| P)"))


def test_a_deep_chain_without_recursion_is_not_called_recursion():
    process = Stop()
    for i in reversed(range(600)):
        process = Prefix(f"e{i}", process)
    with pytest.raises(TranslationError, match="nests too deeply") as err:
        assemble(process)
    assert "recursion" not in str(err.value) and "grows" not in str(err.value)


# The SHA-256 of the XML emitted for the five fixtures followed by the 156
# corpus processes.  It changes only with an intended change to the
# translation; a refactoring of the translator must leave it as it is.
XML_DIGEST = "50a1b9f829db1ef3ee51e0988d13a6f3f75e4c9ad74529df5ddc16c75661ad56"


def test_emitted_xml_is_pinned_on_fixtures_and_corpus():
    specs = fixture_and_corpus_specs()
    assert len(specs) == 161
    document = "".join(emit(assemble(spec)) for spec in specs)
    assert hashlib.sha256(document.encode("utf-8")).hexdigest() == XML_DIGEST


# The SHA-256 of the depth-8 CSP traces, as ``traces_to_text`` writes them,
# of the same 161 specs.  It pins the process engine the way XML_DIGEST
# pins the translator: a rewrite of the step rules must leave it as it is.
CSP_TRACES_DIGEST = "e8255ef10bc9a86148016774534bbad14a46004a53e6d24add267df482756116"


def test_csp_traces_are_pinned_on_fixtures_and_corpus():
    document = "".join(traces_to_text(csp_traces(spec, 8)) for spec in fixture_and_corpus_specs())
    assert hashlib.sha256(document.encode("utf-8")).hexdigest() == CSP_TRACES_DIGEST


def test_network_traces_are_pinned_on_fixtures_and_corpus():
    # the network engine must give the process engine's traces, so the same
    # digest pins it, settling included
    document = "".join(traces_to_text(network_traces(assemble(spec), 8)) for spec in fixture_and_corpus_specs())
    assert hashlib.sha256(document.encode("utf-8")).hexdigest() == CSP_TRACES_DIGEST
