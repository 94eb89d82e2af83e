import json
import time
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

from tockta import harness
from tockta.cspast import (
    CspSpec,
    ExtChoice,
    GenPar,
    IntChoice,
    Interleave,
    Interrupt,
    Prefix,
    Seq,
    Skip,
    Stop,
)
from tockta.harness import (
    EQUAL_AT_STAGE1,
    MISMATCH,
    check_spec,
    compare_traces,
    control_states,
    generate_corpus,
    prove_stop_base,
)
from tockta.lts import TraceSet
from tockta.parser import parse, parse_file
from tockta.semantics import csp_traces, trace_to_text
from tockta.taexec import network_traces
from tockta.tamodel import NetworkModel, TimedAutomaton
from tockta.translate import TranslationError, assemble

from test_semantics import trie_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ADS = parse(
    "ADS = Controller [|{close}|] Lighting\n"
    "Controller = open -> tock -> close -> Controller\n"
    "Lighting = close -> offLight -> Lighting\n"
)
THREE_CYCLES = parse(
    "MAIN = P0 ||| P1 ||| P2\n"
    "P0 = a0 -> tock -> b0 -> P0\n"
    "P1 = a1 -> tock -> b1 -> P1\n"
    "P2 = a2 -> tock -> b2 -> P2\n"
)
FOUR_CYCLES = "MAIN = P0 ||| P1 ||| P2 ||| P3\n" + "".join(f"P{i} = a{i} -> tock -> b{i} -> P{i}\n" for i in range(4))
# the same, but P3 runs its cycle once and stops
FOUR_CYCLES_ONE_STOPPING = FOUR_CYCLES.replace("b3 -> P3", "b3 -> STOP")


def ts(*traces, depth):
    return trie_graph(traces, depth)


def test_identical_sets_are_equal_at_stage_one():
    sets = ts((), ("a",), depth=1)
    report = compare_traces(sets, sets)
    assert report.verdict == EQUAL_AT_STAGE1
    assert report.witnesses == ()


def test_extra_network_trace_is_a_mismatch_with_witness():
    csp = ts((), ("a",), ("a", "b"), depth=2)
    ta = ts((), ("a",), ("a", "b"), ("a", "c"), depth=2)
    report = compare_traces(csp, ta)
    assert report.verdict == MISMATCH
    assert ("ta", "a,c") in report.witnesses


def test_mismatch_reports_witnesses_from_both_directions():
    csp = ts((), ("x",), depth=1)
    ta = ts((), ("y",), depth=1)
    report = compare_traces(csp, ta)
    assert ("csp", "x") in report.witnesses
    assert ("ta", "y") in report.witnesses


def test_permutation_only_difference_is_a_mismatch():
    csp = ts((), ("a",), ("b",), ("a", "b"), depth=2)
    ta = ts((), ("a",), ("b",), ("a", "b"), ("b", "a"), depth=2)
    report = compare_traces(csp, ta)
    assert (report.verdict, report.witnesses) == (MISMATCH, (("ta", "b,a"),))
    assert not report.passed


def test_an_interleaving_in_place_of_an_interrupt_is_caught():
    """Same traces up to the order of events, which is not the same traces."""
    spec = parse("P = ((a -> STOP) |~| (b -> STOP)) /\\ (c -> STOP)")
    mutant = parse("P = ((a -> STOP) |~| (b -> STOP)) ||| (c -> STOP)")
    report = check_spec(spec, 5, net=assemble(mutant))
    assert report.verdict == MISMATCH and not report.passed
    assert report.witnesses == (("ta", "c,a"),)


def test_a_choice_against_an_interrupt_names_the_least_witness():
    """Either branch of the internal choice may be followed by ``c`` in the
    network of the interrupt, so ``a,c`` and ``b,c`` are both only there:
    the witness is the least, whichever the engines reach first, and the
    CSP sets of the two processes give the same report."""
    spec = parse("P = ((a -> STOP) |~| (b -> STOP)) [] (c -> STOP)")
    mutant = parse("P = ((a -> STOP) |~| (b -> STOP)) /\\ (c -> STOP)")
    expected = (MISMATCH, (("ta", "a,c"),))
    report = check_spec(spec, 5, net=assemble(mutant))
    assert (report.verdict, report.witnesses) == expected
    report = compare_traces(csp_traces(spec, 5), csp_traces(mutant, 5))
    assert (report.verdict, report.witnesses) == expected


def test_millis_times_the_comparison_too(monkeypatch):
    def slow_compare(*args, **kwargs):
        time.sleep(0.05)
        return compare_traces(*args, **kwargs)

    monkeypatch.setattr(harness, "compare_traces", slow_compare)
    assert check_spec(parse("P = a -> STOP"), 2).millis >= 50


def test_storage_order_is_irrelevant():
    csp = ts(("a",), (), depth=1)
    ta = ts((), ("a",), depth=1)
    assert compare_traces(csp, ta).verdict == EQUAL_AT_STAGE1


def test_depth_mismatch_is_an_error():
    with pytest.raises(ValueError, match="depth mismatch"):
        compare_traces(ts((), depth=1), ts((), depth=2))


_BINARY = (Seq, ExtChoice, IntChoice, Interleave, Interrupt)


def _mutants(p):
    """Single-point mutants: STOP and SKIP swapped, a prefix dropped, or a
    binary operator replaced by another."""
    out = []
    if isinstance(p, (Stop, Skip)):
        out.append(Skip() if isinstance(p, Stop) else Stop())
    if isinstance(p, Prefix):
        out.append(p.cont)
    if type(p) in _BINARY:
        out += [op(p.left, p.right) for op in _BINARY if op is not type(p)]
    for name in ("cont", "body", "left", "right"):
        if hasattr(p, name):
            out += [replace(p, **{name: m}) for m in _mutants(getattr(p, name))]
    return out


def least_witnesses(csp: frozenset, ta: frozenset) -> tuple:
    """The witness rule on unfolded sets: at the shortest length where the
    sets differ, the least trace of that length that only one side has,
    for each side that has one, ``csp`` first."""
    if csp == ta:
        return ()
    shortest = min(map(len, csp ^ ta))
    only = (("csp", csp - ta), ("ta", ta - csp))
    return tuple(
        (side, trace_to_text(min(t for t in extra if len(t) == shortest)))
        for side, extra in only
        if any(len(t) == shortest for t in extra)
    )


def test_the_pair_walk_agrees_with_comparing_unfolded_traces():
    """Each corpus process against its own network and its mutants'
    networks: ``compare_traces`` decides on the engines' subset graphs; its
    verdict must be the equality of the unfolded frozensets, its witnesses
    the rule computed from them, and its report the one it gives on trie
    copies of them."""
    networks = {}
    pairs = mismatches = 0
    for entry in generate_corpus():
        source = csp_traces(entry.spec, 5)
        for process in [entry.spec.body()] + _mutants(entry.spec.body()):
            if process not in networks:
                try:
                    net = assemble(CspSpec(definitions={"P": process}, main="P"))
                    networks[process] = network_traces(net, 5)
                except TranslationError:
                    networks[process] = None
            target = networks[process]
            if target is None:
                continue
            walked = compare_traces(source, target)
            assert (walked.verdict == EQUAL_AT_STAGE1) == (source.traces == target.traces)
            assert walked.witnesses == least_witnesses(source.traces, target.traces)
            copies = [trie_graph(x.traces, x.depth) for x in (source, target)]
            unfolded = compare_traces(*copies)
            assert (walked.verdict, walked.witnesses) == (unfolded.verdict, unfolded.witnesses)
            pairs += 1
            mismatches += walked.verdict == MISMATCH
    assert pairs >= 1000 and mismatches >= 300


def _count_unfolds(monkeypatch) -> list:
    calls = []
    unfold = TraceSet.traces.func

    def counting_unfold(self):
        calls.append(self.depth)
        return unfold(self)

    counting = cached_property(counting_unfold)
    counting.__set_name__(TraceSet, "traces")
    monkeypatch.setattr(TraceSet, "traces", counting)
    return calls


@pytest.mark.parametrize("spec, depth", [(ADS, 6), (THREE_CYCLES, 8)], ids=["ads", "three-cycles"])
def test_check_spec_on_an_equal_input_never_unfolds_a_trace_set(spec, depth, monkeypatch):
    calls = _count_unfolds(monkeypatch)
    assert check_spec(spec, depth).verdict == EQUAL_AT_STAGE1
    assert calls == []
    assert len(csp_traces(spec, 2).traces) > 1 and calls == [2]  # the counter does see an unfold


@pytest.mark.parametrize(
    "source, network, depth, witnesses",
    [
        (FOUR_CYCLES, FOUR_CYCLES_ONE_STOPPING, 10, (("csp", "a3,tock,b3,a3"),)),
        ("P = ((a -> SKIP) /\\ (b -> SKIP)) ; P", "P = ((a -> SKIP) /\\ (b -> STOP)) ; P", 5, (("csp", "b,a"),)),
        ("P = (a -> STOP) /\\ (c -> STOP)", "P = (a -> STOP) ||| (c -> STOP)", 5, (("ta", "c,a"),)),
    ],
    ids=["four-cycles-one-stopping", "interrupt-loop", "interleaving-for-interrupt"],
)
def test_check_spec_on_a_mismatch_never_unfolds_a_trace_set(source, network, depth, witnesses, monkeypatch):
    """The shortest witness comes from the pair walk alone: the stopping
    variant of four cycles differs from four cycles at length 4, long
    before depth 10, where the two sets hold over a million traces."""
    spec = parse(source)
    net = assemble(parse(network))
    calls = _count_unfolds(monkeypatch)
    report = check_spec(spec, depth, net=net)
    assert (report.verdict, report.witnesses) == (MISMATCH, witnesses)
    assert calls == []


def test_counting_traces_never_unfolds(monkeypatch):
    """``len`` counts the paths of the subset graph, for both engines, on
    the corpus and on the fixtures."""
    specs = [(entry.spec, 5) for entry in generate_corpus()]
    specs += [(parse_file(str(path)), 10) for path in sorted(FIXTURES.glob("*.tcsp"))]
    calls = _count_unfolds(monkeypatch)
    counted = [
        (x, len(x))
        for spec, depth in specs
        for x in (csp_traces(spec, depth), network_traces(assemble(spec), depth))
    ]
    assert calls == []
    assert all(count == len(x.traces) for x, count in counted)
    assert max(count for _, count in counted) > 1000


def test_report_json_schema():
    report = check_spec(parse("P = a -> STOP"), 2, spec_id="demo")
    data = json.loads(report.to_json())
    assert set(data) == {"id", "depth", "verdict", "witnesses", "millis"}
    assert data["id"] == "demo" and data["depth"] == 2
    assert data["verdict"] == EQUAL_AT_STAGE1


def test_corpus_is_large_deduplicated_and_small_state():
    corpus = generate_corpus()
    assert len(corpus) >= 111
    bodies = [entry.spec.body() for entry in corpus]
    assert len(bodies) == len(set(bodies))
    assert all(control_states(entry.spec) <= 5 for entry in corpus)
    # stable ids, deterministic regeneration
    again = generate_corpus()
    assert [e.id for e in corpus] == [e.id for e in again]
    assert bodies == [e.spec.body() for e in again]


def test_corpus_contains_the_promised_shapes():
    bodies = {entry.spec.body() for entry in generate_corpus()}
    assert ExtChoice(Prefix("a", Stop()), Prefix("b", Stop())) in bodies
    assert GenPar(Prefix("a", Skip()), Prefix("a", Skip()), frozenset({"a"})) in bodies


def test_check_spec_examples():
    assert check_spec(parse("P = STOP"), 5).verdict == EQUAL_AT_STAGE1
    assert check_spec(ADS, 4).verdict == EQUAL_AT_STAGE1


def test_check_spec_reports_are_reproducible():
    spec = parse("Pe = (left->STOP)[](right->STOP)")
    a = check_spec(spec, 3, spec_id="pe")
    b = check_spec(spec, 3, spec_id="pe")
    assert (a.spec_id, a.depth, a.verdict, a.witnesses) == (
        b.spec_id,
        b.depth,
        b.verdict,
        b.witnesses,
    )


def test_corpus_verdicts_do_not_depend_on_order():
    corpus = generate_corpus()
    sample = [corpus[3], corpus[40], corpus[77]]
    forward = [check_spec(e.spec, 3, spec_id=e.id).verdict for e in sample]
    backward = [check_spec(e.spec, 3, spec_id=e.id).verdict for e in reversed(sample)]
    assert forward == backward[::-1]


def test_prove_stop_base_trivial_and_deep():
    trivial = prove_stop_base(0)
    assert trivial.passed
    deep = prove_stop_base(20)
    assert deep.passed
    assert "result: all laws hold up to depth 20" in deep.text()


def test_prove_stop_base_catches_a_removed_tock_loop():
    net = assemble(Stop())
    stop_ta = net.automata[0]
    mutated = TimedAutomaton(
        stop_ta.name,
        stop_ta.locations,
        stop_ta.initial,
        stop_ta.clocks,
        tuple(e for e in stop_ta.edges if not (e.source == e.target == "s1")),
    )
    broken = NetworkModel((mutated,) + net.automata[1:], net.channels, net.int_vars)
    report = prove_stop_base(3, net=broken)
    assert not report.passed
    assert report.failures[0] == (1, "erased-equality")
