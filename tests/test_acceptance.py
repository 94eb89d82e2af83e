"""Acceptance gate: every numbered criterion of the build, with its
stated tolerance, one pass/fail line each (run with ``pytest -s``)."""

import time
from pathlib import Path

from tockta.cspast import Stop
from tockta.harness import EQUAL_AT_STAGE1, check_spec, generate_corpus, prove_stop_base
from tockta.parser import parse, parse_file
from tockta.semantics import csp_traces
from tockta.taexec import network_traces, timelock_witnesses
from tockta.translate import assemble
from tockta.uppaalxml import emit, load

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ADS = parse_file(str(FIXTURES / "ads.tcsp"))
PE = parse_file(str(FIXTURES / "pe.tcsp"))
PI = parse_file(str(FIXTURES / "pi.tcsp"))


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_stop_base_case_to_depth_twenty():
    begin = time.perf_counter()
    stop_spec = parse("P = STOP")
    net = assemble(Stop())
    ok = True
    for n in range(21):
        ladder = frozenset(("tock",) * k for k in range(n + 1))
        ok = ok and csp_traces(stop_spec, n).traces == ladder
        ok = ok and network_traces(net, n).traces == ladder
    ok = ok and prove_stop_base(20).passed
    elapsed = time.perf_counter() - begin
    report("1 (deadlock base case 0..20)", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_corpus_equivalence_at_depth_five():
    begin = time.perf_counter()
    corpus = generate_corpus()
    verdicts = [check_spec(e.spec, 5, spec_id=e.id).verdict for e in corpus]
    elapsed = time.perf_counter() - begin
    ok = (
        len(corpus) >= 111
        and all(v == EQUAL_AT_STAGE1 for v in verdicts)
        and elapsed < 600.0
    )
    report(
        "2 (corpus equivalence)",
        ok,
        f"{len(corpus)} processes, depth 5, {elapsed:.1f}s",
    )


def test_criterion_3_structural_fidelity():
    ads_net = assemble(ADS)
    pe_net = assemble(PE)
    pi_net = assemble(PI)
    guards = [
        e.guard.render()
        for ta in ads_net.automata
        for e in ta.edges
        if e.guard is not None
    ]
    ok = (
        len(ads_net.automata) == 8
        and len(pe_net.automata) == 6
        and len(pi_net.automata) == 7
        and "(g_close00_3 + g_close01_2)==2" in guards
    )
    report(
        "3 (automaton counts and sync guard)",
        ok,
        f"ADS={len(ads_net.automata)} Pe={len(pe_net.automata)} Pi={len(pi_net.automata)}",
    )


def test_criterion_4_external_choice_blocks_the_road_not_taken():
    traces = network_traces(assemble(PE), 3).traces
    has_each = ("left",) in traces and ("right",) in traces
    never_both = not any("left" in t and "right" in t for t in traces)
    verdict = check_spec(PE, 3).verdict
    report(
        "4 (external choice blocking)",
        has_each and never_both and verdict == EQUAL_AT_STAGE1,
        verdict,
    )


def test_criterion_5_interrupt_behaviour():
    traces = network_traces(assemble(PI), 4).traces
    admits = ("fire", "close") in traces and ("open", "fire", "close") in traces
    no_double_open = not any(t.count("open") > 1 for t in traces)
    verdict = check_spec(PI, 4).verdict
    report(
        "5 (interrupt admits and rejects)",
        admits and no_double_open and verdict == EQUAL_AT_STAGE1,
        verdict,
    )


def test_criterion_6_xml_round_trip_identity():
    nets = [assemble(e.spec) for e in generate_corpus()]
    nets += [assemble(ADS), assemble(PE), assemble(PI)]
    failures = sum(1 for net in nets if load(emit(net)) != net)
    report("6 (round-trip identity)", failures == 0, f"{len(nets)} networks")


def test_criterion_7_time_liveness_everywhere():
    stuck = []
    for entry in generate_corpus():
        net = assemble(entry.spec)
        if timelock_witnesses(net, observable_depth=4):
            stuck.append(entry.id)
    report("7 (no timelocks)", not stuck, f"witnesses in {stuck[:5]}" if stuck else "")


def test_criterion_8_case_study_fixtures():
    begin = time.perf_counter()
    verdicts = {}
    for name in ("thermostat", "rail_crossing"):
        spec = parse_file(str(FIXTURES / f"{name}.tcsp"))
        verdicts[name] = check_spec(spec, 4, spec_id=name).verdict
    elapsed = time.perf_counter() - begin
    ok = all(v == EQUAL_AT_STAGE1 for v in verdicts.values()) and elapsed < 300.0
    report("8 (case-study fixtures at depth 4)", ok, f"{verdicts}, {elapsed:.1f}s")
