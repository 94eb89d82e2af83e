import pytest
from hypothesis import given, settings, strategies as st

from tockta.cspast import (
    CspSpec,
    ExtChoice,
    GenPar,
    Hide,
    IntChoice,
    Interleave,
    Interrupt,
    Prefix,
    Rename,
    Seq,
    Skip,
    Stop,
)
from tockta.semantics import (
    TERMINATED,
    Action,
    ActionKind,
    TraceSet,
    csp_traces,
    initials,
    step,
    traces_from_text,
    traces_to_text,
)
from tockta.lts import trie_graph
from tockta.parser import parse
from tockta.taexec import network_traces
from tockta.translate import assemble

TOCK_ACT = Action(ActionKind.TOCK, "tock")


def spec_of(process) -> CspSpec:
    return CspSpec({"P": process}, "P")


# --- an oracle independent of csp_traces: plain depth-first enumeration ----

def brute_traces(spec: CspSpec, depth: int) -> frozenset:
    out = set()

    def go(state, trace, seen):
        out.add(trace)
        for act, succ in step(state, spec.definitions):
            if act.kind in (ActionKind.TAU, ActionKind.TICK):
                key = (succ, trace)
                if key not in seen:
                    go(succ, trace, seen | {key})
            elif len(trace) < depth:
                go(succ, trace + (act.name,), seen)

    go(spec.body(), (), frozenset())
    return frozenset(out)


def test_step_stop():
    assert step(Stop(), {}) == frozenset({(TOCK_ACT, Stop())})


def test_step_prefix_offers_event_and_idles():
    p = Prefix("open", Stop())
    assert step(p, {}) == frozenset({(Action.visible("open"), Stop()), (TOCK_ACT, p)})


def test_step_tock_prefix_consumes_one_unit():
    p = Prefix("tock", Stop())
    assert step(p, {}) == frozenset({(TOCK_ACT, Stop())})


def test_step_internal_choice_is_silent():
    taus = step(IntChoice(Stop(), Skip()), {})
    assert {(a.kind, s) for a, s in taus} == {
        (ActionKind.TAU, Stop()),
        (ActionKind.TAU, Skip()),
    }


def test_step_terminated_keeps_time_flowing():
    assert step(TERMINATED, {}) == frozenset({(TOCK_ACT, TERMINATED)})


def test_external_choice_tock_does_not_resolve():
    p = ExtChoice(Prefix("a", Stop()), Prefix("b", Stop()))
    tocks = [(a, s) for a, s in step(p, {}) if a.kind is ActionKind.TOCK]
    assert tocks == [(TOCK_ACT, p)]


def test_stop_traces_depth_two():
    assert csp_traces(spec_of(Stop()), 2).traces == frozenset(
        {(), ("tock",), ("tock", "tock")}
    )


def test_depth_zero_is_only_the_empty_trace():
    assert csp_traces(spec_of(Stop()), 0).traces == frozenset({()})


def test_timed_movement_example():
    spec = parse("Pt = move -> tock -> tock -> turn -> SKIP")
    got = csp_traces(spec, 4)
    assert got.traces == brute_traces(spec, 4)
    assert ("move", "tock", "tock", "turn") in got
    assert ("tock", "move", "tock", "tock") in got
    assert ("move", "tock", "turn") not in got


def test_initials_of_prefix_chain():
    spec = parse("P = fire -> close -> STOP")
    assert initials(spec.body(), spec.definitions) == frozenset({"fire"})


def test_initials_of_stop_empty():
    assert initials(Stop(), {}) == frozenset()


def test_initials_of_internal_choice_by_lts_enumeration():
    p = IntChoice(Prefix("a", Stop()), Prefix("b", Stop()))
    # oracle: first visible labels found by exploring tau steps by hand
    frontier, seen, first = [p], {p}, set()
    while frontier:
        state = frontier.pop()
        for act, succ in step(state, {}):
            if act.kind is ActionKind.VISIBLE:
                first.add(act.name)
            elif act.kind is ActionKind.TAU and succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert first == {"a", "b"}
    assert initials(p, {}) == frozenset(first)


def test_initials_distribute_over_external_choice():
    from tockta.harness import generate_corpus

    for entry in generate_corpus():
        body = entry.spec.body()
        if isinstance(body, ExtChoice):
            defs = entry.spec.definitions
            assert initials(body, defs) == initials(body.left, defs) | initials(
                body.right, defs
            )


def test_prefix_closure_and_monotonicity_and_time_liveness():
    from tockta.harness import generate_corpus

    for entry in generate_corpus()[::7]:
        smaller = csp_traces(entry.spec, 3)
        bigger = csp_traces(entry.spec, 4)
        assert all(trace[:-1] in smaller for trace in smaller.traces if trace)
        assert smaller.traces <= bigger.traces
        # while within depth, every trace extends by one tock
        for trace in smaller.traces:
            assert trace + ("tock",) in bigger.traces


SWAPPABLE = {ExtChoice: ExtChoice, IntChoice: IntChoice, Interleave: Interleave}


def test_binary_operators_commute_at_trace_level():
    from tockta.harness import generate_corpus

    for entry in generate_corpus():
        body = entry.spec.body()
        rebuild = SWAPPABLE.get(type(body))
        if rebuild is None:
            continue
        swapped = spec_of(rebuild(body.right, body.left))
        for n in (2, 5):
            assert csp_traces(entry.spec, n).traces == csp_traces(swapped, n).traces


def test_hiding_deletes_and_retruncates():
    spec = parse("P = a -> b -> STOP")
    hidden = parse("P = (a -> b -> STOP) \\ {a}")
    n = 3
    deep = csp_traces(spec, n + 2)
    expected = set()
    for trace in deep.traces:
        stripped = tuple(e for e in trace if e != "a")[:n]
        expected.add(stripped)
    # deletion may leave long tails unreachable within n+2; re-close by prefix
    expected = {t[:k] for t in expected for k in range(len(t) + 1)}
    assert csp_traces(hidden, n).traces == frozenset(expected)


def test_traces_text_round_trip():
    ts = csp_traces(parse("P = a -> STOP"), 2)
    text = traces_to_text(ts)
    assert text.splitlines()[0] == "<>"
    assert text == "".join(sorted(text.splitlines(keepends=True)))
    again = traces_from_text(text, ts.depth)
    assert again.traces == ts.traces


@pytest.mark.parametrize(
    "traces, depth, why",
    [
        ({("a",)}, 1, "empty trace"),
        ({(), ("a", "b")}, 2, "lacks its prefix"),
        ({(), ("a",), ("a", "b")}, 1, "longer than depth"),
    ],
    ids=["no-empty-trace", "not-prefix-closed", "too-deep"],
)
def test_an_explicit_set_must_be_a_bounded_trace_set(traces, depth, why):
    with pytest.raises(ValueError, match=why):
        trie_graph(traces, depth)
    text = "".join(",".join(t) + "\n" if t else "<>\n" for t in traces)
    with pytest.raises(ValueError, match=why):
        traces_from_text(text, depth)


def test_trace_sets_are_equal_exactly_when_traces_and_depth_are():
    """Engine-built and explicit (trie) sets alike: equal under ``==``,
    with equal hashes, exactly when their traces and depths are equal."""
    specs = [parse("P = a -> STOP"), parse("P = a -> SKIP"), parse("P = (a -> STOP) [] (b -> STOP)")]
    sets = []
    for spec in specs:
        for depth in (1, 2):
            built = [csp_traces(spec, depth), network_traces(assemble(spec), depth)]
            sets += built + [TraceSet(trie_graph(built[0].traces, depth))]
    sets += [TraceSet(trie_graph({()}, 0)), TraceSet(trie_graph({()}, 1))]
    for x in sets:
        for y in sets:
            same = (x.traces, x.depth) == (y.traces, y.depth)
            assert (x == y) == same
            assert not same or hash(x) == hash(y)
    assert sum(x == y for x in sets for y in sets) > len(sets)


# --- randomised properties ---------------------------------------------------

EVENTS = ("a", "b", "c")


def processes():
    leaves = st.sampled_from([Stop(), Skip()]) | st.builds(
        Prefix, st.sampled_from(EVENTS + ("tock",)), st.just(Stop())
    )

    def extend(children):
        binary = st.sampled_from([Seq, ExtChoice, IntChoice, Interleave, Interrupt])
        return (
            st.builds(lambda op, l, r: op(l, r), binary, children, children)
            | st.builds(Prefix, st.sampled_from(EVENTS), children)
            | st.builds(
                lambda body, ev: Hide(body, frozenset({ev})),
                children,
                st.sampled_from(EVENTS),
            )
            | st.builds(
                lambda body, old, new: Rename(body, ((old, new),)),
                children,
                st.sampled_from(EVENTS),
                st.sampled_from(EVENTS[::-1]),
            )
        )

    return st.recursive(leaves, extend, max_leaves=5)


@settings(max_examples=120, deadline=None)
@given(processes(), st.integers(min_value=0, max_value=3))
def test_random_traces_match_brute_force(process, depth):
    spec = spec_of(process)
    assert csp_traces(spec, depth).traces == brute_traces(spec, depth)


@settings(max_examples=60, deadline=None)
@given(processes())
def test_random_print_parse_round_trip(process):
    from tockta.cspast import format_spec

    spec = spec_of(process)
    assert parse(format_spec(spec)).definitions == spec.definitions
