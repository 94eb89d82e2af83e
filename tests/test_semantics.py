from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tockta import cspast
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
from tockta.harness import generate_corpus
from tockta.semantics import (
    TERMINATED,
    TICK,
    BoundExceeded,
    _successors,
    csp_traces,
    step,
    traces_to_text,
)
from tockta.lts import TraceSet, subset_graph
from tockta.parser import parse, parse_file
from tockta.taexec import network_traces
from tockta.translate import assemble


def spec_of(process) -> CspSpec:
    return CspSpec({"P": process}, "P")


# --- an oracle independent of csp_traces: plain depth-first enumeration ----

def brute_traces(spec: CspSpec, depth: int) -> frozenset:
    out = set()

    def go(state, trace, seen):
        out.add(trace)
        for label, succ in step(state, spec.definitions):
            if label in (None, TICK):
                key = (succ, trace)
                if key not in seen:
                    go(succ, trace, seen | {key})
            elif len(trace) < depth:
                go(succ, trace + (label,), seen)

    go(spec.body(), (), frozenset())
    return frozenset(out)


def test_step_stop():
    assert step(Stop(), {}) == frozenset({("tock", Stop())})


def test_step_prefix_offers_event_and_idles():
    p = Prefix("open", Stop())
    assert step(p, {}) == frozenset({("open", Stop()), ("tock", p)})


def test_step_tock_prefix_consumes_one_unit():
    p = Prefix("tock", Stop())
    assert step(p, {}) == frozenset({("tock", Stop())})


def test_step_internal_choice_is_silent():
    assert step(IntChoice(Stop(), Skip()), {}) == frozenset({(None, Stop()), (None, Skip())})


def test_step_terminated_keeps_time_flowing():
    assert step(TERMINATED, {}) == frozenset({("tock", TERMINATED)})


def test_external_choice_tock_does_not_resolve():
    p = ExtChoice(Prefix("a", Stop()), Prefix("b", Stop()))
    tocks = [(label, s) for label, s in step(p, {}) if label == "tock"]
    assert tocks == [("tock", p)]


def test_nested_hiding_and_renaming_fold_into_one():
    hidden = Hide(Prefix("a", Hide(Stop(), frozenset({"b"}))), frozenset({"a"}))
    assert (None, Hide(Stop(), frozenset({"a", "b"}))) in step(hidden, {})
    inner = Rename(Prefix("b", Stop()), (("a", "c"), ("b", "a")))
    renamed = Rename(Prefix("a", inner), (("a", "b"),))
    assert ("b", Rename(Prefix("b", Stop()), (("a", "c"), ("b", "b")))) in step(renamed, {})


@pytest.mark.parametrize("source", ["P = a -> (P \\ {b})", "P = a -> (P [[a <- b]])"], ids=["hide", "rename"])
def test_recursion_under_hiding_or_renaming_reaches_three_state_sets(source):
    # deep enough that a term growing by one wrapper per unfolding would
    # overflow the stack; the trace count itself is too large to read
    assert len(csp_traces(parse(source), 600).moves) == 3


def test_hiding_moves_beneath_a_renaming():
    renamed = Rename(Prefix("a", Stop()), (("a", "b"), ("c", "a")))
    hidden = Hide(Prefix("d", renamed), frozenset({"a"}))
    # P[[m]] \ A = (P \ m^-1(A))[[m]]: only c becomes a, so c is hidden
    moved = Rename(Hide(Prefix("a", Stop()), frozenset({"c"})), renamed.mapping)
    assert ("d", moved) in step(hidden, {})


def test_recursion_under_renaming_then_hiding_reaches_four_state_sets():
    # each unfolding wraps a hiding around a renaming; both fold into one pair
    assert len(csp_traces(parse("P = a -> ((P [[a <- b]]) \\ {c})"), 400).moves) == 4


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
    assert ("move", "tock", "tock", "turn") in got.traces
    assert ("tock", "move", "tock", "tock") in got.traces
    assert ("move", "tock", "turn") not in got.traces


def initials(p, defs) -> frozenset[str]:
    """First visible non-tock events of ``p``, looking through tau steps:
    the root labels of its depth-1 subset graph."""
    graph = subset_graph(p, _successors(defs), 1, state_cap=100_000)
    return frozenset(graph.moves[graph.root]) - {"tock"}


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
        for label, succ in step(state, {}):
            if label not in (None, TICK, "tock"):
                first.add(label)
            elif label is None and succ not in seen:
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
        assert all(trace[:-1] in smaller.traces for trace in smaller.traces if trace)
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


def test_traces_text_is_sorted_from_the_empty_trace():
    ts = csp_traces(parse("P = a -> STOP"), 2)
    text = traces_to_text(ts)
    assert text.splitlines()[0] == "<>"
    assert text == "".join(sorted(text.splitlines(keepends=True)))


def trie_graph(traces, depth: int) -> TraceSet:
    """The trace set of an explicit set of traces, in which each trace is
    its own state.  The set must hold ``()``, be prefix-closed and hold no
    trace longer than ``depth``."""
    traces = frozenset(map(tuple, traces))
    if () not in traces:
        raise ValueError("a trace set must hold the empty trace")
    children: dict[tuple, list] = {}
    for trace in traces:
        if len(trace) > depth:
            raise ValueError(f"trace {trace} is longer than depth {depth}")
        if trace:
            if trace[:-1] not in traces:
                raise ValueError(f"trace {trace} lacks its prefix {trace[:-1]}")
            children.setdefault(trace[:-1], []).append((trace[-1], trace))
    return subset_graph((), lambda t: children.get(t, ()), depth, state_cap=len(traces))


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


def test_trace_sets_are_equal_exactly_when_traces_and_depth_are():
    """Engine-built and explicit (trie) sets alike: the pair walk finds no
    difference exactly when their traces are equal, and refuses to compare
    sets of different depths."""
    specs = [parse("P = a -> STOP"), parse("P = a -> SKIP"), parse("P = (a -> STOP) [] (b -> STOP)")]
    sets = []
    for spec in specs:
        for depth in (1, 2):
            built = [csp_traces(spec, depth), network_traces(assemble(spec), depth)]
            sets += built + [trie_graph(built[0].traces, depth)]
    sets += [trie_graph({()}, 0), trie_graph({()}, 1)]
    equal = 0
    for x in sets:
        for y in sets:
            if x.depth != y.depth:
                with pytest.raises(ValueError, match="depth mismatch"):
                    x.first_difference(y)
                continue
            same = x.first_difference(y) is None
            assert same == (x.traces == y.traces)
            equal += same
    assert equal > len(sets)


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


# --- the per-search memo ------------------------------------------------------

def family(n: int) -> CspSpec:
    """``P0 ||| ... ||| P(n-1)`` with ``Pi = ai -> tock -> bi -> Pi``."""
    lines = ["MAIN = " + " ||| ".join(f"P{i}" for i in range(n))]
    lines += [f"P{i} = a{i} -> tock -> b{i} -> P{i}" for i in range(n)]
    return parse("\n".join(lines))


def unmemoised_traces(spec: CspSpec, depth: int):
    """The subset graph of ``csp_traces`` over plain ``step``, which steps
    every subterm of every state afresh."""

    def successors(p):
        return ((label, succ) for label, succ in step(p, spec.definitions) if label != TICK)

    return subset_graph(spec.body(), successors, depth, state_cap=200_000)


def test_the_memo_changes_no_subset_graph():
    fixtures = Path(__file__).parents[1] / "fixtures"
    specs = [parse_file(str(path)) for path in sorted(fixtures.glob("*.tcsp"))]
    specs += [entry.spec for entry in generate_corpus()] + [family(n) for n in (1, 2, 3)]
    assert len(specs) == 164
    for spec in specs:
        memoised, plain = csp_traces(spec, 6), unmemoised_traces(spec, 6)
        assert (memoised.root, memoised.moves) == (plain.root, plain.moves)


def test_a_term_growing_under_hiding_ends_in_bound_exceeded():
    spec = parse("P = ((d -> P) \\ {d}) [] (b -> STOP)")
    with pytest.raises(BoundExceeded):
        csp_traces(spec, 2, state_cap=2_000)


def test_successors_do_not_revalidate_event_names(monkeypatch):
    # The names were checked when the spec was built; hiding, renaming and
    # parallel successors carry them over unchecked.
    growing = parse("P = ((d -> P) \\ {d}) [] (b -> STOP)")
    synchronised = parse("P = (a -> b -> P) [|{a}|] (a -> c -> (P [[c <- e]]))")
    calls = []
    monkeypatch.setattr(cspast, "validate_event_name", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(BoundExceeded):
        csp_traces(growing, 3, state_cap=2_000)
    assert len(csp_traces(synchronised, 3).traces) == 20
    assert calls == []


def test_memo_entries_count_toward_the_state_cap():
    # one state, but stepping it steps every component and definition
    spec = family(4)
    assert csp_traces(spec, 1, state_cap=20).traces == {()} | {(f"a{i}",) for i in range(4)} | {("tock",)}
    with pytest.raises(BoundExceeded):
        csp_traces(spec, 1, state_cap=3)
