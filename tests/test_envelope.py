"""End-to-end trace equality on the delicate corners of the translation,
plus the shapes that must be rejected because no finite network exists."""

import hashlib

import pytest
from test_uppaalxml import large_shape_specs

from tockta.cspast import SpecError
from tockta.harness import EQUAL_AT_STAGE1, check_spec, generate_corpus
from tockta.parser import parse
from tockta.semantics import csp_traces
from tockta.taexec import network_traces, timelock_witnesses
from tockta.translate import TranslationError, assemble
from tockta.uppaalxml import emit


def equal_up_to(source: str, depth: int) -> bool:
    spec = parse(source)
    net = assemble(spec)
    return all(
        csp_traces(spec, n).traces == network_traces(net, n).traces
        for n in range(depth + 1)
    )


DELICATE_SHAPES = [
    # an armed interrupt must still fire after its branch won the choice
    "P = STOP [] ((c -> STOP) /\\ (a -> SKIP))",
    # both branches can terminate; only one may claim the shared finish
    "P = (SKIP [] SKIP) ; (a -> STOP)",
    "P = (SKIP [] (b -> SKIP)) ; (a -> STOP)",
    # interrupting a side that is itself compound retires all of it
    "P = ((STOP) /\\ (c -> SKIP)) /\\ ((a -> SKIP) |~| STOP)",
    "P = ((b -> STOP) ||| (d -> STOP)) /\\ (c -> STOP)",
    # re-entering a compound construct resets its stale branches
    "P = (c -> d -> c -> STOP) [] (tock -> P)",
    "P = (b -> P) [] (c -> STOP)",
    "P = ((a -> SKIP) [] (b -> SKIP)) ; P",
    "MAIN = Q /\\ (b -> STOP)\nQ = a -> Q",
    # choice through time, internal choice and hidden events
    "P = (tock -> a -> STOP) [] (b -> STOP)",
    "P = ((a -> STOP) |~| (b -> STOP)) [] (c -> STOP)",
    "P = ((a -> b -> STOP) \\ {a}) [] (c -> STOP)",
    # parallelism inside a choice branch
    "P = ((a -> STOP) ||| (b -> STOP)) [] (c -> STOP)",
    # synchronisation under choice and interrupt
    "P = ((a -> STOP) [|{a}|] (a -> STOP)) [] (c -> STOP)",
    "P = ((a -> STOP) [|{a}|] (a -> STOP)) /\\ (c -> STOP)",
    "P = (c -> STOP) /\\ ((a -> STOP) [|{a}|] (a -> STOP))",
    # hidden synchronised event ticks over invisibly
    "P = ((a -> SKIP) [|{a}|] (a -> SKIP)) \\ {a}",
]


@pytest.mark.parametrize("source", DELICATE_SHAPES)
def test_delicate_shapes_preserve_traces(source):
    assert equal_up_to(source, 5), source


UNTRANSLATABLE_SHAPES = [
    # several occurrences of a synchronised event on one side
    ("P = (a -> STOP) [|{a}|] (a -> a -> STOP)", "occurrences"),
    # nested synchronisation on the same event folds into one side too
    ("P = ((a -> STOP) [|{a}|] (a -> STOP)) [|{a}|] (a -> STOP)", "occurrences"),
    # recursion stacking sequential continuations
    ("P = (a -> P) ; (b -> STOP)", "recursion"),
    # recursion stacking armed interrupts
    ("P = (d -> P) /\\ (b -> STOP)", "recursion"),
    # recursion spawning parallel copies
    ("P = a -> ((b -> SKIP) ||| P)", "recursion"),
]


@pytest.mark.parametrize("source, why", UNTRANSLATABLE_SHAPES)
def test_untranslatable_shapes_are_rejected(source, why):
    with pytest.raises(TranslationError, match=why):
        assemble(parse(source))


LOOPING_OPERANDS = [
    "P = a -> (P [] (b -> STOP))",
    "Q = b -> ((c -> Q) [] Q)",
    "P = Q\nQ = c -> ((a -> (STOP)) [] ((Q) [[a <- a]]))",
    "P = a -> ((b -> STOP) [] ((P \\ {d}) [[c <- c]]))",
]


@pytest.mark.parametrize(
    "source",
    LOOPING_OPERANDS,
    ids=["direct", "right-operand", "through-renaming", "through-wrappers"],
)
def test_a_choice_operand_looping_back_into_its_expansion_is_rejected(source):
    # such an operand starts with the loop's own flow action, which no gate
    # of the choice can see, so its network would keep the choice open
    with pytest.raises(TranslationError, match="external-choice operand"):
        assemble(parse(source))


GATABLE_LOOPS = [
    "P = a -> (P |~| (b -> STOP))",
    "P = a -> ((P |~| (b -> STOP)) [] (c -> STOP))",
    "P = a -> ((SKIP ; P) [] (b -> STOP))",
    "P = a -> ((tock -> P) [] (b -> STOP))",
    "P = a -> ((b -> P) [] (c -> STOP))",
    "P = (a -> P) [] (b -> STOP)",
    # a wrapped loop past an automaton of the operand, too
    "P = a -> (((P [[c <- c]]) |~| (c -> STOP)) [] (b -> STOP))",
    "P = a -> ((SKIP ; (P [[a <- a]])) [] (b -> STOP))",
    "P = a -> (((d -> (P \\ {e})) \\ {d}) [] (b -> STOP))",
]


@pytest.mark.parametrize("source", GATABLE_LOOPS)
def test_loops_that_a_choice_can_gate_are_still_translated(source):
    assert equal_up_to(source, 10), source


# Loops that re-enter their definition after a compound construct
# terminates: the construct's termination hands over to a relay, which
# starts the next round, so the round may end at any time and no automaton
# has to receive the start it sends itself.
COMPOUND_LOOPS = [
    "X = ((a -> SKIP) ||| (b -> SKIP)) ; X",
    "X = ((SKIP) ||| (b -> SKIP)) ; X",
    "X = ((STOP) /\\ (b -> SKIP)) ; X",
    "P = ((a -> SKIP) /\\ (b -> SKIP)) ; P",
    "P = s -> (((a -> SKIP) /\\ (b -> STOP)) ; P)",
    "X = ((a -> SKIP) [|{a}|] (a -> SKIP)) ; X",
]


def assert_equal_without_timelock(spec, depth: int, source: str) -> None:
    net = assemble(spec)
    report = check_spec(spec, depth, net=net)
    assert (report.verdict, report.witnesses) == (EQUAL_AT_STAGE1, ()), source
    assert timelock_witnesses(net) == [], source


@pytest.mark.parametrize("source", COMPOUND_LOOPS)
def test_loops_through_a_compound_construct_preserve_traces(source):
    assert_equal_without_timelock(parse(source), 6, source)


def test_every_corpus_process_preserves_traces_as_a_loop_body():
    # each corpus process P as X = (P) ; X and as X = s -> ((P) ; X): the
    # first is unguarded whenever P can terminate silently
    refused = 0
    for entry in generate_corpus():
        for source in (f"X = ({entry.text}) ; X", f"X = s -> (({entry.text}) ; X)"):
            try:
                spec = parse(source)
            except SpecError as exc:
                assert "unguarded recursion" in str(exc), source
                refused += 1
                continue
            assert_equal_without_timelock(spec, 6, source)
    assert refused == 25


@pytest.mark.parametrize(
    "bare, wrapped",
    [
        ("X = ((a -> SKIP) ||| (b -> SKIP)) ; X", "X = ((a -> SKIP) ||| (b -> SKIP)) ; (X [[a <- a]])"),
        ("P = a -> (P |~| (b -> STOP))", "P = a -> ((P [[a <- a]]) |~| (b -> STOP))"),
    ],
    ids=["sequence", "internal-choice-operand"],
)
def test_a_bare_re_entry_compiles_as_its_identity_renaming_does(bare, wrapped):
    assert emit(assemble(parse(bare))) == emit(assemble(parse(wrapped)))


@pytest.mark.parametrize(
    "seed, input_id, depth", [(1, "t005", 5), (1, "t033", 6), (2, "t045", 5), (2, "t066", 5)]
)
def test_benchmark_loops_through_compound_constructs_preserve_traces(workloads, seed, input_id, depth):
    source = dict(workloads.large_texts(seed))[input_id]
    report = check_spec(parse(source), depth)
    assert (report.verdict, report.witnesses) == (EQUAL_AT_STAGE1, ())


def _outcome(spec) -> str:
    """The XML a spec translates to, or the text of its rejection."""
    try:
        return emit(assemble(spec))
    except TranslationError as exc:
        return f"TranslationError: {exc}\n"


# The SHA-256 of the outcome of every shape above, in order, then of the
# benchmark-shaped large specs: the translations that XML_DIGEST's fixtures
# and corpus do not reach.  A refactoring of the translator must leave it
# as it is.
ENVELOPE_DIGEST = "ac93cee206d86095d5eb5af77ba3ea8aca7b2d8d4082f9c86b8265065e2d607c"


def test_envelope_and_large_shape_outcomes_are_pinned():
    sources = DELICATE_SHAPES + [s for s, _ in UNTRANSLATABLE_SHAPES] + LOOPING_OPERANDS + GATABLE_LOOPS
    outcomes = [_outcome(parse(source)) for source in sources]
    assert sum(o.startswith("TranslationError") for o in outcomes) == 9
    document = "".join(outcomes + [_outcome(spec) for spec in large_shape_specs()])
    assert hashlib.sha256(document.encode("utf-8")).hexdigest() == ENVELOPE_DIGEST
