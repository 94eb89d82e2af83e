import pytest

from tockta.cspast import (
    ExtChoice,
    GenPar,
    Hide,
    Interleave,
    Interrupt,
    IntChoice,
    Prefix,
    Ref,
    Rename,
    Seq,
    Skip,
    SpecError,
    Stop,
    format_spec,
)
from tockta.parser import CspSyntaxError, parse

ADS_SOURCE = """ADS = Controller [|{close}|] Lighting
Controller = open -> tock -> close -> Controller
Lighting = close -> offLight -> Lighting
"""


def test_parse_ads():
    spec = parse(ADS_SOURCE)
    assert set(spec.definitions) == {"ADS", "Controller", "Lighting"}
    assert spec.main == "ADS"
    body = spec.body()
    assert isinstance(body, GenPar)
    assert body.sync_set == frozenset({"close"})
    assert body.left == Ref("Controller")
    controller = spec.definitions["Controller"]
    assert controller == Prefix("open", Prefix("tock", Prefix("close", Ref("Controller"))))


def test_parse_single_stop():
    spec = parse("P = STOP")
    assert spec.definitions == {"P": Stop()}
    assert spec.main == "P"


def test_parse_external_choice():
    spec = parse("Pe = (left->STOP)[](right->STOP)")
    assert spec.body() == ExtChoice(Prefix("left", Stop()), Prefix("right", Stop()))


def test_main_convention_prefers_main_definition():
    spec = parse("A = STOP\nMAIN = SKIP")
    assert spec.main == "MAIN"


def test_operator_precedence():
    # prefix binds tighter than interrupt, which binds tighter than ';',
    # parallel, external and internal choice in that order
    spec = parse("P = a -> STOP /\\ b -> STOP ; c -> STOP ||| d -> STOP [] e -> STOP |~| f -> STOP")
    body = spec.body()
    assert isinstance(body, IntChoice)
    assert isinstance(body.left, ExtChoice)
    assert isinstance(body.left.left, Interleave)
    assert isinstance(body.left.left.left, Seq)
    assert isinstance(body.left.left.left.left, Interrupt)
    assert body.left.left.left.left.left == Prefix("a", Stop())


def test_postfix_binds_tightest():
    spec = parse("P = a -> STOP \\ {a}")
    assert spec.body() == Prefix("a", Hide(Stop(), frozenset({"a"})))


def test_parse_rename():
    spec = parse("P = (a->STOP)[[a <- b]]")
    assert spec.body() == Rename(Prefix("a", Stop()), (("a", "b"),))


def test_comments_and_blank_lines():
    spec = parse("-- leading comment\nP = a -> STOP -- trailing\n\n")
    assert spec.body() == Prefix("a", Stop())


def test_multiline_definition_continues():
    spec = parse("P = (a -> STOP)\n  [] (b -> STOP)\nQ = STOP")
    assert isinstance(spec.body(), ExtChoice)
    assert spec.definitions["Q"] == Stop()


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("P = ", "unexpected"),
        ("P = a ->", "unexpected"),
        ("P = (a -> STOP", "expected"),
        ("P = a -> Q", "unresolved reference"),
        ("P = P", "unguarded recursion"),
        ("P = Q [] a -> STOP\nQ = P [] b -> STOP\n", "unguarded recursion"),
        ("P = startID0_0 -> STOP", "reserved"),
        ("P = itau -> STOP", "reserved"),
        ("P = a___sync -> STOP", "reserved"),
        ("P = (a -> STOP) [|{tock}|] STOP", "tock"),
        ("P = (a -> STOP) \\ {tock}", "tock"),
        ("P = (a -> STOP) [[a <- tock]]", "tock"),
        ("P = (a -> STOP) [[a <- b, a <- c]]", "renamed twice"),
        ("P = STOP\nP = SKIP", "duplicate"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(SpecError) as err:
        parse(source)
    assert fragment.lower() in str(err.value).lower()


def test_syntax_error_carries_position():
    with pytest.raises(CspSyntaxError) as err:
        parse("P = a -> $")
    assert err.value.line >= 1 and err.value.col >= 1


@pytest.mark.parametrize(
    "source, position",
    [
        ("P = STOP\nQ = SKIP\nR = c -> (d -> STOP", (3, 20)),
        ("P = STOP\nQ = SKIP\nR = c -> STOP )", (3, 15)),
        ("P = STOP\n  R = c -> $", (2, 12)),
        # a continuation after a comment and a blank line keeps its line
        ("P = a ->\n-- note\n\n  b -> STOP )", (4, 13)),
    ],
    ids=["unclosed", "trailing", "indented", "continued"],
)
def test_syntax_errors_report_file_positions(source, position):
    with pytest.raises(CspSyntaxError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == position
    assert str(err.value).startswith(f"{position[0]}:{position[1]}: ")


def test_guarded_recursion_through_seq_accepted():
    spec = parse("P = (a -> SKIP) ; P")
    assert isinstance(spec.body(), Seq)


def test_nullable_seq_recursion_rejected():
    with pytest.raises(SpecError, match="unguarded"):
        parse("P = SKIP ; P")


def test_print_parse_round_trip_on_corpus():
    from tockta.harness import generate_corpus

    for entry in generate_corpus():
        printed = format_spec(entry.spec)
        again = parse(printed)
        assert again.definitions == entry.spec.definitions, printed
        assert again.main == entry.spec.main
