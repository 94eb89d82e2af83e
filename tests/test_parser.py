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


PARSE_ERRORS = [
    ("P = ", "unexpected", (1, 4)),
    ("P = a ->", "unexpected", (1, 9)),
    ("P = (a -> STOP", "expected", (1, 15)),
    # errors of the whole spec have no one position
    ("P = a -> Q", "unresolved reference", None),
    ("P = P", "unguarded recursion", None),
    ("P = Q [] a -> STOP\nQ = P [] b -> STOP\n", "unguarded recursion", None),
    ("P = startID0_0 -> STOP", "reserved", (1, 5)),
    ("P = itau -> STOP", "reserved", (1, 5)),
    ("P = a___sync -> STOP", "reserved", (1, 5)),
    # a bad name in a wrapper's set is reported at the wrapper's operator
    ("P = (a -> STOP) [|{tock}|] STOP", "tock", (1, 17)),
    ("P = (a -> STOP)\n  [|{b, startID1}|] (b -> STOP)", "reserved", (2, 3)),
    ("P = (a -> STOP) \\ {tock}", "tock", (1, 17)),
    ("P = (a -> STOP) [[a <- tock]]", "tock", (1, 17)),
    ("P = (a -> STOP) [[a <- b, a <- c]]", "renamed twice", (1, 17)),
    ("P = STOP\nP = SKIP", "duplicate", (2, 1)),
]


@pytest.mark.parametrize(
    "source, fragment, position", PARSE_ERRORS, ids=[f"{source}-{fragment}" for source, fragment, _ in PARSE_ERRORS]
)
def test_parse_errors(source, fragment, position):
    with pytest.raises(SpecError) as err:
        parse(source)
    assert fragment.lower() in str(err.value).lower()
    if position is None:
        assert not isinstance(err.value, CspSyntaxError)
    else:
        assert isinstance(err.value, CspSyntaxError)
        assert (err.value.line, err.value.col) == position


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
        # end of input stands just after the last token, on any line
        ("P = a ->   ", (1, 9)),
        ("P = b -> STOP\n  [] a ->   ", (2, 10)),
        ("P = b -> STOP\n  [] a ->", (2, 10)),
        ("P = b -> STOP\n  [] a ->   -- c", (2, 10)),
    ],
    ids=["unclosed", "trailing", "indented", "continued", "end-first", "end-blanks", "end-bare", "end-comment"],
)
def test_syntax_errors_report_file_positions(source, position):
    with pytest.raises(CspSyntaxError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == position
    assert str(err.value).startswith(f"{position[0]}:{position[1]}: ")


@pytest.mark.parametrize(
    "source, message, position",
    [
        ("P = a -> -b", "unexpected character '-'", (1, 10)),
        ("P = a -> STOP\n  [] 9b -> STOP", "unexpected character '9'", (2, 6)),
        ("P = a ->\t_b", "unexpected character '_'", (1, 10)),
        # a word starts with a letter; any other word character is refused
        ("P = été -> ½ -> STOP", "unexpected character '½'", (1, 12)),
        ("P = (a -> STOP) \\ {b, }", "unexpected '}' (expected IDENT)", (1, 23)),
    ],
)
def test_a_character_outside_the_token_set_is_refused_where_it_stands(source, message, position):
    with pytest.raises(CspSyntaxError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == position
    assert str(err.value) == f"{position[0]}:{position[1]}: {message}"


def test_the_first_unresolved_reference_in_the_text_is_named():
    with pytest.raises(SpecError, match="unresolved reference 'Q' in 'P'"):
        parse("P = (Q ; R) [] (a -> S)")


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
