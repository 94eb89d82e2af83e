import copy
import dataclasses
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import tockta
from tockta.cspast import (
    ExtChoice,
    GenPar,
    Hide,
    Interleave,
    Prefix,
    Rename,
    Skip,
    SpecError,
    Stop,
    alphabet,
    event_universe,
    validate_event_name,
    wrap,
)
from tockta.harness import generate_corpus
from tockta.parser import parse, parse_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ADS = parse(
    "ADS = Controller [|{close}|] Lighting\n"
    "Controller = open -> tock -> close -> Controller\n"
    "Lighting = close -> offLight -> Lighting\n"
)


def test_alphabet_ads():
    assert alphabet(ADS) == frozenset({"open", "close", "offLight"})


def test_alphabet_empty_for_stop():
    assert alphabet(parse("P = STOP")) == frozenset()


def test_alphabet_applies_renaming():
    assert alphabet(parse("P = (a->STOP)[[a <- b]]")) == frozenset({"b"})


def test_alphabet_excludes_hidden_events():
    assert alphabet(parse("P = (a -> b -> STOP) \\ {b}")) == frozenset({"a"})


def test_alphabet_follows_a_chain_of_references_longer_than_the_recursion_limit():
    spec = parse("".join(f"C{i} = e{i} -> C{(i + 1) % 3000}\n" for i in range(3000)))
    assert alphabet(spec) == {f"e{i}" for i in range(3000)}


def test_an_unguarded_chain_longer_than_the_recursion_limit_parses():
    spec = parse("".join(f"C{i} = C{i + 1}\n" for i in range(20000)) + "C20000 = SKIP\n")
    assert spec.nullable(spec.body())


def test_an_unguarded_cycle_longer_than_the_recursion_limit_is_named():
    with pytest.raises(SpecError) as err:
        parse("".join(f"C{i} = a -> STOP [] C{(i + 1) % 3000}\n" for i in range(3000)))
    cycle = " -> ".join(f"C{i}" for i in range(3000))
    assert str(err.value) == f"unguarded recursion: {cycle} -> C0"


@pytest.mark.parametrize(
    "source, cycle",
    [
        ("P = Q\nQ = R [] P\nR = a -> R\n", "P -> Q -> P"),
        ("M = a -> STOP ||| X\nX = SKIP ; (Z |~| Y)\nY = b -> M\nZ = X\n", "X -> Z -> X"),
        ("M = N /\\ M\nN = STOP\n", "M -> M"),
    ],
    ids=["choice", "after-a-nullable-left", "interrupt"],
)
def test_the_first_unguarded_cycle_is_reported(source, cycle):
    with pytest.raises(SpecError, match=f"^unguarded recursion: {cycle}$"):
        parse(source)


def test_nullable_terms():
    spec = parse("P = Q ; (R /\\ STOP)\nQ = SKIP |~| a -> Q\nR = (Q ||| SKIP) \\ {b}\nS = b -> STOP ; Q\n")
    assert [spec.nullable(spec.definitions[name]) for name in "PQRS"] == [True, True, True, False]
    assert not spec.nullable(parse("P = STOP /\\ SKIP").body())


def test_the_collector_off_fixture_still_finds_a_new_cycle(collector_off):
    cycle = []
    cycle.append(cycle)
    del cycle
    assert gc.collect() == 1


def test_parse_builds_no_reference_cycles(collector_off):
    texts = [f"P = {entry.text}\n" for entry in generate_corpus()]
    texts += [path.read_text() for path in sorted(FIXTURES.glob("*.tcsp"))]
    texts.append("".join(f"C{i} = e{i} -> C{(i + 1) % 300}\n" for i in range(300)))
    gc.collect()
    for text in texts:
        parse(text)
        assert gc.collect() == 0


def test_alphabet_builds_no_reference_cycles(collector_off):
    specs = [entry.spec for entry in generate_corpus()]
    specs += [parse_file(str(path)) for path in sorted(FIXTURES.glob("*.tcsp"))]
    gc.collect()
    for spec in specs:
        alphabet(spec)
        assert gc.collect() == 0


def test_alphabet_invariant_under_reassociation():
    # same leaves, different association
    a, b, c = (Prefix(x, Stop()) for x in "abc")
    left = ExtChoice(ExtChoice(a, b), c)
    right = ExtChoice(a, ExtChoice(b, c))
    from tockta.cspast import CspSpec

    assert alphabet(CspSpec({"P": left}, "P")) == alphabet(CspSpec({"P": right}, "P"))
    ileft = Interleave(Interleave(a, b), c)
    iright = Interleave(a, Interleave(b, c))
    assert alphabet(CspSpec({"P": ileft}, "P")) == alphabet(CspSpec({"P": iright}, "P"))


@pytest.mark.parametrize("name", ["a", "open", "offLight", "x_1", "Z9"])
def test_valid_event_names(name):
    assert validate_event_name(name) == name


@pytest.mark.parametrize(
    "name",
    ["", "1a", "a-b", "tau", "itau", "itau_x", "startID1", "finishID0",
     "extID2", "intrpID3", "excpID4", "close___sync", "left_exch", "fire_intrpt"],
)
def test_reserved_or_malformed_event_names(name):
    with pytest.raises(SpecError):
        validate_event_name(name)


def test_tock_only_allowed_as_prefix():
    assert validate_event_name("tock", allow_tock=True) == "tock"
    with pytest.raises(SpecError):
        validate_event_name("tock")
    with pytest.raises(SpecError):
        GenPar(Stop(), Stop(), frozenset({"tock"}))
    with pytest.raises(SpecError):
        Hide(Stop(), frozenset({"tock"}))
    with pytest.raises(SpecError):
        Rename(Stop(), (("tock", "a"),))


def test_rename_must_be_a_function():
    with pytest.raises(SpecError):
        Rename(Skip(), (("a", "b"), ("a", "c")))


class _Scope:
    def __init__(self, *events):
        self.sync_set = frozenset(events)


def test_a_view_resolves_each_event_through_its_wrappers():
    top = parse("P = a -> b -> c -> STOP").view
    outer, inner = _Scope("c"), _Scope("b")
    renamed = wrap(wrap(top, outer), Rename(Stop(), (("b", "c"),)))
    assert renamed["b"] == ("sync", outer, "c")
    view = wrap(wrap(renamed, inner), Hide(Stop(), frozenset({"a", "c"})))
    # the innermost wrapper decides: the inner scope takes b, the hiding c
    assert view == {"a": ("hidden", "a"), "b": ("sync", inner, "b"), "c": ("hidden", "c")}
    assert wrap(top, Rename(Stop(), (("a", "a"),))).key == top.key
    assert wrap(top, _Scope("a")).key != wrap(top, _Scope("a")).key


def test_event_universe_names_every_event_but_tock():
    spec = parse("P = ((a -> tock -> STOP) [|{b}|] (c -> STOP)) \\ {d} [[e <- f]] ; (Q /\\ SKIP)\nQ = g -> Q")
    assert event_universe(spec.definitions) == frozenset("abcdefg")


# Every node type, with sets and a renaming whose hashes are salted.
TERMS_SOURCE = (
    "P = (((a -> SKIP) ; Q) [] ((b -> STOP) |~| Q)) [|{a}|] (((Q ||| STOP) /\\ (c -> STOP)) \\ {b} [[c <- d]])\n"
    "Q = tock -> a -> Q\n"
)

_LOAD_IN_FRESH_PROCESS = """
import pickle, sys
from tockta.parser import parse
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = parse(sys.argv[1]).definitions
assert hash(fresh["P"]) != int(sys.argv[2]), "the child process did not get a new hash salt"
assert loaded == fresh
assert [hash(loaded[name]) for name in fresh] == [hash(fresh[name]) for name in fresh]
assert len({loaded["P"], fresh["P"]}) == 1
"""


def test_term_hash_memo_never_leaves_its_process():
    definitions = parse(TERMS_SOURCE).definitions
    term = definitions["P"]
    digest = hash(term)
    assert hash(copy.copy(term)) == digest
    assert hash(copy.deepcopy(term)) == digest
    assert hash(dataclasses.replace(term)) == digest
    assert "_hash" not in repr(term)

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    env["PYTHONPATH"] = os.pathsep.join([str(Path(tockta.__file__).parents[1]), env.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, "-c", _LOAD_IN_FRESH_PROCESS, TERMS_SOURCE, str(digest)],
        input=pickle.dumps(definitions),
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr.decode()


def test_hashing_never_walks_a_term():
    deep = Stop()
    for i in range(5_000):
        deep = Prefix("a", ExtChoice(deep, Skip())) if i % 2 else Hide(deep, frozenset({"b"}))
    assert hash(deep) == hash(copy.copy(deep))  # deeper than the recursion limit
