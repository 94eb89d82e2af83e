import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tockta
from tockta.cspast import SpecError, Stop, validate_event_name
from tockta.parser import parse
from tockta.tamodel import (
    ChannelDecl,
    ChannelKind,
    ClockAtom,
    Edge,
    IntAtom,
    Location,
    NetworkModel,
    SyncLabel,
    TimedAutomaton,
    erasure_set,
    find_environment,
    kind_from_name,
    validate,
)
from tockta.translate import assemble

ADS_SOURCE = (
    "ADS = Controller [|{close}|] Lighting\n"
    "Controller = open -> tock -> close -> Controller\n"
    "Lighting = close -> offLight -> Lighting\n"
)
ADS = parse(ADS_SOURCE)


def tiny_ta(name="T", edges=(), locations=None):
    locations = locations or (Location("s0"),)
    return TimedAutomaton(name, locations, "s0", (), tuple(edges))


def test_translated_ads_validates_cleanly():
    assert validate(assemble(ADS)) == []


def test_unresolved_channel_is_reported():
    ta = tiny_ta(edges=[Edge("s0", "s0", sync=SyncLabel("ghost", "send"))])
    net = NetworkModel((ta,), (), ())
    messages = [str(d) for d in validate(net)]
    assert any("unresolved channel" in m for m in messages)


def test_duplicate_channel_is_reported():
    chans = (
        ChannelDecl("close___sync", "broadcast"),
        ChannelDecl("close___sync", "broadcast"),
    )
    net = NetworkModel((tiny_ta(),), chans, ())
    messages = [str(d) for d in validate(net)]
    assert any("duplicate channel" in m for m in messages)


@pytest.mark.parametrize(
    "atom, relations",
    [
        (ClockAtom, ("<=", "==", ">=")),
        (lambda _, op, const: IntAtom(("x",), op, const), ("<", "<=", "==", ">=", ">")),
    ],
    ids=["ClockAtom", "IntAtom"],
)
def test_atoms_accept_exactly_their_relations(atom, relations):
    # The XML loader and the executor know only these relations; a clock
    # atom takes the closed ones, on which integer time is exact.
    for op in relations:
        assert atom("x", op, 0).op == op
    for op in {"<", ">"} - set(relations):
        with pytest.raises(ValueError, match="strict clock atom"):
            atom("x", op, 0)
    for op in ("!=", "=", "=>", ""):
        with pytest.raises(ValueError, match="bad relation"):
            atom("x", op, 0)


def test_validate_is_idempotent_and_pure():
    net = assemble(ADS)
    first = validate(net)
    second = validate(net)
    assert first == second == []


def test_erasure_set_of_translated_stop():
    net = assemble(Stop())  # bare process: numbered root start
    assert erasure_set(net) == frozenset({"startID0_0", "finishID0"})


def test_erasure_set_of_translated_ads():
    names = erasure_set(assemble(ADS))
    assert "close___sync" in names
    assert "finishID0" in names
    assert {n for n in names if n.startswith("startID")} >= {
        "startIDADS",
        "startID00_1",
        "startID01_2",
    }
    assert names.isdisjoint({"open", "close", "offLight", "tock"})


def test_erasure_set_empty_without_coordination():
    chans = (
        ChannelDecl("tock", "broadcast"),
        ChannelDecl("open", "binary"),
    )
    net = NetworkModel((tiny_ta(),), chans, ())
    assert erasure_set(net) == frozenset()


def test_kind_metadata_agrees_with_reserved_name_patterns():
    for spec in (ADS, parse("Pe = (left->STOP)[](right->STOP)"),
                 parse("Pi = (open->STOP)/\\(fire->close->STOP)"),
                 parse("P = (a -> STOP) \\ {a}")):
        net = assemble(spec)
        erased = erasure_set(net)
        for decl in net.channels:
            inferred = kind_from_name(decl.name)
            assert (decl.name in erased) == (
                inferred not in (ChannelKind.USER_EVENT, ChannelKind.TOCK)
            ), decl


# One name of each shape kind_from_name knows, with the kind it tells.
NAME_SHAPES = [
    ("tock", ChannelKind.TOCK),
    ("startIDP", ChannelKind.FLOW),
    ("finishID0", ChannelKind.TERMINATING),
    ("extID1", ChannelKind.EXT_CHOICE),
    ("a_exch", ChannelKind.EXT_CHOICE),
    ("intrpID1", ChannelKind.INTERRUPT),
    ("a_intrpt", ChannelKind.INTERRUPT),
    ("excpID1", ChannelKind.EXCEPTION),
    ("close___sync", ChannelKind.SYNCHRONISATION),
    ("itau", ChannelKind.HIDDEN_ITAU),
    ("itau_a", ChannelKind.HIDDEN_ITAU),
    ("open", ChannelKind.USER_EVENT),
]


# What ``dataclasses.replace`` raises for a field that ``__init__`` does
# not take: ValueError up to Python 3.12, TypeError from 3.13.
REPLACE_ERRORS = (ValueError, TypeError)


@pytest.mark.parametrize("name, kind", NAME_SHAPES, ids=[name for name, _ in NAME_SHAPES])
def test_a_channel_takes_the_kind_its_name_tells(name, kind):
    decl = ChannelDecl(name, "broadcast")
    assert decl.kind is kind_from_name(name) is kind
    assert dataclasses.replace(decl, mode="binary").kind is kind
    with pytest.raises(TypeError):
        ChannelDecl(name, "binary", ChannelKind.USER_EVENT)
    with pytest.raises(REPLACE_ERRORS, match="init=False"):
        dataclasses.replace(decl, kind=ChannelKind.USER_EVENT)


def env_shaped(name):
    """One location with a ``tock!`` edge: the environment's shape."""
    return tiny_ta(name, [Edge("s0", "s0", sync=SyncLabel("tock", "send"))])


def test_the_environment_is_the_first_automaton_of_its_shape():
    two_locations = tiny_ta("W", [Edge("s0", "s1", sync=SyncLabel("tock", "send"))], (Location("s0"), Location("s1")))
    receiver = tiny_ta("R", [Edge("s0", "s0", sync=SyncLabel("tock", "receive"))])
    for automata, index in [
        ((), -1),
        ((tiny_ta(), two_locations, receiver), -1),
        ((tiny_ta(), env_shaped("E1"), env_shaped("E2")), 1),
        ((env_shaped("E1"), tiny_ta()), 0),
    ]:
        net = NetworkModel(automata, (), ())
        assert net.environment_index == find_environment(automata) == index
    net = NetworkModel((tiny_ta(), env_shaped("E")), (), ())
    assert net.environment().name == "E"
    moved = dataclasses.replace(net, automata=(env_shaped("E"), tiny_ta(), env_shaped("F")))
    assert moved.environment_index == 0
    with pytest.raises(TypeError):
        NetworkModel((env_shaped("E"),), (), (), 0)
    with pytest.raises(REPLACE_ERRORS, match="init=False"):
        dataclasses.replace(net, environment_index=0)
    # validate's refusal is unchanged, and a translated network's
    # environment is its last automaton
    assert "no environment automaton designated" in map(str, validate(NetworkModel((tiny_ta(),), (), ())))
    translated = assemble(ADS)
    assert translated.environment_index == len(translated.automata) - 1


def test_the_derived_fields_survive_pickle_and_copy():
    net = assemble(ADS)
    for copied in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net), copy.copy(net)):
        assert copied == net and repr(copied) == repr(net)
        assert copied.environment_index == net.environment_index >= 0
        assert [c.kind for c in copied.channels] == [c.kind for c in net.channels]
    for decl in net.channels:
        for copied in (pickle.loads(pickle.dumps(decl)), copy.deepcopy(decl)):
            assert copied == decl and copied.kind is decl.kind is kind_from_name(decl.name)


# Names built around every shape kind_from_name or validate_event_name
# tests for, so that both accepted and reserved names are drawn often.
event_like_names = st.builds(
    lambda head, middle, tail: head + middle + tail,
    st.sampled_from(["", "a", "Z", "tock", "tau", "itau", "itau_", "startID", "finishID", "extID", "intrpID", "excpID"]),
    st.from_regex(r"[A-Za-z0-9_]{0,6}", fullmatch=True),
    st.sampled_from(["", "1", "_", "___sync", "__sync", "_exch", "exch", "_intrpt", "intrpt"]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(event_like_names)
def test_every_accepted_event_name_is_a_user_channel(name):
    # The XML format carries a channel's kind only in its name.
    try:
        validate_event_name(name)
    except SpecError:
        return
    assert kind_from_name(name) is ChannelKind.USER_EVENT


def test_erasure_never_contains_user_events():
    from tockta.harness import generate_corpus
    from tockta.cspast import alphabet
    from tockta.parser import parse_file

    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    specs = [entry.spec for entry in generate_corpus()]
    specs += [parse_file(str(path)) for path in sorted(fixtures.glob("*.tcsp"))]
    assert len(specs) == 161
    for spec in specs:
        net = assemble(spec)
        events = alphabet(spec)
        # the translator and alphabet see each event through the same wrappers
        assert {c.name for c in net.channels if c.kind is ChannelKind.USER_EVENT} == events
        assert erasure_set(net).isdisjoint(events)


_LOAD_IN_FRESH_PROCESS = """
import pickle, sys
from tockta.parser import parse
from tockta.translate import assemble
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = assemble(parse(sys.argv[1]))
assert hash(fresh) != int(sys.argv[2]), "the child process did not get a new hash salt"
assert loaded == fresh
assert hash(loaded) == hash(fresh)
assert len({loaded, fresh}) == 1
"""


def test_network_hash_memo_never_leaves_its_process():
    net = assemble(ADS)
    digest = hash(net)  # fills the memo before pickling
    assert hash(copy.copy(net)) == digest
    assert hash(copy.deepcopy(net)) == digest
    assert hash(dataclasses.replace(net)) == digest
    assert "_hash" not in repr(net)

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    env["PYTHONPATH"] = os.pathsep.join([str(Path(tockta.__file__).parents[1]), env.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, "-c", _LOAD_IN_FRESH_PROCESS, ADS_SOURCE, str(digest)],
        input=pickle.dumps(net),
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr.decode()
