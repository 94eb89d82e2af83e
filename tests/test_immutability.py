"""Process terms and network values are immutable by contract.

They are plain (not frozen) slots dataclasses, because a frozen dataclass
stores every field through ``object.__setattr__``.  Nothing checks the
contract at run time, so these tests do: with every such class made to
refuse an assignment that does not come from the object's own
``__init__`` or ``__post_init__``, the whole pipeline runs unchanged.
"""

import sys
from dataclasses import FrozenInstanceError, is_dataclass, replace
from pathlib import Path

import pytest

from tockta import cspast, harness, parser, semantics, tamodel
from tockta.parser import parse, parse_file
from tockta.taexec import timelock_witnesses
from tockta.translate import assemble
from tockta.uppaalxml import emit, load

ROOT = Path(__file__).resolve().parent.parent

TERMS = (
    cspast.Stop,
    cspast.Skip,
    cspast.Prefix,
    cspast._Binary,
    cspast.Seq,
    cspast.ExtChoice,
    cspast.IntChoice,
    cspast.GenPar,
    cspast.Interleave,
    cspast.Interrupt,
    cspast.Hide,
    cspast.Rename,
    cspast.Ref,
    semantics.Terminated,
)
VALUES = (
    tamodel.ClockAtom,
    tamodel.IntAtom,
    tamodel.GuardExpr,
    tamodel.Location,
    tamodel.SyncLabel,
    tamodel.Assignment,
    tamodel.Edge,
    tamodel.TimedAutomaton,
    tamodel.ChannelDecl,
    tamodel.NetworkModel,
)
CONTRACT = TERMS + VALUES + (parser._Tok,)

_BUILDERS = ("__init__", "__post_init__")


def _setattr_while_building(self, name, value):
    caller = sys._getframe(1)
    building = caller.f_code.co_name in _BUILDERS and caller.f_locals.get("self") is self
    if not building and name != "_hash":  # the hash memo may be filled at any time
        raise FrozenInstanceError(f"cannot assign to field {name!r} of {type(self).__name__}")
    object.__setattr__(self, name, value)


@pytest.fixture
def sealed(monkeypatch):
    for cls in CONTRACT:
        monkeypatch.setattr(cls, "__setattr__", _setattr_while_building)


def _pipeline(spec, depth, *, mutant=None):
    net = assemble(spec)
    assert load(emit(net)) == net
    report = harness.check_spec(spec, depth, net=net)
    assert report.verdict == harness.EQUAL_AT_STAGE1, report
    assert timelock_witnesses(net) == []
    if mutant is not None:
        return harness.check_spec(spec, depth, net=assemble(mutant))
    return report


def test_every_contract_class_is_a_hashable_slots_dataclass_that_is_not_frozen():
    for cls in CONTRACT:
        assert is_dataclass(cls) and not cls.__dataclass_params__.frozen, cls
    for cls in TERMS + VALUES:
        assert "__slots__" in vars(cls) and cls.__hash__ is not None, cls


def test_the_sealed_classes_refuse_assignment_after_building(sealed):
    edge = tamodel.Edge("a", "b", sync=tamodel.SyncLabel("c", "send"))
    term = cspast.Rename(cspast.Prefix("a", cspast.Stop()), (("a", "b"),))
    for obj, name in ((edge, "target"), (edge.sync, "channel"), (term, "mapping"), (term.body, "event")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    # building, replacing and hashing still work under the seal
    assert replace(edge, target="c").target == "c"
    assert replace(term, body=cspast.Skip()).mapping == (("a", "b"),)
    net = assemble(parse("P = a -> STOP"))
    assert hash(net) == hash(load(emit(net)))  # fills the network's hash memo


def test_the_fixtures_never_assign_to_a_built_value(sealed):
    paths = sorted((ROOT / "fixtures").glob("*.tcsp"))
    assert len(paths) == 5
    for path in paths:
        _pipeline(parse_file(str(path)), 6)


def test_the_corpus_and_its_mutants_never_assign_to_a_built_value(sealed, workloads):
    # The benchmark's corpus cases: each corpus process with its seeded mutant.
    cases = workloads.corpus_cases(1)
    assert len(cases) == 156
    for entry, mutant, expected in cases:
        spec = parse("P = " + entry.text)
        assert spec.definitions["P"] == entry.spec.definitions["P"]
        got = _pipeline(spec, workloads.CORPUS_DEPTH, mutant=mutant)
        assert (got.verdict, got.witnesses) == (expected.verdict, expected.witnesses), entry.id


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_interleaving_family_never_assigns_to_a_built_value(sealed, workloads, n):
    _pipeline(parse(workloads.family_text(n)), 6)
