import random
from dataclasses import replace
from pathlib import Path

import pytest

from tockta.cspast import Stop
from tockta.parser import parse, parse_file
from tockta.tamodel import ChannelKind, GuardExpr, IntAtom
from tockta.translate import assemble
from tockta.uppaalxml import XmlLoadError, emit, load

ADS = parse(
    "ADS = Controller [|{close}|] Lighting\n"
    "Controller = open -> tock -> close -> Controller\n"
    "Lighting = close -> offLight -> Lighting\n"
)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _with_three_way_sum(net):
    """``net`` with its first edge guarded by a sum over three variables,
    which the translation never generates but the format carries."""
    ta = net.automata[0]
    guard = GuardExpr((IntAtom(("v1", "v2", "v3"), "==", 3),))
    edges = (replace(ta.edges[0], guard=guard),) + ta.edges[1:]
    return replace(
        net,
        automata=(replace(ta, edges=edges),) + net.automata[1:],
        int_vars=net.int_vars + (("v1", 0), ("v2", 0), ("v3", 0)),
    )


def test_round_trip_identity_on_showcase_networks():
    nets = [assemble(spec) for spec in (ADS, parse("Pe = (left->STOP)[](right->STOP)"),
                                        parse("Pi = (open->STOP)/\\(fire->close->STOP)"))]
    nets.append(_with_three_way_sum(assemble(Stop())))
    for net in nets:
        assert load(emit(net)) == net
    assert '<label kind="guard">(v1 + v2 + v3)==3</label>' in emit(nets[-1])


def test_emit_is_deterministic():
    net = assemble(Stop())
    assert emit(net) == emit(assemble(Stop()))


def test_document_shape():
    doc = emit(assemble(Stop()))
    assert doc.startswith('<?xml version="1.0" encoding="utf-8"?>\n<!DOCTYPE nta PUBLIC')
    assert "flat-1_1.dtd" in doc
    assert "broadcast chan tock;" in doc
    assert "urgent chan startID0_0;" in doc
    assert "chan finishID0;" in doc
    assert "int start = 0;" in doc
    assert "<system>system TA00, Env;</system>" in doc
    assert doc.rstrip().endswith("</nta>")


def test_sync_labels_render_directions():
    doc = emit(assemble(ADS))
    assert '<label kind="synchronisation">close___sync!</label>' in doc
    assert '<label kind="synchronisation">tock?</label>' in doc
    assert '<label kind="guard">(g_close00_3 + g_close01_2)==2</label>' in doc


def test_empty_sync_controller_emits_one_location_no_transitions():
    net = assemble(parse("P = a -> STOP"))
    doc = emit(net)
    # no multiway sync: no controller template beyond the components
    assert "___sync" not in doc


def test_malformed_xml_is_rejected():
    with pytest.raises(XmlLoadError, match="malformed"):
        load("<nta><template></nta>")


def test_missing_initial_location_is_reported():
    doc = emit(assemble(Stop())).replace('<init ref="id0"/>', "")
    with pytest.raises(XmlLoadError, match="missing initial location"):
        load(doc)


def test_select_bindings_are_unsupported():
    doc = emit(assemble(Stop())).replace(
        "<transition><source ref=\"id0\"/>",
        "<transition><select>i : int[0,1]</select><source ref=\"id0\"/>",
        1,
    )
    with pytest.raises(XmlLoadError, match="unsupported"):
        load(doc)


def test_template_parameters_are_unsupported():
    doc = emit(assemble(Stop())).replace(
        "<name>TA00</name>", "<name>TA00</name><parameter>int x</parameter>", 1
    )
    with pytest.raises(XmlLoadError, match="unsupported"):
        load(doc)


def test_arbitrary_arithmetic_is_unsupported():
    doc = emit(assemble(Stop())).replace(
        '<label kind="guard">start==0</label>',
        '<label kind="guard">start*2==0</label>',
    )
    with pytest.raises(XmlLoadError, match="unsupported expression"):
        load(doc)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("tock=tock;", "a=bogus;tock=tock;", "unknown channel kind 'bogus'"),
        ("tockta-channel-kinds:", "tockta-channel-kinds", "without a colon"),
    ],
    ids=["unknown-kind", "no-colon"],
)
def test_malformed_kind_comment_is_rejected(old, new, message):
    doc = emit(assemble(Stop())).replace(old, new, 1)
    with pytest.raises(XmlLoadError, match=message):
        load(doc)


def test_edited_fixture_documents_load_or_raise_xml_load_error():
    # Seeded 1-4 character edits: whatever a damaged file holds, the
    # loader answers with a network or an XmlLoadError, never a crash.
    docs = [emit(assemble(parse_file(str(path)))) for path in sorted(FIXTURES.glob("*.tcsp"))]
    assert len(docs) == 5
    rng = random.Random(1)
    alphabet = "<>/=\"';:|!?&()+-_ \n0123456789abcdesxyz"
    loaded = 0
    for _ in range(2000):
        doc = rng.choice(docs)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(doc))
            op = rng.randrange(3)  # 0 replace, 1 delete, 2 insert
            ch = "" if op == 1 else rng.choice(alphabet)
            doc = doc[:i] + ch + doc[i + (op != 2):]
        try:
            load(doc)
            loaded += 1
        except XmlLoadError:
            pass
    assert 0 < loaded < 2000


def test_kinds_recovered_from_names_without_metadata_comment():
    net = assemble(ADS)
    lines = [l for l in emit(net).splitlines() if "tockta-channel-kinds" not in l]
    loaded = load("\n".join(lines))
    kinds = {c.name: c.kind for c in loaded.channels}
    assert kinds["close___sync"] is ChannelKind.SYNCHRONISATION
    assert kinds["startID00_1"] is ChannelKind.FLOW
    assert kinds["finishID0"] is ChannelKind.TERMINATING
    assert kinds["open"] is ChannelKind.USER_EVENT
    # environment found structurally: single location broadcasting tock
    assert loaded.environment_index == net.environment_index
