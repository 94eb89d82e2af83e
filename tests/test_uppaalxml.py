import functools
import gc
import hashlib
import os
import random
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from tockta import uppaalxml
from tockta.cspast import Stop
from tockta.harness import generate_corpus
from tockta.parser import parse, parse_file
from tockta.tamodel import (
    Assignment,
    ChannelDecl,
    ChannelKind,
    ClockAtom,
    Edge,
    GuardExpr,
    IntAtom,
    Location,
    NetworkModel,
    SyncLabel,
    TimedAutomaton,
    kind_from_name,
    validate,
)
from tockta.taexec import network_traces
from tockta.translate import assemble
from tockta.uppaalxml import XmlLoadError, emit, load, save_file

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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("<declaration>chan go;", "<declaration>clock g;\nchan go;",
         "unsupported global clock 'g' in the top-level declaration"),
        ("<name>s1</name>", "<name>s1</name><urgent/>", "unsupported <urgent/> at location 'id1' in template 'A'"),
        ("<name>s0</name>", '<name>s0</name><label kind="invariant">x&gt;=1 &amp;&amp; x&lt;=3</label>',
         "unsupported invariant 'x>=1 && x<=3' at location 'id0' in template 'A'"),
    ],
    ids=["global-clock", "urgent-location", "invariant"],
)
def test_global_clocks_urgent_locations_and_invariants_are_refused(old, new, message):
    # The model has none of these, so a document with one would load as
    # another network; the worker's own labels load as they are.
    worker = TimedAutomaton(
        "A",
        (Location("s0"), Location("s1")),
        "s0",
        ("x",),
        (
            Edge("s0", "s1", GuardExpr((ClockAtom("x", ">=", 2), IntAtom(("v",), "==", 0))), SyncLabel("go", "send")),
            Edge("s1", "s0", updates=(Assignment("x", 0), Assignment("v", 2))),
        ),
    )
    env = TimedAutomaton(
        "Env",
        (Location("e0"),),
        "e0",
        (),
        (Edge("e0", "e0", sync=SyncLabel("go", "receive")), Edge("e0", "e0", sync=SyncLabel("tock", "send"))),
    )
    channels = (ChannelDecl("go", "binary"), ChannelDecl("tock", "broadcast"))
    net = NetworkModel((worker, env), channels, (("v", 0),))
    assert validate(net) == []
    text = emit(net)
    for piece in ("<declaration>clock x;</declaration>", "x&gt;=2 &amp;&amp; v==0", "x:=0, v:=2", old):
        assert piece in text
    assert load(text) == net
    with pytest.raises(XmlLoadError, match=re.escape(message)):
        load(text.replace(old, new, 1))


def clock_guarded_document(guard, clock="x"):
    """``P = a -> STOP`` translated, with a clock ``clock`` local to its
    first automaton, ``TA00``, and ``guard`` on the edge that sends ``a``."""
    doc = emit(assemble(parse("P = a -> STOP")))
    doc = doc.replace("<name>TA00</name>", f"<name>TA00</name><declaration>clock {clock};</declaration>", 1)
    label = '<label kind="synchronisation">a!</label>'
    return doc.replace(label, f'<label kind="guard">{uppaalxml._escape(guard)}</label>{label}', 1)


def test_a_strict_clock_guard_is_refused_and_its_closed_variant_answered():
    # Under dense time ``a`` fires at x = 0.5, before any tock; unit
    # delays would never see it, so the document is refused, not answered.
    with pytest.raises(XmlLoadError, match=re.escape("unsupported strict clock atom 'x>0' in template 'TA00'")):
        load(clock_guarded_document("x>0 && x<1"))
    assert ("a",) in network_traces(load(clock_guarded_document("x>=0 && x<=1")), 3).traces


def large_shape_specs():
    """Specs of the benchmark's translate-large shape: 2-4 interleaved
    components, each a cycle of definitions ``Ci_k = si -> ((B) ; Ci_k+1)``
    whose bodies B are corpus processes with per-component event names."""
    bodies = [entry.text for entry in generate_corpus()]
    specs = []
    for components, length, offset in ((2, 6, 0), (3, 4, 50), (4, 3, 100)):
        lines = ["MAIN = " + " ||| ".join(f"C{i}_0" for i in range(components))]
        for i in range(components):
            for k in range(length):
                body = bodies[(offset + 13 * (i * length + k)) % len(bodies)]
                body = re.sub(r"\b([abc])\b", rf"\g<1>{i}", body)
                lines.append(f"C{i}_{k} = s{i} -> (({body}) ; C{i}_{(k + 1) % length})")
        specs.append(parse("\n".join(lines) + "\n"))
    return specs


def sync_labels(net):
    return [e.sync for ta in net.automata for e in ta.edges if e.sync is not None]


def test_round_trip_on_the_large_shape_shares_one_label_per_channel_and_direction():
    for spec in large_shape_specs():
        net = assemble(spec)
        loaded = load(emit(net))
        assert loaded == net
        for network in (net, loaded):
            labels = sync_labels(network)
            assert len({id(label) for label in labels}) == len(set(labels)) < len(labels)


def test_markup_characters_in_names_are_escaped_and_round_trip():
    net = assemble(ADS)
    ta = net.automata[0]
    rename = {loc.id: f"{loc.id}<&>\"'" for loc in ta.locations}
    ta = replace(
        ta,
        name="A&B<C>\"D'",
        locations=tuple(replace(loc, id=rename[loc.id]) for loc in ta.locations),
        initial=rename[ta.initial],
        edges=tuple(replace(e, source=rename[e.source], target=rename[e.target]) for e in ta.edges),
    )
    net = replace(net, automata=(ta,) + net.automata[1:])
    doc = emit(net)
    assert "<name>A&amp;B&lt;C&gt;\"D'</name>" in doc
    assert doc.count("&lt;&amp;&gt;\"'</name>") == len(ta.locations)
    assert "&quot;" not in doc and "&apos;" not in doc
    assert load(doc) == net


def renamed(net, environment=None, channel=None):
    """``net`` with its environment or its first user channel renamed."""
    env = net.environment_index
    automata = list(net.automata)
    channels = list(net.channels)
    if environment is not None:
        automata[env] = replace(automata[env], name=environment)
    if channel is not None:
        i, decl = next((i, c) for i, c in enumerate(channels) if c.kind is ChannelKind.USER_EVENT)
        channels[i] = replace(decl, name=channel)
        automata = [
            replace(ta, edges=tuple(
                replace(e, sync=replace(e.sync, channel=channel))
                if e.sync is not None and e.sync.channel == decl.name else e
                for e in ta.edges
            ))
            for ta in automata
        ]
    return replace(net, automata=tuple(automata), channels=tuple(channels))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda net: renamed(net, channel="a--b"), "channel name 'a--b'"),
    ],
    ids=["channel"],
)
def test_names_the_loader_cannot_read_back_are_refused(tmp_path, edit, message):
    # A name the declaration grammar cannot read back is refused.
    net = edit(assemble(parse("P = a -> STOP")))
    assert validate(net) == []
    with pytest.raises(ValueError, match=re.escape(message)):
        emit(net)
    path = tmp_path / "net.xml"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_file(net, str(path))
    assert not path.exists()


def _first_automaton(net, **changes):
    return replace(net, automata=(replace(net.automata[0], **changes), *net.automata[1:]))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda net: replace(net, int_vars=(*net.int_vars, ("x-y", 0))), "integer variable name 'x-y'"),
        (lambda net: _first_automaton(net, clocks=("c-d",)), "clock name 'c-d'"),
        (lambda net: _first_automaton(net, name=" TA "), "automaton name ' TA '"),
        (lambda net: _first_automaton(net, name=""), "automaton name ''"),
    ],
    ids=["int-variable", "local-clock", "padded-automaton", "empty-automaton"],
)
def test_declared_names_the_loader_cannot_read_back_are_refused(edit, message):
    # Written out, each of these is rejected by load, or (the padded name)
    # stripped by it, so the network would come back unequal.
    net = edit(assemble(parse("P = a -> STOP")))
    assert validate(net) == []
    with pytest.raises(ValueError, match=re.escape(message)):
        emit(net)


def test_names_that_are_not_identifiers_but_round_trip_are_kept():
    # A digit-led variable and an automaton name with inner spaces or
    # punctuation load back unchanged, so emit must not refuse them.
    net = assemble(parse("P = a -> STOP"))
    net = replace(net, int_vars=(*net.int_vars, ("1x", 0)))
    for name in ("T A", "T,A", "T<A"):
        renamed_net = _first_automaton(net, name=name)
        assert load(emit(renamed_net)) == renamed_net


def test_an_environment_name_ending_in_a_hyphen_round_trips():
    net = renamed(assemble(parse("P = a -> STOP")), environment="Env-")
    assert load(emit(net)) == net


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


@pytest.mark.parametrize("line", ["clock x y;", "clock ck,;"])
def test_clock_names_that_emit_would_refuse_are_unsupported(line):
    # before the template's own clock, which the network still needs
    doc = emit(assemble(Stop())).replace("<declaration>clock ck;", f"<declaration>{line}\nclock ck;", 1)
    with pytest.raises(XmlLoadError, match=re.escape(f"unsupported declaration {line!r}")):
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
        (
            '<label kind="guard">start==0</label>',
            '<label kind="guard">start==0</label><label kind="guard">start==1</label>',
            "repeated guard label in template 'Env', transition 0",
        ),
        (
            '<label kind="synchronisation">startID0_0!</label>',
            '<label kind="synchronisation">startID0_0!</label>'
            '<label kind="synchronisation">finishID0?</label>',
            "repeated synchronisation label in template 'Env', transition 0",
        ),
        (
            '<label kind="assignment">ck:=0</label>',
            '<label kind="assignment">ck:=0</label><label kind="assignment">start:=0</label>',
            "repeated assignment label in template 'Env', transition 2",
        ),
        (
            '<location id="id2" x="0" y="0"><name>s0</name>',
            '<location id="id2" x="0" y="0"><name>s0</name>'
            '<label kind="invariant">ck&lt;=1</label><label kind="invariant">ck&lt;=2</label>',
            "unsupported invariant 'ck<=1' at location 'id2' in template 'Env'",
        ),
    ],
    ids=["guard", "synchronisation", "assignment", "invariant"],
)
def test_repeated_labels_are_rejected(old, new, message):
    doc = emit(assemble(Stop()))
    assert old in doc
    with pytest.raises(XmlLoadError, match=re.escape(message)):
        load(doc.replace(old, new, 1))


@pytest.mark.parametrize(
    "old, new, message",
    [
        (
            '<target ref="id1"/><label kind="synchronisation">startID0_0?',
            '<target ref="id1"/><target ref="id0"/><label kind="synchronisation">startID0_0?',
            "repeated <target> in template 'TA00', transition 0",
        ),
        (
            '<source ref="id2"/><target ref="id2"/><label kind="guard">start==0',
            '<source ref="id2"/><source ref="id2"/><target ref="id2"/><label kind="guard">start==0',
            "repeated <source> in template 'Env', transition 0",
        ),
        ('<init ref="id0"/>', '<init ref="id0"/><init ref="id1"/>', "repeated <init> in template 'TA00'"),
        ("<name>TA00</name>", "<name>TA00</name><name>TA01</name>", "repeated <name> in template 'TA00'"),
        (
            '<location id="id2" x="0" y="0"><name>s0</name>',
            '<location id="id2" x="0" y="0"><name>s0</name><name>s1</name>',
            "repeated <name> at location 'id2' in template 'Env'",
        ),
        (
            "<declaration>clock ck;</declaration>",
            "<declaration>clock ck;</declaration><declaration>clock x;</declaration>",
            "repeated <declaration> in template 'Env'",
        ),
        (
            "<declaration>broadcast chan tock;",
            "<declaration>int spare = 0;</declaration><declaration>broadcast chan tock;",
            "repeated <declaration>",
        ),
    ],
    ids=["target", "source", "init", "template-name", "location-name", "template-declaration",
         "root-declaration"],
)
def test_repeated_single_elements_are_rejected(old, new, message):
    doc = emit(assemble(Stop()))
    assert old in doc
    with pytest.raises(XmlLoadError, match=re.escape(message)):
        load(doc.replace(old, new, 1))


def test_one_invariant_label_is_refused_and_a_blank_one_ignored():
    net = assemble(Stop())
    location = '<location id="id2" x="0" y="0"><name>s0</name>'
    doc = emit(net).replace(location, location + '<label kind="invariant">ck&lt;=1</label>')
    message = "unsupported invariant 'ck<=1' at location 'id2' in template 'Env'"
    with pytest.raises(XmlLoadError, match=re.escape(message)):
        load(doc)
    assert load(emit(net).replace(location, location + '<label kind="invariant"> </label>')) == net


@pytest.mark.parametrize(
    "guard, message",
    [
        ("(start==0", "unsupported expression '(start==0'"),
        ("start)==0", "unsupported expression 'start)==0'"),
        ("(ck&gt;=1", "unsupported expression '(ck>=1'"),
        ("ck)&gt;=1", "unsupported expression 'ck)>=1'"),
        ("start==0 &amp;&amp;", "empty conjunct in 'start==0 &&'"),
        ("&amp;&amp; start==0", "empty conjunct in '&& start==0'"),
        ("start==0 &amp;&amp; &amp;&amp; start==0", "empty conjunct in 'start==0 && && start==0'"),
    ],
    ids=["open", "close", "open-clock", "close-clock", "trailing-and", "leading-and", "double-and"],
)
def test_unbalanced_parentheses_and_empty_conjuncts_are_rejected(guard, message):
    doc = emit(assemble(Stop())).replace(
        '<label kind="guard">start==0</label>', f'<label kind="guard">{guard}</label>'
    )
    with pytest.raises(XmlLoadError, match=re.escape(message + " in template 'Env', transition 0")):
        load(doc)


def test_parenthesised_single_names_still_load():
    net = assemble(Stop())
    doc = emit(net).replace("start==0", "(start)==0").replace("ck&gt;=1", "( ck )&gt;=1")
    assert load(doc) == net


def test_negative_integer_constant_round_trips():
    # The translation never writes one, but the model and validate allow it.
    net = assemble(parse("P = a -> STOP"))
    env = net.automata[net.environment_index]
    guard = GuardExpr((IntAtom(("start",), ">=", -1),))
    edges = (replace(env.edges[0], guard=guard),) + env.edges[1:]
    automata = list(net.automata)
    automata[net.environment_index] = replace(env, edges=edges)
    net = replace(net, automata=tuple(automata))
    doc = emit(net)
    assert '<label kind="guard">start&gt;=-1</label>' in doc
    assert load(doc) == net


def test_negative_clock_constant_is_a_load_error():
    doc = emit(assemble(Stop())).replace("ck&gt;=1", "ck&gt;=-1", 1)
    with pytest.raises(XmlLoadError, match="negative clock constant"):
        load(doc)


def old_kinds_comment(net):
    """The comment in which earlier versions of ``emit`` wrote each
    channel's kind and the environment's name, a line of its own."""
    kinds = ";".join(f"{c.name}={c.kind.value}" for c in net.channels)
    return f"\t<!-- tockta-channel-kinds: {kinds} | environment={net.environment().name} -->\n"


def with_line_after_declaration(doc, line):
    """``doc`` with ``line`` after its root declaration, where that comment stood."""
    end = doc.index("</declaration>\n") + len("</declaration>\n")
    return doc[:end] + line + doc[end:]


def test_documents_with_the_old_kinds_comment_load_to_the_same_network():
    for net in fixture_and_corpus_networks():
        assert load(with_line_after_declaration(emit(net), old_kinds_comment(net))) == net


@pytest.mark.parametrize(
    "old, new",
    [("tock=tock;", "a=bogus;tock=tock;"), ("tockta-channel-kinds:", "tockta-channel-kinds")],
    ids=["unknown-kind", "no-colon"],
)
def test_an_old_kind_comment_is_ignored(old, new):
    net = assemble(Stop())
    comment = old_kinds_comment(net)
    assert old in comment
    assert load(with_line_after_declaration(emit(net), comment.replace(old, new, 1))) == net


def test_channel_names_tell_their_kinds_and_the_shape_finds_the_environment(workloads):
    # What lets the document carry no kinds: every translated network
    # reads back the same from its names and shapes.
    nets = fixture_and_corpus_networks() + [assemble(spec) for spec in large_shape_specs()]
    nets += [assemble(parse(workloads.family_text(n))) for n in range(1, 5)]
    for net in nets:
        assert all(kind_from_name(c.name) is c.kind for c in net.channels)
        assert net.environment_index == len(net.automata) - 1


@functools.cache
def fixture_and_corpus_networks():
    specs = [parse_file(str(path)) for path in sorted(FIXTURES.glob("*.tcsp"))]
    return [assemble(spec) for spec in specs + [entry.spec for entry in generate_corpus()]]


def fixture_documents():
    docs = [emit(assemble(parse_file(str(path)))) for path in sorted(FIXTURES.glob("*.tcsp"))]
    assert len(docs) == 5
    return docs


_ALPHABET = "<>/=\"';:|!?&()+-_ \n0123456789abcdesxyz"


def edit_characters(doc, rng):
    """``doc`` after 1-4 seeded character replacements, deletions or insertions."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(doc))
        op = rng.randrange(3)  # 0 replace, 1 delete, 2 insert
        ch = "" if op == 1 else rng.choice(_ALPHABET)
        doc = doc[:i] + ch + doc[i + (op != 2):]
    return doc


# A leaf element: empty, or holding text alone.
_LEAF_RE = re.compile(r"<(\w+)[^<>]*/>|<(\w+)[^<>]*>[^<>]*</\2>")
# Children the emitter never writes, some of them unsupported.
_FOREIGN = (
    "<select>i : int[0,1]</select>",
    "<parameter>int x</parameter>",
    "<committed/>",
    "<urgent/>",
    '<label kind="invariant">ck&lt;=1</label>',
    '<label kind="comments">note</label>',
    '<label kind="select">i : int[0,1]</label>',
    '<label kind="guard">start==1</label>',
    '<label kind="synchronisation">tock?</label>',
    '<label kind="assignment">start:=1</label>',
)


def edit_elements(doc, rng):
    """``doc`` after 1-2 seeded element edits, each inserted before a
    ``<``: delete a leaf element, copy one, or add a foreign one."""
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(3)  # 0 delete, 1 copy, 2 foreign
        leaf = _LEAF_RE.search(doc, rng.randrange(len(doc)))
        if op == 0:
            if leaf is not None:
                doc = doc[:leaf.start()] + doc[leaf.end():]
            continue
        chunk = rng.choice(_FOREIGN) if op == 2 or leaf is None else leaf.group(0)
        k = max(doc.find("<", rng.randrange(len(doc))), 0)
        doc = doc[:k] + chunk + doc[k:]
    return doc


def edited_documents(docs, count, seed, edit):
    rng = random.Random(seed)
    return [edit(rng.choice(docs), rng) for _ in range(count)]


def test_edited_fixture_documents_load_or_raise_xml_load_error():
    # Seeded 1-4 character edits: whatever a damaged file holds, the
    # loader answers with a network or an XmlLoadError, never a crash.
    loaded = 0
    for doc in edited_documents(fixture_documents(), 2000, 1, edit_characters):
        try:
            load(doc)
            loaded += 1
        except XmlLoadError:
            pass
    assert 0 < loaded < 2000


def load_outcome(doc):
    """The loaded network's repr, or the error text; expat's wording of a
    malformed document varies between versions, so only its prefix counts."""
    try:
        return repr(load(doc))
    except XmlLoadError as exc:
        head, found, _ = str(exc).partition("malformed XML")
        return head + found


# The SHA-256 of ``load_outcome`` over seeded edits of the fixture, corpus
# and large-shape documents, one line each.  It pins what the loader
# accepts, what it builds and the text of each rejection: a rewrite of the
# loader must leave it as it is.
LOAD_OUTCOMES_DIGEST = "8556f588a4d8962b17ba9ffdcc85a9cfe7e7cbe8b6db9fd200f401bfca600f96"


@functools.cache
def pinned_documents():
    fixtures = fixture_documents()
    corpus = [emit(assemble(entry.spec)) for entry in generate_corpus()]
    large = [emit(assemble(spec)) for spec in large_shape_specs()]
    edited = (
        edited_documents(fixtures, 2000, 1, edit_characters)
        + edited_documents(fixtures, 400, 2, edit_elements)
        + edited_documents(corpus, 300, 3, edit_characters)
        + edited_documents(corpus, 300, 4, edit_elements)
        + edited_documents(large, 20, 5, edit_characters)
        + edited_documents(large, 20, 6, edit_elements)
    )
    return fixtures + corpus, edited


def test_load_outcomes_of_edited_documents_are_pinned():
    outcomes = "".join(load_outcome(doc) + "\n" for doc in pinned_documents()[1])
    assert hashlib.sha256(outcomes.encode("utf-8")).hexdigest() == LOAD_OUTCOMES_DIGEST


def test_the_chunk_size_changes_no_load_outcome(monkeypatch):
    docs = [doc for part in pinned_documents() for doc in part]
    expected = [load_outcome(doc) for doc in docs]
    monkeypatch.setattr(uppaalxml, "_CHUNK", 97)
    assert [load_outcome(doc) for doc in docs] == expected


def failing_first_template(doc):
    """``doc`` with its first template's initial location removed."""
    return doc.replace("<init ref=", "<init xref=", 1)


def test_errors_keep_their_order_across_chunks(workloads):
    net = assemble(parse(workloads.family_text(16)))
    doc = emit(net)
    first_end, system = doc.index("</template>"), doc.index("\t<system>")
    assert first_end < uppaalxml._CHUNK < system - uppaalxml._CHUNK
    with pytest.raises(XmlLoadError, match="missing initial location in template 'TA00'"):
        load(failing_first_template(doc))

    def after_templates(text, piece):
        return text.replace("\t<system>", piece + "\t<system>", 1)

    cases = [
        (failing_first_template(doc).replace("</nta>", "</ntb>"), "malformed XML"),
        (after_templates(failing_first_template(doc), "\t<declaration>chan zz;</declaration>\n"), "repeated <declaration>"),
    ]
    for text, message in cases:
        with pytest.raises(XmlLoadError, match=message):
            load(text)
    declaration = re.search(r"\t<declaration>.*?</declaration>\n", doc, re.S).group(0)
    assert load(after_templates(doc.replace(declaration, "", 1), declaration)) == net


def test_comments_outside_the_root_element_are_ignored():
    net = assemble(Stop())
    bad = "<!-- tockta-channel-kinds -->"
    assert load(emit(net).replace("<nta>", bad + "<nta>", 1) + bad + "\n") == net


def traced_peak(call, *args):
    """The ``tracemalloc`` peak, in bytes, of ``call(*args)``."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_holds_one_template_at_a_time(workloads):
    doc = emit(assemble(parse(workloads.family_text(32))))
    assert len(doc) > 800_000
    assert traced_peak(load, doc) < traced_peak(ET.fromstring, doc) / 4


_LOAD_ON_THE_PYTHON_BUILDER = """
import inspect, sys
sys.modules["_elementtree"] = None  # before any import of ElementTree
import xml.etree.ElementTree as ET
from tockta.cspast import Stop
from tockta.translate import assemble
from tockta.uppaalxml import XmlLoadError, emit, load
assert inspect.isfunction(ET.TreeBuilder.close), "the C TreeBuilder is still in use"
net = assemble(Stop())
assert load(emit(net)) == net
try:
    load(emit(net)[:-20])
except XmlLoadError as exc:
    assert "malformed XML" in str(exc), exc
else:
    raise AssertionError("a truncated document loaded")
"""


def test_load_works_on_the_pure_python_tree_builder():
    # The holder element that load opens stays open; unlike the C builder,
    # the Python one checks for open elements at close().
    env = {**os.environ, "PYTHONPATH": str(Path(uppaalxml.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", _LOAD_ON_THE_PYTHON_BUILDER], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr


def test_undefined_entities_in_labels_are_load_errors():
    # Under the emitted PUBLIC doctype an undefined entity is still an
    # error, never a label that silently loses the reference.
    doc = emit(assemble(Stop()))
    assert doc.count("<!DOCTYPE nta PUBLIC") == 1
    with pytest.raises(XmlLoadError, match="malformed XML"):
        load(doc.replace('<label kind="guard">start==0</label>', '<label kind="guard">start&foo;==0</label>', 1))


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


def test_save_file_writes_the_emitted_document_a_line_at_a_time(tmp_path, workloads):
    nets = [assemble(parse_file(str(path))) for path in sorted(FIXTURES.glob("*.tcsp"))]
    nets.append(assemble(parse(workloads.family_text(32))))
    path = str(tmp_path / "net.xml")
    for net in nets:
        save_file(net, path)
        with open(path, "rb") as handle:
            assert handle.read() == emit(net).encode("utf-8")
    assert traced_peak(save_file, nets[-1], path) < traced_peak(emit, nets[-1]) / 4


def test_load_builds_no_reference_cycles(collector_off):
    # Why load may pause the collector: what it builds, reference counting
    # frees, so a collection right after each load finds nothing.
    docs = pinned_documents()[0] + [emit(assemble(large_shape_specs()[0]))]
    gc.collect()
    for doc in docs:
        load(doc)
        assert gc.collect() == 0


def test_load_runs_no_collection(workloads):
    doc = emit(assemble(parse(workloads.family_text(32))))
    collections = []
    gc.callbacks.append(lambda phase, info: collections.append(info))
    try:
        load(doc)
    finally:
        gc.callbacks.pop()
    assert collections == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda doc: doc, None),
        (lambda doc: doc[:-20], "malformed XML"),
        (lambda doc: doc.replace("<nta>", "<ntb>").replace("</nta>", "</ntb>"), "expected root element"),
        (lambda doc: doc.replace("tock!", "nochan!", 1), "invalid network"),
    ],
    ids=["loads", "malformed", "wrong-root", "invalid-network"],
)
def test_load_leaves_the_collector_as_it_found_it(collector_off, enabled, edit, error):
    doc = edit(emit(assemble(Stop())))
    if enabled:
        gc.enable()
    if error is None:
        load(doc)
    else:
        with pytest.raises(XmlLoadError, match=error):
            load(doc)
    assert gc.isenabled() is enabled
