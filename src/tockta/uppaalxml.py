"""UPPAAL 4.x flat-XML serialisation and loading.

``emit`` is deterministic: structurally equal networks produce
byte-identical documents, and ``load(emit(net))`` recovers the network
exactly.  The document declares no channel kinds and no environment: the
model derives both, from the names (``tamodel.kind_from_name``) and the
shapes (``tamodel.find_environment``).  Foreign documents are accepted as
long as they stay within the expression grammar this model supports
(conjunctions of comparisons against integer constants, constant
assignments, plain synchronisation labels) and give each transition at
most one label of each kind.  What the model leaves out is refused, each with an error that
names it and where it is: a clock in the top-level declaration, an
``<urgent/>`` location, a non-blank invariant label, and a strict (``<``
or ``>``) clock atom, on which integer time is not exact.  Locations get
deterministic grid coordinates because the model itself carries no
geometry.  ``load`` parses a chunk at a time and frees each template's
elements once it has loaded them, with the cyclic garbage collector
paused for the whole process (``load`` says why that is safe).  ``save_file`` writes the document a line at a time.

Text is escaped by ``_escape``, not ``xml.sax.saxutils.escape``: that
import loads the network stack (``urllib.request``, ``ssl``, ``socket``,
``email``), about 7 MB in every process that imports the package.
"""

from __future__ import annotations

import gc
import re
import xml.etree.ElementTree as ET

from .tamodel import (
    Assignment,
    ChannelDecl,
    ClockAtom,
    Edge,
    GuardExpr,
    IntAtom,
    Location,
    LocationKind,
    NetworkModel,
    SyncLabel,
    TimedAutomaton,
    validate,
)

__all__ = ["emit", "load", "save_file", "load_file", "XmlLoadError"]

_DOCTYPE = (
    "<!DOCTYPE nta PUBLIC '-//Uppaal Team//DTD Flat System 1.1//EN' "
    "'http://www.it.uu.se/research/group/darts/uppaal/flat-1_1.dtd'>"
)

# A channel, variable or clock name as the declaration grammar reads it.
_WORD_RE = re.compile(r"\w+")


class XmlLoadError(ValueError):
    """Malformed or unsupported document content."""


def _escape(text: str) -> str:
    """``text`` as XML character data: ``&`` first, then ``<`` and ``>``;
    quotes stay as they are, since no attribute value is escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _emit_declaration(net: NetworkModel) -> str:
    lines = []
    for decl in net.channels:
        if decl.mode == "broadcast":
            lines.append(f"broadcast chan {decl.name};")
        elif decl.mode == "urgent-binary":
            lines.append(f"urgent chan {decl.name};")
        else:
            lines.append(f"chan {decl.name};")
    for name, value in net.int_vars:
        lines.append(f"int {name} = {value};")
    return "\n".join(lines)


def _grid(index: int) -> tuple[int, int]:
    return 160 * (index % 4), 130 * (index // 4)


def emit(net: NetworkModel) -> str:
    """Serialise a validated network to UPPAAL flat XML text.

    Raises ``ValueError`` for what ``load`` could not read back: a channel,
    integer variable or clock name that is not a word, or an automaton
    name that is empty or has surrounding whitespace (``load`` strips it)."""
    _check_readable(net)
    return "\n".join(_lines(net)) + "\n"


def _check_readable(net: NetworkModel) -> None:
    """Raise ``ValueError`` unless ``load`` reads ``emit(net)`` back as ``net``."""
    words = [("channel", decl.name) for decl in net.channels]
    words += [("integer variable", name) for name, _ in net.int_vars]
    words += [("clock", name) for ta in net.automata for name in ta.clocks]
    for what, name in words:
        if not _WORD_RE.fullmatch(name):
            raise ValueError(f"{what} name {name!r} is not a word (letters, digits, underscores)")
    for ta in net.automata:
        if not ta.name or ta.name != ta.name.strip():
            raise ValueError(f"automaton name {ta.name!r} is empty or has surrounding whitespace")


def _lines(net: NetworkModel):
    """The document's lines, without their line ends, one at a time."""
    yield '<?xml version="1.0" encoding="utf-8"?>'
    yield _DOCTYPE
    yield "<nta>"
    yield "\t<declaration>" + _escape(_emit_declaration(net)) + "</declaration>"
    doc_id = 0
    for ta in net.automata:
        yield "\t<template>"
        yield f"\t\t<name>{_escape(ta.name)}</name>"
        if ta.clocks:
            local = "\n".join(f"clock {c};" for c in ta.clocks)
            yield f"\t\t<declaration>{_escape(local)}</declaration>"
        ids: dict[str, str] = {}
        for index, loc in enumerate(ta.locations):
            ids[loc.id] = f"id{doc_id}"
            doc_id += 1
            x, y = _grid(index)
            pieces = [f'\t\t<location id="{ids[loc.id]}" x="{x}" y="{y}">']
            pieces.append(f"<name>{_escape(loc.id)}</name>")
            if loc.kind is LocationKind.COMMITTED:
                pieces.append("<committed/>")
            pieces.append("</location>")
            yield "".join(pieces)
        yield f'\t\t<init ref="{ids[ta.initial]}"/>'
        for edge in ta.edges:
            pieces = ["\t\t<transition>"]
            pieces.append(f'<source ref="{ids[edge.source]}"/>')
            pieces.append(f'<target ref="{ids[edge.target]}"/>')
            if edge.guard is not None:
                pieces.append(f'<label kind="guard">{_escape(edge.guard.render())}</label>')
            if edge.sync is not None:
                pieces.append(f'<label kind="synchronisation">{_escape(edge.sync.render())}</label>')
            if edge.updates:
                text = ", ".join(u.render() for u in edge.updates)
                pieces.append(f'<label kind="assignment">{_escape(text)}</label>')
            pieces.append("</transition>")
            yield "".join(pieces)
        yield "\t</template>"
    names = ", ".join(ta.name for ta in net.automata)
    yield f"\t<system>system {_escape(names)};</system>"
    yield "\t<queries/>"
    yield "</nta>"


_CHAN_RE = re.compile(r"^(broadcast\s+chan|urgent\s+chan|chan)\s+(\w+)\s*;\s*$")
_CHAN_MODES = {"chan": "binary", "broadcast chan": "broadcast", "urgent chan": "urgent-binary"}
_INT_RE = re.compile(r"^int\s+(\w+)\s*(?:=\s*(-?\d+))?\s*;\s*$")
_CLOCK_RE = re.compile(r"^clock\s+([\w\s,]+);\s*$")
# A name or a sum, in balanced parentheses or none, then one relation.
_ATOM_RE = re.compile(
    r"^(\()?\s*([A-Za-z_]\w*(?:\s*\+\s*[A-Za-z_]\w*)*)\s*(?(1)\))\s*(<=|>=|==|<|>)\s*(-?\d+)\s*$"
)
_ASSIGN_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?::=|=)\s*(-?\d+)\s*$")
_SYNC_RE = re.compile(r"^([A-Za-z_]\w*)\s*([!?])\s*$")

# The label parsers' errors name no place: the caller adds where they are.


def _parse_atoms(text: str, clocks: frozenset[str]) -> tuple:
    """The atoms of a non-blank conjunction; each conjunct must be one."""
    atoms = []
    for part in text.split("&&"):
        part = part.strip()
        if not part:
            raise XmlLoadError(f"empty conjunct in {text.strip()!r}")
        m = _ATOM_RE.match(part)
        if not m:
            raise XmlLoadError(f"unsupported expression {part!r}")
        names = [n.strip() for n in m.group(2).split("+")]
        op, const = m.group(3), int(m.group(4))
        if len(names) == 1 and names[0] in clocks:
            if const < 0:
                raise XmlLoadError(f"negative clock constant in {part!r}")
            if op in ("<", ">"):
                raise XmlLoadError(f"unsupported strict clock atom {part!r}")
            atoms.append(ClockAtom(names[0], op, const))
        else:
            atoms.append(IntAtom(tuple(names), op, const))
    return tuple(atoms)


def _parse_sync(text: str) -> SyncLabel:
    m = _SYNC_RE.match(text)
    if not m:
        raise XmlLoadError(f"unsupported synchronisation {text!r}")
    return SyncLabel(m.group(1), "send" if m.group(2) == "!" else "receive")


def _parse_updates(text: str) -> tuple[Assignment, ...]:
    updates = []
    for chunk in text.split(","):
        m = _ASSIGN_RE.match(chunk.strip())
        if not m:
            raise XmlLoadError(f"unsupported expression {chunk.strip()!r}")
        updates.append(Assignment(m.group(1), int(m.group(2))))
    return tuple(updates)


def _parse_declaration(text: str):
    channels: list[tuple[str, str]] = []
    int_vars: list[tuple[str, int]] = []
    clocks: list[str] = []
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        m = _CHAN_RE.match(line)
        if m:
            channels.append((m.group(2), _CHAN_MODES[" ".join(m.group(1).split())]))
            continue
        m = _INT_RE.match(line)
        if m:
            int_vars.append((m.group(1), int(m.group(2) or 0)))
            continue
        m = _CLOCK_RE.match(line)
        names = [c.strip() for c in m.group(1).split(",")] if m else ()
        if names and all(map(_WORD_RE.fullmatch, names)):
            clocks.extend(names)
            continue
        raise XmlLoadError(f"unsupported declaration {line!r}")
    return channels, int_vars, clocks


def _root_declaration(text: str):
    """The channels and integer variables of the top-level declaration."""
    channels, int_vars, clocks = _parse_declaration(text)
    if clocks:
        raise XmlLoadError(f"unsupported global clock {clocks[0]!r} in the top-level declaration")
    return channels, int_vars


# Tags of which an element may have one child at most.
_SINGLE = frozenset({"name", "init", "source", "target", "declaration"})
# A location's kind by the tag that sets it.  Location keys hold the tag:
# a ``str`` hashes in C, an ``Enum`` member through ``Enum.__hash__``.
_KINDS = {"": LocationKind.NORMAL, "committed": LocationKind.COMMITTED}


def _children(node: ET.Element, listed: tuple[str, ...]) -> tuple[dict, list]:
    """One pass over ``node``'s children: the first child of each tag, and
    every child with a ``listed`` tag, in document order.  A repeated
    ``_SINGLE`` tag is an error."""
    first: dict = {}
    many = []
    for child in node:
        if child.tag in listed:
            many.append(child)
        elif first.setdefault(child.tag, child) is not child and child.tag in _SINGLE:
            raise XmlLoadError(f"repeated <{child.tag}>")
    return first, many


_CHUNK = 1 << 16  # characters fed to the XML parser at a time


def _complete_children(document: str, parser: ET.XMLParser, holder: ET.Element):
    """Feed ``document`` to ``parser`` by chunks, yielding each child of the root once it is closed."""
    done = 0
    for start in range(0, len(document), _CHUNK):
        parser.feed(document[start : start + _CHUNK])
        for root in holder:
            if root.tag is not ET.Comment:
                yield from root[done:-1]  # the last may be open
                done = max(done, len(root) - 1)
    try:
        parser.close()
    except AssertionError:
        # The pure-Python TreeBuilder asserts at close() that no element is
        # open, and the holder is; expat has accepted the whole document by
        # then, so a malformed one still raises ParseError first.
        pass


def load(document: str) -> NetworkModel:
    """Parse a document in the emitted dialect back into a network.

    One pass over each element's children finds its parts.  Each model
    object is built once per document: a label text is parsed once, and
    equal labels, locations and edges are one shared object.

    The cyclic garbage collector is paused while ``load`` runs.  The
    allocations of a large document trigger hundreds of its passes, each
    rescanning live objects, and they would reclaim nothing: nothing
    ``load`` builds holds a reference cycle, so reference counting frees
    all of it.  A cycle that other code makes meanwhile is collected once
    the collector runs again.  The pause applies to the whole process,
    every thread included.  It ends on every exit, error or not, and a
    collector that was disabled on entry stays disabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load(document)
    finally:
        if enabled:
            gc.enable()


def _load(document: str) -> NetworkModel:
    # Comments are inserted so that one inside a label ends the label's text.
    builder = ET.TreeBuilder(insert_comments=True)
    holder = builder.start("", {})  # the document's root element becomes its child
    children = _complete_children(document, ET.XMLParser(target=builder), holder)
    # The document's synchronisations and assignments by text, and its
    # guards, locations and edges per set of local clocks, which decides
    # whether a name in a guard is a clock.
    syncs: dict[str, SyncLabel] = {}
    assignments: dict[str, tuple[Assignment, ...]] = {}
    per_clocks: dict[frozenset, tuple[dict, dict, dict]] = {}
    loaded: dict[ET.Element, tuple | TimedAutomaton] = {}  # a declaration's parts or an automaton
    try:
        for node in children:
            try:
                if node.tag == "declaration":
                    loaded[node] = _root_declaration(node.text or "")
                elif node.tag == "template":
                    loaded[node] = _load_template(node, syncs, assignments, per_clocks)
                    node.clear()
            except XmlLoadError:
                break  # the failing element is read again, in order, below
        for _ in children:  # parse the rest
            pass
    except ET.ParseError as exc:
        raise XmlLoadError(f"malformed XML: {exc}") from exc
    root = next(node for node in holder if node.tag is not ET.Comment)
    if root.tag != "nta":
        raise XmlLoadError(f"expected root element 'nta', found {root.tag!r}")

    first, templates = _children(root, ("template",))
    decl_node = first.get("declaration")
    channels_raw, int_vars = loaded.get(decl_node) or _root_declaration(
        decl_node.text or "" if decl_node is not None else ""
    )
    channels = tuple(ChannelDecl(name, mode) for name, mode in channels_raw)
    automata = [loaded.get(t) or _load_template(t, syncs, assignments, per_clocks) for t in templates]

    if not automata:
        raise XmlLoadError("document contains no templates")
    net = NetworkModel(automata=tuple(automata), channels=channels, int_vars=tuple(int_vars))
    problems = validate(net)
    if problems:
        raise XmlLoadError("invalid network: " + "; ".join(str(p) for p in problems[:5]))
    return net


def _load_template(template: ET.Element, syncs: dict, assignments: dict, per_clocks: dict) -> TimedAutomaton:
    try:
        first, nodes = _children(template, ("location", "transition"))
    except XmlLoadError as exc:
        raise XmlLoadError(f"{exc} in template {(template.findtext('name') or '').strip()!r}") from None
    name_node = first.get("name")
    if name_node is None or not (name_node.text or "").strip():
        raise XmlLoadError("template without a name")
    name = name_node.text.strip()
    if "parameter" in first:
        raise XmlLoadError(f"unsupported expression: template {name!r} has parameters")
    local_clocks: list[str] = []
    local_decl = first.get("declaration")
    if local_decl is not None and (local_decl.text or "").strip():
        extra_channels, extra_ints, local_clocks = _parse_declaration(local_decl.text)
        if extra_channels or extra_ints:
            raise XmlLoadError(
                f"unsupported declaration: template {name!r} declares non-clock state"
            )
    clock_names = frozenset(local_clocks)
    guards, known_locations, known_edges = per_clocks.setdefault(clock_names, ({}, {}, {}))

    # One loop reads each element's children.  Anything but a first
    # <name>, <source> or <target> among the ``_SINGLE`` tags, or a
    # <select>, is rare: ``_children`` then checks the element, so errors
    # keep their order (a repeated ``_SINGLE`` child, then the element's
    # own checks, then its labels in document order).  A location's own
    # check is that it has none of the constructs the model leaves out.
    id_to_model: dict[str, str] = {}
    locations = []
    transitions = []
    used_names: set[str] = set()
    for node in nodes:
        if node.tag != "location":
            transitions.append(node)
            continue
        try:
            doc_id = node.get("id")
            if doc_id is None:
                raise XmlLoadError("location without id")
            label = None
            kind = ""  # the tag that sets the kind, as ``_KINDS`` keys it
            refused = None  # the first construct the model leaves out
            for child in node:
                tag = child.tag
                if tag == "label":
                    if child.get("kind") == "invariant" and refused is None and (text := (child.text or "").strip()):
                        refused = f"invariant {text!r}"
                elif tag == "name" and label is None:
                    label = child
                elif tag == "committed":
                    kind = tag
                elif tag == "urgent" and refused is None:
                    refused = "<urgent/>"
                elif tag in _SINGLE:
                    _children(node, ("label",))
            if refused is not None:
                raise XmlLoadError(f"unsupported {refused}")
            model_id = (label.text or "").strip() if label is not None else ""
            if not model_id or model_id in used_names:
                model_id = doc_id
            used_names.add(model_id)
            id_to_model[doc_id] = model_id
            key = (model_id, kind)
            location = known_locations.get(key)
            if location is None:
                location = known_locations[key] = Location(model_id, _KINDS[kind])
            locations.append(location)
        except XmlLoadError as exc:
            where = "" if doc_id is None else f" at location {doc_id!r}"
            raise XmlLoadError(f"{exc}{where} in template {name!r}") from None

    init = first.get("init")
    if init is None or init.get("ref") not in id_to_model:
        raise XmlLoadError(f"missing initial location in template {name!r}")

    edges = []
    for index, node in enumerate(transitions):
        try:
            source = target = guard = sync = updates = None
            labels = []
            for child in node:
                tag = child.tag
                if tag == "label":
                    labels.append(child)
                elif tag == "source" and source is None:
                    source = child
                elif tag == "target" and target is None:
                    target = child
                elif (tag in _SINGLE or tag == "select") and "select" in _children(node, ("label",))[0]:
                    raise XmlLoadError("unsupported expression: select")
            if source is None or target is None:
                raise XmlLoadError("transition without endpoints")
            texts = []
            for lab in labels:
                text = (lab.text or "").strip()
                kind = lab.get("kind")
                if not text or kind in ("comments", "testcode", None):
                    continue
                if kind == "guard" and guard is None:
                    guard = guards.get(text) or guards.setdefault(text, GuardExpr(_parse_atoms(text, clock_names)))
                elif kind == "synchronisation" and sync is None:
                    sync = syncs.get(text) or syncs.setdefault(text, _parse_sync(text))
                elif kind == "assignment" and updates is None:
                    updates = assignments.get(text) or assignments.setdefault(text, _parse_updates(text))
                elif kind in ("guard", "synchronisation", "assignment"):
                    raise XmlLoadError(f"repeated {kind} label")
                else:
                    raise XmlLoadError(f"unsupported label kind {kind!r}")
                texts += (kind, text)
            src_id = id_to_model.get(source.get("ref"))
            tgt_id = id_to_model.get(target.get("ref"))
            if src_id is None or tgt_id is None:
                raise XmlLoadError("dangling location reference")
            key = (src_id, tgt_id, *texts)
            edge = known_edges.get(key)
            if edge is None:
                edge = known_edges[key] = Edge(src_id, tgt_id, guard, sync, updates or ())
            edges.append(edge)
        except XmlLoadError as exc:
            raise XmlLoadError(f"{exc} in template {name!r}, transition {index}") from None

    return TimedAutomaton(
        name=name,
        locations=tuple(locations),
        initial=id_to_model[init.get("ref")],
        clocks=tuple(local_clocks),
        edges=tuple(edges),
    )


def save_file(net: NetworkModel, path: str) -> None:
    """Write ``emit(net)`` to ``path`` a line at a time, so the whole
    document is never held; a name ``emit`` refuses raises before the file
    is opened."""
    _check_readable(net)
    with open(path, "w", encoding="utf-8") as handle:
        for line in _lines(net):
            handle.write(line + "\n")


def load_file(path: str) -> NetworkModel:
    """Load a UTF-8 document; other bytes are an ``XmlLoadError`` naming where."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")  # the bytes are freed before loading
    except UnicodeDecodeError as exc:
        raise XmlLoadError(f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} is not UTF-8") from None
    return load(text)
