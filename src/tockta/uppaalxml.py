"""UPPAAL 4.x flat-XML serialisation and loading.

``emit`` is deterministic: structurally equal networks produce
byte-identical documents.  Channel kinds travel in a single XML comment
(stock UPPAAL ignores it), so ``load(emit(net))`` recovers the network
exactly; foreign documents are accepted as long as they stay within the
expression grammar this model supports (conjunctions of comparisons
against integer constants, constant assignments, plain synchronisation
labels).  Locations get deterministic grid coordinates because the model
itself carries no geometry.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

from .tamodel import (
    Assignment,
    ChannelDecl,
    ChannelKind,
    ClockAtom,
    Edge,
    GuardExpr,
    IntAtom,
    Location,
    LocationKind,
    NetworkModel,
    SyncLabel,
    TimedAutomaton,
    kind_from_name,
    validate,
)

__all__ = ["emit", "load", "save_file", "load_file", "XmlLoadError"]

_DOCTYPE = (
    "<!DOCTYPE nta PUBLIC '-//Uppaal Team//DTD Flat System 1.1//EN' "
    "'http://www.it.uu.se/research/group/darts/uppaal/flat-1_1.dtd'>"
)

_KIND_COMMENT = "tockta-channel-kinds"


class XmlLoadError(ValueError):
    """Malformed or unsupported document content."""


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
    for clock in net.global_clocks:
        lines.append(f"clock {clock};")
    return "\n".join(lines)


def _grid(index: int) -> tuple[int, int]:
    return 160 * (index % 4), 130 * (index // 4)


def emit(net: NetworkModel) -> str:
    """Serialise a validated network to UPPAAL flat XML text."""
    out = ['<?xml version="1.0" encoding="utf-8"?>', _DOCTYPE, "<nta>"]
    out.append("\t<declaration>" + escape(_emit_declaration(net)) + "</declaration>")
    kinds = ";".join(f"{c.name}={c.kind.value}" for c in net.channels)
    env_name = net.automata[net.environment_index].name if 0 <= net.environment_index < len(net.automata) else ""
    out.append(f"\t<!-- {_KIND_COMMENT}: {kinds} | environment={env_name} -->")
    doc_id = 0
    for ta in net.automata:
        out.append("\t<template>")
        out.append(f"\t\t<name>{escape(ta.name)}</name>")
        if ta.clocks:
            local = "\n".join(f"clock {c};" for c in ta.clocks)
            out.append(f"\t\t<declaration>{escape(local)}</declaration>")
        ids: dict[str, str] = {}
        for index, loc in enumerate(ta.locations):
            ids[loc.id] = f"id{doc_id}"
            doc_id += 1
            x, y = _grid(index)
            pieces = [f'\t\t<location id="{ids[loc.id]}" x="{x}" y="{y}">']
            pieces.append(f"<name>{escape(loc.display_name or loc.id)}</name>")
            if loc.invariant:
                inv = " && ".join(a.render() for a in loc.invariant)
                pieces.append(f'<label kind="invariant">{escape(inv)}</label>')
            if loc.kind is LocationKind.COMMITTED:
                pieces.append("<committed/>")
            elif loc.kind is LocationKind.URGENT:
                pieces.append("<urgent/>")
            pieces.append("</location>")
            out.append("".join(pieces))
        out.append(f'\t\t<init ref="{ids[ta.initial]}"/>')
        for edge in ta.edges:
            pieces = ["\t\t<transition>"]
            pieces.append(f'<source ref="{ids[edge.source]}"/>')
            pieces.append(f'<target ref="{ids[edge.target]}"/>')
            if edge.guard is not None:
                pieces.append(f'<label kind="guard">{escape(edge.guard.render())}</label>')
            if edge.sync is not None:
                pieces.append(f'<label kind="synchronisation">{escape(edge.sync.render())}</label>')
            if edge.updates:
                text = ", ".join(u.render() for u in edge.updates)
                pieces.append(f'<label kind="assignment">{escape(text)}</label>')
            pieces.append("</transition>")
            out.append("".join(pieces))
        out.append("\t</template>")
    names = ", ".join(ta.name for ta in net.automata)
    out.append(f"\t<system>system {escape(names)};</system>")
    out.append("\t<queries/>")
    out.append("</nta>")
    return "\n".join(out) + "\n"


_CHAN_RE = re.compile(r"^(broadcast\s+chan|urgent\s+chan|chan)\s+(\w+)\s*;\s*$")
_INT_RE = re.compile(r"^int\s+(\w+)\s*(?:=\s*(-?\d+))?\s*;\s*$")
_CLOCK_RE = re.compile(r"^clock\s+([\w\s,]+);\s*$")
_ATOM_RE = re.compile(
    r"^\(?\s*([A-Za-z_]\w*(?:\s*\+\s*[A-Za-z_]\w*)*)\s*\)?\s*(<=|>=|==|<|>)\s*(\d+)\s*$"
)
_ASSIGN_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?::=|=)\s*(-?\d+)\s*$")
_SYNC_RE = re.compile(r"^([A-Za-z_]\w*)\s*([!?])\s*$")


def _parse_atoms(text: str, clocks: set[str], where: str) -> tuple:
    atoms = []
    for part in text.split("&&"):
        part = part.strip()
        if not part:
            continue
        m = _ATOM_RE.match(part)
        if not m:
            raise XmlLoadError(f"unsupported expression {part!r} in {where}")
        names = [n.strip() for n in m.group(1).split("+")]
        op, const = m.group(2), int(m.group(3))
        if len(names) == 1 and names[0] in clocks:
            atoms.append(ClockAtom(names[0], op, const))
        else:
            atoms.append(IntAtom(tuple(names), op, const))
    return tuple(atoms)


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
            mode = {"chan": "binary", "broadcast chan": "broadcast", "urgent chan": "urgent-binary"}[
                re.sub(r"\s+", " ", m.group(1))
            ]
            channels.append((m.group(2), mode))
            continue
        m = _INT_RE.match(line)
        if m:
            int_vars.append((m.group(1), int(m.group(2) or 0)))
            continue
        m = _CLOCK_RE.match(line)
        if m:
            clocks.extend(c.strip() for c in m.group(1).split(",") if c.strip())
            continue
        raise XmlLoadError(f"unsupported declaration {line!r}")
    return channels, int_vars, clocks


def load(document: str) -> NetworkModel:
    """Parse a document in the emitted dialect back into a network."""
    try:
        parser = ET.XMLParser(target=ET.TreeBuilder(insert_comments=True))
        root = ET.fromstring(document, parser=parser)
    except ET.ParseError as exc:
        raise XmlLoadError(f"malformed XML: {exc}") from exc
    if root.tag != "nta":
        raise XmlLoadError(f"expected root element 'nta', found {root.tag!r}")

    kinds: dict[str, ChannelKind] = {}
    env_name: str | None = None
    for node in root.iter():
        if node.tag is ET.Comment and _KIND_COMMENT in (node.text or ""):
            _, colon, body = node.text.partition(":")
            if not colon:
                raise XmlLoadError(f"{_KIND_COMMENT} comment without a colon")
            mapping, _, envpart = body.partition("|")
            for pair in mapping.split(";"):
                pair = pair.strip()
                if pair:
                    name, _, value = pair.partition("=")
                    try:
                        kinds[name.strip()] = ChannelKind(value.strip())
                    except ValueError:
                        raise XmlLoadError(
                            f"unknown channel kind {value.strip()!r} in {_KIND_COMMENT} comment"
                        ) from None
            if "environment=" in envpart:
                env_name = envpart.split("environment=", 1)[1].strip() or None

    decl_node = root.find("declaration")
    channels_raw, int_vars, global_clocks = _parse_declaration(
        decl_node.text or "" if decl_node is not None else ""
    )
    channels = tuple(
        ChannelDecl(name, mode, kinds.get(name, kind_from_name(name)))
        for name, mode in channels_raw
    )

    automata = []
    for template in root.findall("template"):
        name_node = template.find("name")
        if name_node is None or not (name_node.text or "").strip():
            raise XmlLoadError("template without a name")
        name = name_node.text.strip()
        if template.find("parameter") is not None:
            raise XmlLoadError(f"unsupported expression: template {name!r} has parameters")
        local_clocks: list[str] = []
        local_decl = template.find("declaration")
        if local_decl is not None and (local_decl.text or "").strip():
            extra_channels, extra_ints, local_clocks = _parse_declaration(local_decl.text)
            if extra_channels or extra_ints:
                raise XmlLoadError(
                    f"unsupported declaration: template {name!r} declares non-clock state"
                )
        clock_names = set(local_clocks) | set(global_clocks)

        id_to_model: dict[str, str] = {}
        locations = []
        used_names: set[str] = set()
        for node in template.findall("location"):
            doc_id = node.get("id")
            if doc_id is None:
                raise XmlLoadError(f"location without id in template {name!r}")
            label = node.find("name")
            model_id = (label.text or "").strip() if label is not None else ""
            if not model_id or model_id in used_names:
                model_id = doc_id
            used_names.add(model_id)
            id_to_model[doc_id] = model_id
            kind = LocationKind.NORMAL
            if node.find("committed") is not None:
                kind = LocationKind.COMMITTED
            elif node.find("urgent") is not None:
                kind = LocationKind.URGENT
            invariant: tuple = ()
            for lab in node.findall("label"):
                if lab.get("kind") == "invariant":
                    atoms = _parse_atoms(lab.text or "", clock_names, f"template {name!r}")
                    bad = [a for a in atoms if not isinstance(a, ClockAtom)]
                    if bad:
                        raise XmlLoadError(f"unsupported invariant in template {name!r}")
                    invariant = atoms
            locations.append(Location(model_id, model_id, kind, invariant))

        init = template.find("init")
        if init is None or init.get("ref") not in id_to_model:
            raise XmlLoadError(f"missing initial location in template {name!r}")

        edges = []
        for index, node in enumerate(template.findall("transition")):
            where = f"template {name!r}, transition {index}"
            if node.find("select") is not None:
                raise XmlLoadError(f"unsupported expression: select in {where}")
            source = node.find("source")
            target = node.find("target")
            if source is None or target is None:
                raise XmlLoadError(f"transition without endpoints in {where}")
            guard = None
            sync = None
            updates: tuple[Assignment, ...] = ()
            for lab in node.findall("label"):
                kind_attr = lab.get("kind")
                text = (lab.text or "").strip()
                if kind_attr == "guard" and text:
                    atoms = _parse_atoms(text, clock_names, where)
                    guard = GuardExpr(atoms) if atoms else None
                elif kind_attr == "synchronisation" and text:
                    m = _SYNC_RE.match(text)
                    if not m:
                        raise XmlLoadError(f"unsupported synchronisation {text!r} in {where}")
                    sync = SyncLabel(m.group(1), "send" if m.group(2) == "!" else "receive")
                elif kind_attr == "assignment" and text:
                    parts = []
                    for chunk in text.split(","):
                        m = _ASSIGN_RE.match(chunk.strip())
                        if not m:
                            raise XmlLoadError(f"unsupported expression {chunk.strip()!r} in {where}")
                        parts.append(Assignment(m.group(1), int(m.group(2))))
                    updates = tuple(parts)
                elif kind_attr in ("comments", "testcode", None) or not text:
                    continue
                else:
                    raise XmlLoadError(f"unsupported label kind {kind_attr!r} in {where}")
            try:
                src_id = id_to_model[source.get("ref")]
                tgt_id = id_to_model[target.get("ref")]
            except KeyError as exc:
                raise XmlLoadError(f"dangling location reference in {where}") from exc
            edges.append(Edge(src_id, tgt_id, guard, sync, updates))

        automata.append(
            TimedAutomaton(
                name=name,
                locations=tuple(locations),
                initial=id_to_model[init.get("ref")],
                clocks=tuple(local_clocks),
                edges=tuple(edges),
            )
        )

    if not automata:
        raise XmlLoadError("document contains no templates")
    env_index = -1
    if env_name is not None:
        for i, ta in enumerate(automata):
            if ta.name == env_name:
                env_index = i
    if env_index < 0:
        # fall back: the single-location automaton broadcasting tock
        for i, ta in enumerate(automata):
            if len(ta.locations) == 1 and any(
                e.sync is not None and e.sync.channel == "tock" and e.sync.direction == "send"
                for e in ta.edges
            ):
                env_index = i
                break

    net = NetworkModel(
        automata=tuple(automata),
        channels=channels,
        int_vars=tuple(int_vars),
        global_clocks=tuple(global_clocks),
        environment_index=env_index,
    )
    problems = validate(net)
    if problems:
        raise XmlLoadError("invalid network: " + "; ".join(str(p) for p in problems[:5]))
    return net


def save_file(net: NetworkModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(emit(net))


def load_file(path: str) -> NetworkModel:
    with open(path, "r", encoding="utf-8") as handle:
        return load(handle.read())
