"""Text parser for ``.tcsp`` specifications.

One definition per logical line (``Name = process``); a line that does not
start a new definition continues the previous one.  ``--`` starts a line
comment.  The definition named ``MAIN`` is the entry point if present,
otherwise the first definition is.

Operator precedence, tightest first: postfix hiding/renaming, prefix
``->``, interrupt ``/\\``, sequential ``;``, the parallel operators
``|||`` and ``[|{...}|]``, external choice ``[]``, internal choice ``|~|``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cspast import (
    CspProcess,
    CspSpec,
    ExtChoice,
    GenPar,
    Hide,
    IntChoice,
    Interleave,
    Interrupt,
    Prefix,
    Ref,
    Rename,
    Seq,
    Skip,
    SpecError,
    Stop,
    validate_event_name,
)

__all__ = ["parse", "parse_file", "CspSyntaxError"]


class CspSyntaxError(SpecError):
    """Syntax error with source position and the tokens that were expected."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = [
    ("[[", "RENL"),
    ("]]", "RENR"),
    ("[|", "PARL"),
    ("|]", "PARR"),
    ("[]", "EXTC"),
    ("|~|", "INTC"),
    ("|||", "ILEAVE"),
    ("/\\", "INTERRUPT"),
    ("->", "ARROW"),
    ("<-", "MAPSTO"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    (",", "COMMA"),
    (";", "SEMI"),
    ("\\", "HIDE"),
    ("=", "EQUALS"),
]
_PUNCT.sort(key=lambda item: -len(item[0]))


def _tokenize(source: str, line: int = 1, col: int = 1) -> list[_Tok]:
    """Tokens of ``source``, positioned as if it started at ``line:col``."""
    toks: list[_Tok] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        for text, kind in _PUNCT:
            if source.startswith(text, i):
                toks.append(_Tok(kind, text, line, col))
                i += len(text)
                col += len(text)
                break
        else:
            if ch.isalpha():
                j = i
                while j < n and (source[j].isalnum() or source[j] == "_"):
                    j += 1
                toks.append(_Tok("IDENT", source[i:j], line, col))
                col += j - i
                i = j
            else:
                raise CspSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            raise CspSyntaxError(
                f"unexpected {tok.text!r}", tok.line, tok.col, expected=(kind,)
            )
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    # precedence ladder, loosest first
    def process(self) -> CspProcess:
        return self.int_choice()

    def int_choice(self) -> CspProcess:
        p = self.ext_choice()
        while self.at("INTC"):
            self.next()
            p = IntChoice(p, self.ext_choice())
        return p

    def ext_choice(self) -> CspProcess:
        p = self.parallel()
        while self.at("EXTC"):
            self.next()
            p = ExtChoice(p, self.parallel())
        return p

    def parallel(self) -> CspProcess:
        p = self.sequence()
        while True:
            if self.at("ILEAVE"):
                self.next()
                p = Interleave(p, self.sequence())
            elif self.at("PARL"):
                self.next()
                events = self.event_set()
                self.expect("PARR")
                p = GenPar(p, self.sequence(), frozenset(events))
            else:
                return p

    def sequence(self) -> CspProcess:
        p = self.interrupt()
        while self.at("SEMI"):
            self.next()
            p = Seq(p, self.interrupt())
        return p

    def interrupt(self) -> CspProcess:
        p = self.prefix()
        while self.at("INTERRUPT"):
            self.next()
            p = Interrupt(p, self.prefix())
        return p

    def prefix(self) -> CspProcess:
        if self.at("IDENT") and self.toks[self.pos + 1].kind == "ARROW":
            tok = self.next()
            self.next()
            try:
                validate_event_name(tok.text, allow_tock=True)
            except SpecError as exc:
                raise CspSyntaxError(str(exc), tok.line, tok.col) from exc
            if tok.text in ("STOP", "SKIP"):
                raise CspSyntaxError(f"{tok.text} cannot be an event", tok.line, tok.col)
            return Prefix(tok.text, self.prefix())
        return self.postfix()

    def postfix(self) -> CspProcess:
        p = self.atom()
        while True:
            if self.at("HIDE"):
                self.next()
                events = self.event_set()
                try:
                    p = Hide(p, frozenset(events))
                except SpecError as exc:
                    tok = self.peek()
                    raise CspSyntaxError(str(exc), tok.line, tok.col) from exc
            elif self.at("RENL"):
                tok = self.next()
                pairs = []
                while True:
                    old = self.expect("IDENT").text
                    self.expect("MAPSTO")
                    new = self.expect("IDENT").text
                    pairs.append((old, new))
                    if self.at("COMMA"):
                        self.next()
                    else:
                        break
                self.expect("RENR")
                try:
                    p = Rename(p, tuple(pairs))
                except SpecError as exc:
                    raise CspSyntaxError(str(exc), tok.line, tok.col) from exc
            else:
                return p

    def atom(self) -> CspProcess:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            p = self.process()
            self.expect("RPAREN")
            return p
        if tok.kind == "IDENT":
            self.next()
            if tok.text == "STOP":
                return Stop()
            if tok.text == "SKIP":
                return Skip()
            return Ref(tok.text)
        raise CspSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=("STOP", "SKIP", "identifier", "("),
        )

    def event_set(self) -> list[str]:
        self.expect("LBRACE")
        return self._ident_list_until_rbrace()

    def _ident_list_until_rbrace(self) -> list[str]:
        events: list[str] = []
        if not self.at("RBRACE"):
            while True:
                events.append(self.expect("IDENT").text)
                if self.at("COMMA"):
                    self.next()
                else:
                    break
        self.expect("RBRACE")
        return events


def _split_definitions(source: str) -> list[tuple[str, str, int, int]]:
    """Split into (name, body-text, line, col) chunks, one per definition;
    the body starts at ``line:col`` and keeps one line per source line."""
    defs: list[tuple[str, str, int, int]] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("--", 1)[0]
        stripped = text.strip()
        if not stripped:
            continue
        head = stripped.split("=", 1)
        name = head[0].strip()
        if len(head) == 2 and name and name.replace("_", "a").isalnum() and name[0].isalpha():
            col = raw.index("=") + 2
            defs.append((name, head[1], lineno, col))
        elif defs:
            name, body, line, col = defs[-1]
            gap = "\n" * (lineno - line - body.count("\n"))
            defs[-1] = (name, body + gap + text, line, col)
        else:
            raise CspSyntaxError("expected 'Name = process'", lineno, 1)
    return defs


def parse(source: str) -> CspSpec:
    """Parse a specification; deterministic and total over the grammar."""
    chunks = _split_definitions(source)
    if not chunks:
        raise CspSyntaxError("empty specification", 1, 1)
    definitions: dict[str, CspProcess] = {}
    positions: dict[str, tuple[int, int]] = {}
    for name, body, line, col in chunks:
        if name in definitions:
            raise CspSyntaxError(f"duplicate definition of {name!r}", line, 1)
        parser = _Parser(_tokenize(body, line, col))
        proc = parser.process()
        tail = parser.peek()
        if tail.kind != "EOF":
            raise CspSyntaxError(
                f"trailing input {tail.text!r} after definition of {name}", tail.line, tail.col
            )
        definitions[name] = proc
        positions[name] = (line, col)
    main = "MAIN" if "MAIN" in definitions else chunks[0][0]
    return CspSpec(definitions=definitions, main=main, positions=positions)


def parse_file(path: str) -> CspSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())
