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

import re
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


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = {
    "[[": "RENL",
    "]]": "RENR",
    "[|": "PARL",
    "|]": "PARR",
    "[]": "EXTC",
    "|~|": "INTC",
    "|||": "ILEAVE",
    "/\\": "INTERRUPT",
    "->": "ARROW",
    "<-": "MAPSTO",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    ",": "COMMA",
    ";": "SEMI",
    "\\": "HIDE",
    "=": "EQUALS",
}
# A newline, blanks, a punctuation mark (longest first), a word, or any
# other character, which is an error.
_TOKEN_RE = re.compile(
    "|".join([r"\n", r"[ \t\r]+", *map(re.escape, sorted(_PUNCT, key=len, reverse=True)), r"\w+", "."])
)


def _tokenize(source: str, line: int = 1, col: int = 1) -> list[_Tok]:
    """Tokens of ``source``, positioned as if it started at ``line:col``."""
    toks: list[_Tok] = []
    base = -col  # the token at offset i is in column i - base
    for m in _TOKEN_RE.finditer(source):
        text = m.group()
        kind = _PUNCT.get(text)
        if kind is None:
            if text[0].isalpha():
                kind = "IDENT"
            elif text == "\n":
                line += 1
                base = m.start()
                continue
            elif text[0] in " \t\r":
                continue
            else:
                raise CspSyntaxError(f"unexpected character {text[0]!r}", line, m.start() - base)
        toks.append(_Tok(kind, text, line, m.start() - base))
    toks.append(_Tok("EOF", "", line, len(source) - base))
    return toks


# The binary operators by token, as (level, constructor) with the loosest
# level 0; each level is left-associative.
_BINARY_OPS = {
    "INTC": (0, IntChoice),
    "EXTC": (1, ExtChoice),
    "ILEAVE": (2, Interleave),
    "PARL": (2, GenPar),
    "SEMI": (3, Seq),
    "INTERRUPT": (4, Interrupt),
}


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

    def checked(self, tok: _Tok, make, *args, **kw):
        """``make(*args, **kw)``, with a bad event name reported at ``tok``."""
        try:
            return make(*args, **kw)
        except SpecError as exc:
            raise CspSyntaxError(str(exc), tok.line, tok.col) from exc

    def process(self, level: int = 0) -> CspProcess:
        """A process whose binary operators bind no looser than ``level``,
        by precedence climbing: one call per operand."""
        p = self.prefix()
        while (op := _BINARY_OPS.get(self.peek().kind)) and op[0] >= level:
            op_level, make = op
            tok = self.next()
            if make is GenPar:
                events = self.event_set()
                self.expect("PARR")
                p = self.checked(tok, GenPar, p, self.process(op_level + 1), frozenset(events))
            else:
                p = make(p, self.process(op_level + 1))
        return p

    def prefix(self) -> CspProcess:
        if self.at("IDENT") and self.toks[self.pos + 1].kind == "ARROW":
            tok = self.next()
            self.next()
            self.checked(tok, validate_event_name, tok.text, allow_tock=True)
            if tok.text in ("STOP", "SKIP"):
                raise CspSyntaxError(f"{tok.text} cannot be an event", tok.line, tok.col)
            return Prefix(tok.text, self.prefix())
        return self.postfix()

    def postfix(self) -> CspProcess:
        p = self.atom()
        while True:
            if self.at("HIDE"):
                tok = self.next()
                p = self.checked(tok, Hide, p, frozenset(self.event_set()))
            elif self.at("RENL"):
                tok = self.next()
                pairs = self.comma_list(self.renaming_pair)
                self.expect("RENR")
                p = self.checked(tok, Rename, p, tuple(pairs))
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

    def renaming_pair(self) -> tuple[str, str]:
        old = self.expect("IDENT").text
        self.expect("MAPSTO")
        return old, self.expect("IDENT").text

    def event_set(self) -> list[str]:
        self.expect("LBRACE")
        events = [] if self.at("RBRACE") else self.comma_list(lambda: self.expect("IDENT").text)
        self.expect("RBRACE")
        return events

    def comma_list(self, item) -> list:
        """One or more ``item()``, separated by commas."""
        items = [item()]
        while self.at("COMMA"):
            self.next()
            items.append(item())
        return items


def _split_definitions(source: str) -> list[tuple[str, str, int, int]]:
    """Split into (name, body-text, line, col) chunks, one per definition;
    the body starts at ``line:col`` and keeps one line per source line,
    each without its comment or trailing blanks, so that end of input is
    reported just after the last token on every line."""
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
            defs[-1] = (name, body + gap + text.rstrip(), line, col)
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
    """Parse a UTF-8 file; other bytes are a ``SpecError`` naming where."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8") from None
    return parse(text)
