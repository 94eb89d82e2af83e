"""Abstract syntax for the supported discrete-time CSP dialect.

Processes are immutable trees.  The distinguished event name ``tock``
stands for the passage of one time unit and is therefore banned from
synchronisation sets, hiding sets and renaming maps: every process (and
every automaton the translator produces) synchronises on it implicitly.

A :class:`View` says how each event is seen through the wrappers around
a subterm; :func:`alphabet` and the translator walk the spec with views.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass, field
from functools import cached_property

from .tamodel import ChannelKind, kind_from_name

__all__ = [
    "TOCK",
    "SpecError",
    "validate_event_name",
    "is_reserved_action_name",
    "CspProcess",
    "Stop",
    "Skip",
    "Prefix",
    "Seq",
    "ExtChoice",
    "IntChoice",
    "GenPar",
    "Interleave",
    "Interrupt",
    "Hide",
    "Rename",
    "Ref",
    "CspSpec",
    "alphabet",
    "View",
    "wrap",
    "format_process",
    "format_spec",
]

TOCK = "tock"

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class SpecError(ValueError):
    """A structurally invalid process or specification."""


def is_reserved_action_name(name: str) -> bool:
    """True for ``tau`` and for names the translator may generate for
    coordination channels: those whose shape tells a coordinating kind."""
    return name == "tau" or kind_from_name(name) not in (ChannelKind.USER_EVENT, ChannelKind.TOCK)


def validate_event_name(name: str, *, allow_tock: bool = False) -> str:
    """Check that ``name`` is usable as a user-level event.

    ``tock`` is only legal where explicitly permitted (prefixing); the
    invisible actions and every reserved coordination shape are rejected
    outright so that user events can never collide with generated channels.
    """
    if not _IDENT_RE.match(name):
        raise SpecError(f"invalid event name {name!r}")
    if name == TOCK:
        if not allow_tock:
            raise SpecError("'tock' is the time event; it cannot appear here")
        return name
    if is_reserved_action_name(name):
        raise SpecError(f"{name!r} is reserved for generated coordination actions")
    return name


class CspProcess:
    """Base class for process terms; every subclass is a slots dataclass.

    Terms are immutable by contract (the tests enforce it), not frozen: a
    frozen dataclass stores each field through ``object.__setattr__``, about
    four times dearer per term.  A term's hash is computed once, when it is
    built, from its type, its event names and sets, and the cached hashes of
    its subterms; so hashing never walks a term.  String hashes are salted
    per process, so the memo is never pickled or copied: ``__reduce__``
    rebuilds a term from its fields."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__hash__ = CspProcess.__hash__  # kept by @dataclass, being explicit

    def __post_init__(self) -> None:  # for the nodes without fields
        self._hash = hash(type(self))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), tuple(getattr(self, name) for name in self.__match_args__))


@dataclass(slots=True)
class Stop(CspProcess):
    """Deadlock: refuses everything but lets time pass."""


@dataclass(slots=True)
class Skip(CspProcess):
    """Successful termination."""


@dataclass(slots=True)
class Prefix(CspProcess):
    event: str
    cont: CspProcess

    def __post_init__(self) -> None:
        validate_event_name(self.event, allow_tock=True)
        self._hash = hash((type(self), self.event, self.cont._hash))


@dataclass(slots=True)
class _Binary(CspProcess):
    """A binary operator; the subclasses differ only in their type."""

    left: CspProcess
    right: CspProcess

    def __post_init__(self) -> None:
        self._hash = hash((type(self), self.left._hash, self.right._hash))


@dataclass(slots=True)
class Seq(_Binary):
    """``left ; right``"""


@dataclass(slots=True)
class ExtChoice(_Binary):
    """``left [] right``"""


@dataclass(slots=True)
class IntChoice(_Binary):
    """``left |~| right``"""


@dataclass(slots=True)
class GenPar(_Binary):
    """Parallel composition synchronising on ``sync_set`` (never on tock)."""

    sync_set: frozenset[str]
    checked: InitVar[bool] = field(default=False, kw_only=True)  # True: a frozenset of valid names

    def __post_init__(self, checked: bool) -> None:
        if not checked:
            self.sync_set = frozenset(self.sync_set)
            for name in self.sync_set:
                if name == TOCK:
                    raise SpecError("'tock' cannot appear in a synchronisation set")
                validate_event_name(name)
        self._hash = hash((type(self), self.left._hash, self.right._hash, self.sync_set))


@dataclass(slots=True)
class Interleave(_Binary):
    """``left ||| right``"""


@dataclass(slots=True)
class Interrupt(_Binary):
    """``left /\\ right``"""


@dataclass(slots=True)
class Hide(CspProcess):
    body: CspProcess
    hidden: frozenset[str]
    checked: InitVar[bool] = field(default=False, kw_only=True)  # True: a frozenset of valid names

    def __post_init__(self, checked: bool) -> None:
        if not checked:
            self.hidden = frozenset(self.hidden)
            for name in self.hidden:
                if name == TOCK:
                    raise SpecError("'tock' cannot be hidden")
                validate_event_name(name)
        self._hash = hash((type(self), self.body._hash, self.hidden))


@dataclass(slots=True)
class Rename(CspProcess):
    """Event renaming; ``mapping`` is a function stored as sorted pairs."""

    body: CspProcess
    mapping: tuple[tuple[str, str], ...]
    checked: InitVar[bool] = field(default=False, kw_only=True)  # True: valid names; they are still sorted

    def __post_init__(self, checked: bool) -> None:
        self.mapping = tuple(sorted(self.mapping))
        if not checked:
            seen: set[str] = set()
            for old, new in self.mapping:
                if old in seen:
                    raise SpecError(f"event {old!r} renamed twice")
                seen.add(old)
                for name in (old, new):
                    if name == TOCK:
                        raise SpecError("'tock' cannot take part in a renaming")
                    validate_event_name(name)
        self._hash = hash((type(self), self.body._hash, self.mapping))

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)


@dataclass(slots=True)
class Ref(CspProcess):
    """Reference to a named definition."""

    name: str

    def __post_init__(self) -> None:
        self._hash = hash((type(self), self.name))


@dataclass
class CspSpec:
    """A closed set of named definitions with a distinguished main process."""

    definitions: dict[str, CspProcess]
    main: str
    positions: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.main not in self.definitions:
            raise SpecError(f"main process {self.main!r} is not defined")
        for name, body in self.definitions.items():
            for p in _subterms(body):
                if isinstance(p, Ref) and p.name not in self.definitions:
                    pos = self.positions.get(name)
                    where = f" (defined at line {pos[0]})" if pos else ""
                    raise SpecError(f"unresolved reference {p.name!r} in {name!r}{where}")
        self._check_guardedness()

    def _check_guardedness(self) -> None:
        # A cycle of definitions is legal only if it passes through a prefix;
        # otherwise bounded trace enumeration would not terminate.  Peel off
        # the definitions whose references all end at a prefix: each one
        # left reaches a cycle, found by following its first reference left.
        self._nullable, refs = _starts(self.definitions)
        users: dict[str, list[str]] = {name: [] for name in self.definitions}
        for name, out in refs.items():
            for ref in out:
                users[ref].append(name)
        unpeeled = {name: len(out) for name, out in refs.items()}
        ready = [name for name, count in unpeeled.items() if not count]
        while ready:
            for user in users[ready.pop()]:
                unpeeled[user] -= 1
                if not unpeeled[user]:
                    ready.append(user)
        name = next((name for name in self.definitions if unpeeled[name]), None)
        if name is not None:
            path: dict[str, int] = {}  # each name followed, with its position
            while name not in path:
                path[name] = len(path)
                name = min(ref for ref in refs[name] if unpeeled[ref])
            cycle = list(path)[path[name]:] + [name]
            raise SpecError(f"unguarded recursion: {' -> '.join(cycle)}")

    def nullable(self, p: CspProcess) -> bool:
        """Whether ``p``, a term of this spec, can terminate without any
        visible event or tock."""
        return _start(p, self._nullable)[0]

    def body(self) -> CspProcess:
        return self.definitions[self.main]

    @cached_property
    def view(self) -> View:
        """The view from outside every wrapper, built once: each event is
        itself."""
        return View((name, ("plain", name)) for name in sorted(event_universe(self.definitions)))


def _subterms(p: CspProcess):
    """``p`` and every term inside it, in pre-order; references are not
    unfolded."""
    stack = [p]
    while stack:
        p = stack.pop()
        yield p
        if isinstance(p, Prefix):
            stack.append(p.cont)
        elif isinstance(p, (Hide, Rename)):
            stack.append(p.body)
        elif isinstance(p, _Binary):
            stack += (p.right, p.left)


def _starts(defs: dict[str, CspProcess]) -> tuple[dict[str, bool], dict[str, set[str]]]:
    """Which definitions can terminate without any visible event or tock,
    and the references each reaches before a prefix.  A definition is
    checked again only when one it starts with turns out to be nullable."""
    nullable = dict.fromkeys(defs, False)
    refs: dict[str, set[str]] = {}
    starters: dict[str, set[str]] = {name: set() for name in defs}  # the definitions that start with each
    work = list(defs)
    while work:
        name = work.pop()
        was = nullable[name]
        nullable[name], refs[name] = _start(defs[name], nullable)
        for ref in refs[name]:
            starters[ref].add(name)
        if nullable[name] and not was:
            work += starters[name]
    return nullable, refs


def _start(p: CspProcess, nullable: dict[str, bool]) -> tuple[bool, set[str]]:
    """Whether ``p`` can terminate without any visible event or tock, given
    which definitions can, and the references it reaches before a prefix."""
    if isinstance(p, Ref):
        return nullable[p.name], {p.name}
    if isinstance(p, (Stop, Skip, Prefix)):
        return isinstance(p, Skip), set()
    if isinstance(p, (Hide, Rename)):
        return _start(p.body, nullable)
    if not isinstance(p, _Binary):
        raise TypeError(f"unknown process node {p!r}")
    left, refs = _start(p.left, nullable)
    if isinstance(p, Seq) and not left:
        return False, refs
    right, right_refs = _start(p.right, nullable)
    refs |= right_refs
    if isinstance(p, (ExtChoice, IntChoice)):
        return left or right, refs
    if isinstance(p, Interrupt):
        return left, refs
    return left and right, refs  # a sequence or a parallel composition


# --- alphabet -------------------------------------------------------------

def event_universe(definitions: dict[str, CspProcess]) -> frozenset[str]:
    """Every event name appearing syntactically anywhere in the spec."""
    out: set[str] = set()
    for body in definitions.values():
        for p in _subterms(body):
            if isinstance(p, Prefix):
                out.add(p.event)
            elif isinstance(p, Hide):
                out |= p.hidden
            elif isinstance(p, Rename):
                out.update(name for pair in p.mapping for name in pair)
            elif isinstance(p, GenPar):
                out |= p.sync_set
    out.discard(TOCK)  # only a prefix may name it
    return frozenset(out)


class View(dict):
    """Each event of a spec's universe as seen inside some wrappers:
    ``("plain", name)``, ``("hidden", name)``, or ``("sync", scope, name)``
    for the innermost scope (any object with a ``sync_set``) that
    synchronises on it, with the name as renamed there.  Views that resolve
    every event alike have equal ``key``s, which keeps the unfolding of
    references finite under ever-deeper (but convergent) renamings."""

    def __init__(self, resolutions) -> None:
        super().__init__(resolutions)
        self.key = tuple(self.values())


def wrap(view: View, wrapper) -> View:
    """The view inside ``wrapper`` (a ``Hide``, a ``Rename`` or a scope),
    given the ``view`` just outside it."""
    if isinstance(wrapper, Rename):
        mapping = wrapper.as_dict()
        return View((name, view[mapping.get(name, name)]) for name in view)
    if isinstance(wrapper, Hide):
        return View((name, ("hidden", name) if name in wrapper.hidden else seen) for name, seen in view.items())
    return View((name, ("sync", wrapper, name) if name in wrapper.sync_set else seen) for name, seen in view.items())


def alphabet(spec: CspSpec) -> frozenset[str]:
    """All visible user events reachable from main, after renaming and hiding.

    Hidden occurrences are invisible and excluded; tock is never included.
    The walk keeps its own stack, so a long chain of references cannot
    exhaust the interpreter's.
    """
    out: set[str] = set()
    seen: set[tuple] = set()
    stack = [(spec.body(), spec.view)]
    while stack:
        p, view = stack.pop()
        if isinstance(p, Prefix):
            if p.event != TOCK and view[p.event][0] == "plain":
                out.add(view[p.event][1])
            stack.append((p.cont, view))
        elif isinstance(p, (Hide, Rename)):
            stack.append((p.body, wrap(view, p)))
        elif isinstance(p, _Binary):
            stack += ((p.right, view), (p.left, view))
        elif isinstance(p, Ref):
            key = (p.name, view.key)
            if key not in seen:
                seen.add(key)
                stack.append((spec.definitions[p.name], view))
    return frozenset(out)


# --- pretty printer -------------------------------------------------------

_INFIX = {Seq: ";", ExtChoice: "[]", IntChoice: "|~|", Interleave: "|||", Interrupt: "/\\"}


def format_process(p: CspProcess) -> str:
    """Render a process in the concrete syntax accepted by the parser."""
    if isinstance(p, Stop):
        return "STOP"
    if isinstance(p, Skip):
        return "SKIP"
    if isinstance(p, Prefix):
        cont = format_process(p.cont)
        if isinstance(p.cont, (Stop, Skip, Prefix, Ref)):
            return f"{p.event} -> {cont}"
        return f"{p.event} -> ({cont})"
    if type(p) in _INFIX:
        return f"({format_process(p.left)}) {_INFIX[type(p)]} ({format_process(p.right)})"
    if isinstance(p, GenPar):
        events = ", ".join(sorted(p.sync_set))
        return f"({format_process(p.left)}) [|{{{events}}}|] ({format_process(p.right)})"
    if isinstance(p, Hide):
        events = ", ".join(sorted(p.hidden))
        return f"({format_process(p.body)}) \\ {{{events}}}"
    if isinstance(p, Rename):
        pairs = ", ".join(f"{old} <- {new}" for old, new in p.mapping)
        return f"({format_process(p.body)}) [[{pairs}]]"
    if isinstance(p, Ref):
        return p.name
    raise TypeError(f"unknown process node {p!r}")


def format_spec(spec: CspSpec) -> str:
    lines = [f"{spec.main} = {format_process(spec.definitions[spec.main])}"]
    for name, body in spec.definitions.items():
        if name != spec.main:
            lines.append(f"{name} = {format_process(body)}")
    return "\n".join(lines) + "\n"
