"""The benchmark's workloads: how each builds its inputs from a seed, and
how one input runs to its verdict and is checked against its known answer.

Every library call goes through a module attribute looked up at call time
(``parser.parse``, ``harness.check_spec``, ...), so the tracer in
``tracing.py`` sees them when it patches those names.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from tockta import harness, parser, taexec, translate, uppaalxml
from tockta.cspast import (
    CspSpec,
    ExtChoice,
    Hide,
    IntChoice,
    Interleave,
    Interrupt,
    Prefix,
    Rename,
    Seq,
    Skip,
    Stop,
)
from tockta.semantics import BoundExceeded, csp_traces

CORPUS_DEPTH = 5
DEEP_FIXTURE_DEPTH = 10
# (components, depth) of the interleaving family; (3, 9) exceeds the
# network engine's 500k state cap in the current library.
DEEP_FAMILY = ((2, 10), (3, 8), (4, 6), (3, 9))

# translate-large: 100 specs; component counts cycle through 1..8 and the
# chain lengths through SHORT_CHAINS.  Four specs carry one long chain
# instead; the current library rejects a chain of 64 or more definitions
# (translate._MAX_EXPANSION_DEPTH), so 64 and 72 show that defect.
LARGE_SPECS = 100
SHORT_CHAINS = (1, 2, 3, 4, 5, 6, 8, 10)
LONG_CHAINS = (48, 63, 64, 72)


class WrongAnswer(Exception):
    """An input's outcome differs from its known answer."""


@dataclass
class Input:
    id: str
    run: Callable[[], int]  # returns emitted XML bytes; raises on failure


# --- corpus -----------------------------------------------------------------

_SWAPPABLE = (Seq, ExtChoice, IntChoice, Interleave, Interrupt)


def mutants(p):
    """Every single-point source mutant of ``p``, in a fixed order.

    The operators cannot add an occurrence of a synchronised event, so
    every mutant of an in-envelope corpus process stays in the envelope:
    STOP <-> SKIP, drop a prefix, rename a prefix to the fresh event ``d``,
    and swap a binary operator among ; [] |~| ||| /\\.
    """
    out = []
    if isinstance(p, Stop):
        out.append(Skip())
    elif isinstance(p, Skip):
        out.append(Stop())
    elif isinstance(p, Prefix):
        out.append(p.cont)
        if p.event != "d":
            out.append(Prefix("d", p.cont))
    if type(p) in _SWAPPABLE:
        out += [op(p.left, p.right) for op in _SWAPPABLE if op is not type(p)]
    for name in _children(p):
        out += [replace(p, **{name: m}) for m in mutants(getattr(p, name))]
    return list(dict.fromkeys(m for m in out if m != p))


def _children(p) -> tuple[str, ...]:
    if isinstance(p, Prefix):
        return ("cont",)
    if isinstance(p, (Hide, Rename)):
        return ("body",)
    if hasattr(p, "left"):
        return ("left", "right")
    return ()


def corpus_cases(seed: int):
    """(corpus entry, seeded mutant spec, expected mutant report) per corpus
    process; the expected report compares CSP-engine traces only."""
    rng = random.Random(seed)
    cases = []
    for entry in harness.generate_corpus():
        mutant = rng.choice(mutants(entry.spec.definitions["P"]))
        mutant_spec = CspSpec(definitions={"P": mutant}, main="P")
        expected = harness.compare_traces(
            csp_traces(entry.spec, CORPUS_DEPTH), csp_traces(mutant_spec, CORPUS_DEPTH)
        )
        cases.append((entry, mutant_spec, expected))
    return cases


def corpus_inputs(seed: int) -> list[Input]:
    """Each corpus process: parse, assemble, XML round trip, check at depth
    5, timelock check, and a check against the network of its mutant."""
    return [Input(entry.id, corpus_run(entry, mutant, expected)) for entry, mutant, expected in corpus_cases(seed)]


def corpus_run(entry, mutant_spec, expected):
    text, process = "P = " + entry.text, entry.spec.definitions["P"]

    def run() -> int:
        spec = parser.parse(text)
        if spec.definitions["P"] != process:
            raise WrongAnswer("parse of the printed process differs from the process")
        net = translate.assemble(spec)
        size = _round_trip(net)
        report = harness.check_spec(spec, CORPUS_DEPTH, spec_id=entry.id, net=net)
        if report.verdict != harness.EQUAL_AT_STAGE1:
            raise WrongAnswer(f"verdict {report.verdict}, expected {harness.EQUAL_AT_STAGE1}")
        stuck = taexec.timelock_witnesses(net)
        if stuck:
            raise WrongAnswer(f"{len(stuck)} timelocked configurations")
        mutant_net = translate.assemble(mutant_spec)
        got = harness.check_spec(spec, CORPUS_DEPTH, spec_id=entry.id, net=mutant_net)
        if (got.verdict, got.witnesses) != (expected.verdict, expected.witnesses):
            raise WrongAnswer(f"mutant verdict {got.verdict}, expected {expected.verdict}")
        return size

    return run


def _round_trip(net) -> int:
    document = uppaalxml.emit(net)
    if uppaalxml.load(document) != net:
        raise WrongAnswer("loaded network differs from the assembled one")
    return len(document.encode("utf-8"))


# --- deep -------------------------------------------------------------------

def family_text(n: int) -> str:
    """``MAIN = P0 ||| ... ||| P(n-1)`` with ``Pi = ai -> tock -> bi -> Pi``."""
    lines = ["MAIN = " + " ||| ".join(f"P{i}" for i in range(n))]
    lines += [f"P{i} = a{i} -> tock -> b{i} -> P{i}" for i in range(n)]
    return "\n".join(lines) + "\n"


def deep_specs(root: Path) -> list[tuple[str, CspSpec, int]]:
    specs = [
        (f"fixture:{path.stem}", parser.parse_file(str(path)), DEEP_FIXTURE_DEPTH)
        for path in sorted((root / "fixtures").glob("*.tcsp"))
    ]
    specs += [(f"family:n{n}d{d}", parser.parse(family_text(n)), d) for n, d in DEEP_FAMILY]
    return specs


def deep_inputs(root: Path) -> list[Input]:
    """Few long explorations; the expected verdict of each is stage-1
    equality.  Seed-independent."""
    return [Input(input_id, _deep_run(input_id, spec, depth)) for input_id, spec, depth in deep_specs(root)]


def _deep_run(input_id, spec, depth):
    def run() -> int:
        report = harness.check_spec(spec, depth, spec_id=input_id)
        if report.verdict != harness.EQUAL_AT_STAGE1:
            raise WrongAnswer(f"verdict {report.verdict}, expected {harness.EQUAL_AT_STAGE1}")
        return 0

    return run


def deep_xml_bytes(root: Path) -> int:
    """Size of the deep networks' XML, measured outside the timed passes
    because the workload itself emits nothing."""
    return sum(
        len(uppaalxml.emit(translate.assemble(spec)).encode("utf-8"))
        for _, spec, _ in deep_specs(root)
    )


# --- translate-large --------------------------------------------------------

def large_shapes() -> list[tuple[int, ...]]:
    """Chain lengths per component for each spec; the same for every seed,
    so a seed changes the bodies and the order but not the amount of work."""
    shapes = []
    for j in range(LARGE_SPECS):
        shapes.append(tuple(SHORT_CHAINS[(j + 3 * i) % len(SHORT_CHAINS)] for i in range(1 + j % 8)))
    for j, length in enumerate(LONG_CHAINS):
        index = 25 * j + 24
        shapes[index] = (length,) + shapes[index][1:]
    return shapes


_EVENT_RE = re.compile(r"\b([abc])\b")


def large_texts(seed: int) -> list[tuple[str, str]]:
    """(id, source) of the seeded specs: components interleaved at the top,
    each a guarded cycle of definitions ``Ci_k = si -> ((B) ; Ci_k+1)``
    whose bodies B are corpus processes with per-component event names."""
    rng = random.Random(seed)
    corpus = [entry.text for entry in harness.generate_corpus()]
    bodies: list[str] = []
    shapes = large_shapes()
    rng.shuffle(shapes)
    texts = []
    for j, shape in enumerate(shapes):
        lines = ["MAIN = " + " ||| ".join(f"C{i}_0" for i in range(len(shape)))]
        for i, length in enumerate(shape):
            for k in range(length):
                if not bodies:
                    # Deal the corpus in shuffled rounds, so that every seed
                    # uses each body about equally often.
                    bodies = rng.sample(corpus, len(corpus))
                body = _EVENT_RE.sub(lambda m: f"{m.group(1)}{i}", bodies.pop())
                lines.append(f"C{i}_{k} = s{i} -> (({body}) ; C{i}_{(k + 1) % length})")
        texts.append((f"t{j:03d}", "\n".join(lines) + "\n"))
    return texts


def large_inputs(seed: int) -> list[Input]:
    """``tockta translate`` traffic: parse, assemble, emit, load, and the
    loaded network must equal the assembled one.  No trace exploration."""
    return [Input(input_id, _large_run(text)) for input_id, text in large_texts(seed)]


def _large_run(text):
    def run() -> int:
        return _round_trip(translate.assemble(parser.parse(text)))

    return run


# --- dispatch ---------------------------------------------------------------

# Exceptions that mean "no verdict" (counted in failed_ratio), as opposed to
# a wrong verdict, which fails the run.
NO_VERDICT = (BoundExceeded, translate.TranslationError)


def build(workload: str, seed: int, root: Path) -> list[Input]:
    if workload == "corpus":
        return corpus_inputs(seed)
    if workload == "deep":
        return deep_inputs(root)
    if workload == "translate-large":
        return large_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")
