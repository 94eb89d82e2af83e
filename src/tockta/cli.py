"""Command-line front end.

Exit status: 0 when everything passed, 1 when any comparison mismatched
or a check failed, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cspast import SpecError
from .harness import check_spec, generate_corpus, prove_stop_base
from .parser import parse_file
from .semantics import BoundExceeded, csp_traces, traces_to_text
from .taexec import network_traces, raw_network_traces
from .translate import TranslationError, assemble
from .uppaalxml import XmlLoadError, load_file, save_file


def _bound(text: str) -> int:
    """A depth bound: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tockta",
        description="Translate .tcsp processes into UPPAAL timed automata "
        "and compare bounded traces of both sides.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="translate a .tcsp file to UPPAAL XML")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("traces", help="print bounded traces in canonical form")
    kind = p.add_subparsers(dest="side", required=True)
    csp = kind.add_parser("csp", help="traces of the source process")
    csp.add_argument("input")
    csp.add_argument("--depth", type=_bound, default=5)
    ta = kind.add_parser("ta", help="traces of a translated network (.xml)")
    ta.add_argument("input")
    ta.add_argument("--depth", type=_bound, default=5)
    ta.add_argument(
        "--keep-coordinating",
        action="store_true",
        help="do not erase coordinating actions",
    )

    p = sub.add_parser("check", help="compare source and network traces")
    p.add_argument("input")
    p.add_argument("--depth", type=_bound, default=5)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("corpus", help="systematic corpus operations")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    run = corpus_sub.add_parser("run", help="check every corpus process")
    run.add_argument("--depth", type=_bound, default=5)
    run.add_argument("--out", help="directory for per-process JSON reports")

    p = sub.add_parser("prove-stop", help="deadlock base case at every depth")
    p.add_argument("--max-n", type=_bound, default=20)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (SpecError, XmlLoadError, TranslationError, OSError) as exc:
        print(f"tockta: error: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"tockta: error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("tockta: error: input nests too deeply", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "translate":
        save_file(assemble(parse_file(args.input)), args.output)
        return 0

    if args.command == "traces":
        if args.side == "csp":
            traces = csp_traces(parse_file(args.input), args.depth)
        else:
            net = load_file(args.input)
            fn = raw_network_traces if args.keep_coordinating else network_traces
            traces = fn(net, args.depth)
        sys.stdout.write(traces_to_text(traces))
        return 0

    if args.command == "check":
        spec = parse_file(args.input)
        report = check_spec(spec, args.depth, spec_id=Path(args.input).stem)
        if args.json:
            print(report.to_json())
        else:
            print(f"{report.spec_id}: {report.verdict} at depth {report.depth}")
            for side, trace in report.witnesses:
                print(f"  only in {side}: {trace}")
        return 0 if report.passed else 1

    if args.command == "corpus":
        out_dir = Path(args.out) if args.out else None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
        failures = 0
        for entry in generate_corpus():
            report = check_spec(entry.spec, args.depth, spec_id=entry.id)
            line = f"{entry.id}: {report.verdict}  -- {entry.text}"
            print(line)
            if not report.passed:
                failures += 1
            if out_dir is not None:
                (out_dir / f"{entry.id}.json").write_text(report.to_json() + "\n")
        print(f"corpus: {'all passed' if not failures else f'{failures} mismatches'}")
        return 0 if failures == 0 else 1

    if args.command == "prove-stop":
        report = prove_stop_base(args.max_n)
        print(report.text())
        return 0 if report.passed else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
