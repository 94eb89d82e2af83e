"""Benchmark of tockta: time to a verdict on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads are ``corpus``, ``deep`` and ``translate-large`` (see README.md
in this directory).  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans are written to
``perfbench/out/``.  The exit status is 1 when any input gets a wrong
answer and 2 when the library cannot be found or a worker fails.

Each run starts fresh worker processes: several that only build the
workload's inputs (their start-to-ready times give ``setup_s``), then one
that builds them again and measures passes over them for ``--seconds``.
Every time is scaled to a reference host speed; see ``speed.py``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("corpus", "deep", "translate-large")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
PROBE_INTERVAL_S = 0.05  # probes during one input
SETUP_PROBE_INTERVAL_S = 0.02

UNITS = {
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "xml_bytes": "bytes",
    "parser.chars": "chars",
    "uppaalxml.bytes": "bytes",
}


def unit(name: str) -> str:
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "measure"), default="main", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- worker side ------------------------------------------------------------

def clear_module_caches() -> None:
    """Empty every functools cache in the library, so that each input is
    checked as a first call in a fresh process would check it."""
    for name, module in list(sys.modules.items()):
        if name == "tockta" or name.startswith("tockta."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(inputs, workloads, tracer=None) -> dict:
    """One pass over every input.  Returns the per-input times, each scaled
    by the host speed probed while it ran (see speed.py), their sum as the
    pass time, the unscaled sum, the outcomes and the emitted XML size."""
    gc.collect()
    times, raw, failed, wrong, xml = [], [], {}, {}, 0
    for item in inputs:
        clear_module_caches()
        start = time.perf_counter()
        with speed.Sampler(PROBE_INTERVAL_S) as sampler:
            try:
                if tracer is None:
                    xml += item.run()
                else:
                    tracer.input_id = item.id
                    xml += tracer.record("input", item.run)
            except workloads.WrongAnswer as exc:
                wrong[item.id] = str(exc)
            except workloads.NO_VERDICT as exc:
                failed[item.id] = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # an unexpected crash is a failed input, listed by id
                failed[item.id] = f"unexpected {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start - sampler.spent
        raw.append(elapsed)
        times.append(elapsed * sampler.scale())
    failed.update(wrong)
    return {"wall": sum(times), "raw_wall": sum(raw), "times": times, "failed": failed, "wrong": wrong, "xml": xml}


def measure(inputs, workloads, seconds: float, trace: bool) -> dict:
    """Passes until ``seconds`` have elapsed (at least one).  A traced run
    alternates untraced and traced passes."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    plain, traced, layers = [], [], []
    begin = time.perf_counter()
    while True:
        plain.append(run_pass(inputs, workloads))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(inputs, workloads, tracer))
            finally:
                tracer.uninstall()
            scale = traced[-1]["wall"] / traced[-1]["raw_wall"]
            layers.append({
                name: value * scale if name.endswith("_s") else value
                for name, value in tracer.layer_metrics().items()
            })
        if time.perf_counter() - begin >= seconds:
            break
    return {"plain": plain, "traced": traced, "layers": layers, "tracer": tracer}


def worker(args) -> int:
    with speed.Sampler(SETUP_PROBE_INTERVAL_S) as sampler:
        import workloads  # imports tockta, which is part of the set-up

        inputs = workloads.build(args.workload, args.seed, ROOT)
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # reading taken before the spawn.
    print("ready", time.monotonic(), sampler.spent, sampler.scale(), flush=True)
    if args.role == "setup":
        os._exit(0)  # skip interpreter teardown: setup ends when inputs exist

    result = measure(inputs, workloads, args.seconds, bool(args.trace))
    summary = summarise(result, len(inputs))
    if args.trace:
        _write_spans(args, result["tracer"])
    elif args.workload == "deep":
        summary["metrics"]["xml_bytes"] = workloads.deep_xml_bytes(ROOT)
    print(json.dumps(summary), flush=True)
    return 0


def summarise(result: dict, inputs: int) -> dict:
    """Outcome counts and the metrics of one run's passes."""
    plain, traced = result["plain"], result["traced"]
    passes = plain + traced
    summary = {
        "passes": len(plain),
        "inputs": inputs,
        "attempted": sum(len(p["times"]) for p in passes),
        "failed_count": sum(len(p["failed"]) for p in passes),
        "failed": passes[0]["failed"],
        "wrong": {k: v for p in passes for k, v in p["wrong"].items()},
        "raw_wall_s": statistics.median(p["raw_wall"] for p in plain),
    }
    if traced:
        layers = result["layers"]
        metrics = {
            name: (statistics.median if name.endswith("_s") else statistics.median_low)(
                layer[name] for layer in layers
            )
            for name in layers[0]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - statistics.median(p["wall"] for p in plain)
        )
    else:
        samples = sorted(t for p in plain for t in p["times"])
        summary["samples"] = len(samples)
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in plain),
            "check_p50_ms": 1000.0 * statistics.median(samples),
            "check_p90_ms": 1000.0 * p90(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "xml_bytes": plain[0]["xml"],
        }
    summary["metrics"] = metrics
    return summary


def p90(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _write_spans(args, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ("name", "start", "end", "parent", "input")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([dict(zip(fields, span)) for span in tracer.spans], handle)


# --- orchestrator -----------------------------------------------------------

def _spawn(args, workload: str, role: str, deadline: float) -> tuple[float, list[str]]:
    """Start a worker; return its start-to-ready time, less the probes it
    ran and scaled by them, and the rest of its output lines."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {role} worker exceeded the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise SystemExit(f"perfbench: {role} worker failed (exit {proc.returncode})")
    ready, spent, scale = map(float, lines[0].split()[1:])
    return (ready - start - spent) * scale, lines[1:]


def run_workload(args, workload: str) -> int:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups = [_spawn(args, workload, "setup", deadline)[0] for _ in range(SETUP_SAMPLES)]
    ready, lines = _spawn(args, workload, "measure", deadline)
    setups.append(ready)
    summary = json.loads(lines[-1])
    if not args.trace:
        summary["metrics"]["setup_s"] = statistics.median(setups)
    return report(workload, args, summary, len(setups))


def report(workload: str, args, summary: dict, setup_samples: int) -> int:
    """Print the readable report and the JSON result line; the exit status
    is 1 when any input got a wrong answer."""
    metrics = summary["metrics"]
    attempted, failed_count = summary["attempted"], summary["failed_count"]
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
    print(f"passes {summary['passes']} over {summary['inputs']} inputs, "
          f"unscaled median pass {summary['raw_wall_s']:.4g} s")
    if "samples" in summary:
        print(f"latency samples {summary['samples']}  setup samples {setup_samples}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit(name)}")
    print(f"  {'failed_ratio':32s} {failed_count / attempted:14.6g} ({failed_count}/{attempted})")
    for input_id, reason in sorted(summary["failed"].items()):
        print(f"  failed {input_id}: {reason}")
    for input_id, reason in sorted(summary["wrong"].items()):
        print(f"  WRONG {input_id}: {reason}")
    correct = not summary["wrong"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_count,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _args(argv)
    if args.role != "main":
        return worker(args)
    if not (SRC / "tockta" / "__init__.py").is_file():
        print(f"perfbench: no tockta sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(args, name) for name in names)


if __name__ == "__main__":
    sys.exit(main())
