"""Tests of the benchmark itself: seeded inputs, the envelope of the
generated specs, the known-answer gate and the tracer.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import io
import json
import signal
import sys
import time
from argparse import Namespace
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tockta import harness, parser, taexec, translate  # noqa: E402


def test_large_specs_are_deterministic_per_seed():
    assert workloads.large_texts(1) == workloads.large_texts(1)
    assert workloads.large_texts(1) != workloads.large_texts(2)


def test_large_spec_sizes_do_not_depend_on_the_seed():
    def chains(seed):
        return sorted(
            sorted(text.count(f"C{i}_") - 1 for i in range(8) if f"C{i}_0" in text)
            for _, text in workloads.large_texts(seed)
        )

    assert chains(1) == chains(2)


def test_large_specs_stay_in_the_envelope_apart_from_long_chains():
    rejected = []
    for input_id, text in workloads.large_texts(1):
        spec = parser.parse(text)
        longest = max(sum(1 for name in spec.definitions if name.startswith(f"C{i}_")) for i in range(8))
        try:
            translate.assemble(spec)
        except translate.TranslationError as exc:
            assert longest >= 64, (input_id, str(exc))
            assert "grows its context" in str(exc)
            rejected.append(longest)
        else:
            assert longest < 64, input_id
    assert sorted(rejected) == [64, 72]


def test_mutants_are_distinct_and_in_the_envelope():
    entry = harness.generate_corpus()[40]
    process = entry.spec.definitions["P"]
    found = workloads.mutants(process)
    assert found and process not in found and len(set(found)) == len(found)
    for mutant in found:
        translate.assemble(mutant)


def test_mutant_draws_are_deterministic_per_seed():
    def draws(seed):
        return [mutant for _, mutant, _ in workloads.corpus_cases(seed)]

    assert draws(1) == draws(1)
    assert draws(1) != draws(2)


def test_deep_family_text():
    spec = parser.parse(workloads.family_text(2))
    assert spec.main == "MAIN"
    assert sorted(spec.definitions) == ["MAIN", "P0", "P1"]


def _report(summary):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.report("corpus", Namespace(seed=1, trace=0), summary, 1)
    return code, json.loads(out.getvalue().splitlines()[-1])


def test_gate_passes_known_answers():
    entry, mutant, expected = workloads.corpus_cases(1)[0]
    inputs = [workloads.Input(entry.id, workloads.corpus_run(entry, mutant, expected))]
    code, result = _report(run.summarise(run.measure(inputs, workloads, 0, False), 1))
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "check_p50_ms", "check_p90_ms", "peak_rss_mb", "xml_bytes"}


def test_gate_fails_on_a_wrong_expected_verdict():
    entry, mutant, expected = workloads.corpus_cases(1)[0]
    wrong = harness.EQUAL_AT_STAGE1 if expected.verdict == harness.MISMATCH else harness.MISMATCH
    inputs = [workloads.Input(entry.id, workloads.corpus_run(entry, mutant, replace(expected, verdict=wrong)))]
    code, result = _report(run.summarise(run.measure(inputs, workloads, 0, False), 1))
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_capped_input_is_a_failure_not_a_wrong_answer():
    def capped():
        raise taexec.BoundExceeded("network exploration exceeded 500000 states")

    summary = run.summarise(run.measure([workloads.Input("x", capped)], workloads, 0, False), 1)
    assert summary["failed"] == {"x": "BoundExceeded: network exploration exceeded 500000 states"}
    assert not summary["wrong"]
    assert _report(summary)[0] == 0


def test_tracer_restores_the_library_and_derives_self_time():
    original = harness.network_traces
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.network_traces is not original
        spec = parser.parse(workloads.family_text(1))
        tracer.record("input", harness.check_spec, (spec, 3))
    finally:
        tracer.uninstall()
    assert harness.network_traces is original
    names = {span[0] for span in tracer.spans}
    assert {"input", "harness.check_spec", "translate.assemble", "taexec.network_traces"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["taexec.traces"] == metrics["semantics.traces"] > 1
    assert metrics["taexec.enabled_steps_calls"] > 0

    tracer.spans[:] = [("outer", 0.0, 10.0, -1, "i"), ("inner", 2.0, 5.0, 0, "i")]
    assert tracer.self_times() == pytest.approx({"outer": 7.0, "inner": 3.0})


def test_module_caches_are_cleared():
    net = translate.assemble(parser.parse(workloads.family_text(1)))
    taexec.initial_configuration(net)
    assert taexec._runtime.cache_info().currsize > 0
    run.clear_module_caches()
    assert taexec._runtime.cache_info().currsize == 0


def test_sampler_restores_the_alarm_handler_and_scales():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(0.01) as sampler:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.probes) >= 3 and sampler.spent > 0
    assert sampler.scale() > 0
