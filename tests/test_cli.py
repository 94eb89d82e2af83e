import functools
import json

import pytest

from tockta import cli, harness, taexec
from tockta.cli import main
from tockta.harness import generate_corpus
from tockta.parser import parse
from tockta.translate import assemble

from test_uppaalxml import clock_guarded_document

ADS = (
    "ADS = Controller [|{close}|] Lighting\n"
    "Controller = open -> tock -> close -> Controller\n"
    "Lighting = close -> offLight -> Lighting\n"
)


@pytest.fixture
def ads_file(tmp_path):
    path = tmp_path / "ads.tcsp"
    path.write_text(ADS)
    return path


def test_translate_then_load_traces(tmp_path, ads_file, capsys):
    out = tmp_path / "ads.xml"
    assert main(["translate", str(ads_file), "-o", str(out)]) == 0
    assert out.read_text().startswith('<?xml version="1.0"')

    assert main(["traces", "ta", str(out), "--depth", "2"]) == 0
    ta_lines = capsys.readouterr().out
    assert main(["traces", "csp", str(ads_file), "--depth", "2"]) == 0
    csp_lines = capsys.readouterr().out
    assert ta_lines == csp_lines
    assert ta_lines.splitlines()[0] == "<>"


def test_traces_ta_can_keep_coordinating_actions(tmp_path, ads_file, capsys):
    out = tmp_path / "ads.xml"
    main(["translate", str(ads_file), "-o", str(out)])
    capsys.readouterr()
    assert main(["traces", "ta", str(out), "--depth", "1", "--keep-coordinating"]) == 0
    assert "startIDADS" in capsys.readouterr().out


def test_check_json_report(ads_file, capsys):
    assert main(["check", str(ads_file), "--depth", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "EqualAtStage1"
    assert data["id"] == "ads"


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.tcsp"
    bad.write_text("P = a ->")
    assert main(["check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert main(["translate", "no_such.tcsp", "-o", "x.xml"]) == 2


def test_prove_stop_cli(capsys):
    assert main(["prove-stop", "--max-n", "3"]) == 0
    assert "all laws hold" in capsys.readouterr().out


def test_corpus_run_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["corpus", "run", "--depth", "2", "--out", str(out_dir)]) == 0
    output = capsys.readouterr().out
    assert "all passed" in output
    reports = list(out_dir.glob("*.json"))
    assert len(reports) >= 111
    sample = json.loads(reports[0].read_text())
    assert sample["verdict"] == "EqualAtStage1"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "P.tcsp", "--depth", "-1"],
        ["traces", "csp", "P.tcsp", "--depth", "-2"],
        ["traces", "ta", "P.xml", "--depth", "-2"],
        ["prove-stop", "--max-n", "-1"],
        ["corpus", "run", "--depth", "-1"],
        ["check", "P.tcsp", "--depth", "five"],
    ],
    ids=["check", "traces-csp", "traces-ta", "prove-stop", "corpus-run", "not-a-number"],
)
def test_a_bad_bound_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tockta") and "must be an integer >= 0" in err


CHAIN = "P = " + " -> ".join(f"e{i}" for i in range(1000)) + " -> STOP\n"
CYCLE = "".join(f"C{i} = e{i} -> C{(i + 1) % 1000}\n" for i in range(1000))


@pytest.mark.parametrize(
    "source, command, message",
    [
        (CHAIN, ["traces", "csp"], "nests too deeply"),
        (CHAIN, ["translate"], "nests too deeply"),
        (CYCLE, ["translate"], "grows its context"),
        (CYCLE, ["check"], "grows its context"),
    ],
    ids=["chain-traces", "chain-translate", "cycle-translate", "cycle-check"],
)
def test_deep_nesting_is_an_input_error(tmp_path, capsys, source, command, message):
    path = tmp_path / "deep.tcsp"
    path.write_text(source)
    argv = command + [str(path)]
    if command == ["translate"]:
        argv += ["-o", str(tmp_path / "deep.xml")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_recursion_under_hiding_is_checked(tmp_path, capsys):
    # each unfolding enters the hiding again, so nested hidings must merge
    path = tmp_path / "hidden.tcsp"
    path.write_text("P = a -> ((a -> a -> P) \\ {a})\n")
    assert main(["check", str(path)]) == 0
    assert "EqualAtStage1" in capsys.readouterr().out


def test_recursion_under_renaming_and_hiding_is_checked(tmp_path, capsys):
    path = tmp_path / "renamed.tcsp"
    path.write_text("Q = b -> ((Q [[c <- c]]) \\ {b})\n")
    assert main(["check", str(path), "--depth", "6"]) == 0
    assert "EqualAtStage1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "comment",
    ["tockta-channel-kinds: a=bogus;tock=tock; | environment=Env", "tockta-channel-kinds tock=tock;"],
    ids=["unknown-kind", "no-colon"],
)
def test_an_old_kind_comment_is_ignored(tmp_path, ads_file, capsys, comment):
    # Earlier versions wrote channel kinds in a comment after the declaration.
    out = tmp_path / "ads.xml"
    assert main(["translate", str(ads_file), "-o", str(out)]) == 0
    out.write_text(out.read_text().replace("</declaration>\n", f"</declaration>\n\t<!-- {comment} -->\n", 1))
    assert comment in out.read_text()
    assert main(["traces", "ta", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, suffix",
    [
        (["check"], ".tcsp"),
        (["translate"], ".tcsp"),
        (["traces", "csp"], ".tcsp"),
        (["traces", "ta"], ".xml"),
    ],
    ids=["check", "translate", "traces-csp", "traces-ta"],
)
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command, suffix):
    path = tmp_path / f"latin1{suffix}"
    path.write_bytes(b"P = a -> \xff STOP\n")
    argv = command + [str(path)]
    if command == ["translate"]:
        argv += ["-o", str(tmp_path / "out.xml")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("tockta: error:") and "Traceback" not in err
    assert f"{path}: byte 0xff at offset 9 is not UTF-8" in err


def test_a_blown_state_cap_exits_one(monkeypatch, ads_file, capsys):
    capped = functools.partial(harness.network_traces, state_cap=1)
    monkeypatch.setattr(harness, "network_traces", capped)
    assert main(["check", str(ads_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tockta: error:") and "Traceback" not in err


def _traces_of(text):
    """A stand-in for ``harness.network_traces`` that explores the network
    of ``text`` instead of the one it is given."""
    net = assemble(parse(text))
    return lambda _, depth: taexec.network_traces(net, depth)


def test_check_prints_the_witnesses_of_a_mismatch(monkeypatch, tmp_path, capsys):
    path = tmp_path / "p.tcsp"
    path.write_text("P = a -> STOP\n")
    monkeypatch.setattr(harness, "network_traces", _traces_of("P = b -> STOP"))
    assert main(["check", str(path), "--depth", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "p: Mismatch at depth 1",
        "  only in csp: a",
        "  only in ta: b",
    ]


def test_corpus_run_counts_its_mismatches(monkeypatch, capsys):
    entries = generate_corpus()[:3]
    wrong = _traces_of("P = b -> STOP")
    networks = iter([taexec.network_traces, wrong, taexec.network_traces])
    monkeypatch.setattr(cli, "generate_corpus", lambda: entries)
    monkeypatch.setattr(harness, "network_traces", lambda net, depth: next(networks)(net, depth))
    assert main(["corpus", "run", "--depth", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[1].split()[0] for line in lines[:3]] == ["EqualAtStage1", "Mismatch", "EqualAtStage1"]
    assert lines[3:] == ["corpus: 1 mismatches"]


def test_a_choice_operand_looping_back_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "loop.tcsp"
    path.write_text("P = a -> (P [] (b -> STOP))\n")
    assert main(["translate", str(path), "-o", str(tmp_path / "loop.xml")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tockta: error:") and "external-choice operand" in err
    assert not (tmp_path / "loop.xml").exists()


def test_a_strict_clock_guard_is_an_input_error(tmp_path, capsys):
    # Integer time would answer this document differently from dense time.
    path = tmp_path / "strict.xml"
    path.write_text(clock_guarded_document("x>0 && x<1"))
    assert main(["traces", "ta", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == "tockta: error: unsupported strict clock atom 'x>0' in template 'TA00', transition 2\n"
