import json

import pytest

from tockta.cli import main

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
    "source, command",
    [
        (CHAIN, ["traces", "csp"]),
        (CHAIN, ["translate"]),
        (CYCLE, ["translate"]),
        (CYCLE, ["check"]),
    ],
    ids=["chain-traces", "chain-translate", "cycle-translate", "cycle-check"],
)
def test_deep_nesting_is_an_input_error(tmp_path, capsys, source, command):
    path = tmp_path / "deep.tcsp"
    path.write_text(source)
    argv = command + [str(path)]
    if command == ["translate"]:
        argv += ["-o", str(tmp_path / "deep.xml")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "nests too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "old, new",
    [("tock=tock;", "a=bogus;tock=tock;"), ("tockta-channel-kinds:", "tockta-channel-kinds")],
    ids=["unknown-kind", "no-colon"],
)
def test_malformed_kind_comment_is_an_input_error(tmp_path, ads_file, capsys, old, new):
    out = tmp_path / "ads.xml"
    assert main(["translate", str(ads_file), "-o", str(out)]) == 0
    out.write_text(out.read_text().replace(old, new, 1))
    assert main(["traces", "ta", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tockta: error:") and "Traceback" not in err
