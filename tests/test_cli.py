import json
import shlex
from pathlib import Path

import pytest

from regulus.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:        # argparse errors exit directly
        return exc.code


def test_oracle_regulator_prints(capsys):
    assert run_cli(["oracle", "regulator", "--d", "13"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "3.584290"


def test_oracle_cycle_csv(tmp_path):
    out = tmp_path / "cycle.csv"
    assert run_cli(["oracle", "cycle", "--d", "13", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "p,q_coeff,delta"
    assert lines[2] == "3,1,0"
    assert len(lines) == 7


def test_oracle_nonprincipal(tmp_path):
    out = tmp_path / "np.json"
    assert run_cli(["oracle", "nonprincipal", "--d", "10", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["ideal"] == {"p": 1, "q_coeff": 3}
    assert data["total_reduced"] == 4


def test_units_json_schema(tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["units", "--d", "13", "--log2q", "14", "--n", "64", "--k", "3",
                  "--trials", "150", "--seed", "7", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data) == {"d", "n_param", "q", "k", "trials", "restarts",
                         "accepted", "regulator", "unit", "success_rate", "seed"}
    assert data["unit"] == {"x": 18, "y": 5}
    assert abs(data["regulator"] - 3.5842896518613267) < 5e-3
    assert data["q"] == 2 ** 14 and data["n_param"] == 64


def test_units_rejects_nonsquarefree(capsys):
    rc = run_cli(["units", "--d", "12", "--seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--d" in err and "squarefree" in err


def test_units_inconclusive_exit_code(tmp_path, capsys):
    # a one-entry cycle carries no period information
    rc = run_cli(["units", "--d", "2", "--trials", "40", "--seed", "3",
                  "--out", str(tmp_path / "x.json")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("inconclusive: ")


def test_pip_json_schema(tmp_path):
    out = tmp_path / "p.json"
    rc = run_cli(["pip", "--d", "13", "--p", "1", "--q-coeff", "3",
                  "--trials", "40", "--seed", "11", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data) == {"d", "ideal", "verdict", "theta", "samples",
                         "coprime_attempts", "seed"}
    assert data["verdict"] == "principal"
    assert data["ideal"] == {"p": 1, "q_coeff": 3}
    assert abs(data["theta"] - 0.930266) < 1e-3


def test_pip_rejects_nonreduced(capsys):
    rc = run_cli(["pip", "--d", "13", "--p", "1", "--q-coeff", "5", "--seed", "0"])
    assert rc == 2
    assert "reduced" in capsys.readouterr().err


def test_probe_f_stdout(capsys):
    rc = run_cli(["probe-f", "--d", "13", "--n", "64", "--from", "0", "--to", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "v,p,q_coeff"
    assert lines[1] == "0,3,1"
    assert len(lines) == 5


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    rc = run_cli(["spectrum", "--d", "13", "--n", "64", "--log2q", "12",
                  "--k", "3", "--seed", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")          # rounding mode documented
    assert lines[1] == "c,probability"
    probs = [float(line.split(",")[1]) for line in lines[2:]]
    assert all(p > 0 for p in probs)
    assert abs(sum(probs) - 1.0) < 1e-6


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("log2q = 12\ntrials = 80\nseed = 9\n")
    out1 = tmp_path / "a.json"
    rc = run_cli(["units", "--d", "13", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    data = json.loads(out1.read_text())
    assert data["q"] == 2 ** 12 and data["trials"] == 80 and data["seed"] == 9
    # explicit flags override the config file
    out2 = tmp_path / "b.json"
    rc = run_cli(["units", "--d", "13", "--config", str(cfg),
                  "--log2q", "13", "--out", str(out2)])
    assert json.loads(out2.read_text())["q"] == 2 ** 13


def test_synth_json(tmp_path):
    out = tmp_path / "s.json"
    rc = run_cli(["synth", "--rank", "2", "--scale", "16", "--n", "4",
                  "--bucket", "5", "--log2q", "8", "--k", "6",
                  "--trials", "8192", "--seed", "9", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["det_planted"] == pytest.approx(4096.0)
    assert data["det_rel_error"] <= 1e-3


def test_synth_rejects_rank3(capsys):
    # run tables hold supports of rank 1 or 2 only
    rc = run_cli(["synth", "--rank", "3", "--trials", "16", "--seed", "0"])
    assert rc == 2
    assert "--rank" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, value", [
    (["units", "--d", "13", "--n", "3"], "--n", "3"),
    (["units", "--d", "13", "--log2q", "0"], "--log2q", "0"),
    (["units", "--d", "13", "--k", "0"], "--k", "0"),
    (["spectrum", "--d", "13", "--k", "0"], "--k", "0"),
    (["synth", "--n", "3", "--trials", "16"], "--n", "3"),
], ids=["units-n", "units-log2q", "units-k", "spectrum-k", "synth-n"])
def test_bad_values_exit_2_naming_flag(argv, flag, value, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and f"got '{value}'" in err


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = abc\n")
    assert run_cli(["units", "--d", "13", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "argument --k: " in err and "got 'abc'" in err


def test_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "none.cfg"
    assert run_cli(["units", "--d", "13", "--config", str(missing)]) == 2
    assert "--config: " in capsys.readouterr().err


def test_config_reaches_probe_f(tmp_path, capsys):
    cfg = tmp_path / "n.cfg"
    cfg.write_text("n = 32\n")
    probe = ["probe-f", "--d", "13", "--from", "0", "--to", "40"]

    def table(*extra):
        assert run_cli(probe + list(extra)) == 0
        return capsys.readouterr().out

    n32, n64 = table("--n", "32"), table("--n", "64")
    assert n32 != n64
    assert table("--config", str(cfg)) == n32
    assert table("--config", str(cfg), "--n", "64") == n64


def test_pip_has_no_precision_flag(capsys):
    rc = run_cli(["pip", "--d", "13", "--p", "1", "--q-coeff", "3",
                  "--precision", "128"])
    assert rc == 2
    assert "--precision" in capsys.readouterr().err


def test_readme_examples_parse():
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```", 2)[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("regulus ")]
    assert len(examples) == 8
    for argv in examples:
        build_parser().parse_args(argv)
