"""Command-line harness: exit codes, artifacts and byte determinism."""

import json
import os

import numpy as np
import pytest

from gradobs.cli import main, read_observations
from gradobs.errors import ConfigError
from gradobs.presets import preset, preset_names


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_mlf_command_prints_values(tmp_path, capsys):
    code = main(
        ["mlf", "--alpha", "1.0", "--beta", "1.0", "--z=-1.0,0.0",
         "--out", str(tmp_path), "--save"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "z,value" in out
    assert "0.36787944117144233" in out  # exp(-1)
    assert (tmp_path / "mlf.csv").read_text() == out


def test_mlf_command_domain_error_exit_code(tmp_path, capsys):
    code = main(
        ["mlf", "--alpha", "0.5", "--beta", "1.0", "--z", "10.0",
         "--out", str(tmp_path)]
    )
    assert code == 3
    assert "numerical domain error" in capsys.readouterr().err


def test_missing_config_is_a_config_error(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path)]) == 2
    assert main(
        ["simulate", "--config", str(tmp_path / "absent.json"),
         "--out", str(tmp_path)]
    ) == 2


def test_invalid_config_reports_field_name(tmp_path, capsys):
    config = preset("case2-pointwise")
    del config["alpha"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "alpha" in err


def test_unweighted_small_alpha_is_a_numerical_domain_error(tmp_path, capsys):
    config = preset("hum-synthetic")
    config["alpha"] = 0.4  # reconstruction kernel needs the compensated weight
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["reconstruct", "--config", str(path), "--out", str(tmp_path)])
    assert code == 3
    assert "compensated" in capsys.readouterr().err


def _set(config, path, value):
    *head, key = path
    for part in head:
        config = config.setdefault(part, {})
    config[key] = value


@pytest.mark.parametrize(
    "command,path,value,field",
    [
        ("simulate", ("hum", "max_iterations"), "x", "max_iterations"),
        ("reconstruct", ("hum", "max_iterations"), "x", "max_iterations"),
        ("simulate", ("hum", "cg_tolerance"), "abc", "cg_tolerance"),
        ("reconstruct", ("hum", "cg_tolerance"), "abc", "cg_tolerance"),
        ("simulate", ("time_panels",), "32", "time_panels"),
        ("reconstruct", ("potential_truncation",), 2.5, "potential_truncation"),
        ("reconstruct", ("weighting",), "bogus", "weighting"),
        ("simulate", ("noise", "sigma"), -1e-3, "sigma"),
        ("reconstruct", ("noise", "sigma"), -1e-3, "sigma"),
        ("simulate", ("noise", "seed"), "abc", "seed"),
        ("reconstruct", ("hum", "weighting"), "none", "top-level 'weighting'"),
    ],
)
def test_config_mistakes_exit_2(tmp_path, capsys, command, path, value, field):
    config = preset("hum-synthetic")
    _set(config, path, value)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main([command, "--config", str(config_path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert field in err


def test_exhausted_solver_budget_exits_nonconvergent(tmp_path, capsys):
    config = preset("hum-pipeline")
    config["hum"]["max_iterations"] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["reconstruct", "--config", str(path), "--out", str(tmp_path)])
    assert code == 4
    assert "non-convergence" in capsys.readouterr().err
    # the diagnostic report is still written
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["payload"]["converged"] is False


def test_simulate_artifacts_are_byte_identical_across_runs(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(
            ["simulate", "--preset", "case2-pointwise", "--seed", "11",
             "--out", str(d)]
        )
        assert code == 0
    assert _read(dirs[0] / "observations.csv") == _read(dirs[1] / "observations.csv")
    assert _read(dirs[0] / "report.json") == _read(dirs[1] / "report.json")
    err = capsys.readouterr().err
    assert "finished in" in err  # wall time on stderr, never in artifacts
    assert b"finished" not in _read(dirs[0] / "report.json")


def test_report_envelope_structure(tmp_path, capsys):
    code = main(["strategic", "--preset", "strategic-1d-fail", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tool"] == "gradobs"
    assert set(report) >= {"version", "command", "config", "payload"}
    assert report["payload"]["verdict"] is False
    assert report["payload"]["offending_group"] == 1


def test_strategic_pass_preset(tmp_path, capsys):
    code = main(["strategic", "--preset", "strategic-1d-pass", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["payload"]["verdict"] is True
    assert report["payload"]["ranks"] == [1] * 12


def test_observation_roundtrip(tmp_path, capsys):
    code = main(
        ["simulate", "--preset", "heat-limit", "--out", str(tmp_path)]
    )
    assert code == 0
    record = read_observations(str(tmp_path / "observations.csv"), 1.0)
    data = np.loadtxt(tmp_path / "observations.csv", delimiter=",", skiprows=1)
    assert np.array_equal(record.grid.nodes, data[:, 0])
    assert np.array_equal(record.channels, data[:, 1:].T)
    with pytest.raises(ConfigError):
        read_observations(str(tmp_path / "report.json"), 1.0)


def test_reconstruct_roundtrip_through_csv(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    rec_dir = tmp_path / "rec"
    assert main(["simulate", "--preset", "hum-synthetic", "--out", str(sim_dir)]) == 0
    code = main(
        ["reconstruct", "--preset", "hum-synthetic",
         "--observations", str(sim_dir / "observations.csv"),
         "--out", str(rec_dir)]
    )
    assert code == 0
    assert (rec_dir / "gradient.csv").exists()
    report = json.loads((rec_dir / "report.json").read_text())
    assert report["payload"]["converged"] is True


def test_reconstruct_inline_reports_relative_error(tmp_path, capsys):
    code = main(["reconstruct", "--preset", "hum-synthetic", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["payload"]["relative_error"] < 1e-8
    # 2-D field grids are 101 x 101 plus the header line
    lines = (tmp_path / "gradient.csv").read_text().splitlines()
    assert len(lines) == 101 * 101 + 1
    assert lines[0] == "x1,x2,g1,g2"
    assert (tmp_path / "gradient_true.csv").exists()


def test_counterexample_command(tmp_path, capsys):
    code = main(["counterexample", "--preset", "counterexample", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())["payload"]
    assert payload["whole_domain_in_kernel"] is True
    assert payload["strip_in_kernel"] is False
    assert payload["strip_closed_form_relative_error"] < 1e-8


def test_gram_command_writes_spectrum(tmp_path, capsys):
    code = main(["gram", "--preset", "gram-zero", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())["payload"]
    assert payload["positive_definite"] is False
    assert payload["kind"] == "gradient"
    assert abs(payload["largest_eigenvalue"]) < 1e-20


def test_out_env_variable_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRADOBS_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    code = main(["strategic", "--preset", "strategic-1d-pass"])
    assert code == 0
    assert (tmp_path / "report.json").exists()


def test_every_preset_is_loadable():
    for name in preset_names():
        config = preset(name)
        assert isinstance(config, dict) and "alpha" in config
    with pytest.raises(ConfigError):
        preset("no-such-preset")
