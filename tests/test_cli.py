"""Command-line harness: exit codes, artifacts and byte determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradobs.cli as cli_module
from gradobs.cli import Experiment, main, read_observations
from gradobs.errors import ConfigError
from gradobs.observability import ConditioningWarning
from gradobs.presets import preset, preset_names
from gradobs.sensing import (BilinearTable, Sensor, SensorSuite, ZONE,
                             coupling_matrix)
from gradobs.spectral import Region, SpectralField, build_basis


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


@pytest.mark.parametrize("alpha,z", [("0.05", "5"), ("0.1", "4")])
def test_mlf_command_overflow_exit_code(tmp_path, capsys, alpha, z):
    code = main(["mlf", "--alpha", alpha, "--beta", alpha, f"--z={z}",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert f"overflows double precision for alpha={alpha}" in err


@pytest.mark.parametrize("alpha", ["1.5", "nan"])
def test_mlf_command_rejects_orders_outside_the_model(tmp_path, capsys, alpha):
    code = main(["mlf", "--alpha", alpha, "--beta", "1.5", "--z=-200",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "0 < alpha <= 1" in err


@pytest.mark.parametrize("beta,z", [("50", "-3.5"), ("1e308", "-50"), ("inf", "-1")])
def test_mlf_command_rejects_beta_above_the_cap(tmp_path, capsys, beta, z):
    # these printed a wrong value, an OverflowError traceback and 0
    code = main(["mlf", "--alpha", "0.5", "--beta", beta, f"--z={z}",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "0 < beta <= 20" in captured.err
    assert captured.out == ""


def test_mlf_command_non_numeric_argument_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["mlf", "--alpha", "0.5", "--beta", "0.5", "--z=abc",
              "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert "--z" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name", ["gram-zero", "heat-limit", "strategic-1d-fail", "strategic-1d-pass"]
)
def test_counterexample_on_a_1d_config_is_a_config_error(tmp_path, capsys, name):
    code = main(["counterexample", "--preset", name, "--out", str(tmp_path)])
    assert code == 2
    assert "config.dimension" in capsys.readouterr().err


def test_missing_config_is_a_config_error(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path)]) == 2
    assert main(
        ["simulate", "--config", str(tmp_path / "absent.json"),
         "--out", str(tmp_path)]
    ) == 2
    # a config that is not JSON, or JSON but not an object
    for text, message in [('{"alpha": 0.5,', "invalid JSON at line 1"),
                          ("[1, 2]", "top level must be a JSON object")]:
        path = tmp_path / "config.json"
        path.write_text(text)
        capsys.readouterr()
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and str(path) in err and "Traceback" not in err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00{")
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert str(path) in err


def test_invalid_config_reports_field_name(tmp_path, capsys):
    config = preset("case2-pointwise")
    del config["alpha"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "alpha" in err


def test_unweighted_small_alpha_is_a_config_error(tmp_path, capsys):
    config = preset("hum-synthetic")
    config["alpha"] = 0.4  # reconstruction kernel needs the compensated weight
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["reconstruct", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config.weighting" in err and "compensated" in err
    assert "Traceback" not in err


def test_unweighted_half_order_1d_strategic_is_a_config_error(tmp_path, capsys):
    # 1-D strategic integrates the response in time too, through its verdict
    config = preset("strategic-1d-pass")
    config["alpha"] = 0.5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["strategic", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config.weighting" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["simulate", "gram", "strategic", "reconstruct"])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.15, 0.164])
@pytest.mark.parametrize("name", ["strategic-1d-pass", "hum-synthetic"])
def test_every_order_down_to_alpha_001_runs(tmp_path, capsys, name, alpha, command):
    # below alpha = 1/6 the uncapped time grading collapsed the mesh (exit 3);
    # a small order may leave Lambda numerically singular, which reconstruct
    # refuses with its rank reported
    config = preset(name)
    config.update(alpha=alpha, weighting="compensated")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        code = main([command, "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads((tmp_path / "report.json").read_text())["payload"]
    if code == 4:
        assert command == "reconstruct"
        assert payload["rank"] < payload["size"]
        assert f"Lambda has rank {payload['rank']} of" in err
    else:
        assert code == 0, err


@pytest.mark.parametrize("name", ["counterexample", "counterexample-strip"])
def test_time_integrals_of_the_unweighted_counterexample_exit_2(tmp_path, capsys,
                                                                name):
    # alpha = 0.5 with no weighting: only the commands that integrate the
    # response in time reject it; simulate and counterexample sample it
    for command, expected in [("gram", 2), ("strategic", 2), ("reconstruct", 2),
                              ("simulate", 0), ("counterexample", 0)]:
        code = main([command, "--preset", name, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == expected, command
        assert "Traceback" not in err
        assert ("config.weighting" in err) == (expected == 2), command


def _fresh_interpreter(*args):
    """`python *args` in a new process with this checkout's gradobs."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_importing_the_cli_leaves_mpmath_unloaded():
    # a fresh interpreter: the test oracles import mpmath into this one
    probe = "import sys, gradobs.cli; print('mpmath' in sys.modules)"
    out = _fresh_interpreter("-c", probe)
    assert out.returncode == 0
    assert out.stdout.strip() == "False"


def test_warning_is_one_gradobs_line(tmp_path):
    # a fresh interpreter shows warnings; pytest records them instead.  Both
    # Gramians are singular; their smallest eigenvalues are rounding noise
    # below zero, and the ratio warns whatever that noise's sign
    for command, name in [("strategic", "strategic-1d-fail"), ("gram", "case1-zone")]:
        run = _fresh_interpreter("-m", "gradobs.cli", command, "--preset",
                                 name, "--out", str(tmp_path))
        assert run.returncode == 0
        lines = run.stderr.splitlines()
        shown = [line for line in lines if line.startswith("gradobs: warning: ")]
        assert len(shown) == 1 and "Gramian eigenvalue ratio" in shown[0], name
        assert all(line.startswith("gradobs: ") for line in lines)
        assert ".py:" not in run.stderr and "gram_regional(" not in run.stderr
    # a recording caller still receives the warning itself
    default_format = warnings.formatwarning
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["strategic", "--preset", "strategic-1d-fail",
                     "--out", str(tmp_path)]) == 0
    assert [w.category for w in seen] == [ConditioningWarning]
    assert warnings.formatwarning is default_format


def _set(config, path, value):
    *head, key = path
    for part in head:
        config = config[part] if isinstance(part, int) else config.setdefault(part, {})
    config[key] = value


_FILAMENT = {"kind": "filament", "axis": 0, "interval": [0.1, 0.5, 0.9],
             "fixed": 0.5, "distribution": {"type": "constant", "value": 1.0}}
_HALF_TABLE = {"type": "table", "x1": [0.0, 0.5], "x2": [0.0, 0.5],
               "values": [[1.0, 2.0], [3.0, 4.0]]}
_UNCOVERED_ZONE = {"kind": "zone", "rect": [[0.2, 0.7], [0.3, 0.8]],
                   "distribution": _HALF_TABLE}
_UNCOVERED_FILAMENT = {"kind": "filament", "axis": 0, "interval": [0.1, 0.4],
                       "fixed": 0.6, "distribution": _HALF_TABLE}


@pytest.mark.parametrize(
    "command,path,value,field",
    [
        ("simulate", ("hum", "max_iterations"), "x", "max_iterations"),
        ("reconstruct", ("hum", "max_iterations"), "x", "max_iterations"),
        ("simulate", ("hum", "cg_tolerance"), "abc", "cg_tolerance"),
        ("reconstruct", ("hum", "cg_tolerance"), "abc", "cg_tolerance"),
        # a removed key: simulation samples on the one time rule
        ("simulate", ("time_panels",), 32, "time_panels"),
        ("reconstruct", ("potential_truncation",), 2.5, "potential_truncation"),
        ("reconstruct", ("weighting",), "bogus", "weighting"),
        ("simulate", ("noise", "sigma"), -1e-3, "sigma"),
        ("reconstruct", ("noise", "sigma"), -1e-3, "sigma"),
        ("simulate", ("noise", "seed"), "abc", "seed"),
        ("reconstruct", ("hum", "weighting"), "none", "'weighting'"),
        ("reconstruct", ("potential_truncation",), 3, "potential_truncation"),
        ("reconstruct", ("potential_truncation",), 0, "potential_truncation"),
        # a removed key: every Gramian and HUM read Q from potential_truncation
        ("gram", ("gram_truncation",), 0, "gram_truncation"),
        ("gram", ("gram_kind",), "bogus", "gram_kind"),
        ("simulate", ("noise",), {"sigma": 1e-3}, "seed"),
        ("simulate", ("horizn",), 1.0, "horizn"),
        ("reconstruct", ("hum", "cg_tolerence"), 1e-10, "cg_tolerence"),
        ("simulate", ("noise", "sigam"), 1e-3, "sigam"),
        ("simulate", ("sensors", 0, "location"), ["a", 0.5],
         "config.sensors[0].location"),
        ("simulate", ("sensors", 0, "location"), [0.5], "config.sensors[0].location"),
        ("simulate", ("sensors", 0), _FILAMENT, "config.sensors[0].interval"),
        ("simulate", ("initial",), [1.0], "config.initial"),
        ("simulate", ("noise", "seed"), -1, "config.noise.seed"),
        ("simulate", ("sensors", 0), 5, "config.sensors[0]"),
        ("simulate", ("initial", "terms", 0), 5, "config.initial.terms[0]"),
        ("gram", ("potential_truncation",), "3", "potential_truncation"),
        ("gram", ("potential_truncation",), 0, "potential_truncation"),
        ("strategic", ("gram_truncation",), 2, "unknown field(s) 'gram_truncation'"),
        # 101**2 modes pass the basis cap
        ("simulate", ("truncation",), 101, "config.truncation: truncation 101"),
        # a removed key: every command reads the gradient Gramian
        ("gram", ("gram_kind",), "component", "unknown field(s) 'gram_kind'"),
        # a table that does not span its zone or filament would extrapolate
        ("gram", ("sensors", 0), _UNCOVERED_ZONE, "config.sensors[0]: table x1"),
        ("gram", ("sensors", 0), _UNCOVERED_FILAMENT, "config.sensors[0]: table x2"),
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


def _zone_config(dimension, distribution):
    """case1-zone in 2-D, strategic-1d-pass in 1-D, with one zone sensor
    (on [0.2, 0.7] per axis) of the given distribution spec."""
    config = preset("case1-zone" if dimension == 2 else "strategic-1d-pass")
    config["sensors"] = [{"kind": "zone", "rect": [[0.2, 0.7]] * dimension,
                          "distribution": distribution}]
    return config


@pytest.mark.parametrize("distribution,direct", [
    ({"type": "cosine", "coefficients": [0.5, -0.25]},
     lambda pts: 0.5 * np.cos(np.pi * pts[:, 0]) - 0.25 * np.cos(2 * np.pi * pts[:, 0])),
    ({"type": "table", "x1": [0.0, 0.5, 1.0], "x2": [0.0, 1.0],
      "values": [[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]]},
     BilinearTable(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]),
                   np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]]))),
], ids=["cosine", "table"])
def test_config_distributions_build_their_sensors(distribution, direct):
    # the zone a config builds couples like the same Sensor built directly
    experiment = Experiment(_zone_config(2, distribution))
    sensor = Sensor(ZONE, Region((((0.2, 0.7), (0.2, 0.7)),)), direct)
    assert np.array_equal(coupling_matrix(experiment.suite, experiment.basis),
                          coupling_matrix(SensorSuite((sensor,)), experiment.basis))


_OVERFLOWS = {
    "constant-1e308": {"type": "constant", "value": 1e308},
    "sine-1e308": {"type": "sine", "freq": [1e308, 1.0]},
    "cosine-1e308": {"type": "cosine", "coefficients": [1e308, 1e308]},
    # finite couplings whose squares overflow
    "constant-1e200": {"type": "constant", "value": 1e200},
    "constant-1e155": {"type": "constant", "value": 1e155},
}


@pytest.mark.parametrize("command", ["simulate", "strategic", "gram", "reconstruct"])
@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("name", list(_OVERFLOWS))
def test_overflowing_sensor_distribution_exits_3(tmp_path, capsys, name, dimension,
                                                 command):
    # a value that overflows is refused where it is made, so no command
    # reaches LAPACK with it or writes it; simulate alone has a finite answer
    # when only the squares of the couplings overflow
    distribution = copy.deepcopy(_OVERFLOWS[name])
    if dimension == 1 and distribution["type"] == "sine":
        distribution["freq"] = distribution["freq"][:1]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_zone_config(dimension, distribution)))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    finite = command == "simulate" and "1e308" not in name
    assert code == (0 if finite else 3)
    assert finite or "overflowed double precision" in err
    assert "Traceback" not in err
    for csv in out.glob("*.csv"):
        assert "inf" not in csv.read_text() and "nan" not in csv.read_text(), csv


def test_seed_flag_supplies_a_missing_noise_seed(tmp_path, capsys):
    config = preset("hum-synthetic")
    config["noise"] = {"sigma": 1e-3}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main(["simulate", "--config", str(config_path), "--seed", "5",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["payload"]["noise_seed"] == 5


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
    # sin(j pi / 2) = 0 at every even j: the value coupling of level 2 vanishes
    assert report["payload"]["offending_group"] == 2


def test_strategic_pass_preset(tmp_path, capsys):
    code = main(["strategic", "--preset", "strategic-1d-pass", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["payload"]["verdict"] is True
    # the level ranks run over the test truncation Q = min(12, 6)
    assert report["payload"]["ranks"] == [1] * 6


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
    inline_dir = tmp_path / "inline"
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
    # simulate samples on the reconstruction mesh and %.17g round-trips
    # every double, so the CSV gives the inline answer exactly
    assert main(["reconstruct", "--preset", "hum-synthetic",
                 "--out", str(inline_dir)]) == 0
    inline = json.loads((inline_dir / "report.json").read_text())
    assert report["payload"]["state_coefficients"] \
        == inline["payload"]["state_coefficients"]


def _malformed(lines):
    return lambda path: path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "write",
    [
        lambda path: None,  # missing file
        _malformed(["t,z_1,z_2,z_3", "0.1,1.0,abc,3.0"]),
        _malformed(["t,z_1,z_2,z_3", "0.1,1.0,2.0,3.0", "0.2,1.0,2.0"]),
        _malformed(["t,z_1,z_2,z_3", "0.2,1.0,2.0,3.0", "0.1,1.0,2.0,3.0"]),
        _malformed(["t,z_1,z_2,z_3", "0.0,1.0,2.0,3.0", "0.1,1.0,2.0,3.0"]),
        _malformed(["t,z_1,z_2,z_3", "0.5,1.0,2.0,3.0", "1.5,1.0,2.0,3.0"]),
        _malformed(["t,z_1,z_2", "0.1,1.0,2.0", "0.2,1.0,2.0"]),
        _malformed(["t,z_1,z_2,z_3"]),
    ],
    ids=["missing", "non-numeric", "field-count", "not-increasing",
         "nonpositive-time", "beyond-horizon", "channel-count", "no-rows"],
)
def test_malformed_observations_exit_2(tmp_path, capsys, write):
    # hum-synthetic has three sensors and horizon 1
    path = tmp_path / "observations.csv"
    write(path)
    code = main(["reconstruct", "--preset", "hum-synthetic",
                 "--observations", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert str(path) in err


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


def _csv_rows(path, header):
    """The value rows of a CSV artifact, after checking its header, its
    single trailing newline and the %.17g form of every field."""
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text[:-1].split("\n")
    assert lines[0] == header
    for line in lines[1:]:
        for field in line.split(","):
            assert field == "%.17g" % float(field)
    return lines[1:]


@pytest.mark.parametrize("name,header", [("heat-limit", "x1,g1"),
                                         ("hum-synthetic", "x1,x2,g1,g2")])
def test_csv_artifact_format(tmp_path, capsys, name, header):
    assert main(["reconstruct", "--preset", name, "--out", str(tmp_path)]) == 0
    dimension = header.count("x")
    for grid in ("gradient.csv", "gradient_true.csv"):
        assert len(_csv_rows(tmp_path / grid, header)) == 101**dimension
    assert main(["simulate", "--preset", name, "--out", str(tmp_path)]) == 0
    sensors = len(preset(name)["sensors"])
    _csv_rows(tmp_path / "observations.csv",
              ",".join(["t"] + [f"z_{i + 1}" for i in range(sensors)]))
    capsys.readouterr()
    assert main(["mlf", "--alpha", "0.5", "--beta", "0.5", "--z=-50,-2,-0.0,1",
                 "--out", str(tmp_path), "--save"]) == 0
    assert len(_csv_rows(tmp_path / "mlf.csv", "z,value")) == 4
    assert (tmp_path / "mlf.csv").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("dimension,rect", [
    (1, ((0.25, 0.6),)),
    (2, ((0.0, 1.0), (0.1, 0.5))),
])
def test_gradient_csv_equals_the_plain_template(dimension, rect):
    # the export grid's coordinates are formatted once per process; the
    # text must be what `_csv` gives on every column, masked gradient
    # values (zeros and negative zeros outside the region) included
    basis = build_basis(dimension, 4)
    coefficients = np.random.default_rng(dimension).normal(size=len(basis))
    field = SpectralField(basis, coefficients)
    region = Region((rect,))
    axes = [np.linspace(0.0, 1.0, cli_module.GRID_POINTS)] * dimension
    pts = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], axis=1)
    comps = field.grid_gradient(axes).reshape(dimension, -1) * region.contains(pts)
    names = [f"{v}{i + 1}" for v in "xg" for i in range(dimension)]
    plain = cli_module._csv(names, [*pts.T, *comps])
    for _ in range(2):  # the template's first build and a cached reuse
        assert cli_module._gradient_csv(field, region) == plain


def test_counterexample_command(tmp_path, capsys):
    code = main(["counterexample", "--preset", "counterexample", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())["payload"]
    assert payload["whole_domain_in_kernel"] is True
    assert payload["strip_in_kernel"] is False
    assert payload["strip_closed_form_relative_error"] < 1e-8


def test_counterexample_on_another_sensor_suite_is_a_config_error(tmp_path, capsys):
    # the strip's closed form holds only for the counterexample's filament
    code = main(["counterexample", "--preset", "hum-pipeline", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config.sensors" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.fixture(scope="module")
def gram_and_reconstruct(tmp_path_factory):
    """{preset: {command: (exit code, payload or None)}} of `strategic`, `gram`
    and `reconstruct` on every preset; a report written on exit 4 is read too."""
    runs = {}
    for name in preset_names():
        for command in ("strategic", "gram", "reconstruct"):
            out = tmp_path_factory.mktemp(f"{name}-{command}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                code = main([command, "--preset", name, "--out", str(out)])
            report = out / "report.json"
            payload = json.loads(report.read_text())["payload"] \
                if report.exists() else None
            runs.setdefault(name, {})[command] = code, payload
    return runs


def test_reconstruct_reports_the_gradient_gramian_smallest_eigenvalue(
        gram_and_reconstruct):
    # reconstruct's Lambda and gram's gradient Gramian are one operator, so
    # both commands report one smallest eigenvalue, rank-deficient ones too
    compared = []
    for name, runs in gram_and_reconstruct.items():
        (_, gram), (_, reconstruct) = runs["gram"], runs["reconstruct"]
        if gram is None or reconstruct is None or gram["kind"] != "gradient":
            continue
        assert reconstruct["smallest_eigenvalue"] == pytest.approx(
            gram["smallest_eigenvalue"], rel=0.0,
            abs=1e-12 * gram["largest_eigenvalue"]), name
        compared.append(name)
    assert len(compared) == 10, compared


def test_reconstruct_refuses_exactly_where_gram_is_singular(gram_and_reconstruct):
    # reconstruct exits 4 with its report written exactly when gram's Gramian
    # is not positive definite, and reports Lambda's rank either way;
    # strategic's verdict is that Gramian's
    refused = []
    for name, runs in gram_and_reconstruct.items():
        (gram_code, gram), (code, reconstruct) = runs["gram"], runs["reconstruct"]
        strategic_code, strategic = runs["strategic"]
        if gram_code == 2:
            assert code == strategic_code == 2, name
            continue
        assert gram_code == 0 and gram["kind"] == "gradient", name
        assert strategic_code == 0, name
        assert strategic["verdict"] == gram["positive_definite"], name
        assert code == (0 if gram["positive_definite"] else 4), name
        assert reconstruct["size"] == len(gram["eigenvalues"]), name
        assert (reconstruct["rank"] == reconstruct["size"]) == \
            gram["positive_definite"], name
        if code == 4:
            refused.append(name)
    assert sorted(refused) == ["case1-zone", "case2-pointwise", "case3-filament",
                               "gram-zero", "strategic-1d-fail"]


def test_gram_and_reconstruct_share_the_test_truncation(tmp_path, capsys):
    # one key sets Q for gram's Gramian and for HUM's Lambda, so both
    # commands report one operator
    config = preset("hum-pipeline")
    config.update(potential_truncation=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    payloads = {}
    for command in ("gram", "reconstruct"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        payloads[command] = json.loads((out / "report.json").read_text())["payload"]
    gram, reconstruct = payloads["gram"], payloads["reconstruct"]
    assert len(gram["eigenvalues"]) == len(reconstruct["potential_coefficients"]) == 4
    assert reconstruct["smallest_eigenvalue"] == pytest.approx(
        gram["smallest_eigenvalue"], rel=0.0, abs=1e-12 * gram["largest_eigenvalue"])


def test_gram_command_writes_spectrum(tmp_path, capsys):
    code = main(["gram", "--preset", "gram-zero", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())["payload"]
    assert payload["positive_definite"] is False
    assert payload["kind"] == "gradient"
    assert abs(payload["largest_eigenvalue"]) < 1e-20
    # the zero suite's Lambda vanishes: reconstruct refuses it (exit 4), and
    # its written report gives the smallest eigenvalue 0, not nan, and rank 0
    code = main(["reconstruct", "--preset", "gram-zero", "--out", str(tmp_path)])
    assert code == 4
    payload = json.loads((tmp_path / "report.json").read_text())["payload"]
    assert payload["smallest_eigenvalue"] == 0.0
    assert payload["rank"] == 0


def test_refused_reconstruct_writes_only_its_report(tmp_path, capsys):
    # a rank-deficient Lambda is refused before the solve: no gradient of
    # rounding noise is written, and the report says why
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        code = main(["reconstruct", "--preset", "case1-zone", "--out", str(tmp_path)])
    assert code == 4
    assert "Lambda has rank 7 of 16" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    payload = json.loads((tmp_path / "report.json").read_text())["payload"]
    assert sorted(payload) == ["rank", "regularization", "size",
                               "smallest_eigenvalue"]
    assert (payload["rank"], payload["size"], payload["regularization"]) == (7, 16, 0.0)
    # the inputs are read first: a missing observations file is still a
    # config error, whatever Lambda's rank
    out = tmp_path / "from-csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        code = main(["reconstruct", "--preset", "case1-zone", "--out", str(out),
                     "--observations", str(tmp_path / "missing.csv")])
    assert code == 2
    assert not out.exists()


def test_out_env_variable_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRADOBS_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    code = main(["strategic", "--preset", "strategic-1d-pass"])
    assert code == 0
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("under", [False, True])
def test_out_at_a_file_is_a_config_error(tmp_path, capsys, under):
    # --out naming a file, or a path below one, cannot become a directory
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    code = main(["simulate", "--preset", "hum-pipeline", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot create output directory" in err and "Traceback" not in err


@pytest.mark.parametrize("blocked", [False, True])
def test_only_a_command_that_writes_makes_the_output_directory(tmp_path, capsys,
                                                               blocked):
    # mlf without --save writes nothing, so it neither leaves an empty --out
    # behind nor fails on an --out that names a file; with --save it makes it
    out = tmp_path / "newdir"
    if blocked:
        out.write_text("")
    args = ["mlf", "--alpha", "0.5", "--beta", "0.5", "--z=-2", "--out", str(out)]
    assert main(args) == 0
    assert out.is_file() if blocked else not out.exists()
    assert main(args + ["--save"]) == (2 if blocked else 0)
    assert blocked or (out / "mlf.csv").is_file()


def test_every_preset_is_loadable():
    for name in preset_names():
        config = preset(name)
        assert isinstance(config, dict) and "alpha" in config
    with pytest.raises(ConfigError):
        preset("no-such-preset")


# sizes a mutation may lower but never raise, so every example stays cheap
_SIZE_KEYS = ("truncation", "max_iterations")
_DELETE = object()


def _json_paths(node, path=()):
    """Paths to every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _mutation_pool(parent, key):
    """Replacements for parent[key] (or _DELETE): null, a value of each other
    JSON type, negative, zero and out-of-range numbers, an unknown key, a
    shorter or longer list."""
    value = parent[key]
    pool = [None, _DELETE] if isinstance(parent, dict) else [None]
    pool += [v for v in (1.5, "x", [1.0], {"x": 1.0}) if type(v) is not type(value)]
    for number in (-1, 0, -0.5, 2.5, 1e9, 1e308):
        if key not in _SIZE_KEYS or (
            isinstance(value, (int, float)) and number <= value
        ):
            pool.append(number)
    if isinstance(value, dict):
        pool.append({**value, "bogus_key": 1.0})
    if isinstance(value, list) and value:
        pool += [value[:-1], value + value[-1:]]
    return pool


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_presets_exit_with_a_documented_code(data):
    config = preset(data.draw(st.sampled_from(preset_names()), label="preset"))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        *head, key = data.draw(st.sampled_from(list(_json_paths(config))), label="path")
        parent = config
        for part in head:
            parent = parent[part]
        value = data.draw(st.sampled_from(_mutation_pool(parent, key)), label="value")
        if value is _DELETE:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        for command in ("simulate", "strategic", "gram"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", path, "--out", work])
            assert code in (0, 2, 3, 4), (command, err.getvalue())
            assert "Traceback" not in err.getvalue()
