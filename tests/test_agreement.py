"""Paths that answer one question agree, on seeded sensor suites.

`strategic`'s verdict, `gram`'s `positive_definite` and `reconstruct`'s full
rank of Lambda all say whether the sensors are gradient strategic on the
region at the test truncation Q.  Each suite draws 1-3 sensors of every kind
the dimension allows (filaments are 2-D), at rational locations with small
denominators or generic ones, on the whole domain or a strip: in 1-D with
T = 12, Q = 6, in 2-D with T = 4, Q = 3.  Most suites run at alpha = 1, the
exact response branch; every 40th at alpha = 0.8.  On the suites that
reconstruct, a `simulate` CSV read back by `reconstruct --observations`
gives the inline reconstruction's state coefficients exactly.

The Gram time kernel at alpha = 1, from the exact branch exp(lambda t), and
at alpha = 1 - delta, from the fractional branches (the gap band through
its per-alpha table), differ by a first-order multiple of delta.
"""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from gradobs.cli import Experiment, cmd_strategic, main
from gradobs.observability import (ConditioningWarning, numerical_rank,
                                   response_kernel_matrix)
from gradobs.presets import preset
from gradobs.spectral import build_basis

SUITES = 240
ROUND_TRIPS = 12
_FRACTIONS = [a / b for b in (2, 3, 4, 5, 6, 8) for a in range(1, b)
              if math.gcd(a, b) == 1]


def _coordinate(rng):
    """A rational a/b with b <= 8 two times in three, else a generic point."""
    if rng.integers(3):
        return float(rng.choice(_FRACTIONS))
    return float(rng.uniform(0.02, 0.98))


def _distribution(rng, dimension):
    if rng.integers(2):
        return {"type": "constant", "value": 1.0}
    freq = [float(rng.choice([1.0, 2.0, math.sqrt(2.0), math.pi / 2]))
            for _ in range(dimension)]
    return {"type": "sine", "freq": freq}


def _interval(rng):
    lo = float(rng.choice([0.0, 0.25, 1.0 / 3.0, 0.5]))
    return [lo, min(1.0, lo + float(rng.choice([0.25, 1.0 / 3.0, 0.5, 1.0])))]


def _sensor(rng, dimension):
    kind = int(rng.integers(3 if dimension == 2 else 2))
    if kind == 0:
        return {"kind": "pointwise",
                "location": [_coordinate(rng) for _ in range(dimension)]}
    if kind == 1:
        return {"kind": "zone", "rect": [_interval(rng) for _ in range(dimension)],
                "distribution": _distribution(rng, dimension)}
    return {"kind": "filament", "axis": int(rng.integers(2)),
            "interval": _interval(rng), "fixed": _coordinate(rng),
            "distribution": _distribution(rng, dimension)}


def _config(seed):
    rng = np.random.default_rng(seed)
    dimension = 1 + seed % 2
    strip = [[0.0, 0.5]] if dimension == 1 else [[0.0, 1.0], [0.0, 0.5]]
    return {
        "alpha": 0.8 if seed % 40 == 0 else 1.0,
        "horizon": 1.0,
        "dimension": dimension,
        "truncation": 12 if dimension == 1 else 4,
        "potential_truncation": 6 if dimension == 1 else 3,
        "region": [strip] if rng.integers(2) else None,
        "sensors": [_sensor(rng, dimension) for _ in range(rng.integers(1, 4))],
    }


def _answers(config, out_dir):
    """(strategic payload, gram's positive_definite, reconstruct's full rank)
    of one config, each as its command computes it."""
    experiment = Experiment(config)
    cmd_strategic(experiment, out_dir)
    with open(out_dir / "report.json") as handle:
        strategic = json.load(handle)["payload"]
    context = experiment.hum_context()
    full_rank = numerical_rank(context.lambda_eigenvalues) == context.size
    return strategic, experiment.gram().positive_definite, full_rank


def test_strategic_gram_and_reconstruct_agree_on_seeded_suites(tmp_path):
    disagreements = []
    deficient = observable = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for seed in range(SUITES):
            config = _config(seed)
            strategic, positive_definite, full_rank = _answers(config, tmp_path)
            verdict, offending = strategic["verdict"], strategic["offending_group"]
            agree = verdict == positive_definite == full_rank
            # on the whole domain Lambda is D (V o kappa^T kappa) D^T with D
            # diagonal, so a deficient level leaves it singular
            if config["region"] is None and offending is not None:
                agree &= not verdict
            if not agree:
                disagreements.append((seed, verdict, positive_definite, full_rank,
                                      offending))
            deficient += offending is not None
            observable += verdict
    assert disagreements == []
    # the draws reach both answers and deficient levels
    assert 0 < observable < SUITES and deficient > 0, (observable, deficient)


def test_csv_round_trip_gives_the_inline_state_on_seeded_suites(tmp_path, capsys):
    # simulate writes its CSV on reconstruct's time mesh, read back as
    # written, so reconstruction from it gives the inline state coefficients
    # exactly, noisy records too; the first ROUND_TRIPS suites in seed order
    # whose reconstruct exits 0, every third seed with seeded noise
    covered, noisy, trips = set(), 0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for seed in itertools.count():
            if trips == ROUND_TRIPS:
                break
            config = _config(seed)
            n = config["dimension"]
            config["initial"] = {"type": "modes", "terms": [
                {"indices": [1] * n, "value": 1.0},
                {"indices": [2, 1][:n], "value": -0.5}]}
            if seed % 3 == 0:
                config["noise"] = {"sigma": 1e-3, "seed": seed}
            path, out = tmp_path / f"{seed}.json", tmp_path / str(seed)
            path.write_text(json.dumps(config))
            run = lambda command, name, *extra: main(
                [command, "--config", str(path), "--out", str(out / name), *extra])
            if run("reconstruct", "inline") != 0:
                continue
            assert run("simulate", "sim") == 0, seed
            assert run("reconstruct", "csv", "--observations",
                       str(out / "sim" / "observations.csv")) == 0, seed
            state = [json.loads((out / name / "report.json").read_text())
                     ["payload"]["state_coefficients"] for name in ("csv", "inline")]
            assert state[0] == state[1], seed
            covered |= {(n, sensor["kind"]) for sensor in config["sensors"]}
            noisy += "noise" in config
            trips += 1
    assert covered == {(1, "pointwise"), (1, "zone"), (2, "pointwise"), (2, "zone"),
                       (2, "filament")}, covered
    assert 0 < noisy < trips


@pytest.mark.parametrize("location,verdict,offending", [
    (1.0 / 3.0, False, 3),  # sin(3 pi / 3) = 0
    (0.3, True, None),  # the derivative rule refused it: cos(5 pi 0.3) = 0
    (0.25, False, 4),
    (0.5, False, 2),
])
def test_strategic_1d_pass_with_its_sensor_moved(tmp_path, capsys, location, verdict,
                                                 offending):
    # the sensors measure values, so level j is unseen where sin(j pi x) = 0;
    # reconstruct refuses exactly where strategic's verdict is false
    config = preset("strategic-1d-pass")
    config["sensors"][0]["location"] = [location]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    payloads = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for command, code in [("strategic", 0), ("reconstruct", 0 if verdict else 4)]:
            assert main([command, "--config", str(path), "--out", str(tmp_path)]) \
                == code, command
            payloads[command] = json.loads((tmp_path / "report.json").read_text())
    strategic = payloads["strategic"]["payload"]
    assert strategic["verdict"] is verdict
    assert strategic["offending_group"] == offending
    assert (payloads["reconstruct"]["payload"]["rank"] == 6) is verdict


@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_gram_kernel_next_to_integer_order_agrees_with_the_exact_branch(delta):
    # the six lowest 2-D levels; V at 1 - delta is within 6 delta relative of
    # the exact one, entry by entry (5.15-5.19 delta measured, no trend in
    # delta down to 1e-12)
    levels = np.unique(build_basis(2, 3).eigenvalues)[::-1][:6]
    exact = response_kernel_matrix(1.0, levels, 1.0, "none")
    near = response_kernel_matrix(1.0 - delta, levels, 1.0, "none")
    assert np.max(np.abs(near - exact) / np.abs(exact)) <= 6.0 * delta
