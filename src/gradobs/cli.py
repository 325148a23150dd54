"""Command-line experiment harness.

One process per command; configs are single JSON documents (or named
presets), observations are CSV with header `t,z_1..z_p` at 17 significant
digits, fields export as CSV on a uniform 101 x 101 grid, and reports are
JSON written atomically (temp + rename).  With a fixed config and seed every
persisted artifact is byte-identical across runs; wall time goes to stderr
only.

Exit codes: 0 success, 2 config error, 3 numerical-domain error,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .errors import (
    AccuracyError,
    ConfigError,
    ConvergenceError,
    DomainError,
    GradobsError,
    SizeError,
)
from .mlf import mlf
from .presets import preset, preset_names
from .sensing import (
    BilinearTable,
    FILAMENT,
    Filament,
    POINTWISE,
    Sensor,
    SensorSuite,
    ZONE,
)
from .spectral import (
    Basis,
    Region,
    SpectralField,
    build_basis,
    grad_adjoint,
    restrict,
    restrict_gradient,
    sample_vector_field,
    whole_domain,
)
from .dynamics import (
    ObservationRecord,
    TIME_PANELS,
    TimeGrid,
    WEIGHTING_COMPENSATED,
    WEIGHTING_NONE,
    simulate,
    time_grid,
)
from .observability import (
    COMPONENT,
    GRADIENT,
    build_g_matrices,
    gram_regional,
    kernel_test,
    strategic_test_1d,
)
from .hum import HumConfig, HumContext, reconstruction_error, solve

GRID_POINTS = 101
OUT_ENV = "GRADOBS_OUT"


# ---------------------------------------------------------------- config ---


_REQUIRED = object()
CONFIG_KEYS = frozenset({
    "alpha", "horizon", "dimension", "truncation", "gram_truncation",
    "potential_truncation", "gram_kind", "weighting", "time_panels", "region",
    "sensors", "noise", "hum", "initial",
})
HUM_KEYS = frozenset({"cg_tolerance", "max_iterations", "regularization"})
NOISE_KEYS = frozenset({"sigma", "seed"})


def _reject_unknown(config: dict, known: frozenset, where: str) -> None:
    unknown = sorted(set(config) - known)
    if unknown:
        raise ConfigError(
            f"{where}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )


def _require(config: dict, key: str, kind, where: str = "config",
             default=_REQUIRED):
    """Typed read of config[key]; an absent or null field takes `default`."""
    if config.get(key) is None and default is not _REQUIRED:
        return default
    if key not in config:
        raise ConfigError(f"{where}: missing field {key!r}")
    value = config[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _region_from_spec(spec, dimension: int) -> Region:
    if spec is None:
        return whole_domain(dimension)
    if not isinstance(spec, list) or not spec:
        raise ConfigError("config.region: expected null or a list of rectangles")
    rects = []
    for r, rect in enumerate(spec):
        if not isinstance(rect, list) or len(rect) != dimension:
            raise ConfigError(
                f"config.region[{r}]: expected {dimension} [lo, hi] pairs"
            )
        try:
            rects.append(tuple((float(lo), float(hi)) for lo, hi in rect))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.region[{r}]: {exc}") from exc
    try:
        return Region(tuple(rects))
    except DomainError as exc:
        raise ConfigError(f"config.region: {exc}") from exc


def _distribution_from_spec(spec: dict, where: str):
    kind = _require(spec, "type", str, where)
    if kind == "constant":
        value = _require(spec, "value", float, where)
        return lambda pts: np.full(pts.shape[0], value)
    if kind == "sine":
        freq = _require(spec, "freq", list, where)
        freqs = [float(f) for f in freq]

        def dist(pts: np.ndarray, freqs=tuple(freqs)) -> np.ndarray:
            out = np.ones(pts.shape[0])
            for axis, f in enumerate(freqs):
                if f != 0.0:
                    out = out * np.sin(f * np.pi * pts[:, axis])
            return out

        return dist
    if kind == "cosine":
        coeffs = [float(c) for c in _require(spec, "coefficients", list, where)]

        def dist(pts: np.ndarray, coeffs=tuple(coeffs)) -> np.ndarray:
            out = np.zeros(pts.shape[0])
            for k, c in enumerate(coeffs, start=1):
                out += c * np.cos(k * np.pi * pts[:, 0])
            return out

        return dist
    if kind == "table":
        return BilinearTable(
            np.asarray(_require(spec, "x1", list, where), dtype=float),
            np.asarray(_require(spec, "x2", list, where), dtype=float),
            np.asarray(_require(spec, "values", list, where), dtype=float),
        )
    raise ConfigError(f"{where}.type: unknown distribution type {kind!r}")


def _sensor_from_spec(spec: dict, dimension: int, index: int) -> Sensor:
    where = f"config.sensors[{index}]"
    kind = _require(spec, "kind", str, where)
    try:
        if kind == POINTWISE:
            location = _require(spec, "location", list, where)
            return Sensor(POINTWISE, tuple(float(c) for c in location))
        if kind == ZONE:
            rect = _require(spec, "rect", list, where)
            region = _region_from_spec([rect], dimension)
            dist = _distribution_from_spec(
                _require(spec, "distribution", dict, where), where + ".distribution"
            )
            return Sensor(ZONE, region, dist)
        if kind == FILAMENT:
            fil = Filament(
                _require(spec, "axis", int, where),
                tuple(float(v) for v in _require(spec, "interval", list, where)),
                _require(spec, "fixed", float, where),
            )
            dist = _distribution_from_spec(
                _require(spec, "distribution", dict, where), where + ".distribution"
            )
            return Sensor(FILAMENT, fil, dist)
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.kind: unknown sensor kind {kind!r}")


def _counterexample_gradient(pts: np.ndarray) -> np.ndarray:
    g1 = np.cos(np.pi * pts[:, 0]) * np.sin(3.0 * np.pi * pts[:, 1]) / np.pi
    g2 = 3.0 * np.sin(np.pi * pts[:, 0]) * np.cos(3.0 * np.pi * pts[:, 1]) / np.pi
    return np.stack([g1, g2], axis=1)


def _initial_from_spec(spec: dict, basis: Basis, region: Region) -> SpectralField:
    kind = _require(spec, "type", str, "config.initial")
    if kind == "modes":
        coeffs = np.zeros(len(basis))
        for t, term in enumerate(_require(spec, "terms", list, "config.initial")):
            where = f"config.initial.terms[{t}]"
            indices = tuple(_require(term, "indices", list, where))
            value = _require(term, "value", float, where)
            try:
                coeffs[basis.index_of(indices)] += value
            except (DomainError, KeyError) as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        return SpectralField(basis, coeffs)
    if kind == "counterexample-gradient":
        if basis.dimension != 2:
            raise ConfigError("config.initial: counterexample-gradient is 2-D")
        g = sample_vector_field(
            _counterexample_gradient, whole_domain(2), basis.truncation
        )
        return grad_adjoint(restrict(g, region), basis)
    raise ConfigError(f"config.initial.type: unknown initial type {kind!r}")


class Experiment:
    """Validated configuration with its constructed model objects."""

    def __init__(self, config: dict) -> None:
        self.config = config
        _reject_unknown(config, CONFIG_KEYS, "config")
        self.alpha = _require(config, "alpha", float)
        self.horizon = _require(config, "horizon", float)
        self.dimension = _require(config, "dimension", int)
        if self.dimension not in (1, 2):
            raise ConfigError("config.dimension: must be 1 or 2")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"config.alpha: must be in (0, 1], got {self.alpha}")
        if self.horizon <= 0.0:
            raise ConfigError(f"config.horizon: must be positive")
        self.truncation = _require(config, "truncation", int)
        self.gram_truncation = _require(
            config, "gram_truncation", int, default=min(self.truncation, 6)
        )
        self.potential_truncation = _require(
            config, "potential_truncation", int, default=min(self.truncation, 6)
        )
        for key, value in (("gram_truncation", self.gram_truncation),
                           ("potential_truncation", self.potential_truncation)):
            if not (1 <= value <= self.truncation):
                raise ConfigError(
                    f"config.{key}: must be in [1, truncation={self.truncation}], "
                    f"got {value}"
                )
        self.gram_kind = _require(config, "gram_kind", str, default=GRADIENT)
        if self.gram_kind not in (COMPONENT, GRADIENT):
            raise ConfigError(
                f"config.gram_kind: must be {COMPONENT!r} or {GRADIENT!r}, "
                f"got {self.gram_kind!r}"
            )
        self.weighting = _require(config, "weighting", str, default=WEIGHTING_NONE)
        if self.weighting not in (WEIGHTING_NONE, WEIGHTING_COMPENSATED):
            raise ConfigError(
                f"config.weighting: must be {WEIGHTING_NONE!r} or "
                f"{WEIGHTING_COMPENSATED!r}, got {self.weighting!r}"
            )
        self.time_panels = _require(config, "time_panels", int, default=TIME_PANELS)
        if self.time_panels < 1:
            raise ConfigError("config.time_panels: must be >= 1")
        try:
            self.basis = build_basis(self.dimension, self.truncation)
        except (DomainError, SizeError) as exc:
            raise ConfigError(f"config.truncation: {exc}") from exc
        self.region = _region_from_spec(config.get("region"), self.dimension)
        sensor_specs = _require(config, "sensors", list)
        if not sensor_specs:
            raise ConfigError("config.sensors: at least one sensor required")
        self.suite = SensorSuite(
            tuple(
                _sensor_from_spec(s, self.dimension, i)
                for i, s in enumerate(sensor_specs)
            )
        )
        noise = _require(config, "noise", dict, default={})
        _reject_unknown(noise, NOISE_KEYS, "config.noise")
        self.noise_sigma = _require(noise, "sigma", float, "config.noise", 0.0)
        if self.noise_sigma < 0.0:
            raise ConfigError("config.noise.sigma: must be >= 0")
        self.noise_seed = _require(noise, "seed", int, "config.noise", None)
        if self.noise_sigma > 0.0 and self.noise_seed is None:
            raise ConfigError(
                "config.noise.seed: required when noise.sigma > 0 "
                "(or pass --seed)"
            )
        hum = _require(config, "hum", dict, default={})
        if "weighting" in hum:
            raise ConfigError(
                "config.hum.weighting: not read; set the top-level "
                "'weighting' key instead"
            )
        _reject_unknown(hum, HUM_KEYS, "config.hum")
        try:
            self.hum_config = HumConfig(
                _require(hum, "cg_tolerance", float, "config.hum",
                         HumConfig.cg_tolerance),
                _require(hum, "max_iterations", int, "config.hum",
                         HumConfig.max_iterations),
                _require(hum, "regularization", float, "config.hum",
                         HumConfig.regularization),
            )
        except DomainError as exc:
            raise ConfigError(f"config.hum: {exc}") from exc
        self.initial_spec = config.get("initial")

    def initial_state(self) -> SpectralField:
        if self.initial_spec is None:
            raise ConfigError("config.initial: required for this command")
        return _initial_from_spec(self.initial_spec, self.basis, self.region)

    def grid(self) -> TimeGrid:
        return time_grid(self.alpha, self.horizon, self.time_panels)


# ---------------------------------------------------------------- output ---


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gradobs-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else repr(value)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_report(out_dir: str, command: str, config: dict, payload: dict) -> str:
    envelope = {
        "tool": "gradobs",
        "version": __version__,
        "command": command,
        "config": _jsonable(config),
        "payload": _jsonable(payload),
    }
    path = os.path.join(out_dir, "report.json")
    _atomic_write(path, json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    return path


def _g(value: float) -> str:
    return f"{value:.17g}"


def _write_observations(out_dir: str, record: ObservationRecord) -> str:
    p = record.channels.shape[0]
    lines = ["t," + ",".join(f"z_{i + 1}" for i in range(p))]
    for k, t in enumerate(record.grid.nodes):
        lines.append(",".join([_g(t)] + [_g(record.channels[i, k]) for i in range(p)]))
    path = os.path.join(out_dir, "observations.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def read_observations(path: str, horizon: float) -> ObservationRecord:
    """Channels from a `t,z_1..z_p` CSV, times increasing in (0, horizon];
    a fault is a ConfigError naming the file and, if there is one, the line."""
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read observations {path}: {exc}") from exc
    if not lines or lines[0].strip().split(",")[0] != "t":
        raise ConfigError(f"{path}: expected header starting with 't'")
    width = len(lines[0].split(","))
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        previous = rows[-1][0] if rows else 0.0
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise ConfigError(f"{path}, line {number}: {exc}") from exc
        if len(row) != width or not all(map(math.isfinite, row)) \
                or not previous < row[0] <= horizon:
            raise ConfigError(
                f"{path}, line {number}: expected {width} finite numbers, "
                f"the time in ({previous!r}, {horizon!r}]"
            )
        rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no observation rows")
    data = np.asarray(rows)
    nodes = data[:, 0]
    # the weights feed nothing: reconstruction re-samples the channels onto
    # its own mesh, so uniform ones only satisfy TimeGrid's contract
    grid = TimeGrid(horizon, nodes, np.full(nodes.size, horizon / nodes.size))
    return ObservationRecord(grid, data[:, 1:].T)


def _write_gradient_grid(out_dir: str, name: str, field: SpectralField,
                         region: Region) -> str:
    """Write p_omega grad(field) on the uniform GRID_POINTS export grid."""
    axis = np.linspace(0.0, 1.0, GRID_POINTS)
    if field.basis.dimension == 1:
        pts = axis[:, None]
        lines = ["x1,g1"]
    else:
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([x1.ravel(), x2.ravel()], axis=1)
        lines = ["x1,x2,g1,g2"]
    comps = field.grad(pts).T * region.contains(pts)[None, :]
    for k in range(pts.shape[0]):
        lines.append(",".join(_g(v) for v in [*pts[k], *comps[:, k]]))
    path = os.path.join(out_dir, name)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


# -------------------------------------------------------------- commands ---


def cmd_mlf(args, out_dir: str) -> int:
    values = [float(z) for z in args.z.split(",") if z.strip()]
    lines = ["z,value"]
    for z in values:
        lines.append(f"{_g(z)},{_g(mlf(args.alpha, args.beta, z))}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.save:
        _atomic_write(os.path.join(out_dir, "mlf.csv"), text)
    return 0


def cmd_simulate(experiment: Experiment, out_dir: str) -> int:
    record = simulate(
        experiment.initial_state(),
        experiment.suite,
        experiment.alpha,
        experiment.grid(),
        noise_sigma=experiment.noise_sigma,
        noise_seed=experiment.noise_seed,
    )
    _write_observations(out_dir, record)
    weighted = record.channels**2 * record.grid.weights[None, :]
    payload = {
        "channel_sup_norms": np.max(np.abs(record.channels), axis=1),
        "channel_energies": np.sum(weighted, axis=1),
        "samples": record.grid.nodes.size,
        "noise_sigma": record.noise_sigma,
        "noise_seed": record.noise_seed,
    }
    _write_report(out_dir, "simulate", experiment.config, payload)
    return 0


def _strategic_payload(experiment: Experiment) -> dict:
    gset = build_g_matrices(experiment.basis, experiment.suite)
    payload = {
        "g_matrices": [
            {
                "eigenvalue": group.eigenvalue,
                "modes": [list(m.indices) for m in group.members],
                "per_axis": [axis_matrix for axis_matrix in per_axis],
            }
            for group, per_axis in zip(experiment.basis.groups, gset.matrices)
        ]
    }
    if experiment.dimension == 1:
        report = strategic_test_1d(gset)
        payload.update(
            verdict=report.verdict,
            truncation=report.truncation,
            channel_count=report.channel_count,
            max_multiplicity=report.max_multiplicity,
            ranks=list(report.ranks),
            multiplicities=list(report.multiplicities),
            offending_group=report.offending_group,
        )
    else:
        gram = gram_regional(
            experiment.basis,
            experiment.suite,
            experiment.alpha,
            experiment.horizon,
            experiment.region,
            truncation=experiment.gram_truncation,
            weighting=experiment.weighting,
        )
        payload.update(
            verdict=gram.positive_definite,
            truncation=experiment.gram_truncation,
            smallest_eigenvalue=gram.smallest_eigenvalue,
            largest_eigenvalue=gram.largest_eigenvalue,
        )
    return payload


def cmd_strategic(experiment: Experiment, out_dir: str) -> int:
    _write_report(out_dir, "strategic", experiment.config, _strategic_payload(experiment))
    return 0


def cmd_gram(experiment: Experiment, out_dir: str) -> int:
    gram = gram_regional(
        experiment.basis,
        experiment.suite,
        experiment.alpha,
        experiment.horizon,
        experiment.region,
        truncation=experiment.gram_truncation,
        weighting=experiment.weighting,
        kind=experiment.gram_kind,
    )
    payload = {
        "kind": gram.kind,
        "matrix": gram.matrix,
        "eigenvalues": gram.eigenvalues,
        "smallest_eigenvalue": gram.smallest_eigenvalue,
        "largest_eigenvalue": gram.largest_eigenvalue,
        "positive_definite": gram.positive_definite,
        "test_modes": [list(m) for m in gram.test_modes],
    }
    _write_report(out_dir, "gram", experiment.config, payload)
    return 0


def cmd_reconstruct(experiment: Experiment, out_dir: str, observations: str | None
                    ) -> int:
    context = HumContext(
        experiment.basis,
        experiment.suite,
        experiment.alpha,
        experiment.horizon,
        experiment.region,
        truncation=experiment.potential_truncation,
        weighting=experiment.weighting,
    )
    truth = None
    if observations is not None:
        record = read_observations(observations, experiment.horizon)
        if record.channels.shape[0] != len(experiment.suite):
            raise ConfigError(
                f"{observations}: {record.channels.shape[0]} channels, but the "
                f"config has {len(experiment.suite)} sensors"
            )
    else:
        truth = experiment.initial_state()
        record = simulate(
            truth,
            experiment.suite,
            experiment.alpha,
            context.time_grid(),
            noise_sigma=experiment.noise_sigma,
            noise_seed=experiment.noise_seed,
        )
    result = solve(record, experiment.hum_config, context)
    state_coefficients = context.d_matrix.T @ result.potential.coefficients
    state = SpectralField(experiment.basis, state_coefficients)
    _write_gradient_grid(out_dir, "gradient.csv", state, experiment.region)
    payload = {
        "potential_coefficients": result.potential.coefficients,
        "state_coefficients": state_coefficients,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "smallest_ritz_value": result.smallest_ritz_value,
        "regularization": result.regularization,
        "gradient_norm": result.gradient.norm,
    }
    if truth is not None:
        payload["relative_error"] = reconstruction_error(
            result.gradient, restrict_gradient(truth, experiment.region)
        )
        _write_gradient_grid(out_dir, "gradient_true.csv", truth, experiment.region)
    _write_report(out_dir, "reconstruct", experiment.config, payload)
    if not result.converged:
        raise ConvergenceError(
            f"conjugate gradients stopped at relative residual "
            f"{result.residual:.3e} after {result.iterations} iterations"
        )
    return 0


def cmd_counterexample(experiment: Experiment, out_dir: str) -> int:
    basis = experiment.basis
    g = sample_vector_field(
        _counterexample_gradient, whole_domain(2), basis.truncation
    )
    grid = experiment.grid()
    whole = kernel_test(
        g, experiment.suite, experiment.alpha, whole_domain(2), basis, grid
    )
    strip = Region((((0.0, 1.0), (0.0, 1.0 / 6.0)),))
    strip_report = kernel_test(
        g, experiment.suite, experiment.alpha, strip, basis, grid
    )
    # Closed-form strip response on the eigenvalue -2 pi^2 mode.
    amplitude = 5.0 * math.sqrt(3.0) / (8.0 * math.pi)
    predicted = np.array(
        [
            amplitude
            * t ** (experiment.alpha - 1.0)
            * mlf(experiment.alpha, experiment.alpha,
                  -2.0 * math.pi**2 * t**experiment.alpha)
            for t in grid.nodes
        ]
    )
    rel = float(np.max(
        np.abs(strip_report.channels[0] - predicted) / np.max(np.abs(predicted))
    ))
    payload = {
        "whole_domain_in_kernel": whole.in_kernel,
        "whole_domain_sup_norm": whole.sup_norm,
        "strip_in_kernel": strip_report.in_kernel,
        "strip_sup_norm": strip_report.sup_norm,
        "strip_closed_form_relative_error": rel,
    }
    _write_report(out_dir, "counterexample", experiment.config, payload)
    return 0


# ------------------------------------------------------------------ main ---


def _load_config(args) -> dict:
    if args.preset is not None:
        config = preset(args.preset)
    elif args.config is not None:
        try:
            with open(args.config) as handle:
                config = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{args.config}: invalid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(config, dict):
            raise ConfigError(f"{args.config}: top level must be a JSON object")
    else:
        raise ConfigError("either --config or --preset is required")
    if args.seed is not None:
        noise = dict(config.get("noise") or {})
        noise["seed"] = args.seed
        noise.setdefault("sigma", 0.0)
        config["noise"] = noise
    return config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradobs",
        description="Regional gradient observability experiments for "
        "time-fractional diffusion.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--preset", choices=preset_names(),
                       help="named built-in configuration")
        p.add_argument("--out", help="output directory "
                       f"(default ${OUT_ENV} or current directory)")
        p.add_argument("--seed", type=int, help="noise seed override")

    p_mlf = sub.add_parser("mlf", help="evaluate the two-parameter function")
    p_mlf.add_argument("--alpha", type=float, required=True)
    p_mlf.add_argument("--beta", type=float, required=True)
    p_mlf.add_argument("--z", required=True, help="comma-separated arguments")
    p_mlf.add_argument("--out", help="output directory")
    p_mlf.add_argument("--save", action="store_true", help="also write mlf.csv")

    for name, helptext in [
        ("simulate", "forward solve and sensor observation"),
        ("strategic", "sensor-suite strategic test"),
        ("gram", "observability Gramian"),
        ("reconstruct", "HUM gradient reconstruction"),
        ("counterexample", "unobservable-configuration checks"),
    ]:
        p = sub.add_parser(name, help=helptext)
        common(p)
        if name == "reconstruct":
            p.add_argument("--observations", help="CSV of measured channels")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        out_dir = getattr(args, "out", None) or os.environ.get(OUT_ENV) or "."
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "mlf":
            code = cmd_mlf(args, out_dir)
        else:
            experiment = Experiment(_load_config(args))
            if args.command == "simulate":
                code = cmd_simulate(experiment, out_dir)
            elif args.command == "strategic":
                code = cmd_strategic(experiment, out_dir)
            elif args.command == "gram":
                code = cmd_gram(experiment, out_dir)
            elif args.command == "reconstruct":
                code = cmd_reconstruct(experiment, out_dir, args.observations)
            else:
                code = cmd_counterexample(experiment, out_dir)
    except ConfigError as exc:
        print(f"gradobs: config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, AccuracyError, SizeError) as exc:
        print(f"gradobs: numerical domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"gradobs: non-convergence: {exc}", file=sys.stderr)
        return 4
    except GradobsError as exc:
        print(f"gradobs: error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.monotonic() - started
    print(f"gradobs: {args.command} finished in {elapsed:.2f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
