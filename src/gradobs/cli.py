"""Command-line experiment harness.

One process per command; configs are single JSON documents (or named
presets).  Every CSV is a header line (`t,z_1,...,z_p` observations,
`x1[,x2],g1[,g2]` fields on 101 points per axis, `z,value` for `mlf`), then
rows of `%.17g` values, and one trailing newline; reports are JSON.  Every
artifact is written atomically (temp + rename) and, with a fixed config and
seed, byte-identical across runs; wall time goes to stderr only.

Exit codes: 0 success, 2 config error, 3 numerical-domain error,
4 non-convergence or a singular reconstruction operator.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
import warnings
from dataclasses import asdict
from functools import lru_cache, partial

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
    coupling_matrix,
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
    sub_basis,
    whole_domain,
)
from .dynamics import (
    ObservationRecord,
    TimeGrid,
    WEIGHTING_COMPENSATED,
    WEIGHTING_NONE,
    check_weighting,
    response_matrix,
    simulate,
    time_grid,
)
from .observability import (
    GRADIENT,
    GramReport,
    gram_regional,
    kernel_test,
    level_ranks,
    numerical_rank,
)
from .hum import HumConfig, HumContext, reconstruction_error, solve

GRID_POINTS = 101
OUT_ENV = "GRADOBS_OUT"


# ---------------------------------------------------------------- config ---


_REQUIRED = object()


def _parse(kind, value, where: str, top: dict):
    """`value` as `kind`: float (any finite number), another JSON type, or a
    parser(value, where, top)."""
    if kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and math.isfinite(value):
            return float(value)
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if not isinstance(kind, type):
        return kind(value, where, top)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def _read(spec, schema: dict, where: str, top: dict | None = None) -> dict:
    """The fields of the JSON object `spec` at dotted path `where`.

    `schema` maps each key to (kind, default, check), with kind as in
    `_parse`.  An absent or null key takes the default; a callable default
    is called with `top`, the top-level fields read so far.  A check is
    (predicate(value, top), text) and a value that fails it "must be" the
    text, formatted with `top`.  Unknown keys are rejected.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object, got {spec!r}")
    unknown = sorted(set(spec) - set(schema))
    if unknown:
        raise ConfigError(
            f"{where}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(schema))}"
        )
    fields: dict = {}
    top = fields if top is None else top
    for key, (kind, default, check) in schema.items():
        path = f"{where}.{key}"
        if spec.get(key) is None:
            if default is _REQUIRED:
                raise ConfigError(f"{where}: missing field {key!r}")
            fields[key] = default(top) if callable(default) else default
            continue
        fields[key] = value = _parse(kind, spec[key], path, top)
        if check is not None and not check[0](value, top):
            raise ConfigError(
                f"{path}: must be {check[1].format(**top)}, got {value!r}"
            )
    return fields


def _build(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), a model DomainError or SizeError becoming a
    ConfigError."""
    try:
        return build(*args, **kwargs)
    except (DomainError, SizeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _table(schema: dict, build):
    """Parser of a JSON object read by `schema` into build(**fields)."""
    return lambda spec, where, top: _build(
        where, build, **_read(spec, schema, where, top))


def _tagged(tag: str, parsers: dict):
    """Parser of a JSON object whose `tag` field picks the parser of the rest."""
    def parse(spec, where: str, top: dict):
        # _read rejects a non-object; tuple() lets a list or object tag compare
        kind = spec.get(tag) if isinstance(spec, dict) else _read(spec, {}, where)
        if kind not in tuple(parsers):
            raise ConfigError(
                f"{where}.{tag}: expected one of {tuple(parsers)}, got {kind!r}")
        rest = {key: value for key, value in spec.items() if key != tag}
        return parsers[kind](rest, where, top)
    return parse


def _list(item, size=None, least: int = 0, build=tuple):
    """Parser of a JSON list of `item` kinds into build(tuple): exactly `size`
    of them (an int, or a top-level key) if given, else at least `least`."""
    def parse(value, where: str, top: dict):
        n = top[size] if isinstance(size, str) else size
        if not isinstance(value, list) or len(value) < least \
                or n not in (None, len(value)):
            raise ConfigError(f"{where}: expected a list of "
                              f"{n or f'{least}+'} values, got {value!r}")
        return _build(where, build, tuple(
            _parse(item, v, f"{where}[{i}]", top) for i, v in enumerate(value)))
    return parse


def _one_of(*choices) -> tuple:
    return lambda value, top: value in choices, " or ".join(map(repr, choices))


def _constant(value: float):
    return lambda pts: np.full(pts.shape[0], value)


def _sine(freq: tuple):
    def dist(pts: np.ndarray) -> np.ndarray:
        out = np.ones(pts.shape[0])
        for axis, f in enumerate(freq):
            if f != 0.0:
                out = out * np.sin(f * np.pi * pts[:, axis])
        return out
    return dist


def _cosine(coefficients: tuple):
    def dist(pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for k, c in enumerate(coefficients, start=1):
            out += c * np.cos(k * np.pi * pts[:, 0])
        return out
    return dist


def _bilinear(x1: tuple, x2: tuple, values: tuple) -> BilinearTable:
    if [len(row) for row in values] != [len(x2)] * len(x1):
        raise DomainError(f"table values must be {len(x1)} x {len(x2)}")
    return BilinearTable(*(np.asarray(a, dtype=float) for a in (x1, x2, values)))


_PAIR = _list(float, 2)
_INCREASING = (lambda v, top: all(a < b for a, b in zip(v, v[1:])), "increasing")
DISTRIBUTION = _tagged("type", {
    "constant": _table({"value": (float, _REQUIRED, None)}, _constant),
    "sine": _table({"freq": (_list(float), _REQUIRED, (
        lambda v, top: len(v) <= top["dimension"], "at most {dimension} long"))},
        _sine),
    "cosine": _table({"coefficients": (_list(float), _REQUIRED, None)}, _cosine),
    "table": _table({
        "x1": (_list(float, least=2), _REQUIRED, _INCREASING),
        "x2": (_list(float, least=2), _REQUIRED, (
            lambda v, top: top["dimension"] == 2 and _INCREASING[0](v, top),
            "increasing, in a 2-D config")),
        "values": (_list(_list(float)), _REQUIRED, None),
    }, _bilinear),
})
SENSOR = _tagged("kind", {
    POINTWISE: _table({"location": (_list(float, "dimension"), _REQUIRED, None)},
                      lambda location: Sensor(POINTWISE, location)),
    ZONE: _table({
        "rect": (_list(_PAIR, "dimension"), _REQUIRED, None),
        "distribution": (DISTRIBUTION, _REQUIRED, None),
    }, lambda rect, distribution: Sensor(ZONE, Region((rect,)), distribution)),
    FILAMENT: _table({
        "axis": (int, _REQUIRED, (lambda v, top: top["dimension"] == 2,
                                  "an axis of a 2-D config")),
        "interval": (_PAIR, _REQUIRED, None),
        "fixed": (float, _REQUIRED, None),
        "distribution": (DISTRIBUTION, _REQUIRED, None),
    }, lambda distribution, **fil: Sensor(FILAMENT, Filament(**fil), distribution)),
})


def _counterexample_gradient(pts: np.ndarray) -> np.ndarray:
    g1 = np.cos(np.pi * pts[:, 0]) * np.sin(3.0 * np.pi * pts[:, 1]) / np.pi
    g2 = 3.0 * np.sin(np.pi * pts[:, 0]) * np.cos(3.0 * np.pi * pts[:, 1]) / np.pi
    return np.stack([g1, g2], axis=1)


def _modes_state(terms: tuple, basis: Basis, region: Region) -> SpectralField:
    coeffs = np.zeros(len(basis))
    for term in terms:
        coeffs[basis.index_of(term["indices"])] += term["value"]
    return SpectralField(basis, coeffs)


def _counterexample_state(basis: Basis, region: Region) -> SpectralField:
    if basis.dimension != 2:
        raise ConfigError("config.initial: counterexample-gradient is 2-D")
    g = sample_vector_field(_counterexample_gradient, whole_domain(2),
                            basis.truncation)
    return grad_adjoint(restrict(g, region), basis)


# an initial spec reads as a function of (basis, region), called on demand
INITIAL = _tagged("type", {
    "modes": _table({"terms": (_list(_table({
        "indices": (_list(int, "dimension"), _REQUIRED, (
            lambda v, top: all(1 <= i <= top["truncation"] for i in v),
            "in [1, truncation={truncation}]")),
        "value": (float, _REQUIRED, None),
    }, dict)), _REQUIRED, None)}, lambda terms: partial(_modes_state, terms)),
    "counterexample-gradient": _table({}, lambda: _counterexample_state),
})
CONFIG = {
    "alpha": (float, _REQUIRED, (lambda v, top: 0.0 < v <= 1.0, "in (0, 1]")),
    "horizon": (float, _REQUIRED, (lambda v, top: v > 0.0, "positive")),
    "dimension": (int, _REQUIRED, _one_of(1, 2)),
    "truncation": (int, _REQUIRED, (lambda v, top: v >= 1, ">= 1")),
    # the test truncation Q of the Gramians and of HUM's potential span
    "potential_truncation": (int, lambda top: min(top["truncation"], 6), (
        lambda v, top: 1 <= v <= top["truncation"], "in [1, truncation={truncation}]")),
    "weighting": (str, WEIGHTING_NONE, _one_of(WEIGHTING_NONE, WEIGHTING_COMPENSATED)),
    "region": (_list(_list(_PAIR, "dimension"), least=1, build=Region),
               lambda top: whole_domain(top["dimension"]), None),
    "sensors": (_list(SENSOR, least=1), _REQUIRED, None),
    "noise": (_table({
        "sigma": (float, 0.0, (lambda v, top: v >= 0.0, ">= 0")),
        "seed": (int, None, (lambda v, top: 0 <= v < 2**128, "in [0, 2**128)")),
    }, lambda sigma, seed: (sigma, seed)), (0.0, None), None),
    "hum": (_table({
        "cg_tolerance": (float, HumConfig.cg_tolerance, None),
        "max_iterations": (int, HumConfig.max_iterations, None),
        "regularization": (float, HumConfig.regularization, None),
    }, HumConfig), HumConfig(), None),
    "initial": (INITIAL, None, None),
}


class Experiment:
    """Validated configuration; each top-level key of CONFIG is an attribute."""

    def __init__(self, config: dict) -> None:
        self.config = config
        vars(self).update(_read(config, CONFIG, "config"))
        self.basis = _build("config.truncation", build_basis, self.dimension,
                            self.truncation)
        self.suite = SensorSuite(self.sensors)
        self.noise_sigma, self.noise_seed = self.noise
        if self.noise_sigma > 0.0 and self.noise_seed is None:
            raise ConfigError("config.noise.seed: required when noise.sigma > 0 "
                              "(or pass --seed)")

    def initial_state(self) -> SpectralField:
        if self.initial is None:
            raise ConfigError("config.initial: required for this command")
        return self.initial(self.basis, self.region)

    def time_weighting(self) -> str:
        """The weighting of a command that integrates in time; one that
        leaves the response non-square-integrable is a config mistake."""
        _build("config.weighting", check_weighting, self.alpha, self.weighting)
        return self.weighting

    def gram(self) -> GramReport:
        """Lambda, the gradient Gramian on the region at test truncation Q."""
        return gram_regional(self.basis, self.suite, self.alpha, self.horizon,
                             self.region, truncation=self.potential_truncation,
                             weighting=self.time_weighting(), kind=GRADIENT)

    def hum_context(self) -> HumContext:
        """HUM on the region at test truncation Q; its Lambda is `gram`'s."""
        return HumContext(self.basis, self.suite, self.alpha, self.horizon,
                          self.region, truncation=self.potential_truncation,
                          weighting=self.time_weighting())


# ---------------------------------------------------------------- output ---


def _csv(header: list[str], columns) -> str:
    """The header line, then one row per index of the `columns`, every value
    at 17 significant digits, and one trailing newline."""
    table = np.asarray(columns, dtype=float)
    rows = (",".join(["%.17g"] * len(header)) + "\n") * table.shape[1]
    return ",".join(header) + "\n" + rows % tuple(table.ravel(order="F").tolist())


def _write(out_dir: str, name: str, text: str) -> None:
    """Write `text` to out_dir/name atomically (temp + rename), making out_dir."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".gradobs-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, os.path.join(out_dir, name))
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


def _write_report(out_dir: str, command: str, config: dict, payload: dict) -> None:
    envelope = {
        "tool": "gradobs",
        "version": __version__,
        "command": command,
        "config": _jsonable(config),
        "payload": _jsonable(payload),
    }
    _write(out_dir, "report.json", json.dumps(envelope, sort_keys=True, indent=2) + "\n")


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


@lru_cache(maxsize=None)
def _export_grid(dimension: int) -> tuple[list, np.ndarray, str]:
    """The axes and points of the uniform GRID_POINTS-per-axis export grid,
    and the gradient CSV as a template: the header, then per point its
    coordinates, formatted once as `_csv` formats them, and a %.17g per
    component."""
    axes = [np.linspace(0.0, 1.0, GRID_POINTS)] * dimension
    pts = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], axis=1)
    names = [f"{v}{i + 1}" for v in "xg" for i in range(dimension)]
    coordinates = _csv(names[:dimension], pts.T).splitlines()[1:]
    components = ",%.17g" * dimension + "\n"
    return axes, pts, ",".join(names) + "\n" + components.join(coordinates) + components


def _gradient_csv(field: SpectralField, region: Region) -> str:
    """p_omega grad(field) on the uniform GRID_POINTS-per-axis export grid."""
    axes, pts, template = _export_grid(field.basis.dimension)
    comps = field.grid_gradient(axes).reshape(len(axes), -1) \
        * region.contains(pts)[None, :]
    return template % tuple(comps.ravel(order="F").tolist())


# -------------------------------------------------------------- commands ---


def _number_list(text: str) -> list[float]:
    try:
        return [float(z) for z in text.split(",") if z.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}") from None


def cmd_mlf(args, out_dir: str) -> int:
    text = _csv(["z", "value"],
                [args.z, [mlf(args.alpha, args.beta, z) for z in args.z]])
    sys.stdout.write(text)
    if args.save:
        _write(out_dir, "mlf.csv", text)
    return 0


def cmd_simulate(experiment: Experiment, out_dir: str) -> int:
    record = simulate(
        experiment.initial_state(),
        experiment.suite,
        experiment.alpha,
        time_grid(experiment.alpha, experiment.horizon),
        noise_sigma=experiment.noise_sigma,
        noise_seed=experiment.noise_seed,
    )
    channels = [f"z_{i + 1}" for i in range(record.channels.shape[0])]
    _write(out_dir, "observations.csv",
           _csv(["t", *channels], [record.grid.nodes, *record.channels]))
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


def cmd_strategic(experiment: Experiment, out_dir: str) -> int:
    """Verdict: Lambda's rank; diagnostics: the test span's level ranks."""
    gram = experiment.gram()
    test_basis = sub_basis(experiment.basis, experiment.potential_truncation)
    kappa = coupling_matrix(experiment.suite, test_basis)
    bounds = np.cumsum([group.multiplicity for group in test_basis.groups])[:-1]
    payload = asdict(level_ranks(test_basis, kappa))
    payload.update(
        levels=[{"eigenvalue": group.eigenvalue,
                 "modes": [list(m.indices) for m in group.members],
                 "couplings": block}
                for group, block in zip(test_basis.groups,
                                        np.split(kappa, bounds, axis=1))],
        verdict=gram.positive_definite,
        smallest_eigenvalue=gram.smallest_eigenvalue,
        largest_eigenvalue=gram.largest_eigenvalue,
    )
    _write_report(out_dir, "strategic", experiment.config, payload)
    return 0


def cmd_gram(experiment: Experiment, out_dir: str) -> int:
    gram = experiment.gram()
    payload = asdict(gram)
    payload.update(smallest_eigenvalue=gram.smallest_eigenvalue,
                   largest_eigenvalue=gram.largest_eigenvalue)
    _write_report(out_dir, "gram", experiment.config, payload)
    return 0


def cmd_reconstruct(experiment: Experiment, out_dir: str, observations: str | None
                    ) -> int:
    context = experiment.hum_context()
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
    rank, eps = numerical_rank(context.lambda_eigenvalues), experiment.hum.regularization
    payload = {"rank": rank, "size": context.size, "regularization": eps,
               "smallest_eigenvalue": context.smallest_eigenvalue + eps}
    if rank < context.size:  # refused before a solve that gives rounding noise
        _write_report(out_dir, "reconstruct", experiment.config, payload)
        raise ConvergenceError(
            f"Lambda has rank {rank} of {context.size}: the sensors are not "
            "gradient strategic on the region, so no reconstruction is unique"
        )
    result = solve(record, experiment.hum, context)
    state_coefficients = context.d_matrix.T @ result.potential.coefficients
    state = SpectralField(experiment.basis, state_coefficients)
    _write(out_dir, "gradient.csv", _gradient_csv(state, experiment.region))
    payload.update({
        "potential_coefficients": result.potential.coefficients,
        "state_coefficients": state_coefficients,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "gradient_norm": result.gradient.norm,
    })
    if truth is not None:
        payload["relative_error"] = reconstruction_error(
            result.gradient, restrict_gradient(truth, experiment.region)
        )
        _write(out_dir, "gradient_true.csv", _gradient_csv(truth, experiment.region))
    _write_report(out_dir, "reconstruct", experiment.config, payload)
    if not result.converged:
        raise ConvergenceError(
            f"conjugate gradients stopped at relative residual "
            f"{result.residual:.3e} after {result.iterations} iterations"
        )
    return 0


def cmd_counterexample(experiment: Experiment, out_dir: str) -> int:
    if experiment.dimension != 2:
        raise ConfigError("config.dimension: counterexample is 2-D")
    if experiment.config["sensors"] != preset("counterexample")["sensors"]:
        raise ConfigError("config.sensors: the strip's closed form holds only for "
                          "the counterexample's filament (axis 1 on [0, 1] at "
                          "0.5, sine freq [0, 1])")
    basis = experiment.basis
    g = sample_vector_field(
        _counterexample_gradient, whole_domain(2), basis.truncation
    )
    grid = time_grid(experiment.alpha, experiment.horizon)
    strip = Region((((0.0, 1.0), (0.0, 1.0 / 6.0)),))
    whole, strip_report = kernel_test(
        g, experiment.suite, experiment.alpha, (whole_domain(2), strip), basis, grid
    )
    # Closed-form strip response on the eigenvalue -2 pi^2 mode.
    amplitude = 5.0 * math.sqrt(3.0) / (8.0 * math.pi)
    predicted = amplitude * response_matrix(
        experiment.alpha, [-2.0 * math.pi**2], grid.nodes
    )[0]
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
        except (OSError, UnicodeDecodeError) as exc:
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
    noise = config.get("noise") or {}
    if args.seed is not None and isinstance(noise, dict):
        config["noise"] = {"sigma": 0.0, **noise, "seed": args.seed}
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
    p_mlf.add_argument("--z", required=True, type=_number_list,
                       help="comma-separated arguments")
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
    # a shown warning is one stderr line; a recording catch_warnings (as
    # around an in-process run) still receives it unformatted
    default_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"gradobs: warning: {message}\n"
    try:
        out_dir = getattr(args, "out", None) or os.environ.get(OUT_ENV) or "."
        if args.command == "mlf":
            code = cmd_mlf(args, out_dir)
        elif args.command == "reconstruct":
            code = cmd_reconstruct(Experiment(_load_config(args)), out_dir,
                                   args.observations)
        else:
            command = {"simulate": cmd_simulate, "strategic": cmd_strategic,
                       "gram": cmd_gram, "counterexample": cmd_counterexample}
            code = command[args.command](Experiment(_load_config(args)), out_dir)
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
    finally:
        warnings.formatwarning = default_format
    elapsed = time.monotonic() - started
    print(f"gradobs: {args.command} finished in {elapsed:.2f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
