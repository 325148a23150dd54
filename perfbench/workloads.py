"""The four workloads: seeded inputs, the timed op, and the per-op check.

Each workload object is driven by run.py in this order: ``prepare`` (set-up:
input generation and contexts) and one warm-up op (op index -1), then
``references`` (the harness's own oracles, not the program's set-up), then
per op ``inputs`` (untimed), ``op`` (timed) and ``check`` (untimed).
``check`` returns ``(ok, figures)``; figures maps an accuracy figure's name
to its value for that op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

import oracles

STRIP = [[[0.0, 1.0], [0.0, 0.5]]]
# the three incommensurate pointwise locations of the hum-pipeline preset
THREE_POINTWISE = (
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)),
    (1.0 / math.pi, 1.0 / math.sqrt(5.0)),
    (math.sqrt(3.0) - 1.0, 2.0 / math.pi - 0.3),
)
GRID_LINES = 101 * 101 + 1


def _rng(*key: int) -> np.random.Generator:
    """Generator for one input; keys are >= -1 (op -1 is the warm-up)."""
    return np.random.default_rng([k + 1 for k in key])


def _reset(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _read_report(out: str) -> dict:
    with open(os.path.join(out, "report.json")) as handle:
        return json.load(handle)["payload"]


def _line_count(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


class Workload:
    """Defaults for the optional steps."""

    def references(self) -> None:
        """Precompute the harness's oracles; none by default."""

    def written_bytes(self, inp: dict) -> int:
        """Bytes of artifacts the op wrote to disk."""
        return 0


class Reconstruct(Workload):
    """In-process `gradobs reconstruct` on hum-pipeline-shaped configs."""

    name = "reconstruct"
    trace_ops = 2
    # alpha strata of [0.55, 0.95], visited in this fixed order (lower half,
    # lower, upper, lower, upper, lower, upper, upper): every prefix of three
    # to seven ops holds more lower-half strata than upper-half ones, so the
    # median op of a short run sits in the same half whatever the op count.
    STRATA = (0.675, 0.575, 0.825, 0.725, 0.925, 0.625, 0.775, 0.875)
    JITTER = 0.004
    ROUND_TRIP = 1  # op i is a CSV round trip when i % 4 == ROUND_TRIP

    def prepare(self, seed: int, work: str) -> None:
        from gradobs.spectral import build_basis

        self.seed = seed
        self.work = work
        self.basis = build_basis(2, 3)

    def config(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        stratum = 0.75 if i < 0 else self.STRATA[i % len(self.STRATA)]
        alpha = stratum + rng.uniform(-self.JITTER, self.JITTER)
        others = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3) if (m, n) != (1, 1)]
        picks = rng.choice(len(others), size=2, replace=False)
        terms = [{"indices": [1, 1], "value": float(rng.uniform(0.5, 1.5))}]
        terms += [{"indices": list(others[p]), "value": float(rng.normal(0.0, 0.5))}
                  for p in picks]
        return {
            "alpha": float(alpha),
            "horizon": 1.0,
            "dimension": 2,
            "truncation": 3,
            "potential_truncation": 3,
            "region": STRIP,
            "sensors": [{"kind": "pointwise", "location": list(p)}
                        for p in THREE_POINTWISE],
            "initial": {"type": "modes", "terms": terms},
            "hum": {"cg_tolerance": 1e-13, "max_iterations": 2000},
        }

    def inputs(self, i: int) -> dict:
        config = self.config(i)
        path = os.path.join(self.work, "config.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        outs = {"path": path, "config": config,
                "round_trip": i >= 0 and i % 4 == self.ROUND_TRIP,
                "sim": os.path.join(self.work, "sim"),
                "out": os.path.join(self.work, "out")}
        _reset(outs["sim"])
        _reset(outs["out"])
        return outs

    def op(self, inp: dict):
        from gradobs.cli import main

        if inp["round_trip"]:
            rc = main(["simulate", "--config", inp["path"], "--out", inp["sim"]])
            if rc != 0:
                return rc
            obs = os.path.join(inp["sim"], "observations.csv")
            return main(["reconstruct", "--config", inp["path"], "--out", inp["out"],
                         "--observations", obs])
        return main(["reconstruct", "--config", inp["path"], "--out", inp["out"]])

    def written_bytes(self, inp: dict) -> int:
        return sum(os.path.getsize(os.path.join(d, f))
                   for d in (inp["sim"], inp["out"]) for f in os.listdir(d))

    def check(self, inp: dict, rc) -> tuple[bool, dict]:
        if rc != 0:
            return False, {}
        payload = _read_report(inp["out"])
        ok = payload["converged"] is True
        ok &= _line_count(os.path.join(inp["out"], "gradient.csv")) == GRID_LINES
        if inp["round_trip"]:
            truth = np.zeros(len(self.basis))
            for term in inp["config"]["initial"]["terms"]:
                truth[self.basis.index_of(tuple(term["indices"]))] += term["value"]
            got = np.asarray(payload["state_coefficients"])
            rel = np.max(np.abs(got - truth)) / np.max(np.abs(truth))
            return bool(ok), {"roundtrip_digits": -math.log10(max(rel, 1e-17))}
        err = payload.get("relative_error")
        ok &= err is not None and err <= 1e-8
        digits = -math.log10(max(err, 1e-17)) if ok else 0.0
        return bool(ok), {"recon_digits": digits}


class Regularize(Workload):
    """Discrepancy-regularized HUM on one prebuilt context, noisy data."""

    name = "regularize"
    trace_ops = 9
    SIGMAS = (1e-4, 1e-3, 1e-2)
    TRUTHS = 3
    CG_TOLERANCE = 1e-12
    # the hum-pipeline preset's budget: unregularized solves here can need
    # over 400 iterations
    MAX_ITERATIONS = 2000

    def prepare(self, seed: int, work: str) -> None:
        """The context, and clean channels of TRUTHS truths: mode (1,1) plus
        two other modes of index <= 3.  The truths come from a fixed
        generator, the same in every run, because op cost depends mostly
        on the truth; the run's seed drives the noise and the op order."""
        from gradobs.hum import HumContext
        from gradobs.sensing import POINTWISE, Sensor, SensorSuite
        from gradobs.spectral import Region, SpectralField, build_basis, restrict_gradient

        self.seed = seed
        basis = build_basis(2, 5)
        region = Region((((0.0, 1.0), (0.0, 0.5)),))
        suite = SensorSuite(tuple(Sensor(POINTWISE, p) for p in THREE_POINTWISE))
        self.context = ctx = HumContext(basis, suite, 0.8, 1.0, region, truncation=5)
        low = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3) if (m, n) != (1, 1)]
        self.clean, self.truth = [], []
        for t in range(self.TRUTHS):
            rng = _rng(t, 1)
            c0 = np.zeros(len(basis))
            c0[basis.index_of((1, 1))] = rng.uniform(0.5, 1.5)
            for p in rng.choice(len(low), size=2, replace=False):
                c0[basis.index_of(low[p])] = rng.normal(0.0, 0.5)
            # at matched truncation the state is c0 = D^T a for potentials a
            self.clean.append(ctx.forward_channels(np.linalg.solve(ctx.d_matrix.T, c0)))
            self.truth.append(restrict_gradient(SpectralField(basis, c0), region))

    def references(self) -> None:
        from gradobs.hum import (EPS_GRID_DECADES, EPS_GRID_PER_DECADE,
                                 apply_lambda)

        ctx = self.context
        scale = float(np.max(np.abs(apply_lambda(np.ones(ctx.size), ctx))))
        steps = EPS_GRID_DECADES * EPS_GRID_PER_DECADE
        self.eps_grid = [0.0] + [scale * 10.0 ** (-EPS_GRID_DECADES + d / EPS_GRID_PER_DECADE)
                                 for d in range(steps + 1)]
        self.weights = ctx.quad_weights * ctx.weight_values

    def inputs(self, i: int) -> dict:
        """Each block of nine ops runs every (truth, sigma) pair once, in a
        seeded order; the noise is seeded per op."""
        from gradobs.dynamics import ObservationRecord

        pairs = len(self.SIGMAS) * self.TRUTHS
        pair = 0 if i < 0 else _rng(self.seed, i // pairs, 2).permutation(pairs)[i % pairs]
        sigma, t = self.SIGMAS[pair % len(self.SIGMAS)], pair // len(self.SIGMAS)
        noise = _rng(self.seed, i, 3).normal(0.0, sigma, self.clean[t].shape)
        record = ObservationRecord(self.context.time_grid(), self.clean[t] + noise)
        return {"record": record, "sigma": sigma, "truth": self.truth[t]}

    def op(self, inp: dict):
        from gradobs.hum import (HumConfig, discrepancy_regularization,
                                 reconstruction_error, solve)

        ctx = self.context
        cfg = HumConfig(self.CG_TOLERANCE, self.MAX_ITERATIONS)
        eps = discrepancy_regularization(inp["record"], cfg, ctx, inp["sigma"])
        tuned = HumConfig(self.CG_TOLERANCE, self.MAX_ITERATIONS, eps)
        result = solve(inp["record"], tuned, ctx)
        return eps, result, reconstruction_error(result.gradient, inp["truth"])

    def misfit(self, record, eps: float) -> float:
        from gradobs.hum import HumConfig, solve

        config = HumConfig(self.CG_TOLERANCE, self.MAX_ITERATIONS, eps)
        model = self.context.forward_channels(solve(record, config, self.context)
                                              .potential.coefficients)
        return float(np.sum(self.weights * (model - record.channels) ** 2))

    def check(self, inp: dict, out) -> tuple[bool, dict]:
        """The discrepancy rule's contract: eps is the grid value before the
        first positive one whose weighted misfit exceeds the noise level."""
        from gradobs.hum import DISCREPANCY_FACTOR

        eps, result, err = out
        record = inp["record"]
        level = (DISCREPANCY_FACTOR * inp["sigma"]) ** 2 * len(self.context.suite) \
            * float(np.sum(self.weights))
        pos = int(np.argmin(np.abs(np.asarray(self.eps_grid) - eps)))
        ok = result.converged and math.isclose(self.eps_grid[pos], eps, rel_tol=1e-12)
        if ok and pos > 0:
            ok = self.misfit(record, eps) <= level
        if ok and pos + 1 < len(self.eps_grid):
            ok = self.misfit(record, self.eps_grid[pos + 1]) > level
        return bool(ok), {"regularized_err": err, "eps": eps}


class Placement(Workload):
    """Candidate sensor suites evaluated at integer order (alpha = 1)."""

    name = "placement"
    trace_ops = 4
    TRUNCATION_1D = 200
    TRUNCATION_2D = 6

    def prepare(self, seed: int, work: str) -> None:
        from gradobs.spectral import Region, build_basis

        self.seed = seed
        self.basis1 = build_basis(1, self.TRUNCATION_1D)
        self.basis2 = build_basis(2, self.TRUNCATION_2D)
        self.region = Region((((0.0, 1.0), (0.0, 0.5)),))

    def inputs(self, i: int) -> dict:
        from gradobs.sensing import (FILAMENT, POINTWISE, ZONE, Filament, Sensor,
                                     SensorSuite)
        from gradobs.spectral import Region

        rng = _rng(self.seed, i, 4)
        # 1-D candidates alternate between generic locations and rational
        # ones a/b with b even, whose derivative couplings vanish at j = b/2
        p = int(rng.integers(1, 3))
        if i % 2 == 0:
            b = 2 * int(rng.integers(1, 40))
            nums = [a for a in range(1, b, 2) if math.gcd(a, b) == 1]
            locs = [nums[int(rng.integers(len(nums)))] / b for _ in range(p)]
        else:
            locs = list(rng.uniform(0.02, 0.98, p))
        suite1 = SensorSuite(tuple(Sensor(POINTWISE, (x,)) for x in locs))
        lo = rng.uniform(0.0, 0.6, 2)
        hi = lo + rng.uniform(0.15, 0.4, 2)
        f_zone = rng.uniform(0.5, 2.5, 2)
        zone = Sensor(ZONE, Region((tuple(zip(lo, hi)),)),
                      lambda pts, f=f_zone: np.sin(f[0] * np.pi * pts[:, 0])
                      * np.sin(f[1] * np.pi * pts[:, 1]))
        axis = int(rng.integers(2))
        start = rng.uniform(0.0, 0.4)
        f_fil = rng.uniform(0.5, 2.5)
        filament = Sensor(
            FILAMENT,
            Filament(axis, (start, start + rng.uniform(0.3, 0.6)), rng.uniform(0.1, 0.9)),
            lambda pts, f=f_fil, ax=axis: np.sin(f * np.pi * pts[:, ax]))
        point = Sensor(POINTWISE, tuple(rng.uniform(0.02, 0.98, 2)))
        kinds = [zone, filament, point]
        order = rng.permutation(3)
        suite2 = SensorSuite(tuple(kinds[k] for k in order))
        return {"locs": locs, "suite1": suite1, "suite2": suite2}

    def op(self, inp: dict):
        from gradobs.observability import (COMPONENT, GRADIENT, build_g_matrices,
                                           gram_regional, strategic_test_1d)

        verdict = strategic_test_1d(build_g_matrices(self.basis1, inp["suite1"]))
        g2 = build_g_matrices(self.basis2, inp["suite2"])
        grams = [gram_regional(self.basis2, inp["suite2"], 1.0, 1.0, self.region,
                               truncation=self.TRUNCATION_2D, kind=kind)
                 for kind in (COMPONENT, GRADIENT)]
        return verdict, g2, grams

    def check(self, inp: dict, out) -> tuple[bool, dict]:
        from gradobs.observability import RANK_REL_TOL, grad_overlap_matrix
        from gradobs.sensing import coupling_matrix

        verdict, g2, grams = out
        ok = verdict.verdict == oracles.strategic_rule_1d(
            inp["locs"], self.TRUNCATION_1D, RANK_REL_TOL)
        ok &= len(g2.matrices) == len(self.basis2.groups)
        for gram in grams:
            m = gram.matrix
            scale = np.max(np.abs(m))
            ok &= np.max(np.abs(m - m.T)) <= 1e-12 * scale
            ok &= gram.eigenvalues[0] >= -1e-10 * gram.eigenvalues[-1]
        # gradient Gramian against the closed-form exponential time kernel
        eigs = np.array([m.eigenvalue for m in self.basis2.modes])
        d = grad_overlap_matrix(self.basis2, self.basis2, self.region)
        kappa = coupling_matrix(inp["suite2"], self.basis2)
        ref = d @ (oracles.exponential_kernel(eigs, 1.0) * (kappa.T @ kappa)) @ d.T
        rel = np.max(np.abs(grams[1].matrix - ref)) / np.max(np.abs(ref))
        return bool(ok), {"gram_digits": -math.log10(max(rel, 1e-17))}


class MlfScan(Workload):
    """In-process `gradobs mlf` over z values spanning all three branches."""

    name = "mlf-scan"
    trace_ops = 4
    POOL = 4
    JITTER = 0.004
    # (count, low, high) peak nats |z|**(1/alpha) of the negative arguments:
    # series below -1, gap, asymptotic
    PEAK_BANDS = ((8, 1.0, 9.0), (24, 9.5, 33.5), (24, 34.5, 70.0))
    POSITIVE = 8  # z in [-1, 5], also the series branch

    def prepare(self, seed: int, work: str) -> None:
        # alphas at the centres of POOL strata of (0.5, 1) and arguments at
        # stratified quantiles of each band, both with a seeded jitter, so
        # that every run scans the same mix of branches and precisions
        self.seed = seed
        rng = _rng(seed, 5)
        self.pool = []
        for k in range(self.POOL):
            alpha = 0.5 + 0.5 * (k + 0.5) / self.POOL + rng.uniform(-self.JITTER,
                                                                     self.JITTER)
            zs = list(-1.0 + 6.0 * self._strata(rng, self.POSITIVE))
            for count, lo, hi in self.PEAK_BANDS:
                log_peak = math.log(lo) + math.log(hi / lo) * self._strata(rng, count)
                zs += list(-np.exp(alpha * log_peak))
            self.pool.append((float(alpha), [float(z) for z in zs]))

    @staticmethod
    def _strata(rng: np.random.Generator, count: int) -> np.ndarray:
        """One uniform draw in each of `count` equal strata of (0, 1)."""
        return (np.arange(count) + rng.uniform(0.05, 0.95, count)) / count

    def references(self) -> None:
        self.refs = [[oracles.mlf_reference(a, a, z) for z in zs] for a, zs in self.pool]

    def inputs(self, i: int) -> dict:
        k = 0 if i < 0 else i % self.POOL
        alpha, zs = self.pool[k]
        return {"k": k, "argv": ["mlf", "--alpha", repr(alpha), "--beta", repr(alpha),
                                 "--z=" + ",".join(repr(z) for z in zs)]}

    def op(self, inp: dict):
        from gradobs.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(inp["argv"])
        return rc, buf.getvalue()

    def check(self, inp: dict, out) -> tuple[bool, dict]:
        rc, text = out
        lines = text.splitlines()
        refs = self.refs[inp["k"]]
        if rc != 0 or len(lines) != len(refs) + 1:
            return False, {}
        values = [float(line.split(",")[1]) for line in lines[1:]]
        digits = min(oracles.correct_digits(v, r) for v, r in zip(values, refs))
        return digits >= 8.0, {"mlf_digits": digits}


WORKLOADS = {w.name: w for w in (Reconstruct, Regularize, Placement, MlfScan)}
