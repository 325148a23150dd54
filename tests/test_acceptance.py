"""Acceptance gate: one verdict line per criterion (A1-A7).

Each criterion prints a single PASS/FAIL line with its elapsed time; the
assertions carry the same condition so pytest reports the verdicts faithfully.
"""

import json
import math
import time

import numpy as np
import pytest

from gradobs.cli import main as cli_main
from gradobs.dynamics import TimeGrid, duhamel_weight, simulate
from gradobs.hum import (
    HumConfig,
    HumContext,
    apply_lambda,
    reconstruction_error,
    solve,
)
from gradobs.mlf import mlf, moment_check, phi_density, rgamma
from gradobs.observability import (
    COMPONENT,
    GRADIENT,
    build_g_matrices,
    gram_regional,
    strategic_test_1d,
)
from gradobs.sensing import (
    POINTWISE,
    Sensor,
    SensorSuite,
    counterexample_sensor,
    coupling_matrix,
)
from gradobs.spectral import (
    Region,
    SpectralField,
    build_basis,
    grad_adjoint,
    restrict,
    restrict_gradient,
    sample_vector_field,
    whole_domain,
)

PI2 = math.pi**2
STRIP_HALF = Region((((0.0, 1.0), (0.0, 0.5)),))
THREE_POINTWISE = (
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)),
    (1.0 / math.pi, 1.0 / math.sqrt(5.0)),
    (math.sqrt(3.0) - 1.0, 2.0 / math.pi - 0.3),
)

# conditioning diagnostics are expected in the deliberately stiff regimes below
pytestmark = pytest.mark.filterwarnings("ignore")


def _verdict(tag, started, budget, checks):
    elapsed = time.time() - started
    failed = [name for name, ok in checks if not ok]
    ok = not failed and elapsed <= budget
    status = "PASS" if ok else "FAIL"
    detail = f"({elapsed:.1f}s of {budget:.0f}s budget)"
    if failed:
        detail += " failed: " + ", ".join(failed)
    print(f"{tag}: {status} {detail}")
    assert ok, f"{tag} {status} {detail}"


def _stated_time_grid(points=20):
    nodes = np.linspace(0.05, 1.0, points)
    weights = np.gradient(nodes)
    weights *= 1.0 / float(np.sum(weights))
    return TimeGrid(1.0, nodes, weights)


def _counterexample_field(pts):
    g1 = np.cos(np.pi * pts[:, 0]) * np.sin(3 * np.pi * pts[:, 1]) / np.pi
    g2 = 3 * np.sin(np.pi * pts[:, 0]) * np.cos(3 * np.pi * pts[:, 1]) / np.pi
    return np.stack([g1, g2], axis=1)


def test_a1_special_function_foundations():
    started = time.time()
    checks = []

    z = np.linspace(-50.0, 5.0, 1000)
    exp_err = max(
        abs(mlf(1.0, 1.0, float(v)) - math.exp(v)) / math.exp(v) for v in z
    )
    checks.append((f"integer-order vs exp ({exp_err:.1e})", exp_err <= 1e-12))

    rng = np.random.default_rng(20260824)
    rec_err = 0.0
    for _ in range(200):
        a = float(rng.uniform(0.35, 1.0))
        b = float(rng.uniform(0.4, 2.5))
        zz = float(rng.uniform(-30.0, 4.0))
        lhs = mlf(a, b, zz)
        rhs = zz * mlf(a, a + b, zz) + rgamma(b)
        rec_err = max(rec_err, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    checks.append((f"recurrence ({rec_err:.1e})", rec_err <= 1e-9))

    theta = np.linspace(0.05, 10.0, 120)
    phi_err = max(
        abs(phi_density(0.5, float(t)) - math.exp(-0.25 * t * t) / math.sqrt(math.pi))
        / (math.exp(-0.25 * t * t) / math.sqrt(math.pi))
        for t in theta
    )
    checks.append((f"half-order density vs Gaussian ({phi_err:.1e})", phi_err <= 1e-8))

    mom_err = 0.0
    for alpha in (0.4, 0.5, 0.7):
        for nu in (0.0, 1.0, 2.0):
            expected = math.gamma(1.0 + nu) / math.gamma(1.0 + alpha * nu)
            mom_err = max(mom_err, abs(moment_check(alpha, nu) - expected))
    checks.append((f"density moments ({mom_err:.1e})", mom_err <= 1e-4))

    _verdict("A1 special-function foundations", started, 10.0, checks)


def test_a2_invisible_gradient_and_regional_response():
    started = time.time()
    checks = []
    basis = build_basis(2, 6)
    suite = SensorSuite((counterexample_sensor(),))
    kappa = coupling_matrix(suite, basis)
    g = sample_vector_field(_counterexample_field, whole_domain(2), 6)
    strip = Region((((0.0, 1.0), (0.0, 1.0 / 6.0)),))
    grid = _stated_time_grid()
    amplitude = 5.0 * math.sqrt(3.0) / (8.0 * math.pi)
    for alpha in (0.5, 0.8, 1.0):
        state = grad_adjoint(restrict(g, whole_domain(2)), basis)
        record = simulate(state, suite, alpha, grid)
        eigs = np.array([m.eigenvalue for m in basis.modes])
        resp = np.stack(
            [
                grid.nodes ** (alpha - 1.0)
                * np.array([mlf(alpha, alpha, lam * t**alpha) for t in grid.nodes])
                for lam in eigs
            ]
        )
        bound = float(
            np.max(np.abs(kappa) @ (np.abs(state.coefficients)[:, None] * np.abs(resp)))
        )
        sup = float(np.max(np.abs(record.channels)))
        checks.append(
            (f"alpha={alpha} zero output ({sup:.1e})", sup <= 1e-12 * max(1.0, bound))
        )
        strip_record = simulate(grad_adjoint(restrict(g, strip), basis), suite, alpha, grid)
        predicted = amplitude * grid.nodes ** (alpha - 1.0) * np.array(
            [mlf(alpha, alpha, -2.0 * PI2 * t**alpha) for t in grid.nodes]
        )
        rel = float(
            np.max(np.abs(strip_record.channels[0] - predicted))
            / np.max(np.abs(predicted))
        )
        checks.append((f"alpha={alpha} strip closed form ({rel:.1e})", rel <= 1e-8))
    _verdict("A2 invisible gradient / regional response", started, 5.0, checks)


def test_a3_integer_order_limit():
    started = time.time()
    basis = build_basis(1, 8)
    coeffs = np.zeros(8)
    coeffs[0], coeffs[1], coeffs[4] = 1.0, -0.7, 0.3
    locations = (1.0 / math.pi, 1.0 / math.sqrt(2.0), math.sqrt(5.0) - 2.0)
    suite = SensorSuite(tuple(Sensor(POINTWISE, (c,)) for c in locations))
    grid = _stated_time_grid()
    record = simulate(SpectralField(basis, coeffs), suite, 1.0, grid)
    err = 0.0
    for i, c in enumerate(locations):
        oracle = np.zeros_like(grid.nodes)
        for j, c0 in enumerate(coeffs, start=1):
            if c0 != 0.0:
                oracle += (
                    c0
                    * math.sqrt(2.0)
                    * math.sin(j * math.pi * c)
                    * np.exp(-(j**2) * PI2 * grid.nodes)
                )
        err = max(err, float(np.max(np.abs(record.channels[i] - oracle))))
    _verdict(
        "A3 integer-order limit vs exponential semigroup",
        started,
        5.0,
        [(f"semigroup oracle ({err:.1e})", err <= 1e-10)],
    )


def test_a4_strategic_rank_and_gram_nullity():
    started = time.time()
    checks = []
    deep = build_basis(1, 12)
    fail_report = strategic_test_1d(
        build_g_matrices(deep, SensorSuite((Sensor(POINTWISE, (0.5,)),)))
    )
    checks.append(
        (
            "midpoint sensor fails at group 1",
            not fail_report.verdict and fail_report.offending_group == 1,
        )
    )
    pass_report = strategic_test_1d(
        build_g_matrices(deep, SensorSuite((Sensor(POINTWISE, (1.0 / math.pi,)),)))
    )
    checks.append(("irrational sensor passes", pass_report.verdict))

    basis = build_basis(1, 5)
    rng = np.random.default_rng(20260824)
    locations = []
    while len(locations) < 7:
        c = float(rng.uniform(0.05, 0.95))
        # keep the randomized draws away from the degenerate manifold, where
        # any finite-threshold pair of tests may legitimately split
        if min(abs(math.cos(j * math.pi * c)) for j in range(1, 6)) >= 0.1:
            locations.append(c)
    locations += [0.5, 0.25, 0.75]
    agreements = 0
    for c in locations:
        suite = SensorSuite((Sensor(POINTWISE, (c,)),))
        strategic = strategic_test_1d(build_g_matrices(basis, suite)).verdict
        pd = gram_regional(
            basis, suite, 0.7, 1.0, whole_domain(1), truncation=5, kind=COMPONENT
        ).positive_definite
        agreements += strategic == pd
    checks.append(
        (f"rank test matches Gram nullity ({agreements}/10)", agreements == 10)
    )
    _verdict("A4 strategic test vs Gramian nullity", started, 30.0, checks)


def _hum_context(truncation):
    basis = build_basis(2, truncation)
    suite = SensorSuite(tuple(Sensor(POINTWISE, loc) for loc in THREE_POINTWISE))
    return HumContext(basis, suite, 0.8, 1.0, STRIP_HALF, truncation=truncation)


def test_a5_reconstruction():
    started = time.time()
    checks = []

    ctx2 = _hum_context(2)
    coeffs = np.zeros(len(ctx2.basis))
    coeffs[ctx2.basis.index_of((1, 1))] = 1.0
    coeffs[ctx2.basis.index_of((2, 2))] = -0.4
    y0 = SpectralField(ctx2.basis, coeffs)
    record = simulate(y0, ctx2.suite, 0.8, ctx2.time_grid())
    truth = restrict_gradient(y0, STRIP_HALF)
    result = solve(record, HumConfig(cg_tolerance=1e-13), ctx2)
    error = reconstruction_error(result.gradient, truth)
    checks.append(
        (
            f"synthetic recovery ({error:.1e}, {result.iterations} iters)",
            result.converged and error <= 1e-8 and result.iterations <= ctx2.size + 2,
        )
    )

    ctx3 = _hum_context(3)
    coeffs = np.zeros(len(ctx3.basis))
    coeffs[ctx3.basis.index_of((1, 1))] = 1.0
    coeffs[ctx3.basis.index_of((2, 3))] = 0.5
    y0 = SpectralField(ctx3.basis, coeffs)
    record = simulate(y0, ctx3.suite, 0.8, ctx3.time_grid())
    truth = restrict_gradient(y0, STRIP_HALF)
    result = solve(record, HumConfig(cg_tolerance=1e-13, max_iterations=2000), ctx3)
    error = reconstruction_error(result.gradient, truth)
    checks.append(
        (
            f"pipeline recovery ({error:.1e})",
            result.converged and error <= 1e-3,
        )
    )

    gram = gram_regional(
        ctx3.basis, ctx3.suite, 0.8, 1.0, STRIP_HALF, truncation=3, kind=GRADIENT
    )
    rng = np.random.default_rng(5)
    op_err = 0.0
    for _ in range(20):
        v = rng.normal(size=ctx3.size)
        lhs = apply_lambda(v, ctx3)
        rhs = gram.matrix @ v
        op_err = max(op_err, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))))
    checks.append((f"operator matches Gramian ({op_err:.1e})", op_err <= 1e-8))

    _verdict("A5 duality reconstruction", started, 120.0, checks)


def test_a6_response_product_integrals():
    started = time.time()
    checks = []

    closed_err = 0.0
    for lj, lk in [(-PI2, -4 * PI2), (-PI2, -9 * PI2), (-4 * PI2, -4 * PI2)]:
        if lj != lk:
            expected = (math.exp(lj) - math.exp(lk)) / (lj - lk)
        else:
            expected = math.exp(lj)
        closed_err = max(
            closed_err,
            abs(duhamel_weight(1.0, lj, lk, 1.0) - expected) / abs(expected),
        )
    checks.append((f"integer-order closed form ({closed_err:.1e})", closed_err <= 1e-9))

    oracle = [
        (0.6, 1, 1, 0.00060995909160311656),
        (0.6, 1, 2, 9.3632252236893072e-5),
        (0.6, 2, 3, 2.8814945584804606e-6),
        (0.75, 1, 1, 0.00058465156844876287),
        (0.75, 1, 2, 8.3698632426966321e-5),
        (0.75, 2, 3, 2.290040136117353e-6),
        (0.9, 1, 1, 0.00038230633137123468),
        (0.9, 1, 2, 4.7856437628898587e-5),
        (0.9, 2, 3, 1.0908407922273883e-6),
    ]
    frac_err = max(
        abs(duhamel_weight(a, -(j**2) * PI2, -(k**2) * PI2, 1.0) - v) / v
        for a, j, k, v in oracle
    )
    checks.append((f"fractional-order oracle ({frac_err:.1e})", frac_err <= 1e-8))

    comp_oracle = [
        (0.4, 1, 1, 3.604776897068572e-5),
        (0.4, 1, 2, 2.7675788398028366e-6),
        (0.4, 2, 3, 4.3553536803754124e-8),
    ]
    comp_err = max(
        abs(
            duhamel_weight(a, -(j**2) * PI2, -(k**2) * PI2, 1.0, "compensated") - v
        )
        / v
        for a, j, k, v in comp_oracle
    )
    checks.append((f"compensated-weight oracle ({comp_err:.1e})", comp_err <= 1e-7))

    _verdict("A6 response product integrals", started, 20.0, checks)


def test_a7_deterministic_artifacts(tmp_path):
    started = time.time()
    checks = []
    pairs = []
    for run in ("a", "b"):
        out = tmp_path / f"sim-{run}"
        code = cli_main(
            ["simulate", "--preset", "case2-pointwise", "--seed", "7",
             "--out", str(out)]
        )
        pairs.append(out)
        checks.append((f"simulate run {run} exits 0", code == 0))
    for name in ("observations.csv", "report.json"):
        same = (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()
        checks.append((f"{name} byte-identical", same))
    report = json.loads((pairs[0] / "report.json").read_text())
    checks.append(
        ("no wall-clock contamination", "finished" not in json.dumps(report))
    )
    _verdict("A7 deterministic artifacts", started, 30.0, checks)
