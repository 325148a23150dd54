"""Duality-based regional gradient reconstruction."""

import math
import warnings

import numpy as np
import pytest

import gradobs.hum as hum_module
from gradobs.errors import DomainError
from gradobs.dynamics import (
    ObservationRecord,
    TimeGrid,
    grading_exponent,
    simulate,
    time_grid,
)
from gradobs.hum import (
    DISCREPANCY_FACTOR,
    EPS_GRID_DECADES,
    EPS_GRID_PER_DECADE,
    HumConfig,
    HumContext,
    PotentialVector,
    apply_lambda,
    discrepancy_regularization,
    reconstruct_gradient,
    reconstruction_error,
    rhs_from_data,
    solve,
)
from gradobs.observability import (
    GRADIENT,
    ConditioningWarning,
    gram_regional,
    response_kernel_matrix,
)
from gradobs.sensing import POINTWISE, Sensor, SensorSuite
from gradobs.spectral import (
    Region,
    SpectralField,
    build_basis,
    gauss_panels,
    restrict_gradient,
    whole_domain,
)

STRIP = Region((((0.0, 1.0), (0.0, 0.5)),))
THREE_POINTWISE = (
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)),
    (1.0 / math.pi, 1.0 / math.sqrt(5.0)),
    (math.sqrt(3.0) - 1.0, 2.0 / math.pi - 0.3),
)


def _suite():
    return SensorSuite(tuple(Sensor(POINTWISE, loc) for loc in THREE_POINTWISE))


def _context(truncation):
    basis = build_basis(2, truncation)
    return HumContext(basis, _suite(), 0.8, 1.0, STRIP, truncation=truncation)


def _state(basis, terms):
    coeffs = np.zeros(len(basis))
    for indices, value in terms:
        coeffs[basis.index_of(indices)] = value
    return SpectralField(basis, coeffs)


def test_lambda_matrix_matches_gradient_gram():
    ctx = _context(3)
    mat = np.stack(
        [apply_lambda(e, ctx) for e in np.eye(ctx.size)], axis=1
    )
    assert np.max(np.abs(mat - mat.T)) < 1e-12 * np.max(np.abs(mat))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        gram = gram_regional(
            ctx.basis, ctx.suite, 0.8, 1.0, STRIP, truncation=3, kind=GRADIENT
        )
    assert np.max(np.abs(mat - gram.matrix)) < 1e-12 * np.max(np.abs(gram.matrix))


def test_rhs_from_data_matches_kernel_pairing():
    ctx = _context(2)
    y0 = _state(ctx.basis, [((1, 1), 1.0), ((2, 2), -0.4)])
    record = simulate(y0, ctx.suite, 0.8, ctx.time_grid())
    b = rhs_from_data(record, ctx)
    eigenvalues = np.array([m.eigenvalue for m in ctx.basis.modes])
    v = response_kernel_matrix(0.8, eigenvalues, 1.0, "none")
    kappa_gram = ctx.kappa.T @ ctx.kappa
    expected = ctx.d_matrix @ ((v * kappa_gram) @ y0.coefficients)
    assert np.max(np.abs(b - expected)) < 1e-12 * np.max(np.abs(expected))


def test_factored_lambda_and_data_functional_match_the_output_pairing():
    # Lambda a and b from the record z = output of a, both read from the
    # context's SVD factors, equal the weighted pairing of each potential's
    # output with z, assembled here from forward_channels
    ctx = _context(4)
    a = np.random.default_rng(3).normal(size=ctx.size)
    z = ctx.forward_channels(a)
    w = ctx.quad_weights * ctx.weight_values
    expected = np.array([np.sum(w * ctx.forward_channels(e) * z)
                         for e in np.eye(ctx.size)])
    record = ObservationRecord(ctx.time_grid(), z)
    for got in (apply_lambda(a, ctx), rhs_from_data(record, ctx)):
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_unregularized_cg_converges_on_the_factored_lambda():
    # Q = 25 on a half strip seen by three points: Lambda's small eigenvalues
    # survive in V S^2 V^T, where an assembled A^T A loses them to rounding
    # and CG then runs out of its 2,000 iterations on noisy records
    ctx = _context(5)
    y0 = _state(ctx.basis, [((1, 1), 1.0), ((2, 3), 0.5)])
    config = HumConfig(cg_tolerance=1e-12, max_iterations=2000)
    for seed in range(3):
        record = simulate(y0, ctx.suite, 0.8, ctx.time_grid(),
                          noise_sigma=1e-2, noise_seed=seed)
        assert solve(record, config, ctx).converged, seed


def test_synthetic_recovery_is_exact_at_matched_truncation():
    ctx = _context(2)
    y0 = _state(ctx.basis, [((1, 1), 1.0), ((2, 2), -0.4)])
    record = simulate(y0, ctx.suite, 0.8, ctx.time_grid())
    truth = restrict_gradient(y0, STRIP)
    result = solve(record, HumConfig(cg_tolerance=1e-13), ctx)
    assert result.converged
    # exact-arithmetic CG finishes in `size` steps; allow roundoff slack
    assert result.iterations <= ctx.size + 2
    assert reconstruction_error(result.gradient, truth) < 1e-8
    assert result.smallest_eigenvalue > 0.0


def test_whole_domain_recovery_one_dimensional():
    basis = build_basis(1, 2)
    suite = SensorSuite((Sensor(POINTWISE, (1.0 / math.pi,)),))
    ctx = HumContext(basis, suite, 0.8, 1.0, whole_domain(1), truncation=2)
    y0 = _state(basis, [((1,), 1.0), ((2,), 0.5)])
    record = simulate(y0, suite, 0.8, ctx.time_grid())
    truth = restrict_gradient(y0, whole_domain(1))
    result = solve(record, HumConfig(cg_tolerance=1e-13), ctx)
    assert result.converged
    assert reconstruction_error(result.gradient, truth) < 1e-8


def test_reconstruction_error_reference_cases():
    basis = build_basis(1, 2)
    y0 = _state(basis, [((1,), 1.0)])
    region = Region((((0.1, 0.9),),))
    g = restrict_gradient(y0, region)
    assert reconstruction_error(g, g) == 0.0
    doubled = restrict_gradient(_state(basis, [((1,), 2.0)]), region)
    assert reconstruction_error(doubled, g) == pytest.approx(1.0, rel=1e-12)
    zero = restrict_gradient(_state(basis, [((1,), 0.0)]), region)
    # absolute norm when the reference vanishes
    assert reconstruction_error(g, zero) == pytest.approx(g.norm, rel=1e-12)


def test_zero_data_yields_zero_potential():
    ctx = _context(2)
    record = ObservationRecord(
        ctx.time_grid(), np.zeros((3, ctx.time_grid().nodes.size))
    )
    result = solve(record, HumConfig(), ctx)
    assert result.converged
    assert result.iterations == 0
    assert np.all(result.potential.coefficients == 0.0)
    assert result.gradient.norm == 0.0


def test_iteration_budget_reports_non_convergence():
    ctx = _context(3)
    y0 = _state(ctx.basis, [((1, 1), 1.0), ((2, 3), 0.5)])
    record = simulate(y0, ctx.suite, 0.8, ctx.time_grid())
    result = solve(record, HumConfig(cg_tolerance=1e-13, max_iterations=1), ctx)
    assert not result.converged
    assert result.iterations == 1
    assert result.residual > 1e-13


def test_coarse_observation_grid_warns_and_interpolates():
    ctx = _context(2)
    y0 = _state(ctx.basis, [((1, 1), 1.0)])
    edges = np.linspace(0.0, 1.0, 5) ** grading_exponent(0.8)  # 4 panels
    coarse = TimeGrid(1.0, *gauss_panels(edges))
    record = simulate(y0, ctx.suite, 0.8, coarse)
    with pytest.warns(UserWarning, match="coarser"):
        b = rhs_from_data(record, ctx)
    # the discrepancy rule resamples the record once: one warning per call
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        discrepancy_regularization(record, HumConfig(), ctx, 1e-3)
    assert len(seen) == 1 and "coarser" in str(seen[0].message)
    dense = simulate(y0, ctx.suite, 0.8, ctx.time_grid())
    b_ref = rhs_from_data(dense, ctx)
    assert np.max(np.abs(b - b_ref)) < 0.1 * np.max(np.abs(b_ref))


def test_off_mesh_record_keeps_the_on_mesh_reconstruction():
    # the hum-synthetic problem sampled on 32 panels graded toward t = 0
    # only, not on the quadrature mesh: the Lagrange resampling in t**alpha
    # must keep the state coefficients of the on-mesh record
    ctx = _context(2)
    y0 = _state(ctx.basis, [((1, 1), 1.0), ((2, 2), -0.4)])
    edges = np.linspace(0.0, 1.0, 33) ** grading_exponent(0.8)
    off_mesh = simulate(y0, ctx.suite, 0.8, TimeGrid(1.0, *gauss_panels(edges)))
    on_mesh = simulate(y0, ctx.suite, 0.8, ctx.time_grid())
    assert not np.array_equal(off_mesh.grid.nodes, ctx.time_grid().nodes)
    config = HumConfig(cg_tolerance=1e-13, max_iterations=500)
    got, want = (ctx.d_matrix.T @ solve(record, config, ctx).potential.coefficients
                 for record in (off_mesh, on_mesh))
    assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))


def test_reconstruct_gradient_uses_state_coefficients():
    # the dual solution maps to state coefficients c = D^T a; the output
    # samples must match the analytic gradient of that state
    ctx = _context(2)
    a = PotentialVector(np.array([0.3, -0.1, 0.2, 0.05]))
    g = reconstruct_gradient(a, ctx)
    state = ctx.d_matrix.T @ a.coefficients
    expected = sum(c * m.grad(g.grid.points) for c, m in zip(state, ctx.basis.modes)).T
    assert np.max(np.abs(g.components - expected)) < 1e-12


def test_validation_errors():
    with pytest.raises(DomainError):
        HumConfig(cg_tolerance=0.0)
    with pytest.raises(DomainError):
        HumConfig(regularization=-1.0)
    with pytest.raises(DomainError):
        HumConfig(max_iterations=0)
    with pytest.raises(DomainError):
        PotentialVector(np.array([1.0, math.nan]))
    basis = build_basis(2, 2)
    with pytest.raises(DomainError):
        HumContext(basis, _suite(), 0.8, 1.0, STRIP, truncation=3)
    ctx = _context(2)
    with pytest.raises(DomainError):
        apply_lambda(np.ones(ctx.size + 1), ctx)
    bad = ObservationRecord(ctx.time_grid(), np.zeros((2, ctx.time_grid().nodes.size)))
    with pytest.raises(DomainError):
        rhs_from_data(bad, ctx)
    with pytest.raises(DomainError):
        discrepancy_regularization(bad, HumConfig(), ctx, 1e-3)


def _clean_record(ctx):
    return simulate(_state(ctx.basis, [((1, 1), 1.0)]), ctx.suite, 0.8, ctx.time_grid())


NON_FINITE = {
    "grid-horizon": lambda ctx: TimeGrid(math.nan, np.array([0.5]), np.array([1.0])),
    "grid-node": lambda ctx: TimeGrid(1.0, np.array([0.5, math.nan]),
                                      np.array([0.5, 0.5])),
    "time-grid-nan": lambda ctx: time_grid(0.8, math.nan),
    "time-grid-inf": lambda ctx: time_grid(0.8, math.inf),
    "regularization-nan": lambda ctx: HumConfig(regularization=math.nan),
    "regularization-inf": lambda ctx: HumConfig(regularization=math.inf),
    "cg-tolerance-nan": lambda ctx: HumConfig(cg_tolerance=math.nan),
    "max-iterations-nan": lambda ctx: HumConfig(max_iterations=math.nan),
    "simulate-sigma-nan": lambda ctx: simulate(
        _state(ctx.basis, [((1, 1), 1.0)]), ctx.suite, 0.8, ctx.time_grid(),
        noise_sigma=math.nan, noise_seed=0),
    "sigma-nan": lambda ctx: discrepancy_regularization(
        _clean_record(ctx), HumConfig(), ctx, math.nan),
    "sigma-inf": lambda ctx: discrepancy_regularization(
        _clean_record(ctx), HumConfig(), ctx, math.inf),
}


@pytest.mark.parametrize("call", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_inputs_raise_domain_error(call):
    # NaN fails every comparison, so each check must be stated so that it
    # fails on NaN too
    with pytest.raises(DomainError):
        call(_context(2))


def test_discrepancy_regularization_trivial_cases():
    ctx = _context(2)
    y0 = _state(ctx.basis, [((1, 1), 1.0)])
    record = simulate(y0, ctx.suite, 0.8, ctx.time_grid())
    assert discrepancy_regularization(record, HumConfig(), ctx, 0.0) == 0.0
    with pytest.raises(DomainError):
        discrepancy_regularization(record, HumConfig(), ctx, -1.0)


def test_discrepancy_regularization_beats_unregularized_under_noise():
    # deep truncation with few sensors: the unregularized normal equations
    # amplify channel noise catastrophically, and the noise-level fit rule
    # must recover a materially better gradient
    ctx = _context(5)
    y0 = _state(ctx.basis, [((1, 1), 1.0), ((2, 3), 0.5)])
    truth = restrict_gradient(y0, STRIP)
    sigma = 1e-3
    cfg = HumConfig(cg_tolerance=1e-12, max_iterations=400)
    for seed in range(3):
        record = simulate(
            y0, ctx.suite, 0.8, ctx.time_grid(),
            noise_sigma=sigma, noise_seed=seed,
        )
        plain = solve(record, cfg, ctx)
        err_plain = reconstruction_error(plain.gradient, truth)
        eps = discrepancy_regularization(record, cfg, ctx, sigma)
        assert eps > 0.0
        tuned = solve(
            record, HumConfig(cg_tolerance=1e-12, max_iterations=400,
                              regularization=eps), ctx
        )
        err_tuned = reconstruction_error(tuned.gradient, truth)
        assert err_tuned < 0.8 * err_plain


@pytest.mark.filterwarnings("ignore:observation grid")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the off-mesh "
                   "resampling raises the noise energy above the rule's level, "
                   "so eps = 0")
def test_off_mesh_noisy_record_gets_regularized():
    # the regularize workload's truncation-5 context and the noisy record of
    # the test above, sampled on 30 graded panels (240 nodes) off the mesh
    ctx = _context(5)
    y0 = _state(ctx.basis, [((1, 1), 1.0), ((2, 3), 0.5)])
    edges = np.linspace(0.0, 1.0, 31) ** grading_exponent(0.8)
    grid = TimeGrid(1.0, *gauss_panels(edges))
    record = simulate(y0, ctx.suite, 0.8, grid, noise_sigma=1e-3, noise_seed=0)
    eps = discrepancy_regularization(record, HumConfig(1e-12, 400), ctx, 1e-3)
    assert eps > 0.0


def _cg_discrepancy_scan(record, config, ctx, sigma):
    """The discrepancy rule by one CG solve per positive grid eps."""
    wq = ctx.quad_weights * ctx.weight_values
    level = DISCREPANCY_FACTOR**2 * sigma**2 * len(ctx.suite) * float(np.sum(wq))
    scale = float(np.max(np.abs(apply_lambda(np.ones(ctx.size), ctx))))
    best = 0.0
    for d in range(EPS_GRID_DECADES * EPS_GRID_PER_DECADE + 1):
        eps = scale * 10.0 ** (-EPS_GRID_DECADES + d / EPS_GRID_PER_DECADE)
        cfg = HumConfig(config.cg_tolerance, config.max_iterations, eps)
        model = ctx.forward_channels(solve(record, cfg, ctx).potential.coefficients)
        if float(np.sum(wq * (model - record.channels) ** 2)) > level:
            break
        best = eps
    return best


def test_discrepancy_rule_matches_cg_scan(monkeypatch):
    # the closed-form misfits land on the crossing, so CG confirms only the
    # two grid eps around it
    ctx = _context(5)
    y0 = _state(ctx.basis, [((1, 1), 1.0), ((2, 3), 0.5)])
    cfg = HumConfig(cg_tolerance=1e-12, max_iterations=400)
    cg = hum_module._conjugate_gradients
    for sigma in (1e-4, 1e-3, 1e-2):
        for seed in range(3):
            record = simulate(
                y0, ctx.suite, 0.8, ctx.time_grid(),
                noise_sigma=sigma, noise_seed=seed,
            )
            calls = []
            monkeypatch.setattr(
                hum_module, "_conjugate_gradients",
                lambda *args: calls.append(args[1]) or cg(*args),
            )
            eps = discrepancy_regularization(record, cfg, ctx, sigma)
            monkeypatch.undo()
            assert len(calls) == 2
            assert eps == _cg_discrepancy_scan(record, cfg, ctx, sigma), (sigma, seed)


@pytest.mark.parametrize("op", [97, 297])
def test_discrepancy_rule_steps_to_the_cg_misfit_crossing(monkeypatch, op):
    # the record of op 97 or 297 of the `regularize` benchmark workload at
    # seed 101, rebuilt from its recipe: truth t is mode (1,1) plus two modes
    # of index <= 3, drawn by default_rng([t + 1, 2]); each block of nine ops
    # permutes the (truth, sigma) pairs; the noise is seeded per op.  At the
    # grid eps where the closed-form misfit first exceeds that op's level,
    # the CG misfit at tolerance 1e-12 differs from it by 3e-4 (op 97) and
    # 3e-5 (op 297) relative.  The rule's sigma is chosen here so that its
    # level falls between the two, so the closed-form crossing is one grid
    # step off the CG one and the confirmation steps, whatever the last bits
    # of either misfit; the returned eps must hold for what `solve` returns
    ctx = _context(5)
    low = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3) if (m, n) != (1, 1)]
    pair = np.random.default_rng([102, op // 9 + 1, 3]).permutation(9)[op % 9]
    noise_sigma, truth = (1e-4, 1e-3, 1e-2)[pair % 3], pair // 3
    rng = np.random.default_rng([truth + 1, 2])
    c0 = np.zeros(len(ctx.basis))
    c0[ctx.basis.index_of((1, 1))] = rng.uniform(0.5, 1.5)
    for p in rng.choice(len(low), size=2, replace=False):
        c0[ctx.basis.index_of(low[p])] = rng.normal(0.0, 0.5)
    clean = ctx.forward_channels(np.linalg.solve(ctx.d_matrix.T, c0))
    noise = np.random.default_rng([102, op + 1, 4]).normal(0.0, noise_sigma, clean.shape)
    record = ObservationRecord(ctx.time_grid(), clean + noise)
    cfg = HumConfig(cg_tolerance=1e-12, max_iterations=2000)
    wq = ctx.quad_weights * ctx.weight_values
    per_sigma2 = DISCREPANCY_FACTOR**2 * len(ctx.suite) * float(np.sum(wq))
    scale = float(np.max(np.abs(apply_lambda(np.ones(ctx.size), ctx))))
    grid = scale * 10.0 ** (-EPS_GRID_DECADES + np.arange(
        EPS_GRID_DECADES * EPS_GRID_PER_DECADE + 1) / EPS_GRID_PER_DECADE)

    def misfit(e):
        result = solve(record, HumConfig(1e-12, 2000, float(e)), ctx)
        model = ctx.forward_channels(result.potential.coefficients)
        return float(np.sum(wq * (model - record.channels) ** 2))

    # every grid misfit in closed form, from the Tikhonov filter factors
    y = (record.channels * ctx.root_weights).ravel()
    beta = ctx.singular_vectors.T @ y
    outside = float(np.sum((y - ctx.singular_vectors @ beta) ** 2))
    exact = (grid[:, None] / (ctx.lambda_eigenvalues + grid[:, None])) ** 2 @ beta**2 \
        + outside
    i = int(np.flatnonzero(exact > noise_sigma**2 * per_sigma2)[0])
    below, at, above = (misfit(grid[k]) for k in (i - 1, i, i + 1))
    level = math.sqrt(exact[i] * at)
    # a gap far above rounding, and both neighbours clear of the level
    assert abs(at / exact[i] - 1.0) > 1e-6
    assert max(exact[i - 1], below) < min(exact[i], at) <= max(exact[i], at) \
        < min(exact[i + 1], above)
    sigma = math.sqrt(level / per_sigma2)

    cg, calls = hum_module._conjugate_gradients, []
    monkeypatch.setattr(hum_module, "_conjugate_gradients",
                        lambda *args: calls.append(args[1]) or cg(*args))
    eps = discrepancy_regularization(record, cfg, ctx, sigma)
    monkeypatch.undo()
    assert noise_sigma == 1e-4 and len(calls) == 3  # the two confirmations and a step
    assert eps == grid[i if at < level else i - 1]
    pos = int(np.argmin(np.abs(grid - eps)))
    assert eps > 0.0 and eps == pytest.approx(grid[pos], rel=1e-12)
    assert misfit(eps) <= level < misfit(grid[pos + 1])


@pytest.mark.parametrize("truncation", [2, 3])
def test_smallest_eigenvalue_is_that_of_lambda_plus_eps(truncation):
    # the reported figure is the smallest eigenvalue of Lambda + eps I, here
    # of the matrix assembled column by column from apply_lambda
    ctx = _context(truncation)
    lam = np.stack([apply_lambda(e, ctx) for e in np.eye(ctx.size)], axis=1)
    lam_min = np.linalg.eigvalsh(lam)[0]
    y0 = _state(ctx.basis, [((1, 1), 1.0), ((2, 2), -0.4)])
    record = simulate(y0, ctx.suite, 0.8, ctx.time_grid())
    for eps in (0.0, 1e-3 * lam_min, lam_min):
        result = solve(record, HumConfig(cg_tolerance=1e-13, regularization=eps), ctx)
        assert result.converged
        expected = np.linalg.eigvalsh(lam + eps * np.eye(ctx.size))[0]
        assert result.smallest_eigenvalue == pytest.approx(
            expected, rel=1e-8, abs=0.0
        ), eps


def test_more_potentials_than_outputs_report_eps():
    # one 1-D sensor on the 256-node mesh and Q = 260 potentials: A has
    # fewer rows than columns, Lambda is singular, and the figure is eps
    basis = build_basis(1, 260)
    suite = SensorSuite((Sensor(POINTWISE, (1.0 / math.pi,)),))
    ctx = HumContext(basis, suite, 1.0, 1.0, whole_domain(1), truncation=260)
    assert ctx.time_grid().nodes.size * len(suite) < ctx.size
    assert ctx.smallest_eigenvalue == 0.0
    record = simulate(_state(basis, [((1,), 1.0)]), suite, 1.0, ctx.time_grid())
    result = solve(record, HumConfig(max_iterations=3, regularization=1e-3), ctx)
    assert result.smallest_eigenvalue == 1e-3
