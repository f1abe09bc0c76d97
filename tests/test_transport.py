import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import minimize

from hjb_oracle import Oracle
from integrals import marginal_integrate
from levysot import cli, transport
from levysot.cli import fixture_doc, run_transport
from levysot.exprs import ExpressionError
from levysot.montecarlo import Marginal, poisson_head
from levysot.serialize import cost_from_expr, family_from_dict, instance_from_dict
from levysot.transport import (
    CFLError,
    DualAscentConfig,
    HJBGridConfig,
    StateDependentCostError,
    TransportInstance,
    _forward_ws,
    _gtsv,
    _HJBWorkspace,
    _initial_values,
    _solve_hjb_ws,
    _StepBuffers,
    _StepSystems,
    affine_family_structure,
    dual_ascent,
    duality_report,
    evaluate_cost_mc,
    schedule_cost,
    solve_hjb,
    solve_primal_deterministic,
)
from levysot.triplets import ThetaFamily, family_checks, family_points
from one_row import family, measure, triplet


def diffusion_family(c_max=4.0):
    return family(((0.0, float(c_max)),), lambda p: triplet(0.0, p[0]))


def fixed_family(b=0.0, c=0.0, atoms=()):
    t = triplet(b, c, measure(*atoms))
    return family(((0.0, 0.0),), lambda p: t)


def gaussian_instance(c_max=4.0, variance=1.0):
    return TransportInstance(
        mu0=Marginal.point(0.0),
        mu1=Marginal.gaussian(0.0, variance),
        fam=diffusion_family(c_max),
        cost=cost_from_expr("c * c", ("c",)),
    )


# ---------------------------------------------------------------------------
# marginals and costs


def test_marginal_forms():
    g = Marginal.gaussian(0.0, 1.0)
    assert np.isclose(g.cdf(0.0), 0.5)
    assert np.isclose(marginal_integrate(g, lambda x: x**2), 1.0, atol=1e-10)
    assert np.isclose(g.cf(np.array([1.0]))[0], np.exp(-0.5))

    p = Marginal.point(2.0)
    # the one-atom grid law
    assert (p.kind, p.points.tolist(), p.weights.tolist()) == ("grid-density", [2.0], [1.0])
    assert p.cdf(np.array([1.9, 2.0])).tolist() == [0.0, 1.0]
    assert np.isclose(marginal_integrate(p, lambda x: x**3), 8.0)

    d = Marginal.discrete([0.0, 1.0], [0.25, 0.75])
    assert np.isclose(marginal_integrate(d, lambda x: x), 0.75)
    assert np.isclose(d.cf(np.array([0.0]))[0], 1.0)
    with pytest.raises(ValueError):
        Marginal.gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Marginal.discrete([0.0, 1.0], [0.2, 0.2])
    nan, inf = float("nan"), float("inf")
    for build, field in ((lambda: Marginal.gaussian(0.0, nan), "variance"),
                         (lambda: Marginal.gaussian(0.0, inf), "variance"),
                         (lambda: Marginal.gaussian(nan, 1.0), "mean"),
                         (lambda: Marginal.point(-inf), "location"),
                         (lambda: Marginal.discrete([0.0, nan], [0.5, 0.5]), "points"),
                         # a NaN weight passes the sum check: |nan - 1| > 1e-12 is False
                         (lambda: Marginal.discrete([0.0, 1.0], [nan, 1.0]), "weights")):
        with pytest.raises(ValueError, match=field):
            build()


def test_marginal_grid_weights_preserve_mass_and_mean():
    grid = np.linspace(-6.0, 6.0, 241)
    for m in (Marginal.gaussian(0.3, 1.4), Marginal.point(0.123),
              Marginal.discrete([-1.5, 0.5], [0.5, 0.5])):
        w = m.grid_weights(grid)
        assert np.isclose(w.sum(), 1.0, atol=1e-12)
        assert np.isclose(w @ grid, marginal_integrate(m, lambda x: x), atol=1e-3)


# x changes this cost only where x > 4.99, a slice that random probes miss
THIN_SLICE_COST = "c * c + abs(x - 4.99) + (x - 4.99)"


def test_cost_state_dependence_detection():
    assert not cost_from_expr("c * c", ("c",)).reads_state
    assert cost_from_expr("x * x + c", ("c",)).reads_state
    assert cost_from_expr(THIN_SLICE_COST, ("c",)).reads_state
    # a name counts even where it cannot change the value
    assert cost_from_expr("c * c + 0 * x", ("c",)).reads_state


def test_fixed_small_jumps_pass_the_gate():
    # a fixed atom at 0.05 has no small-jump moment below 0.05, so condition
    # J holds exactly: the family passes, and its rate of up to 800 then
    # meets the CFL bound at the default n_t
    fam = family(((1.0, 2.0),), lambda p: triplet(F=measure((0.05, float(p[0]) * 400.0))))
    inst = TransportInstance(
        Marginal.point(0.0), Marginal.gaussian(0.0, 1.0), fam,
        cost_from_expr("p0", ("p0",)),
    )
    assert np.array_equal(affine_family_structure(fam).locations, [0.05])
    with pytest.raises(CFLError, match="use n_t >= 800"):
        dual_ascent(inst)
    # an atom at 1e300 squares to inf: the gate refuses the family
    unbounded = family(((1.0, 2.0),), lambda p: triplet(F=measure((1e300, float(p[0])))))
    with pytest.raises(ValueError, match="boundedness"):
        affine_family_structure(unbounded)
    affine_family_structure(gaussian_instance().fam)


def test_every_solver_refuses_a_planar_family():
    # the solvers read the first coordinate only, so a 2-d family would
    # return numbers for a problem it does not pose
    fam = family(((0.0, 1.0),), lambda p: triplet([0.0, 0.0], [[p[0], 0.0], [0.0, 5.0]]))
    inst = TransportInstance(
        Marginal.point(0.0), Marginal.gaussian(0.0, 1.0), fam,
        cost_from_expr("p0 * p0", ("p0",)),
    )
    small = HJBGridConfig(n_x=20, n_t=10)
    for solve in (lambda: duality_report(inst, DualAscentConfig(grid=small), mc_paths=100),
                  lambda: dual_ascent(inst, DualAscentConfig(grid=small)),
                  lambda: solve_hjb(inst, np.zeros_like, small),
                  lambda: solve_primal_deterministic(inst),
                  # the family is refused before the state cost is
                  lambda: solve_primal_deterministic(
                      replace(inst, cost=cost_from_expr("x + p0", ("p0",))))):
        with pytest.raises(ValueError, match="one-dimensional"):
            solve()


# ---------------------------------------------------------------------------
# affine structure


def test_affine_structure_extraction():
    fam = family(
        ((0.0, 2.0), (0.0, 3.0)),
        lambda p: triplet(1.0 + 2.0 * p[0], 0.5 + p[1], measure((0.5, 1.0 + p[0] + 2.0 * p[1]))),
    )
    aff = affine_family_structure(fam)
    assert np.isclose(aff.b0, 1.0) and np.allclose(aff.b_lin, [2.0, 0.0])
    assert np.isclose(aff.c0, 0.5) and np.allclose(aff.c_lin, [0.0, 1.0])
    assert np.allclose(aff.locations, [0.5])
    assert np.allclose(aff.w0, [1.0]) and np.allclose(aff.w_lin, [[1.0, 2.0]])
    p = np.array([[0.7, 1.3]])
    assert np.isclose(aff.weights(p)[0, 0], 1.0 + 0.7 + 2.6)


def test_affine_structure_allows_vanishing_atoms():
    fam = family(((0.0, 6.0),), lambda p: triplet(F=measure((0.5, p[0])) if p[0] > 0 else None))
    aff = affine_family_structure(fam)
    assert np.allclose(aff.w0, [0.0]) and np.allclose(aff.w_lin, [[1.0]])


def test_affine_structure_rejections():
    quad = family(((0.0, 2.0),), lambda p: triplet(0.0, float(p[0]) ** 2))
    with pytest.raises(NotImplementedError):
        affine_family_structure(quad)
    moving = family(((0.5, 1.0),), lambda p: triplet(F=measure((p[0], 1.0))))
    with pytest.raises(NotImplementedError):
        affine_family_structure(moving)


# c = 1 at p = 0, 1 and 2, the low end, the midpoint and the high end of
# the box, but 1.375 at p = 0.5
CUBIC_INSTANCE = {
    "mu0": {"kind": "point-mass", "location": 0.0},
    "mu1": {"kind": "gaussian", "mean": 0.0, "variance": 1.375},
    "family": {"box": [[0.0, 2.0]], "params": ["p"], "b": ["0"],
               "c": [["1 + p * (p - 1) * (p - 2)"]]},
    "cost": "(p - 0.5) * (p - 0.5)",
}


def test_affine_structure_rejects_a_family_affine_at_the_midpoint_only(tmp_path, capsys):
    with pytest.raises(NotImplementedError):
        affine_family_structure(family_from_dict(CUBIC_INSTANCE["family"]))
    # c = 1 along both edges from the low corner and at the midpoint, but
    # not along the diagonal between them
    diagonal = family_from_dict({"box": [[0.0, 1.0], [0.0, 1.0]], "params": ["p", "q"],
                                 "b": ["p"], "c": [["1 + p * q * (p + q - 1)"]]})
    with pytest.raises(NotImplementedError):
        affine_family_structure(diagonal)
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC_INSTANCE))
    assert cli.main(["solve-transport", "--input", str(path), "--out", str(tmp_path)]) == 1
    assert "affine in the parameters" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# HJB solver oracles


def test_hjb_heat_benchmark():
    inst = TransportInstance(
        Marginal.point(0.0), Marginal.gaussian(0.0, 1.0),
        family(((1.0, 1.0),), lambda p: triplet(0.0, 1.0)),
        cost_from_expr("0", ("c",)),
    )
    cfg = HJBGridConfig(x_min=-6.0, x_max=6.0, n_x=100, n_t=100)
    vg = solve_hjb(inst, lambda x: np.cos(x), cfg)
    lo, hi = vg.report_slice
    x = vg.x_grid[lo:hi]
    err = np.max(np.abs(vg.initial()[lo:hi] - np.exp(-0.5) * np.cos(x)))
    assert err < 2e-3


def test_hjb_compound_poisson_benchmark():
    # rate-2 jumps of size 0.5, compensated; E[(x + X_1)^2] = x^2 + 0.5
    fam = fixed_family(atoms=((0.5, 2.0),))
    inst = TransportInstance(
        Marginal.point(0.0), Marginal.gaussian(0.0, 0.5), fam,
        cost_from_expr("0", ("p0",)),
    )
    cfg = HJBGridConfig(x_min=-6.0, x_max=6.0, n_x=240, n_t=120,
                        drift_stencil="central")
    vg = solve_hjb(inst, lambda x: x**2, cfg)
    lo, hi = vg.report_slice
    x = vg.x_grid[lo:hi]
    err = np.max(np.abs(vg.initial()[lo:hi] - (x**2 + 0.5)))
    assert err < 1e-2


def test_hjb_constant_shift_and_monotonicity():
    inst = gaussian_instance()
    cfg = HJBGridConfig(x_min=-3.0, x_max=3.0, n_x=60, n_t=30)
    base = solve_hjb(inst, lambda x: np.abs(np.round(x)), cfg)
    shifted = solve_hjb(inst, lambda x: np.abs(np.round(x)) + 5.0, cfg)
    assert np.max(np.abs(shifted.values - base.values - 5.0)) < 1e-9
    upper = solve_hjb(inst, lambda x: np.abs(np.round(x)) + 0.3 * (x > 0), cfg)
    assert np.all(upper.values - base.values >= -1e-10)


def test_hjb_controls_stay_in_box():
    inst = gaussian_instance()
    cfg = HJBGridConfig(x_min=-3.0, x_max=3.0, n_x=40, n_t=20)
    vg = solve_hjb(inst, lambda x: 0.5 * x**2, cfg)
    assert np.all(vg.controls >= 0.0 - 1e-12)
    assert np.all(vg.controls <= 4.0 + 1e-12)


def test_hjb_rejects_unbounded_terminal():
    inst = gaussian_instance()
    with pytest.raises(ValueError):
        solve_hjb(inst, lambda x: np.where(x > 0, np.inf, 0.0),
                  HJBGridConfig(n_x=40, n_t=10))


@pytest.mark.parametrize("terminal", [lambda x: 1.0, lambda x: x[:-1]],
                         ids=["scalar", "one-short"])
def test_hjb_rejects_a_callable_terminal_off_the_grid(terminal):
    # a callable terminal must give one value per padded grid node, as an
    # array terminal must: a scalar is not broadcast to a constant
    inst = instance_from_dict(fixture_doc("gaussian_instance.json"))
    with pytest.raises(ValueError, match="terminal array must match the padded grid"):
        solve_hjb(inst, terminal, HJBGridConfig(n_x=40, n_t=5))


def test_cfl_guard():
    fam = fixed_family(atoms=((0.5, 400.0),))
    inst = TransportInstance(
        Marginal.point(0.0), Marginal.gaussian(0.0, 1.0), fam,
        cost_from_expr("0", ("p0",)),
    )
    with pytest.raises(CFLError):
        solve_hjb(inst, lambda x: x**2, HJBGridConfig(n_x=40, n_t=10))


def test_weak_duality_on_fixed_potentials():
    # any bounded potential prices below the primal value V = 1; the
    # quadratic -2x^2 attains it (inf_c c^2 - 2c = -1 at c = 1, minus
    # the mu1 integral -2 gives exactly 1)
    inst = gaussian_instance()
    cfg = HJBGridConfig(n_x=240, n_t=100)

    def dual_value(lambda1):
        # the formula dual_ascent reports: both marginals on the grid nodes
        vg = solve_hjb(inst, lambda1, cfg)
        x = vg.x_grid
        return float(inst.mu0.grid_weights(x) @ vg.initial()
                     - inst.mu1.grid_weights(x) @ lambda1(x))

    val = dual_value(lambda x: 0.5 * x**2 - 0.5)
    assert val <= 1.0 + 0.02
    assert np.isclose(val, -0.5, atol=0.02)
    opt = dual_value(lambda x: -2.0 * x**2)
    assert 0.95 <= opt <= 1.0 + 0.02


def test_hjb_non_finite_step_raises():
    # exp(1000 + lam) overflows at every control: a non-finite right-hand
    # side is a ValueError
    inst = instance_from_dict(fixture_doc("poisson_instance.json"))
    inst = TransportInstance(inst.mu0, inst.mu1, inst.fam,
                             cost_from_expr("exp(1000 + lam)", ("lam",)))
    cfg = HJBGridConfig(n_x=40, n_t=10, drift_stencil="central")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        solve_hjb(inst, lambda x: 0.0 * x, cfg)


def test_golden_fallback_takes_a_finite_end():
    # exp(1000 lam) is infinite at both golden-section probes of every
    # round, so the bracket runs to lam = 6; lam = 0 gives H = 1
    fam = instance_from_dict(fixture_doc("poisson_instance.json")).fam
    cost = cost_from_expr("exp(1000 * lam)", ("lam",))
    with np.errstate(over="ignore", invalid="ignore"):
        ws = _HJBWorkspace(fam, HJBGridConfig(n_x=40, n_t=10, drift_stencil="central"), cost)
        buf = ws.single
        buf.V[...] = 0.0
        ws.backward_step(9, buf)
    assert np.all(buf.P == 0.0)


def test_gtsv_raises_the_solve_banded_exception_types():
    with pytest.raises(np.linalg.LinAlgError):
        _gtsv(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))
    with pytest.raises(ValueError):
        _gtsv(np.zeros(2), np.ones(3), np.zeros(2), np.array([1.0, np.inf, 1.0]))


def _sparse_shift(x_grid, y):
    """The sparse interpolation operator the two-tap gathers replaced."""
    n = x_grid.size
    pos = np.arange(n) + y / (x_grid[1] - x_grid[0])
    i = np.clip(np.floor(pos).astype(int), 0, n - 2)
    f = pos - i
    rows = np.repeat(np.arange(n), 2)
    cols = np.column_stack([i, i + 1]).ravel()
    vals = np.column_stack([1.0 - f, f]).ravel()
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def test_jump_gathers_equal_sparse_shifts_bitwise():
    # the forward sweep's scatter-add sets the L-BFGS-B gradient, so it must
    # reproduce the sparse transpose bit for bit; -9 reaches past the padding
    atoms = ((0.5, 1.0), (-0.37, 0.5), (2.3, 0.25), (-9.0, 0.1))
    ws = _HJBWorkspace(fixed_family(atoms=atoms), HJBGridConfig(n_x=60, n_t=2, pad=3.0),
                       cost_from_expr("0", ("p0",)))
    rng = np.random.default_rng(3)
    v = rng.normal(size=(2, ws.n))
    shifts = [_sparse_shift(ws.x_grid, y) for y in ws.aff.locations]
    buf = _StepBuffers(ws, v.shape)
    buf.V[...] = v
    ws.form_terms(buf)
    for S, part in zip(shifts, buf.parts_rows):
        for row in range(2):
            assert np.array_equal(part[row], S @ v[row] - v[row])
    # an adjoint sweep of identity systems: each step adds dt J^T q, with
    # random clipped weights at the first step and zero ones at the second
    weights = np.stack([rng.random((len(atoms), ws.n)), np.zeros((len(atoms), ws.n))])
    rows = np.stack([np.zeros((2, ws.n)), np.ones((2, ws.n)), np.zeros((2, ws.n))])
    expected = v[0]
    for W in weights:
        jt = np.zeros(ws.n)
        for S, w in zip(shifts, W):
            wq = w * expected
            jt += S.T.tocsr() @ wq - wq
        expected = expected + ws.dt * jt
    assert np.array_equal(_forward_ws(ws, _StepSystems(rows, weights), v[0]), expected)


def _two_param_family():
    return family(
        ((0.0, 1.0), (0.0, 1.0)),
        lambda p: triplet(float(p[0]) - 0.5, 0.05 + 0.5 * float(p[1]),
                          measure((0.5, 1.0 + float(p[0])))),
    )


def _drift_family():
    return family(((-1.0, 1.0),), lambda p: triplet(p[0], 0.1))


BATCH_CASES = {
    # central stencil with a jump family
    "poisson-central": lambda: (
        instance_from_dict(fixture_doc("poisson_instance.json")).fam,
        cost_from_expr("(lam - 1) * (lam - 1)", ("lam",)),
        HJBGridConfig(n_x=60, n_t=20, drift_stencil="central"),
    ),
    # auto stencil, diffusion control: the family is drift-free, so the auto
    # stencil is the central one here; only drift-auto-mixed and the
    # two-param-* cases run the upwind and split-point path
    "gaussian-auto": lambda: (
        diffusion_family(), cost_from_expr("c * c", ("c",)),
        HJBGridConfig(n_x=60, n_t=20),
    ),
    # auto stencil, drift control: the upwind switch makes H non-quadratic
    # on sloped potentials only, so one batch takes both paths
    "drift-auto-mixed": lambda: (
        _drift_family(), cost_from_expr("p0 * p0", ("p0",)),
        HJBGridConfig(x_min=-3.0, x_max=3.0, n_x=30, n_t=10),
    ),
    # two parameters (two sweeps), costs that are not quadratic in p0:
    # golden section on every cell
    "two-param-abs": lambda: (
        _two_param_family(), cost_from_expr("abs(p0 - 0.3) + p1 * p1", ("p0", "p1")),
        HJBGridConfig(x_min=-3.0, x_max=3.0, n_x=30, n_t=10),
    ),
    "two-param-exp": lambda: (
        _two_param_family(), cost_from_expr("exp(p0) + p1 * p1", ("p0", "p1")),
        HJBGridConfig(x_min=-3.0, x_max=3.0, n_x=30, n_t=10),
    ),
    # a kink that crosses neither the axes through the box midpoint nor its
    # diagonal; only the corner (1, 0) lies past it
    "two-param-off-axis": lambda: (
        _two_param_family(), cost_from_expr("abs(p0 - p1 - 0.75)", ("p0", "p1")),
        HJBGridConfig(x_min=-3.0, x_max=3.0, n_x=30, n_t=10),
    ),
    # not quadratic on x < 0 only: closed form and golden section side by side
    "two-param-abs-left": lambda: (
        _two_param_family(),
        cost_from_expr("(abs(x) - x) * abs(p0 - 0.3) + p1 * p1 + p0 * p1", ("p0", "p1")),
        HJBGridConfig(x_min=-3.0, x_max=3.0, n_x=30, n_t=10),
    ),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_solve_equals_single_solves(case):
    fam, cost, cfg = BATCH_CASES[case]()
    ws = _HJBWorkspace(fam, cfg, cost)
    x = ws.x_grid
    terminals = np.stack([
        np.full(ws.n, 0.7), 0.5 * x**2, -np.abs(x), np.cos(3.0 * x), np.clip(x, -1.0, 2.0),
    ])
    golden_cells = []
    golden = ws._golden_section

    def spy(k, P, i, lo, hi, terms):
        golden_cells.append((k, P.shape[-3:-1]))
        return golden(k, P, i, lo, hi, terms)

    ws._golden_section = spy
    buf = _StepBuffers(ws, terminals.shape)
    buf.V[...] = terminals
    batched_controls = []
    for k in range(ws.n_t - 1, -1, -1):
        ws.backward_step(k, buf)
        batched_controls.append(buf.P.copy())
    V = buf.V.copy()
    ws._golden_section = golden
    assert np.array_equal(_initial_values(ws, terminals), V)
    for row, terminal in enumerate(terminals):
        vg = _solve_hjb_ws(ws, terminal)
        assert np.array_equal(vg.initial(), V[row])
        for k, P in zip(range(ws.n_t - 1, -1, -1), batched_controls):
            assert np.array_equal(vg.controls[k], P[row])
    # golden section runs per node: on every node of every row of the
    # stack, at exactly the steps where the cost model failed its check
    ok = ws.model.ok
    B = len(terminals)
    for k, shape in golden_cells:
        assert shape == (B, ws.n)
    if case == "two-param-abs-left":
        assert 0 < (~ok).sum() < ok.size
        assert np.all(~ok[:, ws.x_grid < 0]) and np.all(ok[:, ws.x_grid >= 0])
    elif case.startswith("two-param"):
        assert not ok.any()
    else:
        # quadratic costs; on drift-auto-mixed the upwind switch makes H
        # piecewise in p, which the closed form handles by itself
        assert ok.all()
    steps_with_golden = {k for k, _ in golden_cells}
    assert steps_with_golden == {k for k in range(ws.n_t) if not ok[k].all()}


def test_cost_model_fits_quadratics_and_flags_the_rest():
    # per (step, node) coefficients of a time- and state-dependent quadratic
    # with a cross term; a cubic cross term fails the check points off the axes
    cfg = HJBGridConfig(x_min=-3.0, x_max=3.0, n_x=30, n_t=10)
    names = ("p0", "p1")
    ws = _HJBWorkspace(_two_param_family(), cfg,
                       cost_from_expr("t * p0 * p1 + x * p1 * p1 + 2 * p0", names))
    model = ws.model
    assert model.ok.all()
    t = ws.t_grid[:-1, None]
    x = ws.x_grid[None, :]
    d0 = d1 = 0.5  # the box midpoint
    assert np.allclose(model.g[..., 0], t * d1 + 2.0, atol=1e-12)
    assert np.allclose(model.g[..., 1], t * d0 + 2.0 * x * d1, atol=1e-12)
    assert np.allclose(model.hess[..., 0, 0], 0.0, atol=1e-12)
    assert np.allclose(model.hess[..., 0, 1], t, atol=1e-12)
    assert np.allclose(model.hess[..., 1, 0], t, atol=1e-12)
    assert np.allclose(model.hess[..., 1, 1], 2.0 * x, atol=1e-12)
    cubic = _HJBWorkspace(_two_param_family(), cfg, cost_from_expr("p0 * p0 * p1", names))
    assert not cubic.model.ok.any()


def _oracle_cases():
    cases = dict(BATCH_CASES)
    for name, doc in (("poisson-fixture", fixture_doc("poisson_instance.json")),
                      ("gaussian-fixture", fixture_doc("gaussian_instance.json"))):
        def make(doc=doc):
            inst = instance_from_dict(doc)
            stencil = doc["solver"]["dual"].get("drift_stencil", "auto")
            return inst.fam, inst.cost, HJBGridConfig(n_x=60, n_t=20, drift_stencil=stencil)
        cases[name] = make
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_control_step_beats_a_dense_scan(case):
    # each coordinate step's H at the returned control is no higher than
    # the least H over 2001 evenly spaced points of the box, per node
    fam, cost, cfg = ORACLE_CASES[case]()
    ws = _HJBWorkspace(fam, cfg, cost)
    x = ws.x_grid
    V = np.stack([
        np.full(ws.n, 0.7), 0.5 * x**2, -np.abs(x), np.cos(3.0 * x), np.clip(x, -1.0, 2.0),
    ])
    model = ws.model
    buf = _StepBuffers(ws, V.shape)
    buf.V[...] = V
    for k in range(ws.n_t - 1, -1, -1):
        ws.form_terms(buf)
        terms = buf.terms
        P = buf.P
        P[...] = model.mid
        for i, (lo, hi) in enumerate(ws.box):
            if hi <= lo:
                continue
            ws._argmin(k, buf, i, lo, hi)
            s = P[..., i].copy()
            assert np.all((lo <= s) & (s <= hi))
            h_at = ws.hamiltonian(k, P, i, s[None], terms)[0]
            scan = np.linspace(lo, hi, 2001)[:, None, None]
            h_min = ws.hamiltonian(k, P, i, scan, terms).min(axis=0)
            assert np.all(h_at <= h_min + 1e-9 * (1.0 + np.abs(h_at))), (k, i)
        ws.backward_step(k, buf)


KERNEL_CASES = {
    # central by configuration, no diffusion: no second difference and no
    # c / h^2 terms
    "poisson-central": ORACLE_CASES["poisson-fixture"],
    # the same family under auto: the upwind branch of a system with no
    # diffusion
    "poisson-auto": lambda: ORACLE_CASES["poisson-fixture"]()[:2] + (HJBGridConfig(n_x=60, n_t=20),),
    # diffusion control, central because the family has no drift
    "gaussian-diffusive": ORACLE_CASES["gaussian-fixture"],
    # drift and diffusion controlled under auto, with a jump and a quadratic cost
    "two-param-auto": lambda: (
        _two_param_family(), cost_from_expr("p0 * p0 + p1 * p1 + p0 * p1", ("p0", "p1")),
        HJBGridConfig(x_min=-3.0, x_max=3.0, n_x=30, n_t=10),
    ),
    # golden-section fallback cells beside closed-form ones
    "two-param-golden": ORACLE_CASES["two-param-abs-left"],
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_the_rebuilding_oracle_bitwise(case):
    # the adjoint sweep over the kept systems equals the sweep that formed
    # every system again from the controls, and the backward sweep equals
    # the one that formed every term at every step
    fam, cost, cfg = KERNEL_CASES[case]()
    ws = _HJBWorkspace(fam, cfg, cost)
    oracle = Oracle(ws)
    assert ws.diffusive == case.startswith(("gaussian", "two-param"))
    x = ws.x_grid
    q0 = Marginal.gaussian(0.3, 0.5).grid_weights(x)
    for terminal in (0.5 * x**2, np.cos(3.0 * x), np.clip(x, -1.0, 2.0)):
        vg = _solve_hjb_ws(ws, terminal)
        expected = oracle.solve(terminal)
        assert vg.initial().tobytes() == expected.initial().tobytes()
        for k in range(ws.n_t):
            assert vg.controls[k].tobytes() == expected.controls[k].tobytes(), k
        law = _forward_ws(ws, vg.systems, q0)
        assert law.tobytes() == oracle.forward(expected.controls, q0).tobytes()


@pytest.mark.parametrize("name, cost, dual_value, solves", [
    # the upwind and split-point path with the closed form
    ("poisson_instance.json", None, 1.203972028540452, 54),
    # the same path with golden section at every node, jumps and split points
    ("poisson_instance.json", "exp(lam)", 8.330319978377211, 71),
    # golden section at every node, central because the family has no drift
    ("gaussian_instance.json", "exp(c)", 2.727278167865009, 66),
])
def test_dual_ascent_pins_the_auto_and_fallback_paths(name, cost, dual_value, solves):
    doc = fixture_doc(name)
    if cost is not None:
        doc["cost"] = cost
    dual = doc["solver"]["dual"]
    cfg = DualAscentConfig(grid=HJBGridConfig(n_x=60, n_t=30, drift_stencil="auto"),
                           **{key: dual[key] for key in ("bound", "smoothing") if key in dual})
    res = dual_ascent(instance_from_dict(doc), cfg)
    assert res.dual_value == dual_value
    assert len(res.history) == solves


def test_dual_ascent_matches_the_rebuilding_oracle(monkeypatch):
    inst = instance_from_dict(fixture_doc("poisson_instance.json"))
    dual = fixture_doc("poisson_instance.json")["solver"]["dual"]
    cfg = DualAscentConfig(
        grid=HJBGridConfig(n_x=dual["n_x"], n_t=dual["n_t"], drift_stencil=dual["drift_stencil"]),
        bound=dual["bound"], smoothing=dual["smoothing"])
    res = dual_ascent(inst, cfg)
    monkeypatch.setattr(transport, "_solve_hjb_ws", lambda ws, terminal: Oracle(ws).solve(terminal))
    monkeypatch.setattr(transport, "_forward_ws", lambda ws, controls, q0: Oracle(ws).forward(controls, q0))
    monkeypatch.setattr(transport, "_initial_values",
                        lambda ws, terminals: Oracle(ws).initial_values(terminals))
    expected = dual_ascent(inst, cfg)
    assert res.history == expected.history
    assert res.lambda1.tobytes() == expected.lambda1.tobytes()


def test_only_single_solves_keep_their_systems(monkeypatch):
    # the batched warm start keeps nothing per step; a single solve keeps
    # one system per step
    fam, cost, cfg = KERNEL_CASES["poisson-central"]()
    ws = _HJBWorkspace(fam, cfg, cost)
    kept = []
    step = ws.backward_step

    def spy(k, buf, systems=None):
        kept.append(systems)
        return step(k, buf, systems)

    monkeypatch.setattr(ws, "backward_step", spy)
    x = ws.x_grid
    _initial_values(ws, np.stack([0.5 * x**2, np.cos(3.0 * x)]))
    assert kept == [None] * ws.n_t
    kept.clear()
    vg = _solve_hjb_ws(ws, 0.5 * x**2)
    assert len(kept) == ws.n_t and all(systems is vg.systems for systems in kept)
    assert vg.systems.rows.shape == (3, ws.n_t, ws.n)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_step_buffers_carry_nothing_between_sweeps(case):
    # the workspace's step buffers are written in place by every sweep: a
    # single sweep A, a 51-row batched sweep and a single sweep B on one
    # workspace give what a fresh workspace gives, and B writes none of
    # A's arrays, which the polish memo and the adjoint sweep keep
    fam, cost, cfg = KERNEL_CASES[case]()
    ws = _HJBWorkspace(fam, cfg, cost)
    x = ws.x_grid
    q0 = Marginal.gaussian(0.3, 0.5).grid_weights(x)
    a = _solve_hjb_ws(ws, 0.5 * x**2)
    kept = [a.values.copy(), a.controls.copy(), a.systems.rows.copy(), a.systems.weights.copy()]
    terminals = np.stack([np.clip(s * x**2 + d * x, -50.0, 50.0)
                          for s in np.linspace(-4.0, 4.0, 17) for d in (-1.0, 0.0, 1.0)])
    batched = _initial_values(ws, terminals)
    b = _solve_hjb_ws(ws, np.cos(3.0 * x))
    for before, after in zip(kept, (a.values, a.controls, a.systems.rows, a.systems.weights)):
        assert before.tobytes() == after.tobytes()
    fresh = _HJBWorkspace(fam, cfg, cost)
    for vg, terminal in ((a, 0.5 * x**2), (b, np.cos(3.0 * x))):
        expected = _solve_hjb_ws(fresh, terminal)
        assert vg.values.tobytes() == expected.values.tobytes()
        assert vg.controls.tobytes() == expected.controls.tobytes()
        law = _forward_ws(ws, vg.systems, q0)
        assert law.tobytes() == _forward_ws(fresh, expected.systems, q0).tobytes()
    assert batched.tobytes() == _initial_values(_HJBWorkspace(fam, cfg, cost), terminals).tobytes()


def test_every_sweep_rejects_a_non_finite_step():
    # gtsv's non-finite check holds on the batched sweep, on the single
    # sweep that keeps its systems and on the adjoint sweep
    inst = instance_from_dict(fixture_doc("poisson_instance.json"))
    grid = HJBGridConfig(n_x=40, n_t=10, drift_stencil="central")
    overflow = cost_from_expr("exp(1000 + lam)", ("lam",))
    with np.errstate(over="ignore", invalid="ignore"):
        ws = _HJBWorkspace(inst.fam, grid, overflow)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _initial_values(ws, np.zeros((3, ws.n)))
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_hjb_ws(ws, np.zeros(ws.n))
    ws = _HJBWorkspace(inst.fam, grid, inst.cost)
    for bad in (np.inf, np.nan):
        vg = _solve_hjb_ws(ws, 0.5 * ws.x_grid**2)
        q0 = inst.mu0.grid_weights(ws.x_grid)
        q0[ws.n // 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _forward_ws(ws, vg.systems, q0)


# ---------------------------------------------------------------------------
# primal, dual ascent, duality report


def test_schedule_cost_rejects_a_non_finite_cost():
    # one call prices the whole schedule; an overflow anywhere along it is
    # an error, as a scalar call would have raised
    schedule = np.array([[0.0], [0.5], [1.0]])
    assert schedule_cost(cost_from_expr("lam * lam", ("lam",)), schedule) == pytest.approx(1.25 / 3)
    for source in ("exp(1000 * lam)", "x + exp(1000 * lam)"):
        with pytest.raises(ExpressionError, match="evaluated to inf"):
            with np.errstate(over="ignore"):
                schedule_cost(cost_from_expr(source, ("lam",)), schedule)


def test_primal_gaussian():
    res = solve_primal_deterministic(gaussian_instance())
    assert abs(res.primal_value - 1.0) <= 1e-3
    assert res.schedule.std(axis=0).max() <= 0.02
    assert res.feasibility_residual <= 1e-2
    assert not res.likely_infeasible


def test_primal_is_exact_on_both_fixtures():
    # E int c dt = Var X_1 = 1 and E int lam dt = 4 Var X_1 = 3 pin the
    # constant controls c = 1 and lam = 3, so the values are 1 and 4
    for doc, value in ((fixture_doc("gaussian_instance.json"), 1.0),
                       (fixture_doc("poisson_instance.json"), 4.0)):
        res = solve_primal_deterministic(instance_from_dict(doc))
        assert abs(res.primal_value - value) <= 1e-9
        assert res.feasibility_residual <= 1e-9
        assert not res.likely_infeasible


def test_primal_time_dependent_cost_meets_the_discrete_optimum():
    # min dt sum (1 + t_k) c_k^2 subject to mean(c_k) = 1 puts c_k in
    # proportion to 1 / (1 + t_k), with value 1 / mean(1 / (1 + t_k))
    inst = replace(gaussian_instance(), cost=cost_from_expr("(1 + t) * c * c", ("c",)))
    res = solve_primal_deterministic(inst)
    t = np.arange(res.schedule.shape[0]) / res.schedule.shape[0]
    assert abs(res.primal_value - 1.0 / np.mean(1.0 / (1.0 + t))) <= 1e-9
    assert not res.likely_infeasible


def test_primal_holds_only_the_identified_combination():
    # c = a + b: the target pins mean(a + b) = 1 only, and the cost
    # a^2 + 2 b^2 splits it as a = 2/3, b = 1/3 (holding both means costs 3/4)
    fam = family(((0.0, 4.0), (0.0, 4.0)), lambda p: triplet(0.0, float(p[0] + p[1])))
    inst = TransportInstance(Marginal.point(0.0), Marginal.gaussian(0.0, 1.0), fam,
                             cost_from_expr("a * a + 2 * b * b", ("a", "b")))
    res = solve_primal_deterministic(inst)
    assert abs(res.primal_value - 2.0 / 3.0) <= 1e-9
    assert not res.likely_infeasible


@pytest.mark.parametrize("variance", [4.0001, 9.0, 100.0])
def test_primal_flags_targets_beyond_the_box(variance):
    # c <= 4 reaches variance 4 at most; the best fit is c = 4 throughout,
    # and at variance 100 the target's CF underflows where |u| >= 4
    res = solve_primal_deterministic(gaussian_instance(variance=variance))
    assert res.likely_infeasible
    assert res.feasibility_residual > 0.0
    assert abs(res.primal_value - 16.0) <= 1e-9


def test_primal_rejects_state_dependent_cost():
    for source in ("x * x + c", THIN_SLICE_COST):
        inst = TransportInstance(
            Marginal.point(0.0), Marginal.gaussian(0.0, 1.0), diffusion_family(),
            cost_from_expr(source, ("c",)),
        )
        with pytest.raises(StateDependentCostError):
            solve_primal_deterministic(inst)


def test_dual_ascent_trivial_instance():
    inst = TransportInstance(
        Marginal.point(0.0), Marginal.point(0.0), diffusion_family(),
        cost_from_expr("c * c", ("c",)),
    )
    res = dual_ascent(inst, DualAscentConfig(grid=HJBGridConfig(n_x=80, n_t=40)))
    assert abs(res.dual_value) <= 1e-6
    assert not res.likely_infeasible


def test_drift_free_family_takes_the_central_stencil():
    # with no drift at any control the auto stencil is central at every
    # node: selecting central from the family changes no bit of a solve
    inst = instance_from_dict(fixture_doc("gaussian_instance.json"))
    grid = HJBGridConfig(n_x=60, n_t=30)
    ws = _HJBWorkspace(inst.fam, grid, inst.cost)
    assert grid.drift_stencil == "auto" and ws.central
    auto = _HJBWorkspace(inst.fam, grid, inst.cost)
    auto.central = False  # the auto stencil's per-node branch selection
    for terminal in (np.clip(0.5 * ws.x_grid**2 - ws.x_grid, -10.0, 10.0),
                     np.sin(3.0 * ws.x_grid)):
        a = _solve_hjb_ws(ws, terminal)
        b = _solve_hjb_ws(auto, terminal)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.controls.tobytes() == b.controls.tobytes()
    drifting = family(((0.0, 1.0),), lambda p: triplet(p[0], 1.0))
    assert not _HJBWorkspace(drifting, grid, cost_from_expr("p0 * p0", ("p0",))).central


def test_dual_ascent_flags_likely_infeasible():
    # no control reaches variance 9 when c <= 0.5; dual grows with the bound
    inst = TransportInstance(
        Marginal.point(0.0), Marginal.gaussian(0.0, 9.0), diffusion_family(0.5),
        cost_from_expr("c * c", ("c",)),
    )
    res = dual_ascent(inst, DualAscentConfig(grid=HJBGridConfig(n_x=120, n_t=60), bound=3000.0))
    assert res.likely_infeasible
    assert res.dual_value > 1e3


@pytest.fixture(scope="module")
def poisson_ascent():
    """The Poisson fixture's duality report, with the objective, result,
    evaluated points and returned values of the polish, and the terminal
    potentials priced by the warm start's batched sweep and by the full
    solves that also give a gradient."""
    calls = []
    warm, solved = [], []

    def recording_minimize(fun, x0, **kwargs):
        if kwargs.get("method") != "L-BFGS-B":
            return minimize(fun, x0, **kwargs)
        points, values = [], []

        def recorded(z):
            f, g = fun(z)
            points.append(z.copy())
            values.append(f)
            return f, g

        res = minimize(recorded, x0, **kwargs)
        calls.append((fun, res, points, values))
        return res

    def recording_solve(ws, terminal):
        solved.append(terminal.copy())
        return solve_ws(ws, terminal)

    def recording_initial_values(ws, terminals):
        warm.extend(terminals.copy())
        return initial_values(ws, terminals)

    solve_ws, initial_values = transport._solve_hjb_ws, transport._initial_values
    doc = fixture_doc("poisson_instance.json")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "minimize", recording_minimize)
        mp.setattr(transport, "_solve_hjb_ws", recording_solve)
        mp.setattr(transport, "_initial_values", recording_initial_values)
        run = run_transport(doc)
    (polish_fun, polish_res, polish_points, polish_values), = calls
    return SimpleNamespace(report=run.report, inst=run.inst, grid=run.grid,
                           polish_fun=polish_fun, polish_res=polish_res,
                           polish_points=polish_points, polish_values=polish_values,
                           warm=warm, solved=solved, dual=doc["solver"]["dual"])


@pytest.mark.parametrize("ad", [(-16.0, -1.0), (4.0, 1.0)])
def test_polish_gradient_chains_the_full_grid_gradient(poisson_ascent, ad):
    # the polish prices a quadratic by the full-grid objective, one backward
    # sweep and one adjoint sweep on the mollified potential, and contracts
    # its gradient with the clip's derivative in a and in d
    x = poisson_ascent.report.dual_x_grid
    bound, smoothing = poisson_ascent.dual["bound"], poisson_ascent.dual["smoothing"]
    a, d = ad
    z = a * x**2 + d * x
    inside = np.abs(z) < bound
    assert 0 < inside.sum() < x.size  # the clip binds at both points
    ws = _HJBWorkspace(poisson_ascent.inst.fam, poisson_ascent.grid, poisson_ascent.inst.cost)
    kernel = np.exp(-0.5 * ((x[:, None] - x[None, :]) / smoothing) ** 2)
    kernel *= ws.h / (smoothing * np.sqrt(2.0 * np.pi))
    lam = kernel @ np.clip(z, -bound, bound)
    mu0_w = poisson_ascent.inst.mu0.grid_weights(x)
    mu1_w = poisson_ascent.inst.mu1.grid_weights(x)
    vg = _solve_hjb_ws(ws, lam)
    f_full = -(mu0_w @ vg.initial() - mu1_w @ lam)
    g_full = -(kernel @ (_forward_ws(ws, vg.systems, mu0_w) - mu1_w))
    f_quad, g_quad = poisson_ascent.polish_fun(np.array(ad))
    assert f_quad == f_full
    np.testing.assert_allclose(
        g_quad, [g_full @ (x**2 * inside), g_full @ (x * inside)], rtol=1e-12, atol=0.0)


def test_polish_prices_few_quadratics_and_starts_from_the_best(poisson_ascent):
    rep = poisson_ascent.report
    ev = rep.dual_evidence
    polish_res = poisson_ascent.polish_res
    assert ev["polish"]["nfev"] == polish_res.nfev <= 40
    assert ev["polish"]["status"] == polish_res.status
    assert rep.dual_converged is bool(polish_res.success)
    assert "full_grid" not in ev and ev["potential_class"] == transport.POTENTIAL_CLASS
    rows = ev["warm_start_rows"]
    # the polish opens on the best warm-start row, and its single solve of
    # that row gives the batched sweep's value
    assert -poisson_ascent.polish_values[0] == max(rep.ascent_history[:rows])
    # one ascent value per distinct point the polish evaluated
    revisits = polish_res.nfev - len({z.tobytes() for z in poisson_ascent.polish_points})
    assert len(rep.ascent_history) == rows + polish_res.nfev - revisits
    # one HJB solve per ascent value, and no potential is priced twice by
    # either kind of solve
    warm, solved = poisson_ascent.warm, poisson_ascent.solved
    assert len(warm) + len(solved) == len(rep.ascent_history)
    for potentials in (warm, solved):
        assert len({lam.tobytes() for lam in potentials}) == len(potentials)
    # the result is the best potential priced by either stage
    best = int(np.argmax(rep.ascent_history))
    assert rep.dual_value == rep.ascent_history[best]
    assert rep.dual_potential.tobytes() == (warm + solved)[best].tobytes()


def test_a_potential_met_again_is_not_solved_again(monkeypatch):
    # for this target rate the polish's line search comes back to
    # potentials it has priced; each is solved once and recorded once.  The
    # target is the law of 0.5 * (N - rate), N Poisson(rate), as in the
    # Poisson fixture
    rate = 2.0 + (4.0 - 2.0) * (2 + 0.5) / 3
    ks, weights = poisson_head(rate, 1e-14)
    doc = fixture_doc("poisson_instance.json")
    doc["mu1"] = {"kind": "grid-density", "points": (0.5 * ks - 0.5 * rate).tolist(),
                  "weights": (weights / weights.sum()).tolist()}
    doc["solver"]["mc"]["n_paths"] = 2000
    solved, solve_ws = [], transport._solve_hjb_ws

    def recording_solve(ws, terminal):
        solved.append(terminal.tobytes())
        return solve_ws(ws, terminal)

    monkeypatch.setattr(transport, "_solve_hjb_ws", recording_solve)
    report = run_transport(doc).report
    ev = report.dual_evidence
    assert ev["polish"]["nfev"] > len(solved)
    assert len(set(solved)) == len(solved)
    assert len(report.ascent_history) == ev["warm_start_rows"] + len(solved)


def test_polish_keeps_the_poisson_dual(poisson_ascent):
    rep = poisson_ascent.report
    assert rep.dual_value >= 3.9978617 - 1e-4  # what a derivative-free polish reached
    assert rep.weak_duality_ok
    # the default grid's dual and solve count, as the warm start and the
    # polish give them
    assert repr(rep.dual_value) == "3.99818827067312"
    assert len(rep.ascent_history) == 62


def test_gaussian_dual_on_the_default_grid():
    doc = fixture_doc("gaussian_instance.json")
    doc["solver"]["mc"]["n_paths"] = 1000
    rep = run_transport(doc).report
    assert repr(rep.dual_value) == "1.000414672599978"
    assert len(rep.ascent_history) == 56
    assert rep.dual_converged


def test_mc_validation_exact_cost_for_state_independent():
    inst = gaussian_instance()
    schedule = np.ones((5, 1))
    val = evaluate_cost_mc(inst, schedule, n_paths=5000, seed=0)
    assert val.terminal_ks < 0.05


@pytest.mark.parametrize("mu0, mu1, c", [
    (Marginal.discrete([1.0, 3.0], [0.5, 0.5]), Marginal.discrete([1.0, 3.0], [0.5, 0.5]), 0.0),
    (Marginal.gaussian(0.0, 1.0), Marginal.gaussian(0.0, 2.0), 1.0),
])
def test_mc_validation_starts_paths_from_mu0(mu0, mu1, c):
    # the schedule carries mu0 to mu1 exactly, so only sampling error is left
    inst = TransportInstance(mu0, mu1, diffusion_family(), cost_from_expr("c * c", ("c",)))
    val = evaluate_cost_mc(inst, np.full((20, 1), c), n_paths=20_000, seed=0)
    assert val.terminal_ks <= 0.02


def test_mc_validation_rejects_state_dependent_cost():
    inst = gaussian_instance()
    inst = TransportInstance(inst.mu0, inst.mu1, inst.fam,
                             cost_from_expr("c * c + x * x", ("c",)))
    with pytest.raises(StateDependentCostError):
        evaluate_cost_mc(inst, np.ones((5, 1)), n_paths=1000, seed=0)


def test_duality_report_trivial():
    doc = fixture_doc("trivial_instance.json")
    inst = instance_from_dict(doc)
    report = duality_report(
        inst,
        dual_cfg=DualAscentConfig(grid=HJBGridConfig(n_x=80, n_t=40)),
        mc_paths=2000,
    )
    assert report.primal_value == 0.0
    assert abs(report.dual_value) <= 1e-6
    assert abs(report.gap) <= 1e-6
    assert report.weak_duality_ok


def _no_member(fam, p):
    raise AssertionError("ThetaFamily.at called")


def test_affine_structure_and_mc_validation_price_stacks_only(monkeypatch):
    # ThetaFamily.at raises: both read the family's members from stacks, the
    # gate's dimension and boundedness checks too
    inst = instance_from_dict(fixture_doc("poisson_instance.json"))
    monkeypatch.setattr(ThetaFamily, "at", _no_member)
    aff = affine_family_structure(inst.fam)
    assert np.array_equal(aff.locations, [0.5])
    assert np.array_equal(aff.w0, [0.0]) and np.array_equal(aff.w_lin, [[1.0]])
    evaluate_cost_mc(inst, np.full((4, 1), 2.0), n_paths=500, seed=0)


def test_instance_validation_prices_stacks_only(monkeypatch):
    # an instance is validated by the gate its solver runs first; ThetaFamily.at
    # raises, so the gate and the primal solve read members from stacks only
    inst = instance_from_dict(fixture_doc("poisson_instance.json"))
    monkeypatch.setattr(ThetaFamily, "at", _no_member)
    assert np.isfinite(solve_primal_deterministic(inst).primal_value)


def test_instance_validation_prices_its_family_once(monkeypatch):
    calls = [0]
    stack = ThetaFamily.stack

    def counting_stack(fam, params):
        calls[0] += 1
        return stack(fam, params)

    monkeypatch.setattr(ThetaFamily, "stack", counting_stack)
    # the gate reads the dimension, condition B and the affine fit from one stack
    affine_family_structure(instance_from_dict(fixture_doc("poisson_instance.json")).fam)
    assert calls[0] == 1


def test_family_checks_name_a_failing_member():
    fam = family_from_dict({"box": [[0.0, 1.0]], "params": ["y"], "b": ["0"],
                            "c": [["abs(1 / (2 * y - 1))"]]})
    for check in (lambda: family_points(fam, 5),
                  lambda: family_checks(fam, (0.4, 0.2, 0.1), 5)):
        with pytest.raises(RuntimeError, match=r"failed at p=\[0\.5\]"):
            check()
