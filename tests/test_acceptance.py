"""End-to-end acceptance criteria.

Each test prints a single `[criterion N] PASS/FAIL` line (visible under
`pytest -v -s` and in captured output on failure) and then asserts.
"""

import time

import numpy as np
import pytest

import property_checks as pc
from levysot.cli import fixture_doc, run_transport
from levysot.limits import (
    TripletSequence,
    closedness_probe,
    default_u_grid,
    diffusion_creation_diagnostic,
    exponent_limit_profile,
    limit_triplet_identify,
)
from levysot.montecarlo import (
    Marginal,
    SimulationConfig,
    cf_distance,
    convergence_experiment,
    gaussian_cdf,
    marginal_ks,
    simulate_paths,
)
from levysot.serialize import (
    family_from_dict,
    param_map_from_exprs,
    sequence_from_dict,
)
from levysot.transport import (
    HJBGridConfig,
    TransportInstance,
    solve_hjb,
)
from levysot.serialize import cost_from_expr
from levysot.triplets import (
    TripletStack,
    condition_b_value,
    family_checks,
    modified_triplet,
)
from one_row import family, measure, triplet


def report(num, checks, elapsed, limit):
    ok = all(passed for _, passed in checks) and elapsed < limit
    detail = "; ".join(
        f"{name} {'ok' if passed else 'FAILED'}" for name, passed in checks
    )
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}  ({detail}; runtime {elapsed:.1f}s < {limit}s)")
    assert ok, f"criterion {num}: {detail}, runtime {elapsed:.1f}s"


def shrinking_jump_triplet(n: int) -> TripletStack:
    return triplet(F=measure((1.0 / np.sqrt(n), float(n))))


def shrinking_jump_sequence() -> TripletSequence:
    return sequence_from_dict(fixture_doc("shrinking_jump_sequence.json")["sequence"])


def test_criterion_1_shrinking_jump_analytic():
    start = time.perf_counter()
    b_exact = all(
        abs(condition_b_value(shrinking_jump_triplet(n))[0] - 1.0) <= 1e-12
        for n in (1, 2, 5, 10, 1000, 100000)
    )
    fam = family(((1.0, 1e6),), lambda p: shrinking_jump_triplet(p[0]))
    cj = family_checks(fam, (0.5, 0.25, 0.1, 0.05, 0.02, 0.01), 9).condition_j
    profile_one = all(abs(s - 1.0) <= 1e-12 for _, s in cj.profile)
    u_exact = all(
        abs(modified_triplet(shrinking_jump_triplet(n)).c[0, 0, 0] - 1.0) <= 1e-12
        for n in (1, 10, 1000, 100000)
    )
    report(
        1,
        [
            ("condition_b = 1", b_exact),
            ("condition (J) fails", cj.verdict == "fails"),
            ("profile constantly 1", profile_one),
            ("modified c = 1", u_exact),
        ],
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_2_exponent_limit():
    start = time.perf_counter()
    seq = shrinking_jump_sequence()
    diag = diffusion_creation_diagnostic(seq)
    profile = exponent_limit_profile(seq, default_u_grid())
    fitted, _ = limit_triplet_identify(profile)
    report(
        2,
        [
            ("diffusion estimate 1 +- 1e-6", abs(diag.estimate - 1.0) <= 1e-6),
            ("fitted b within 0.02", abs(fitted.b[0]) <= 0.02),
            ("fitted c within 1 +- 0.05", abs(fitted.c[0, 0] - 1.0) <= 0.05),
        ],
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_3_simulation():
    start = time.perf_counter()
    cfg = SimulationConfig(n_paths=100_000, n_steps=1, seed=0)
    bundle = simulate_paths(shrinking_jump_triplet(10_000), 0.0, cfg)
    ks = marginal_ks(bundle.terminal, gaussian_cdf(0.0, 1.0))
    target = triplet(0.0, 1.0)
    cf = cf_distance(bundle.terminal, target, 1.0, default_u_grid())
    seq = TripletSequence.from_map(shrinking_jump_triplet, (10, 100, 1000, 10000))
    conv = convergence_experiment(
        seq, target, SimulationConfig(n_paths=20_000, n_steps=1, seed=0),
        default_u_grid(),
    )
    decreasing = bool(np.all(np.diff(conv.ks_distances) < 0))
    report(
        3,
        [
            ("terminal KS <= 0.02", ks <= 0.02),
            ("cf distance <= 0.03", cf <= 0.03),
            ("KS sequence strictly decreasing", decreasing),
        ],
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_4_closedness_probes():
    start = time.perf_counter()
    seq = shrinking_jump_sequence()
    profile = exponent_limit_profile(seq, default_u_grid())
    identified = limit_triplet_identify(profile)
    with_u = closedness_probe(
        family_from_dict(fixture_doc("pinned_variance_family.json")), seq, True, profile,
        identified,
        param_map=param_map_from_exprs(["0", "1 / pow(n, 0.5)"]),
    )
    without = closedness_probe(
        family_from_dict(fixture_doc("pure_jump_family.json")), seq, False, profile, identified,
        param_map=param_map_from_exprs(fixture_doc("shrinking_jump_sequence.json")["param_map"]),
    )
    report(
        4,
        [
            ("u-map probe yes", with_u.limit_in_set == "yes"),
            ("plain probe no", without.limit_in_set == "no"),
        ],
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_5_hjb_benchmarks():
    start = time.perf_counter()
    heat = TransportInstance(
        Marginal.point(0.0), Marginal.gaussian(0.0, 1.0),
        family(((1.0, 1.0),), lambda p: triplet(0.0, 1.0)),
        cost_from_expr("0", ("c",)),
    )

    def heat_error(n):
        cfg = HJBGridConfig(x_min=-6.0, x_max=6.0, n_x=n, n_t=n)
        vg = solve_hjb(heat, lambda x: np.cos(x), cfg)
        lo, hi = vg.report_slice
        x = vg.x_grid[lo:hi]
        return float(np.max(np.abs(vg.initial()[lo:hi] - np.exp(-0.5) * np.cos(x))))

    err400 = heat_error(400)
    e100, e200 = heat_error(100), heat_error(200)
    ratio = e200 / e100

    cp_triplet = triplet(F=measure((0.5, 2.0)))
    cp = TransportInstance(
        Marginal.point(0.0), Marginal.gaussian(0.0, 0.5),
        family(((0.0, 0.0),), lambda p: cp_triplet),
        cost_from_expr("0", ("p0",)),
    )
    vg = solve_hjb(
        cp, lambda x: x**2,
        HJBGridConfig(x_min=-6.0, x_max=6.0, n_x=240, n_t=120, drift_stencil="central"),
    )
    lo, hi = vg.report_slice
    x = vg.x_grid[lo:hi]
    cp_err = float(np.max(np.abs(vg.initial()[lo:hi] - (x**2 + 0.5))))
    report(
        5,
        [
            (f"heat error {err400:.1e} <= 1e-2", err400 <= 1e-2),
            (f"cp error {cp_err:.1e} <= 1e-2", cp_err <= 1e-2),
            (f"doubling ratio {ratio:.2f} in [0.3, 0.7]", 0.3 <= ratio <= 0.7),
        ],
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_6_gaussian_duality():
    start = time.perf_counter()
    rep = run_transport(fixture_doc("gaussian_instance.json")).report
    report(
        6,
        [
            (f"primal {rep.primal_value:.4f} = 1 +- 1e-3",
             abs(rep.primal_value - 1.0) <= 1e-3),
            (f"dual {rep.dual_value:.4f} >= 0.95", rep.dual_value >= 0.95),
            (f"gap {rep.gap:.4f} <= 0.06", rep.gap <= 0.06),
            ("schedule constant within std 0.02",
             float(rep.control_schedule.std(axis=0).max()) <= 0.02),
            (f"MC KS {rep.mc_validation.terminal_ks:.4f} <= 0.01",
             rep.mc_validation.terminal_ks <= 0.01),
        ],
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_7_poisson_duality():
    start = time.perf_counter()
    rep = run_transport(fixture_doc("poisson_instance.json")).report
    history_ok = rep.weak_duality_ok and all(
        v <= rep.primal_value + rep.allowance for v in rep.ascent_history
    )
    report(
        7,
        [
            (f"primal {rep.primal_value:.4f} = 4 +- 0.05",
             abs(rep.primal_value - 4.0) <= 0.05),
            (f"dual {rep.dual_value:.4f} >= 3.7", rep.dual_value >= 3.7),
            ("weak duality throughout ascent", history_ok),
        ],
        time.perf_counter() - start,
        180.0,
    )


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    n_cases = 200

    def atoms(max_atoms=3):
        k = int(rng.integers(0, max_atoms + 1))
        return tuple(
            (float(rng.uniform(0.1, 2.0) * rng.choice([-1, 1])),
             float(rng.uniform(0.05, 3.0)))
            for _ in range(k)
        )

    checks = []
    for name, fn in (
        ("exponent/generator", lambda: pc.check_exponent_generator_consistency(
            rng.uniform(-2, 2), rng.uniform(0, 2), atoms(),
            rng.uniform(-3, 3), rng.uniform(-2, 2))),
        ("psi symmetry/Re<=0", lambda: pc.check_exponent_symmetry(
            rng.uniform(-2, 2), rng.uniform(0, 2), atoms(), rng.uniform(-4, 4))),
        ("u-correction PSD", lambda: pc.check_u_correction_psd(
            rng.uniform(-1, 1, 2), rng.uniform(0, 2, 2),
            [(rng.uniform(0.1, 1.5, 2) * rng.choice([-1, 1], 2),
              rng.uniform(0.05, 2.0))
             for _ in range(int(rng.integers(1, 4)))])),
        ("feature linearity", lambda: pc.check_feature_map_linearity(
            atoms(2) or ((0.5, 1.0),), atoms(2) or ((1.0, 1.0),),
            rng.uniform(0.1, 5.0))),
        ("HJB monotonicity/shift", lambda: pc.check_hjb_monotonicity_and_shift(
            rng.uniform(-1, 1), rng.uniform(0.1, 3.0),
            float(rng.uniform(0.15, 1.0) * rng.choice([-1, 1])),
            rng.uniform(0.1, 3.0), rng.uniform(0.5, 4.0),
            rng.uniform(0.5, 3.0), int(rng.integers(-7, 8)))),
        ("simulation determinism", lambda: pc.check_simulation_determinism(
            rng.uniform(-1, 1), rng.uniform(0.05, 1.0), rng.uniform(0.1, 1.0),
            rng.uniform(0.1, 2.0), int(rng.integers(0, 2**32)),
            int(rng.integers(1, 101)))),
    ):
        passed = True
        for _ in range(n_cases):
            try:
                fn()
            except AssertionError:
                passed = False
                break
        checks.append((f"{name} x{n_cases}", passed))
    report(8, checks, time.perf_counter() - start, 60.0)
