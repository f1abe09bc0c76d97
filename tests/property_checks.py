"""Invariant checks shared by the hypothesis suites and the acceptance run.

Each function raises AssertionError on violation.  Inputs are plain floats so
the same checks can be driven either by hypothesis strategies or by a seeded
numpy generator.
"""

from dataclasses import replace

import numpy as np

from integrals import generator_apply
from one_row import family, measure, psi as exponent, triplet
from levysot.montecarlo import BLOCK_PATHS, Marginal, SimulationConfig, simulate_paths
from levysot.serialize import cost_from_expr
from levysot.transport import (
    HJBGridConfig,
    TransportInstance,
    solve_hjb,
)
from levysot.triplets import (
    FeatureMapConfig,
    measure_features,
    modified_triplet,
)

GEN_TOL = 1e-8
FEATURE_TOL = 1e-10
# constants commute with the scheme up to the determinism of the per-node
# control optimizer, whose near-flat quadratic fits can move by ~1e-8 per
# unit of terminal amplitude
SHIFT_TOL = 2e-8
PSD_TOL = 1e-10


def scalar_triplet(b, c, atoms):
    return triplet(b, c, measure(*atoms))


def check_exponent_generator_consistency(b, c, atoms, u, x):
    """The generator on e^{iux} equals psi(u) e^{iux} (real and imag parts)."""
    t = scalar_triplet(b, c, atoms)
    psi = exponent(t, u)
    point = np.array([x])
    re = generator_apply(
        t,
        f=lambda z: float(np.cos(u * z[0])),
        grad=lambda z: np.array([-u * np.sin(u * z[0])]),
        hess=lambda z: np.array([[-u * u * np.cos(u * z[0])]]),
        x=point,
    )
    im = generator_apply(
        t,
        f=lambda z: float(np.sin(u * z[0])),
        grad=lambda z: np.array([u * np.cos(u * z[0])]),
        hess=lambda z: np.array([[-u * u * np.sin(u * z[0])]]),
        x=point,
    )
    expected = psi * np.exp(1j * u * x)
    scale = 1.0 + abs(expected)
    assert abs(re - expected.real) <= GEN_TOL * scale
    assert abs(im - expected.imag) <= GEN_TOL * scale


def check_exponent_symmetry(b, c, atoms, u):
    """psi(-u) = conj(psi(u)) and Re psi <= 0."""
    t = scalar_triplet(b, c, atoms)
    psi = exponent(t, u)
    mirrored = exponent(t, -u)
    scale = 1.0 + abs(psi)
    assert abs(mirrored - np.conj(psi)) <= 1e-12 * scale
    assert psi.real <= 1e-12 * scale


def check_u_correction_psd(b_vec, c_diag, atoms_2d):
    """The second-characteristic correction is symmetric PSD."""
    t = triplet(b_vec, np.diag(c_diag), measure(*atoms_2d, dimension=2))
    (corr,) = modified_triplet(t).c - t.c
    assert np.max(np.abs(corr - corr.T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(corr)) >= -PSD_TOL


_FEATURE_CFG = FeatureMapConfig(m_max=3, u_grid=(np.array([1.0]), np.array([2.5])))


def check_feature_map_linearity(atoms_a, atoms_b, scale):
    fa = measure_features(measure(*atoms_a), _FEATURE_CFG)
    fb = measure_features(measure(*atoms_b), _FEATURE_CFG)
    fc = measure_features(measure(*atoms_a, *atoms_b), _FEATURE_CFG)
    norm = 1.0 + np.max(np.abs(fc))
    assert np.max(np.abs(fc - fa - fb)) <= FEATURE_TOL * norm
    scaled = measure(*[(x, scale * w) for x, w in atoms_a])
    fs = measure_features(scaled, _FEATURE_CFG)
    assert np.max(np.abs(fs - scale * fa)) <= FEATURE_TOL * (1.0 + np.max(np.abs(fs)))


def _random_instance(b0, c_hi, jump_loc, jump_w):
    fam = family(((0.0, float(c_hi)),), lambda p: triplet(b0, p[0], measure((jump_loc, jump_w))))
    return TransportInstance(
        mu0=Marginal.point(0.0),
        mu1=Marginal.gaussian(0.0, 1.0),
        fam=fam,
        cost=cost_from_expr("p0 * p0", ("p0",)),
    )


_HJB_CFG = HJBGridConfig(x_min=-2.0, x_max=2.0, n_x=24, n_t=8)


def check_hjb_monotonicity_and_shift(b0, c_hi, jump_loc, jump_w, amp, freq, kappa):
    """Auto-stencil scheme preserves ordering; constants pass through exactly."""
    inst = _random_instance(b0, c_hi, jump_loc, jump_w)
    terminal = lambda x: np.round(amp * np.cos(freq * x))
    base = solve_hjb(inst, terminal, _HJB_CFG)
    upper = solve_hjb(
        inst, lambda x: terminal(x) + np.round(1.0 + amp * (x > 0)), _HJB_CFG
    )
    assert np.all(upper.values - base.values >= -1e-10)
    shifted = solve_hjb(inst, lambda x: terminal(x) + float(kappa), _HJB_CFG)
    tol = SHIFT_TOL * (1.0 + amp + abs(kappa))
    assert np.max(np.abs(shifted.values - base.values - float(kappa))) <= tol


def check_simulation_determinism(b, c, jump_loc, jump_w, seed, extra_paths):
    """One seed repeats exactly, a longer run repeats the full blocks of a
    shorter one, and the next seed gives a different sample."""
    t = scalar_triplet(b, c, ((jump_loc, jump_w),))
    cfg = SimulationConfig(n_paths=2 * BLOCK_PATHS, n_steps=3, seed=seed)
    a = simulate_paths(t, 0.0, cfg)
    assert np.array_equal(a.values, simulate_paths(t, 0.0, cfg).values)
    longer = simulate_paths(t, 0.0, replace(cfg, n_paths=2 * BLOCK_PATHS + extra_paths))
    assert np.array_equal(longer.values[: 2 * BLOCK_PATHS], a.values)
    other = simulate_paths(t, 0.0, replace(cfg, seed=seed + 1))
    assert not np.array_equal(np.sort(a.terminal), np.sort(other.terminal))
