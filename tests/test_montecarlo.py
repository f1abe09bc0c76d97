import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from jump_counts import jump_counts
from levysot.cli import fixture_doc
from levysot.measures import DensityPiece
from levysot.montecarlo import (
    BLOCK_PATHS,
    JumpIntensityError,
    Marginal,
    SimulationConfig,
    _build_step_model,
    _jump_sums,
    _StepModel,
    cf_distance,
    convergence_experiment,
    empirical_cf,
    gaussian_cdf,
    marginal_cdf,
    marginal_ks,
    poisson_head,
    simulate_paths,
)
from levysot.limits import TripletSequence
from levysot.serialize import family_from_dict, sequence_from_dict
from levysot.triplets import TripletStack
from one_row import atoms, measure, pieces, triplet


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(horizon=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(n_paths=0)
    with pytest.raises(ValueError):
        SimulationConfig(seed=-1)
    for horizon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="horizon"):
            SimulationConfig(horizon=horizon)
    for field in ("n_steps", "n_paths", "seed"):
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: 2.5})


def test_per_step_triplets_give_the_piecewise_path():
    a = triplet(1.0, 0.0)
    b = triplet(2.0, 0.0)
    cfg = SimulationConfig(n_paths=3, n_steps=4)
    bundle = simulate_paths(TripletStack.pack([a, a, b, b]), 0.0, cfg)
    assert np.array_equal(bundle.values, np.tile([0.0, 0.25, 0.5, 1.0, 1.5], (3, 1)))


def test_triplet_count_must_match_steps():
    t = triplet(1.0, 0.0)
    with pytest.raises(ValueError):
        simulate_paths(TripletStack.pack([t] * 3), 0.0, SimulationConfig(n_paths=3, n_steps=4))


def test_one_triplet_equals_one_per_step():
    # a one-row stack is used for every step: it simulates as its row
    # repeated n_steps times, for each row of the flagship sequence and of
    # a stack with density pieces
    seq = sequence_from_dict(fixture_doc("shrinking_jump_sequence.json")["sequence"]).stack
    piece = DensityPiece(0.05, 0.8, lambda x: 1.0 + x)
    mixed = TripletStack.pack([triplet(0.3, 0.5, measure((0.4, 2.0), (-1.5, 1.0))),
                               triplet(-0.2, 0.0, measure((0.7, 1.0), pieces=(piece,)))])
    cfg = SimulationConfig(n_paths=BLOCK_PATHS + 5, n_steps=3, seed=7)
    for st in (seq, mixed):
        for i in (0, -1):
            row = st.row(i)
            single = simulate_paths(row, 0.2, cfg)
            repeated = simulate_paths(TripletStack.pack([row] * cfg.n_steps), 0.2, cfg)
            assert np.array_equal(single.values, repeated.values)


def test_pure_drift_is_deterministic():
    cfg = SimulationConfig(n_paths=50, n_steps=4, seed=3)
    bundle = simulate_paths(triplet(2.0, 0.0), 1.0, cfg)
    assert np.allclose(bundle.terminal, 3.0)
    assert bundle.values.shape == (50, 5)
    assert np.allclose(bundle.values[:, 0], 1.0)


def test_brownian_terminal_law():
    cfg = SimulationConfig(n_paths=20000, n_steps=1, seed=0)
    bundle = simulate_paths(triplet(0.0, 1.0), 0.0, cfg)
    assert abs(bundle.terminal.mean()) < 0.03
    assert abs(bundle.terminal.var() - 1.0) < 0.05
    assert marginal_ks(bundle.terminal, gaussian_cdf(0.0, 1.0)) < 0.02


def test_compensated_poisson_mean_zero():
    t = triplet(F=measure((0.5, 2.0)))
    cfg = SimulationConfig(n_paths=20000, n_steps=1, seed=1)
    bundle = simulate_paths(t, 0.0, cfg)
    assert abs(bundle.terminal.mean()) < 0.02


def test_jump_intensity_guard():
    t = triplet(F=measure((0.1, 1e9)))
    with pytest.raises(JumpIntensityError):
        simulate_paths(t, 0.0, SimulationConfig(n_paths=2))


# one atom, whose counts are each path's Poisson total, and the simulate
# workload's shape, whose jumps each draw a location: two atoms and a density
# piece, 1.37 expected jumps per step over 65 locations
ONE_ATOM = triplet(0.1, 0.5, measure((0.5, 1.0)))
WORKLOAD_SHAPE = triplet(0.3, 0.5, measure(
    (0.4, 2.0), (-1.5, 0.6), pieces=(DensityPiece(1e-4, 0.6, lambda x: np.full_like(x, 2.5)),)))


def test_determinism_and_block_prefix():
    cfg = SimulationConfig(n_paths=2 * BLOCK_PATHS, n_steps=3, seed=9)
    for t in (ONE_ATOM, WORKLOAD_SHAPE):
        a = simulate_paths(t, 0.0, cfg)
        assert np.array_equal(a.values, simulate_paths(t, 0.0, cfg).values)
        longer = simulate_paths(t, 0.0, replace(cfg, n_paths=2 * BLOCK_PATHS + 37))
        assert np.array_equal(longer.values[: 2 * BLOCK_PATHS], a.values)
        d = simulate_paths(t, 0.0, replace(cfg, seed=10))
        assert not np.array_equal(np.sort(a.terminal), np.sort(d.terminal))


def test_seeds_give_distinct_samples():
    # small seeds must give new samples, not a permutation of the same paths
    # (1024 paths is a multiple of every power of two above these seeds)
    for t in (ONE_ATOM, WORKLOAD_SHAPE):
        cfgs = [SimulationConfig(n_paths=1024, n_steps=3, seed=s) for s in (0, 1, 5)]
        sorted_terminals = [np.sort(simulate_paths(t, 0.0, cfg).terminal) for cfg in cfgs]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(sorted_terminals[i], sorted_terminals[j])


@pytest.mark.parametrize("n_locations, expected", [(65, 0.8), (3, 40.0)],
                         ids=["location-draws", "multinomial"])
def test_jump_counts_are_independent_poisson_counts(n_locations, expected):
    # below L - 1 expected jumps each jump draws its location, above it each
    # total is split multinomially: either way the count at location j has
    # mean and variance r_j, and a path's counts add up to its total
    n = 200_000
    rates = np.random.default_rng(3).uniform(1.0, 3.0, n_locations)
    rates *= expected / rates.sum()
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    totals = rng.poisson(expected, size=n)
    counts = jump_counts(rng, totals, rates)
    assert counts.shape == (n, n_locations)
    assert np.array_equal(counts.sum(axis=1), totals)
    se_mean = np.sqrt(rates / n)
    se_var = np.sqrt((rates + 2.0 * rates**2) / n)
    assert np.all(np.abs(counts.mean(axis=0) - rates) <= 5.0 * se_mean)
    assert np.all(np.abs(counts.var(axis=0, ddof=1) - rates) <= 5.0 * se_var)


def test_one_location_takes_the_totals_and_draws_nothing():
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    before = str(rng.bit_generator.state)
    totals = np.array([3, 0, 5, 1])
    for rate in (0.2, 40.0):
        counts = jump_counts(rng, totals, np.array([rate]))
        assert np.array_equal(counts, totals[:, None])
    assert str(rng.bit_generator.state) == before


@pytest.mark.parametrize("n_locations, expected", [
    (1, 0.3), (1, 5.0), (2, 0.5), (2, 3.0), (65, 0.8), (65, 40.0), (65, 64.0), (65, 80.0),
], ids=["1-0.3", "1-5", "2-draws", "2-multinomial", "65-0.8", "65-40", "65-64", "65-80"])
@pytest.mark.parametrize("signs", ["mixed", "negative"])
def test_jump_sums_are_the_count_matrix_sums(n_locations, expected, signs):
    # the einsum of jump_counts' matrix is the reference: the same draws,
    # the same bits, signed zeros included, and the generator left in the
    # same state; the rows take 0, 1, 2 and 3 or more jumps, a location
    # repeats, and two locations cancel
    g = np.random.default_rng(n_locations)
    rates = g.uniform(1.0, 3.0, n_locations)
    rates *= expected / rates.sum()
    x = g.choice([-1.0, 1.0], n_locations) * 10.0 ** g.uniform(-3.0, 5.0, n_locations)
    if n_locations > 2:
        x[1], x[2] = x[0], -x[0]
    if signs == "negative":
        x = -np.abs(x)
    totals = np.concatenate([[0, 1, 2, 3, 0, 2, 7, 1, 40], g.poisson(expected, 3000)])
    for key in range(3):
        ref_rng, rng = (np.random.Generator(np.random.Philox(key=[13, key])) for _ in range(2))
        ref = np.einsum("ij,j->i", jump_counts(ref_rng, totals, rates), x)
        sums = _jump_sums(rng, totals, rates, x)
        assert sums.dtype == ref.dtype
        assert np.array_equal(sums.view(np.int64), ref.view(np.int64))
        assert str(rng.bit_generator.state) == str(ref_rng.bit_generator.state)


def test_one_step_terminal_has_the_compound_poisson_law():
    # two atoms at 0.9 expected jumps, so each jump draws its location: the
    # terminal must land on the closed-form law's points bit for bit, or the
    # KS distance to it exceeds its 5% critical value (summing each path's
    # jump locations one by one reads 0.012 here)
    t = triplet(F=measure((0.3, 0.45), (-1.1, 0.45)))
    n = 100_000
    terminal = simulate_paths(t, 0.0, SimulationConfig(n_paths=n, n_steps=1, seed=4)).terminal
    assert marginal_ks(terminal, marginal_cdf(t, 1.0)) < 1.36 / math.sqrt(n)


def test_terminal_moments_match_closed_form():
    # drift, diffusion, one atom inside and one outside the unit ball, and a
    # density piece reaching below the 1e-3 small-jump threshold
    b, c, atoms, (lo, hi, dens) = 0.3, 0.5, ((0.4, 2.0), (-1.5, 0.6)), (1e-4, 0.6, 2.5)
    piece = DensityPiece(lo, hi, lambda x: np.full_like(x, dens))
    F = measure(*atoms, pieces=(piece,))
    n = 100_000
    cfg = SimulationConfig(n_paths=n, n_steps=5, seed=2)
    terminal = simulate_paths(triplet(b, c, F), 0.0, cfg).terminal

    def moment(k):
        return sum(w * x**k for x, w in atoms) + dens * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)

    mean = b + sum(w * x for x, w in atoms if abs(x) > 1.0)
    var = c + moment(2)
    se_mean = np.sqrt(var / n)
    se_var = np.sqrt((moment(4) + 2.0 * var**2) / n)
    assert abs(terminal.mean() - mean) <= 5.0 * se_mean
    assert abs(terminal.var(ddof=1) - var) <= 5.0 * se_var


def test_terminal_is_start_plus_compensated_lattice_jumps():
    # both atoms are multiples of 0.5, so a terminal value minus x0 plus the
    # compensator 1.5 T is a multiple of 0.5; with 1.5 T = 3.15 not one, the
    # test fails if the atom at 0.5 loses its compensator or the one at -1.5
    # gains one
    t = triplet(F=measure((0.5, 3.0), (-1.5, 0.7)))
    x0, horizon = 0.2, 2.1
    cfg = SimulationConfig(horizon=horizon, n_paths=300, n_steps=4, seed=6)
    k = (simulate_paths(t, x0, cfg).terminal - x0 + 0.5 * 3.0 * horizon) / 0.5
    assert np.abs(k - np.round(k)).max() <= 1e-9
    assert np.unique(np.round(k)).size > 5


def test_empirical_cf_and_distance():
    samples = np.zeros(100)
    u = np.array([0.5, 1.0])
    assert np.allclose(empirical_cf(samples, u), 1.0)
    t = triplet(0.0, 1.0)
    rng = np.random.default_rng(0)
    gauss = rng.standard_normal(50000)
    assert cf_distance(gauss, t, 1.0, u) < 0.02


def test_marginal_ks_against_atomic_laws():
    samples = np.random.default_rng(0).poisson(3.0, size=100_000)
    assert marginal_ks(samples, stats.poisson(3.0).cdf) < 0.005
    assert marginal_ks(np.full(50, 1.5), Marginal.point(1.5).cdf) == 0.0


def test_marginal_cdf_forms():
    assert marginal_cdf(triplet(0.5, 2.0), 1.0) is not None
    cp = triplet(F=measure((0.5, 2.0)))
    cdf = marginal_cdf(cp, 1.0)
    # 0.5 N - 1 with N ~ Poisson(2): the atom's compensator shifts by -1;
    # checked at each atom, just below it and between atoms
    atoms = 0.5 * np.arange(12) - 1.0
    x = np.concatenate([atoms, atoms - 1e-9, atoms + 0.25, [-3.0]])
    expected = stats.poisson(2.0).cdf(np.floor((x + 1.0) / 0.5))
    assert np.max(np.abs(cdf(x) - expected)) <= 1e-12
    # mixed diffusion + many-atom cases have no closed form here
    many = triplet(0.0, 1.0, measure((0.5, 1.0), (0.7, 1.0), (0.9, 1.0), (1.1, 1.0)))
    assert marginal_cdf(many, 1.0) is None
    piece = DensityPiece(0.2, 1.0, np.ones_like)
    assert marginal_cdf(triplet(F=measure(pieces=(piece,))), 1.0) is None


def test_marginal_cdf_of_a_large_rate_atom_is_a_law():
    # at rate 1e4 the head's pmf sums to 1 + 1.4e-11 by rounding, past the
    # grid law's 1e-12 check; the head is normalized, so the CDF is built
    cdf = marginal_cdf(triplet(F=measure((0.01, 1e4))), 1.0)
    # 0.01 N - 100, N ~ Poisson(1e4), between its atoms
    k = np.arange(9700, 10300, 7)
    assert abs(cdf(np.array([np.inf]))[0] - 1.0) <= 1e-12
    assert np.max(np.abs(cdf(0.01 * k - 99.995) - stats.poisson(1e4).cdf(k))) <= 1e-9


def test_marginal_cdf_declines_an_enumeration_past_its_cap():
    # three atoms at rate 1e3 would enumerate about 1.9e9 points; the head
    # lengths are read first, so nothing of that size is built
    t = triplet(F=measure((0.5, 1e3), (0.7, 1e3), (0.9, 1e3)))
    tracemalloc.start()
    try:
        assert marginal_cdf(t, 1.0) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5
    # one such atom is well inside the cap
    assert marginal_cdf(triplet(F=measure((0.5, 1e3))), 1.0) is not None


def test_convergence_experiment_decreases():
    seq = TripletSequence.from_map(
        lambda n: triplet(F=measure((1.0 / np.sqrt(n), float(n)))),
        (10, 100, 1000),
    )
    target = triplet(0.0, 1.0)
    cfg = SimulationConfig(n_paths=4000, n_steps=1, seed=0)
    report = convergence_experiment(seq, target, cfg, np.linspace(-2, 2, 9))
    assert np.all(np.diff(report.cf_distances) < 0)
    assert report.cf_distances[-1] < 0.05
    assert report.ks_distances[-1] is not None and report.ks_distances[-1] < 0.05


def _loop_step_model(t, eps=1e-3):
    """The step model as a loop over the atoms, then over each density
    piece's quadrature nodes, skipping nodes of zero weight."""
    locs, lams = [], []
    small_var = 0.0
    comp = 0.0
    for loc, w in atoms(t.F):
        x = float(loc[0])
        if abs(x) > eps:
            locs.append(x)
            lams.append(w)
            if abs(x) <= 1.0:
                comp += w * x
        else:
            small_var += w * x * x
    for piece in pieces(t.F):
        xq, wq = piece.quad()
        for x, w in zip(xq, wq):
            if w <= 0:
                continue
            if abs(x) > eps:
                locs.append(float(x))
                lams.append(float(w))
                if abs(x) <= 1.0:
                    comp += w * x
            else:
                small_var += w * x * x
    return _StepModel(
        drift=float(t.b[0, 0]),
        diffusion_std=math.sqrt(max(float(t.c[0, 0, 0]), 0.0)),
        jump_locations=np.array(locs),
        jump_intensities=np.array(lams),
        compensator=float(comp),
        small_std=math.sqrt(small_var),
    )


def test_step_model_matches_the_loop_bit_for_bit():
    # atoms below eps, between eps and 1 on both sides, and outside the unit
    # ball; a piece reaching below eps and one whose density vanishes on
    # part of its nodes
    F = measure(
        (5e-4, 3.0), (-2e-4, 1.5), (0.4, 2.0), (-0.7, 0.3), (1.5, 0.6), (-2.5, 0.2),
        pieces=(DensityPiece(1e-4, 0.6, lambda x: 2.5 + 0.0 * x),
                DensityPiece(-0.9, -0.1, lambda x: np.maximum(-0.5 - x, 0.0), nodes=16)),
    )
    t = triplet(0.3, 0.5, F)
    got = _build_step_model(t, 0)
    ref = _loop_step_model(t)
    assert got.jump_locations.size and got.small_std > 0.0
    for field in ("drift", "diffusion_std", "compensator", "small_std"):
        assert getattr(got, field).hex() == getattr(ref, field).hex(), field
    for field in ("jump_locations", "jump_intensities"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_stack_rows_simulate_as_the_listed_triplets():
    fam = family_from_dict(fixture_doc("poisson_instance.json")["family"])
    schedule = np.array([[0.0], [1.5], [6.0], [2.25]])
    cfg = SimulationConfig(n_paths=500, n_steps=4, seed=5)
    stacked = simulate_paths(fam.stack(schedule), 0.0, cfg)
    listed = simulate_paths(TripletStack.pack([fam.at(p) for p in schedule]), 0.0, cfg)
    assert np.array_equal(stacked.values, listed.values)


@pytest.mark.parametrize("loc, variance", [(0.0, 1.0), (0.3, 0.5), (-2.0, 9.0), (1e-3, 1e-4)])
def test_gaussian_cdf_is_scipy_stats_bit_for_bit(loc, variance):
    rng = np.random.default_rng(5)
    scale = math.sqrt(variance)
    x = rng.normal(loc, 3.0 * scale, 20_000)
    x[:3] = [np.inf, -np.inf, np.nan]
    cdf = gaussian_cdf(loc, variance)
    assert cdf(x).tobytes() == stats.norm.cdf(x, loc=loc, scale=scale).tobytes()
    assert cdf(loc + 0.7) == stats.norm.cdf(loc + 0.7, loc=loc, scale=scale)


@pytest.mark.parametrize("tail", [1e-12, 1e-14, 0.01])
def test_poisson_head_is_scipy_stats_bit_for_bit(tail):
    # the workload's and the fixtures' rates among them
    rates = np.concatenate([[0.0, 0.06, 5.9, 3.0, 2.0 + 2.0 * 2.5 / 3],
                            np.geomspace(1e-3, 40.0, 40)])
    for rate in rates:
        ks, pmf = poisson_head(rate, tail)
        kmax = int(stats.poisson.ppf(1.0 - tail, rate)) + 1
        assert np.array_equal(ks, np.arange(kmax + 1))
        assert pmf.tobytes() == stats.poisson.pmf(ks, rate).tobytes()
