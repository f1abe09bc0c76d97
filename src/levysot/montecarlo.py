"""Monte Carlo sampling of one-dimensional Levy-type paths and marginal
statistics (empirical characteristic functions, Kolmogorov-Smirnov distances).

Paths are sampled as arrays in fixed blocks of BLOCK_PATHS rows.  Block j
draws from the counter-based Philox generator keyed (seed, j), so results are
reproducible, distinct seeds give distinct samples, and growing n_paths keeps
the rows of every full block.  Per block, the diffusion and small-jump normals
are (paths, steps) arrays.  Each step draws a Poisson jump total per path and
spreads it over the L jump locations in one of two ways: with fewer expected
jumps per path-step than L - 1, each jump draws its location from one uniform,
and a path's jump sum is formed from the jumps it drew, so memory is O(jumps)
plus L counts per path with three or more jumps; with more, each total is
split multinomially (up to L - 1 binomials per path) into a (paths, L) count
matrix.  One location takes the total as it is and draws nothing more.
A step's jumps are its triplet's jump profile: the atoms, then the quadrature
nodes of each density piece.  Jumps above SMALL_JUMP_THRESHOLD are sampled as
compound Poisson; jumps below it are replaced by a centered Gaussian matching
their variance rate (Asmussen-Rosinski substitution).  The compound-Poisson
increments of the sampled jumps with |x| <= 1 are centered by their mean:
the indicator rule x 1{|x| <= 1}, which agrees with the package's
truncation function measures.truncate only on the closed unit ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import special

from .triplets import TripletStack, levy_exponent
from .limits import TripletSequence

MAX_EXPECTED_JUMPS = 1e8
# eps: jumps with |x| <= eps are replaced by a Gaussian of the same variance
SMALL_JUMP_THRESHOLD = 1e-3
# paths per Philox stream; part of the sample's definition, so changing it
# changes every simulated value
BLOCK_PATHS = 8192


class JumpIntensityError(RuntimeError):
    """Expected number of sampled jumps per path exceeds the overflow cap."""


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise a ValueError that names ``name`` unless ``value`` is a real
    number, or an integer with ``integer``; a boolean or a string, as a
    configuration document may hold, is neither."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a real number"
        raise ValueError(f"{name} = {value!r} must be {kind}")


@dataclass(frozen=True)
class SimulationConfig:
    horizon: float = 1.0
    n_steps: int = 1
    n_paths: int = 10_000
    seed: int = 0

    def __post_init__(self):
        check_number("horizon", self.horizon)
        for name in ("n_steps", "n_paths", "seed"):
            check_number(name, getattr(self, name), integer=True)
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon = {self.horizon!r} must be positive and finite")
        if not (self.n_steps >= 1 and self.n_paths >= 1):
            raise ValueError(
                f"n_steps = {self.n_steps!r} and n_paths = {self.n_paths!r} must be positive integers")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed = {self.seed!r} must be an integer that fits in 64 bits")


@dataclass(frozen=True)
class PathBundle:
    time_grid: np.ndarray
    values: np.ndarray  # (n_paths, n_steps + 1)

    @property
    def terminal(self) -> np.ndarray:
        return self.values[:, -1]


@dataclass(frozen=True)
class _StepModel:
    """Per-step sampling data derived from one triplet."""

    drift: float
    diffusion_std: float  # per unit sqrt(time)
    jump_locations: np.ndarray  # sampled discretely, |x| > eps
    jump_intensities: np.ndarray
    compensator: float  # mean rate of compensated jumps in (eps, 1]
    small_std: float  # Gaussian substitution std per unit sqrt(time)


def _build_step_model(t: TripletStack, i: int) -> _StepModel:
    """Sampling data of row i of a stack, from its jump profile."""
    if t.dimension != 1:
        raise NotImplementedError("path simulation is implemented for d = 1")
    x, w = t.F.jump_profile(i)
    x = x[:, 0]
    size = np.abs(x)
    # a node where the density vanishes carries no jump
    large = (w > 0) & (size > SMALL_JUMP_THRESHOLD)
    small = (w > 0) & ~large
    inner = large & (size <= 1.0)
    # summed left to right, in profile order
    comp = sum((w[inner] * x[inner]).tolist())
    small_var = sum((w[small] * x[small] * x[small]).tolist())
    return _StepModel(
        drift=float(t.b[i, 0]),
        diffusion_std=math.sqrt(max(float(t.c[i, 0, 0]), 0.0)),
        jump_locations=x[large],
        jump_intensities=w[large],
        compensator=float(comp),
        small_std=math.sqrt(small_var),
    )


def _jump_counts(rng: np.random.Generator, totals: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """(n, L) jump counts per path and location, given each path's Poisson
    total and the L locations' rates: independent Poisson(rate) counts.

    With fewer expected jumps than L - 1, each jump draws one uniform and
    takes the location where it falls on cumsum(rates) (Cont & Tankov 2004,
    Alg. 6.2); otherwise each total is split multinomially, up to L - 1
    binomials per path.  With one location the counts are the totals, and
    the generator draws nothing.  The sampler forms its jump sums with
    _jump_sums, which draws the same numbers; this matrix is its reference.
    """
    n, size = totals.size, rates.size
    if rates.sum() >= size - 1:
        return rng.multinomial(totals, rates / rates.sum())
    loc = _draw_locations(rng, totals, rates)
    path = np.repeat(np.arange(n), totals)
    return np.bincount(path * size + loc, minlength=n * size).reshape(n, size)


def _draw_locations(rng: np.random.Generator, totals: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Each jump's location index, path by path: one uniform per jump."""
    edges = np.cumsum(rates)
    return np.searchsorted(edges, rng.random(int(totals.sum())) * edges[-1], side="right")


def _jump_sums(
    rng: np.random.Generator, totals: np.ndarray, rates: np.ndarray, locations: np.ndarray
) -> np.ndarray:
    """Each path's jump sum, sum_j counts_ij * locations_j, drawing what
    _jump_counts draws and bit for bit
    np.einsum("ij,j->i", _jump_counts(rng, totals, rates), locations).

    einsum starts each sum at +0 and adds the products in an order of its
    own.  A sum of at most two nonzero products rounds once whatever the
    order, and a count of 1 or 2 scales a location exactly, so a path with
    one jump takes its location and a path with two the sum of both; only
    paths with three or more jumps get count rows for einsum to sum.
    """
    size = locations.size
    if size == 1:
        # + 0.0: a path without jumps reads +0, as einsum's does
        return totals * locations[0] + 0.0
    # einsum, not a threaded BLAS matvec, which is ten times slower at this
    # size on a busy host.  The rule's L - 1 is not the cost crossover: at
    # L = 65 and 8192 paths on a shared 2-core Xeon, the location draws take
    # 18-21 ms against the multinomial's 25-27 ms at 40 expected jumps, and
    # 26-30 against 23-29 ms at 63.  Moving it would change sampled values.
    if rates.sum() >= size - 1:
        return np.einsum("ij,j->i", rng.multinomial(totals, rates / rates.sum()), locations)
    loc = _draw_locations(rng, totals, rates)
    ends = np.cumsum(totals)  # path i's jumps are loc[ends[i] - totals[i]:ends[i]]
    sums = np.zeros(totals.size)
    one = np.flatnonzero(totals == 1)
    sums[one] = locations[loc[ends[one] - 1]]
    two = np.flatnonzero(totals == 2)
    sums[two] = locations[loc[ends[two] - 2]] + locations[loc[ends[two] - 1]]
    many = totals >= 3
    m = int(np.count_nonzero(many))
    if m:
        # row r counts the r-th such path's jumps; row m, dropped, the rest
        row = np.where(many, np.cumsum(many) - 1, m)
        counts = np.bincount(np.repeat(row, totals) * size + loc, minlength=(m + 1) * size)
        sums[many] = np.einsum("ij,j->i", counts.reshape(m + 1, size)[:m], locations)
    return sums


def _simulate_block(
    rng: np.random.Generator,
    n: int,
    models: Sequence[_StepModel],
    dt: float,
    x0: float,
) -> np.ndarray:
    """Sample n paths from one block stream: (n, n_steps + 1) values."""
    n_steps = len(models)
    sqrt_dt = math.sqrt(dt)
    normals = rng.standard_normal((n, n_steps))
    small = rng.standard_normal((n, n_steps))
    # column 0 holds x0 so the cumulative sum adds increments in path order
    incr = np.empty((n, n_steps + 1))
    incr[:, 0] = x0
    for k, m in enumerate(models):
        dx = m.drift * dt + m.diffusion_std * sqrt_dt * normals[:, k]
        if m.jump_locations.size:
            # independent Poisson counts per location, drawn as a Poisson total
            # per path spread over the locations; the jump sum is each count
            # times its location, as marginal_cdf forms its points, not each
            # jump's location added in turn, which lands ulps off
            rates = m.jump_intensities * dt
            totals = rng.poisson(rates.sum(), size=n)
            dx += _jump_sums(rng, totals, rates, m.jump_locations) - m.compensator * dt
        if m.small_std > 0.0:
            dx += m.small_std * sqrt_dt * small[:, k]
        incr[:, k + 1] = dx
    return np.cumsum(incr, axis=1, out=incr)


def simulate_paths(st: TripletStack, x0: float, cfg: SimulationConfig) -> PathBundle:
    """Sample paths under a stack of one row, used for every step, or of
    ``cfg.n_steps`` rows, one per step: step k, on [t_k, t_{k+1}), uses row
    k.  Paths are drawn in blocks of ``BLOCK_PATHS``; block j uses the
    Philox stream keyed (seed, j), so the rows of a full block do not depend
    on n_paths.
    """
    models = [_build_step_model(st, i) for i in range(len(st))]
    if len(models) == 1:
        models *= cfg.n_steps
    elif len(models) != cfg.n_steps:
        raise ValueError(f"got {len(models)} triplets for {cfg.n_steps} steps")
    dt = cfg.horizon / cfg.n_steps
    time_grid = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    expected_jumps = sum(float(np.sum(m.jump_intensities)) * dt for m in models)
    if expected_jumps > MAX_EXPECTED_JUMPS:
        raise JumpIntensityError(
            f"expected jumps per path {expected_jumps:.3g} exceeds {MAX_EXPECTED_JUMPS:.0e}"
        )

    values = np.empty((cfg.n_paths, cfg.n_steps + 1))
    for block, start in enumerate(range(0, cfg.n_paths, BLOCK_PATHS)):
        stop = min(start + BLOCK_PATHS, cfg.n_paths)
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, block]))
        values[start:stop] = _simulate_block(rng, stop - start, models, dt, float(x0))
    if not np.isfinite(values).all():
        raise FloatingPointError("simulated paths overflowed to infinite or NaN values")
    return PathBundle(time_grid, values)


def empirical_cf(samples: np.ndarray, u_grid) -> np.ndarray:
    """(1/N) sum of e^{i u X} per frequency."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    return np.exp(1j * np.outer(u, samples)).mean(axis=1)


def cf_distance(samples, t: TripletStack, horizon: float, u_grid) -> float:
    """Sup over the grid of |empirical cf - exp(T psi)| for a one-row stack."""
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    emp = empirical_cf(samples, u)
    model = np.exp(horizon * levy_exponent(t, u)[0])
    return float(np.max(np.abs(emp - model)))


def marginal_ks(samples, reference_cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against a reference CDF.

    The lower term uses the left limit F(x-), so the statistic is valid for
    reference laws with atoms.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = np.asarray(reference_cdf(x), dtype=float)
    cdf_left = np.asarray(reference_cdf(np.nextafter(x, -np.inf)), dtype=float)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf_left - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def gaussian_cdf(mean: float, variance: float) -> Callable[[np.ndarray], np.ndarray]:
    if variance <= 0:
        return lambda x: (np.asarray(x, float) >= mean).astype(float)
    scale = math.sqrt(variance)
    # bit for bit scipy.stats.norm.cdf(x, loc=mean, scale=scale)
    return lambda x: special.ndtr((np.asarray(x, float) - mean) / scale)


def poisson_head(rate: float, tail: float) -> Tuple[np.ndarray, np.ndarray]:
    """The counts 0, ..., K + 1, K the Poisson(rate) quantile at 1 - tail, and their
    probabilities, bit for bit as ``scipy.stats.poisson``'s ppf and pmf."""
    q = 1.0 - tail
    k = np.ceil(special.pdtrik(q, rate))
    below = max(k - 1.0, 0.0)  # pdtrik inverts a continuous extension
    if special.pdtr(below, rate) >= q:
        k = below
    ks = np.arange(int(k) + 2)
    return ks, np.exp(special.xlogy(ks, rate) - special.gammaln(ks + 1) - rate)


def marginal_cdf(t: TripletStack, horizon: float, x0: float = 0.0):
    """Closed-form terminal CDF of a one-row stack, for Gaussian or small
    atomic-jump triplets.

    Supported: no jumps (Gaussian), or c = 0 with at most 3 atoms (compound
    Poisson via enumeration of jump counts).  Returns None otherwise.
    """
    if t.dimension != 1 or any(t.F.pieces):
        return None
    b, c = float(t.b[0, 0]), float(t.c[0, 0, 0])
    x, w = t.F.jump_profile(0)
    atoms = list(zip(x[:, 0].tolist(), w.tolist()))
    if not atoms:
        return gaussian_cdf(x0 + b * horizon, c * horizon)
    if c != 0.0 or len(atoms) > 3:
        return None
    # compensated drift: compound Poisson shifted by b*T minus the truncation
    # compensator of each atom
    shift = x0 + b * horizon
    for x, w in atoms:
        if abs(x) <= 1.0:
            shift -= w * x * horizon

    supports = []
    for x, w in atoms:
        ks, pmf = poisson_head(w * horizon, 1e-12)
        supports.append((x * ks, pmf))
    points = np.array([0.0])
    probs = np.array([1.0])
    for vals, pmf in supports:
        points = (points[:, None] + vals[None, :]).ravel()
        probs = (probs[:, None] * pmf[None, :]).ravel()
    order = np.argsort(points)
    points, probs = points[order] + shift, probs[order]
    cum = np.cumsum(probs)

    def cdf(x):
        idx = np.searchsorted(points, np.asarray(x, dtype=float), side="right")
        return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)

    return cdf


@dataclass(frozen=True)
class ConvergenceReport:
    n_schedule: Tuple[int, ...]
    cf_distances: Tuple[float, ...]
    ks_distances: Tuple[Optional[float], ...]


def convergence_experiment(
    seq: TripletSequence,
    target: TripletStack,
    cfg: SimulationConfig,
    u_grid,
) -> ConvergenceReport:
    """Simulate terminal marginals along the sequence and compare to a target law."""
    cdf = marginal_cdf(target, cfg.horizon)
    cfs, kss = [], []
    for i, n in enumerate(seq.n_schedule):
        bundle = simulate_paths(seq.stack.row(i), 0.0, replace(cfg, seed=cfg.seed + n))
        term = bundle.terminal
        cfs.append(cf_distance(term, target, cfg.horizon, u_grid))
        kss.append(marginal_ks(term, cdf) if cdf is not None else None)
    return ConvergenceReport(seq.n_schedule, tuple(cfs), tuple(kss))
