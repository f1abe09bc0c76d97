"""Sequence diagnostics: exponent limits, diffusion-creation detection,
limit-triplet identification and closedness probes for triplet families.

The double limit "lim over delta of limsup over n" is approximated by the max
over the tail of the n-schedule and a power-law extrapolation over delta; both
surrogates are recorded in the returned reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import least_squares, lsq_linear

from .measures import MeasureStack, row_norm
from .triplets import (
    FeatureMapConfig,
    ThetaFamily,
    TripletStack,
    condition_b_value,
    delta_schedule_floats,
    jump_exponent,
    levy_exponent,
    measure_features,
    modified_triplet,
    small_jump_second_moment,
)

DEFAULT_N_SCHEDULE = (10, 100, 1_000, 10_000, 100_000)
DEFAULT_DELTA_SCHEDULE = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01)
TOL_D = 1e-3
DIFFUSION_FAIL_FACTOR = 10.0
TAIL_LENGTH = 3
MEMBERSHIP_TOL = 1e-6


def default_u_grid(extent: float = 2.0, count: int = 42) -> np.ndarray:
    """Symmetric frequency grid on [-extent, extent] avoiding 0."""
    u = np.linspace(-extent, extent, count)
    return u[np.abs(u) > 1e-12]


def n_schedule_ints(n_schedule: Sequence[int]) -> Tuple[int, ...]:
    """The schedule as ints; it must be nonempty, positive and increasing."""
    sched = tuple(int(n) for n in n_schedule)
    if not sched or sched[0] < 1 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError("n_schedule must be increasing positive integers")
    return sched


@dataclass(frozen=True)
class TripletSequence:
    """A sequence n -> (b_n, c_n, F_n) on a fixed n-schedule: the triplets
    at the scheduled n as one stack, row i at ``n_schedule[i]``."""

    n_schedule: Tuple[int, ...]
    stack: TripletStack

    def __post_init__(self):
        object.__setattr__(self, "n_schedule", n_schedule_ints(self.n_schedule))
        if len(self.stack) != len(self.n_schedule):
            raise ValueError("the stack must hold one row per scheduled n")

    @staticmethod
    def from_map(index_map: Callable[[int], TripletStack], n_schedule=DEFAULT_N_SCHEDULE):
        """The sequence of ``index_map``'s one-row stacks at each scheduled n,
        packed once."""
        sched = n_schedule_ints(n_schedule)
        return TripletSequence(sched, TripletStack.pack([index_map(n) for n in sched]))

    def condition_b_bound(self) -> float:
        """Max of the boundedness functional over the schedule (recorded bound)."""
        return float(condition_b_value(self.stack).max())


@dataclass(frozen=True)
class ExponentProfile:
    """psi_n(u) on the schedule: ``values`` is (U, N), one row per frequency
    in ``u``; ``limit`` is its last column and ``error`` the modulus of its
    last difference (0 for a one-entry schedule)."""

    n_schedule: Tuple[int, ...]
    u: np.ndarray
    values: np.ndarray
    limit: np.ndarray
    error: np.ndarray


def exponent_limit_profile(seq: TripletSequence, u_grid) -> ExponentProfile:
    """Evaluate psi_n on the schedule and extrapolate the pointwise limit."""
    u_grid = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if u_grid.size == 0:
        raise ValueError("u_grid must be nonempty")
    values = levy_exponent(seq.stack, u_grid).T
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise RuntimeError(f"non-finite exponent at u={u_grid[np.argmin(finite)]}")
    last = values[:, -1]
    error = np.abs(last - values[:, -2]) if values.shape[1] > 1 else np.zeros(u_grid.size)
    return ExponentProfile(seq.n_schedule, u_grid, values, last, error)


@dataclass(frozen=True)
class DiffusionReport:
    estimate: float
    verdict: str  # purely-discontinuous-limit | diffusion-created | inconclusive
    profile: Tuple[Tuple[float, float], ...]  # (delta, tail sup of T * mass)
    moments: np.ndarray  # (delta, n): the small-jump second moment of each row


def diffusion_creation_diagnostic(
    seq: TripletSequence,
    delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE,
    horizon: float = 1.0,
) -> DiffusionReport:
    """Numerical surrogate for the small-jump double-limit criterion."""
    deltas = delta_schedule_floats(delta_schedule)
    moments = np.array([small_jump_second_moment(seq.stack.F, d) for d in deltas])
    profile = [(d, float((horizon * row[-TAIL_LENGTH:]).max())) for d, row in zip(deltas, moments)]
    estimate = _extrapolate_delta_profile(profile)
    if estimate <= TOL_D:
        verdict = "purely-discontinuous-limit"
    elif estimate >= DIFFUSION_FAIL_FACTOR * TOL_D:
        verdict = "diffusion-created"
    else:
        verdict = "inconclusive"
    return DiffusionReport(float(estimate), verdict, tuple(profile), moments)


def _extrapolate_delta_profile(profile) -> float:
    """Value at the smallest delta, corrected by a fitted power-law decay."""
    values = np.array([v for _, v in profile])
    deltas = np.array([d for d, _ in profile])
    last = values[-1]
    if last <= 0.0:
        return 0.0
    if np.any(values <= 0.0):
        return float(last)
    slope = np.polyfit(np.log(deltas), np.log(values), 1)[0]
    if slope > 0.2:
        # decaying profile: the delta -> 0 limit of A * delta^p is 0
        return 0.0
    return float(last)


@dataclass(frozen=True)
class LimitStructure:
    """Candidate parametric form for the limit: drift + diffusion + fixed atoms."""

    atom_locations: Tuple[float, ...] = ()


def limit_triplet_identify(
    profile: ExponentProfile, structure: LimitStructure = LimitStructure()
) -> Tuple[TripletStack, float]:
    """Least-squares fit of a one-dimensional exponent to the extrapolated
    limit; the fitted triplet is a one-row stack.

    The exponent is affine in (b, c, atom weights) for fixed atom locations, so
    the fit is linear with sign constraints c >= 0 and weights >= 0.
    """
    u = profile.u
    target = profile.limit
    locs = np.asarray(structure.atom_locations, dtype=float)
    n_params = 2 + locs.size
    if 2 * u.size < n_params:
        raise ValueError("underdetermined fit: fewer frequencies than parameters")
    # columns: b, c, w_1..w_k; rows: Re then Im of psi on the grid
    a_re = np.zeros((u.size, n_params))
    a_im = np.zeros((u.size, n_params))
    a_im[:, 0] = u
    a_re[:, 1] = -0.5 * u**2
    jumps = jump_exponent(u, locs).T
    a_re[:, 2:], a_im[:, 2:] = jumps.real, jumps.imag
    A = np.vstack([a_re, a_im])
    rhs = np.concatenate([target.real, target.imag])
    params = np.linalg.lstsq(A, rhs, rcond=None)[0]
    if np.any(params[1:] < -1e-9):
        # sign constraints active: solve the bounded problem instead
        lb = np.full(n_params, -np.inf)
        lb[1:] = 0.0
        sol = lsq_linear(A, rhs, bounds=(lb, np.full(n_params, np.inf)), tol=1e-14)
        params = sol.x
    params[1:] = np.maximum(params[1:], 0.0)
    kept = params[2:] > 0
    F = MeasureStack(1, locs[kept][None, :, None], params[2:][kept][None])
    fitted = TripletStack(params[None, :1], params[None, 1:2, None], F)
    model = A @ params
    resid_c = (model[: u.size] - target.real) + 1j * (model[u.size :] - target.imag)
    residual = float(np.max(np.abs(resid_c)))
    return fitted, residual


@dataclass(frozen=True)
class ClosednessReport:
    limit_in_set: str  # yes | no | inconclusive
    witness_params: Optional[np.ndarray]  # NaN where free (see project_to_family)
    distance: Optional[float]  # None when nothing was projected
    # one entry per projection run: scan size and each polish's status
    projections: Tuple[dict, ...] = ()


_PROBE_FEATURES = FeatureMapConfig(m_max=3, u_grid=(np.array([0.5]), np.array([1.0]), np.array([2.0])))
IDENTIFICATION_RESIDUAL_CAP = 0.1
# grid points per parameter of the projection's coarse scan
SCAN_RESOLUTION = 17
# a parameter whose box spans more than this ratio is log-scaled
LOG_SCALE_RATIO = 100.0
# forward-difference step and termination tolerances of the polish, in unit
# coordinates
FD_STEP = np.sqrt(np.finfo(float).eps)
POLISH_TOL = 1e-15


def _distances(st: TripletStack, t, t_features: np.ndarray) -> np.ndarray:
    """|b - b_t| + |c - c_t|_F + |features - features_t| for each row of st;
    t's b and c, and t_features, are a one-row stack's or one per row of st."""
    P, d = st.b.shape
    return (
        row_norm(st.b - t.b)
        + row_norm((st.c - t.c).reshape(P, d * d))
        + row_norm(measure_features(st.F, _PROBE_FEATURES) - t_features)
    )


def _unit_map(lows: np.ndarray, highs: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Map of the unit box onto the parameter box, one scale per parameter.

    A parameter is geometric in its unit coordinate where 0 < lo and hi / lo
    exceeds LOG_SCALE_RATIO, ``expm1(u * log1p(hi))`` where lo = 0 and hi
    exceeds LOG_SCALE_RATIO, and linear otherwise.  0 and 1 map to lo and hi
    exactly.
    """
    ratio = np.divide(highs, lows, out=np.ones_like(lows), where=lows > 0)
    geometric = (lows > 0) & (ratio > LOG_SCALE_RATIO)
    log1p_scaled = (lows == 0) & (highs > LOG_SCALE_RATIO)
    rate = np.where(geometric, np.log(ratio), np.log1p(np.where(log1p_scaled, highs, 0.0)))

    def to_box(S):
        S = np.clip(S, 0.0, 1.0)
        p = np.where(
            geometric,
            lows * np.exp(S * rate),
            np.where(log1p_scaled, np.expm1(S * rate), lows + S * (highs - lows)),
        )
        return np.where(S == 1.0, highs, p)

    return to_box


def project_to_family(
    fam: ThetaFamily,
    target: TripletStack,
    use_u_map: bool = False,
) -> Tuple[np.ndarray, float, dict]:
    """Nearest family member to a one-row stack (optionally through the
    modified-triplet map).

    Works in unit coordinates (see ``_unit_map``: boxes spanning more than
    two decades are log-scaled).  A coarse 17^n scan of the unit box is
    priced as one stack.  From each of the best three scan cells, bounded
    trust-region least squares ('trf', Branch, Coleman & Li 1999) minimises
    the residual vector (b - b_t, c - c_t, features - features_t) of one
    row; each forward-difference Jacobian is one stack of n + 1 rows.  A
    start is skipped when its scan value ties bitwise with an earlier
    start's, or when an earlier polish ended within one scan cell of it.
    The distance is ``_distances`` at the best point found.  A parameter
    whose column of the residual's Jacobian is exactly 0 there is free (the
    residual does not move along it, so every value of it is as near) and
    is returned as NaN; the Jacobian is the polish's own where the best
    point ends a polish, and one more stack of n + 1 rows where it is a
    scan point.  Returns the parameters, the distance, and a log entry with
    the number of scan points and each polish's status, nit (Jacobian
    evaluations) and nfev (rows priced).
    """
    lows = np.array([lo for lo, _ in fam.parameter_box])
    highs = np.array([hi for _, hi in fam.parameter_box])
    to_box = _unit_map(lows, highs)
    t_features = measure_features(target.F, _PROBE_FEATURES)
    t_c = target.c.reshape(-1)

    def members(S):
        st = fam.stack(to_box(S))
        return modified_triplet(st) if use_u_map else st

    priced = [0]  # rows priced by the current polish

    def residuals(S):
        priced[0] += len(S)
        st = members(S)
        return np.hstack([
            st.b - target.b,
            st.c.reshape(len(S), -1) - t_c,
            measure_features(st.F, _PROBE_FEATURES) - t_features,
        ])

    def jacobian(s):
        # forward differences, stepping back from the upper bound
        step = np.where(s + FD_STEP <= 1.0, FD_STEP, -FD_STEP)
        r = residuals(np.vstack([s, s + np.diag(step)]))
        return ((r[1:] - r[0]) / step[:, None]).T

    n_params = len(lows)
    cell = 1.0 / (SCAN_RESOLUTION - 1)
    axes = [np.linspace(0.0, 1.0, SCAN_RESOLUTION)] * n_params
    scan = np.array(np.meshgrid(*axes, indexing="ij")).reshape(n_params, -1).T
    values = _distances(members(scan), target, t_features)
    order = np.argsort(values)
    best_s, best_v, best_jac = scan[order[0]], float(values[order[0]]), None
    polish, start_values, ends = [], [], []
    for idx in order[:3]:
        if best_v <= 0.1 * MEMBERSHIP_TOL:
            break
        start = scan[idx]
        repeated = values[idx] in start_values or any(
            np.max(np.abs(start - end)) <= cell for end in ends
        )
        start_values.append(values[idx])
        if repeated:
            continue
        priced[0] = 0
        res = least_squares(
            lambda s: residuals(s[None])[0],
            start,
            jac=jacobian,
            bounds=(0.0, 1.0),
            method="trf",
            ftol=POLISH_TOL,
            xtol=POLISH_TOL,
            gtol=POLISH_TOL,
        )
        polish.append({"status": int(res.status), "nit": int(res.njev), "nfev": priced[0]})
        ends.append(res.x)
        v = float(_distances(members(res.x[None]), target, t_features)[0])
        if v < best_v:
            best_s, best_v, best_jac = res.x, v, res.jac
    if best_jac is None:
        best_jac = jacobian(best_s)
    params = to_box(best_s[None])[0]
    params[~best_jac.any(axis=0)] = np.nan
    return params, best_v, {"scan_points": len(scan), "polish": polish}


def closedness_probe(
    fam: ThetaFamily,
    seq: TripletSequence,
    use_u_map: bool,
    profile: ExponentProfile,
    identified: Tuple[TripletStack, float],
    param_map: Optional[Callable[[int], np.ndarray]] = None,
) -> ClosednessReport:
    """Test whether the identified sequence limit stays in the family.

    ``profile`` is the sequence's exponent profile and ``identified`` the
    (triplet, fit residual) that ``limit_triplet_identify`` fitted to it.
    With ``use_u_map`` the modified-triplet map is applied to both the
    identified limit and the family before the membership test.  When
    ``param_map`` gives the family parameters of each scheduled triplet, the
    membership precheck uses that inversion, and a scheduled n whose
    parameters leave the box is a ValueError; otherwise it projects onto the
    box.  The membership tolerance widens with the extrapolation error of the
    exponent profile, since the identified limit is only that accurate.
    """
    log: list = []
    # precheck: the first and last scheduled triplets must (numerically) lie
    # in the family; with a param_map, their members are priced as one stack
    # (which checks the rows' width), and every scheduled row must lie in the box
    ends = [0, -1]
    if param_map is not None:
        mapped = np.array([param_map(n) for n in seq.n_schedule])
        members = fam.stack(mapped[ends])
        lows, highs = np.array(fam.parameter_box).T
        outside = np.argwhere(~((mapped >= lows) & (mapped <= highs)))
        if len(outside):
            i, j = outside[0].tolist()
            raise ValueError(
                f"param_map at n = {seq.n_schedule[i]} puts parameter {j} at "
                f"{mapped[i, j].item()!r}, outside its bounds {list(fam.parameter_box[j])}")
        rows = SimpleNamespace(b=seq.stack.b[ends], c=seq.stack.c[ends])
        dists = _distances(members, rows, measure_features(seq.stack.F, _PROBE_FEATURES)[ends])
    for k, i in enumerate(ends):
        if param_map is None:
            _, dist, entry = project_to_family(fam, seq.stack.row(i))
            log.append(entry)
        else:
            dist = dists[k]
        if dist > 1e-8:
            return ClosednessReport("inconclusive", None, float(dist), tuple(log))
    limit, fit_residual = identified
    if fit_residual > IDENTIFICATION_RESIDUAL_CAP:
        return ClosednessReport("inconclusive", None, None, tuple(log))
    target = modified_triplet(limit) if use_u_map else limit
    params, dist, entry = project_to_family(fam, target, use_u_map=use_u_map)
    log.append(entry)
    tol = MEMBERSHIP_TOL + 3.0 * (float(profile.error.max()) + fit_residual)
    verdict = "yes" if dist <= tol else "no"
    return ClosednessReport(verdict, params, float(dist), tuple(log))
