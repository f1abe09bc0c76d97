"""Semimartingale optimal transport on one-dimensional Levy-driven instances.

The dual side solves the HJB partial integro-differential equation backward in
time (implicit upwinded drift/diffusion, explicit jump integral) and ascends
over clipped quadratic terminal potentials; the gradient of the dual
value is the terminal law of the optimally controlled process minus the target
marginal, transported forward by the adjoint of the backward scheme.  The
discrete problem, the affine family on a grid with its running cost, is one
workspace: it fits the cost once, on construction, as a quadratic in the
controls at every (step, node) and checks the fit at off-probe points.  Each
backward step minimizes the discrete Hamiltonian per node, one control
coordinate at a time, in closed form: the drift, diffusion and jump terms are
linear in each coordinate, so the minimizer is a clipped vertex (one per
stencil branch under the ``auto`` stencil).  Only the cells whose cost fails
the check fall back to golden section on the exact cost.  The primal side
fits the mean of a deterministic piecewise-constant control schedule to the
target's characteristic function by bounded linear least squares, then
spreads it over the steps at least cost with that mean held.

Each backward step runs in place on the step buffers of its stack's shape,
(n,) for one value vector and (B, n) for a batched sweep: it gathers each
jump location's part S_j v - v, forms the difference quotients, sets each
control coordinate to its argmin, calls the cost once at the chosen
controls, adds the clipped jump weights' source, writes the three rows of
the implicit system and solves it with gtsv in place on the values.  Every
operation writes into a buffer made once, with the arithmetic of forming
each term afresh, so the bits are those of a step that allocates them.

Control families must have affine parameter-to-characteristics maps with
fixed jump locations (verified numerically); this covers product-box families
whose drift, diffusion and jump weights are affine in the parameters.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.optimize import lsq_linear, minimize

from .exprs import Expression, ExpressionError, compile_expr
from .measures import truncate
from .triplets import (
    ThetaFamily,
    family_checks,
    jump_exponent,
)
from . import montecarlo as mc

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DUAL_BOUND_DEFAULT = 50.0
FEASIBILITY_TOL = 1e-9
GAP_ALLOWANCE_REL = 0.02
# the primal schedule: constant controls on PRIMAL_STEPS equal steps, whose mean
# is held along the fit's singular vectors above PRIMAL_RANK_TOL * the largest
PRIMAL_STEPS = 20
PRIMAL_U_GRID = np.linspace(-5.0, 5.0, 41)
PRIMAL_U_GRID.setflags(write=False)
PRIMAL_RANK_TOL = 1e-10
INFEASIBLE_DUAL_CAP = 1e3
# L-BFGS-B polish of the best warm-start quadratic over its two coefficients
POLISH_MAXITER = 60
POLISH_FTOL = 1e-12
POLISH_GTOL = 1e-6
# the potentials the dual ascent searches, as its report names them
POTENTIAL_CLASS = "clip(a*x^2 + d*x, -bound, bound), mollified by smoothing"
# relative error of the affine parameter-to-characteristics fit at the box
# midpoint above which a family is rejected
AFFINE_CHECK_TOL = 1e-8
# grid resolution and delta schedule of the family checks on an instance
FAMILY_CHECK_RESOLUTION = 5
FAMILY_CHECK_DELTAS = (0.4, 0.2, 0.1)
# a cell's cost model holds where it matches L within this relative error
QUADRATIC_FIT_TOL = 1e-9
# offset, as a share of the box, of the candidates on either side of an
# auto-stencil split point
SPLIT_STEP = 2.0**-40


class CFLError(RuntimeError):
    """Explicit jump part violates the stability bound dt * intensity <= 1."""


class StateDependentCostError(ValueError):
    """The deterministic primal solver requires a state-independent cost."""


# ---------------------------------------------------------------------------
# marginals


@dataclass(frozen=True)
class Marginal:
    """Initial/terminal marginal: point mass, Gaussian, or weights on a grid."""

    kind: str  # point-mass | gaussian | grid-density
    location: float = 0.0
    mean: float = 0.0
    variance: float = 1.0
    points: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("point-mass", "gaussian", "grid-density"):
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        for name in ("location", "mean", "variance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"marginal {name} = {getattr(self, name)!r} must be finite")
        if self.kind == "gaussian" and self.variance <= 0:
            raise ValueError("gaussian marginal needs positive variance")
        if self.kind == "grid-density":
            pts = np.asarray(self.points, dtype=float)
            wts = np.asarray(self.weights, dtype=float)
            if pts.shape != wts.shape or pts.ndim != 1:
                raise ValueError("grid-density needs matching 1-d points/weights")
            for name, values in (("points", pts), ("weights", wts)):
                if not np.isfinite(values).all():
                    raise ValueError(f"marginal {name} must be finite")
            if np.any(wts < 0):
                raise ValueError("weights must be nonnegative")
            if abs(wts.sum() - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1 within 1e-12")
            order = np.argsort(pts)
            pts, wts = pts[order].copy(), wts[order].copy()
            pts.setflags(write=False)
            wts.setflags(write=False)
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "weights", wts)

    @staticmethod
    def point(location: float) -> "Marginal":
        return Marginal("point-mass", location=float(location))

    @staticmethod
    def gaussian(mean: float, variance: float) -> "Marginal":
        return Marginal("gaussian", mean=float(mean), variance=float(variance))

    @staticmethod
    def discrete(points, weights) -> "Marginal":
        return Marginal("grid-density", points=np.asarray(points, float),
                        weights=np.asarray(weights, float))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n independent draws."""
        if self.kind == "point-mass":
            return np.full(n, self.location)
        if self.kind == "gaussian":
            return self.mean + math.sqrt(self.variance) * rng.standard_normal(n)
        return rng.choice(self.points, size=n, p=self.weights)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "point-mass":
            return (x >= self.location).astype(float)
        if self.kind == "gaussian":
            return mc.gaussian_cdf(self.mean, self.variance)(x)
        idx = np.searchsorted(self.points, x, side="right")
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        return cum[idx]

    def cf(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "point-mass":
            return np.exp(1j * u * self.location)
        if self.kind == "gaussian":
            return np.exp(1j * u * self.mean - 0.5 * self.variance * u**2)
        return np.exp(1j * np.outer(u, self.points)) @ self.weights

    def grid_weights(self, x_grid: np.ndarray) -> np.ndarray:
        """Project the marginal onto grid nodes, preserving total mass."""
        x_grid = np.asarray(x_grid, dtype=float)
        if self.kind == "gaussian":
            mids = np.concatenate([[-np.inf], 0.5 * (x_grid[1:] + x_grid[:-1]), [np.inf]])
            return np.diff(self.cdf(mids))
        pts = (
            np.array([self.location]) if self.kind == "point-mass" else self.points
        )
        wts = np.array([1.0]) if self.kind == "point-mass" else self.weights
        out = np.zeros_like(x_grid)
        pos = np.clip(np.searchsorted(x_grid, pts) - 1, 0, x_grid.size - 2)
        frac = np.clip(
            (pts - x_grid[pos]) / (x_grid[pos + 1] - x_grid[pos]), 0.0, 1.0
        )
        np.add.at(out, pos, wts * (1.0 - frac))
        np.add.at(out, pos + 1, wts * frac)
        return out


# ---------------------------------------------------------------------------
# cost functions and instances


@dataclass(frozen=True)
class CostFunction:
    """Running cost L(t, x, p): an expression in t, x and a family's
    parameter names, where p is the parameter vector in that order.

    A call broadcasts over numpy arrays: x of shape (M,) with p of shape
    (n_params,) or (M, n_params) returns shape (M,).  t is a float or an
    array that broadcasts against x, such as one time per entry of x.
    """

    source: str
    param_names: Tuple[str, ...]
    expr: Expression = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        variables = ("t", "x") + tuple(self.param_names)
        object.__setattr__(self, "expr", compile_expr(self.source, variables))

    @property
    def reads_state(self) -> bool:
        """Whether the expression names x, even as 0 * x."""
        return "x" in self.expr.reads

    def __call__(self, t: float, x, p):
        x = np.asarray(x, float)
        p = np.asarray(p, float)
        k = len(self.param_names)
        params = p[:k].tolist() if p.ndim == 1 else [p[..., i] for i in range(k)]
        values = np.empty(x.shape)
        values[...] = self.expr.positional(t, x, *params)
        return values


@dataclass(frozen=True)
class TransportInstance:
    """Marginals, a control family (d = 1) and a running cost; horizon 1."""

    mu0: Marginal
    mu1: Marginal
    fam: ThetaFamily
    cost: CostFunction

    def validate(self) -> None:
        checks = family_checks(self.fam, FAMILY_CHECK_DELTAS, FAMILY_CHECK_RESOLUTION)
        if checks.points.dimension != 1:
            raise ValueError("transport instances must be one-dimensional")
        if not checks.condition_b.finite_flag:
            raise ValueError("family violates the boundedness condition")
        verdict = checks.condition_j.verdict
        if verdict != "holds":
            raise ValueError(f"family small-jump condition verdict {verdict!r}; need 'holds'")


# ---------------------------------------------------------------------------
# affine family structure shared by the HJB and primal solvers


@dataclass(frozen=True)
class _AffineFamily:
    """Characteristics as affine functions of the parameter vector.

    b(p) = b0 + Bp, c(p) = c0 + Cp, jump weights w_j(p) = w0_j + (Wp)_j with
    fixed jump locations.  Verified numerically against the triplet map.
    """

    lows: np.ndarray
    highs: np.ndarray
    b0: float
    b_lin: np.ndarray
    c0: float
    c_lin: np.ndarray
    locations: np.ndarray
    w0: np.ndarray
    w_lin: np.ndarray  # (n_locations, n_params)

    @property
    def n_params(self) -> int:
        return self.lows.size

    def weights(self, p: np.ndarray) -> np.ndarray:
        # p: (M, n_params) -> (M, n_locations)
        return self.w0 + p @ self.w_lin.T

    def max_intensity(self) -> float:
        corners = np.array(
            np.meshgrid(*zip(self.lows, self.highs), indexing="ij")
        ).reshape(self.n_params, -1).T
        if self.locations.size == 0:
            return 0.0
        return float(np.max(np.sum(self.weights(corners), axis=1)))


def _align_profile(
    union: np.ndarray, locs: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Scatter a (locations, weights) profile onto the nearest locations of
    the union; a location that moves with the parameters fails the affine
    check."""
    out = np.zeros(union.size)
    if locs.size:
        np.add.at(out, np.abs(union[:, None] - locs).argmin(axis=0), w)
    return out


def affine_family_structure(fam: ThetaFamily) -> _AffineFamily:
    """Extract and verify the affine parameter-to-characteristics structure.

    The fit reads the low corner and each parameter at its high end with
    the others low.  The check reads the box midpoint, the quarter points
    of each parameter's edge and, with several parameters, the quarter
    points and far end of each pair's diagonal from the low corner: five
    collinear probes per edge reject a characteristic that is a non-affine
    polynomial of degree 4 or less along it.  All probes are one stack;
    each row's jump profile is scattered onto the union of their locations.
    """
    lows = np.array([lo for lo, _ in fam.parameter_box])
    highs = np.array([hi for _, hi in fam.parameter_box])
    n_p = lows.size
    ends = np.where(np.eye(n_p, dtype=bool), highs, lows)
    edges = ends - lows
    quarters = np.array([0.25, 0.5, 0.75])[:, None]
    checks = [0.5 * (lows + highs)] + [lows + quarters * e for e in edges] + [
        lows + np.append(quarters, 1.0)[:, None] * (edges[i] + edges[j])
        for i, j in itertools.combinations(range(n_p), 2)]
    probes = np.vstack([lows, ends] + checks)
    st = fam.stack(probes)
    b, c = st.b[:, 0], st.c[:, 0, 0]
    profiles = [st.F.jump_profile(k) for k in range(len(st))]
    union = np.sort(np.concatenate([x[:, 0] for x, _ in profiles]))
    if union.size:
        union = union[np.concatenate([[True], np.diff(union) > 1e-12])]
    aligned = np.array([_align_profile(union, x[:, 0], w) for x, w in profiles])
    w0 = aligned[0]

    span = highs - lows
    live = span > 0
    fit = slice(1, 1 + n_p)
    b_lin = np.zeros(n_p)
    c_lin = np.zeros(n_p)
    w_lin = np.zeros((union.size, n_p))
    b_lin[live] = (b[fit][live] - b[0]) / span[live]
    c_lin[live] = (c[fit][live] - c[0]) / span[live]
    w_lin[:, live] = ((aligned[fit][live] - w0) / span[live, None]).T
    aff = _AffineFamily(
        lows, highs,
        float(b[0]) - float(lows @ b_lin), b_lin,
        float(c[0]) - float(lows @ c_lin), c_lin,
        union, w0 - w_lin @ lows, w_lin,
    )
    # verify affinity at every check probe
    rest = slice(1 + n_p, None)
    P = probes[rest]
    pred_b, pred_c = aff.b0 + P @ b_lin, aff.c0 + P @ c_lin
    scale = 1.0 + np.abs(pred_b) + np.abs(pred_c) + np.max(
        np.abs(aligned[rest]), axis=1, initial=0.0)
    err = np.abs(pred_b - b[rest]) + np.abs(pred_c - c[rest]) + np.max(
        np.abs(aff.weights(P) - aligned[rest]), axis=1, initial=0.0)
    if (err > AFFINE_CHECK_TOL * scale).any():
        raise NotImplementedError(
            "HJB/primal solvers require characteristics affine in the parameters"
        )
    return aff


# ---------------------------------------------------------------------------
# backward HJB solve


@dataclass(frozen=True)
class HJBGridConfig:
    x_min: float = -6.0
    x_max: float = 6.0
    n_x: int = 240  # intervals on the reported domain
    n_t: int = 100
    pad: float = 6.0  # grid extension on each side, same spacing
    # "auto" keeps the scheme monotone: central drift where c >= |b| h
    # (M-matrix preserved), first-order upwind elsewhere.  "central" forces
    # the second-order stencil everywhere; use it for drift-dominated jump
    # instances where upwind smearing would bias the value, at the price of
    # losing the comparison principle.
    drift_stencil: str = "auto"

    def __post_init__(self):
        if self.drift_stencil not in ("auto", "central"):
            raise ValueError(f"unknown drift stencil {self.drift_stencil!r}")
        for name in ("x_min", "x_max", "pad"):
            mc.check_number(name, getattr(self, name))
        for name in ("n_x", "n_t"):
            mc.check_number(name, getattr(self, name), integer=True)
        if not (self.n_x >= 1 and self.n_t >= 1):
            raise ValueError(f"n_x = {self.n_x!r} and n_t = {self.n_t!r} must be positive integers")
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max = {self.x_max} must exceed x_min = {self.x_min}")
        if not self.pad >= 0:
            raise ValueError(f"pad = {self.pad} must be nonnegative")

    def build_grid(self) -> Tuple[np.ndarray, int, int]:
        """Padded grid plus the slice [i0, i1] covering the reported domain."""
        h = (self.x_max - self.x_min) / self.n_x
        n_pad = int(round(self.pad / h))
        lo = self.x_min - n_pad * h
        n_total = self.n_x + 2 * n_pad
        grid = lo + h * np.arange(n_total + 1)
        return grid, n_pad, n_pad + self.n_x


@dataclass(frozen=True)
class ValueGrid:
    x_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray  # (n_t + 1, n_nodes)
    controls: np.ndarray  # (n_t, n_nodes, n_params)
    report_slice: Tuple[int, int]
    # each step's implicit system, for the adjoint sweep
    systems: "_StepSystems" = field(repr=False, compare=False)

    def initial(self) -> np.ndarray:
        return self.values[0]


def _lincomb(coefs, arrays, out=None):
    """coefs[0] * arrays[0] + coefs[1] * arrays[1] + ..., summed in order,
    into ``out`` when given.

    Elementwise, so every entry gets the same arithmetic at any array shape;
    a BLAS product would not promise that across batch sizes.
    """
    out = np.multiply(coefs[0], arrays[0], out=out)
    for j in range(1, len(arrays)):
        out += coefs[j] * arrays[j]
    return out


def _params(P: np.ndarray) -> List[np.ndarray]:
    return [P[..., i] for i in range(P.shape[-1])]


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system with LAPACK gtsv, in place on all four
    arrays.

    Raises LinAlgError on a singular matrix and ValueError on a non-finite
    solution, the exception types of ``scipy.linalg.solve_banded``.
    """
    *_, x, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if not np.logical_and.reduce(np.isfinite(x)):  # x.all() with less overhead
        raise ValueError("HJB step produced infs or NaNs")
    return x


@dataclass(frozen=True)
class _QuadraticCost:
    """A running cost as a quadratic in the controls at each (step, node).

    L(t_k, x_n, mid + d) = L(t_k, x_n, mid) + g[k, n] . d + d . hess[k, n] . d / 2
    where ``ok[k, n]``; elsewhere the fit missed the cost at a check point.

    The parts of the argmin along coordinate i at step k that H's stencil
    terms do not change are formed once with the fit: half the curvature
    a[i, k], where it is ``convex`` (a > 0; ``all_convex[i, k]`` when at
    every node), the vertex's rate = -1 / (2a) there and 0 elsewhere, and
    the nodes ``bad[k]`` whose check failed.
    """

    mid: np.ndarray  # (n_params,)
    g: np.ndarray  # (n_t, n, n_params)
    hess: np.ndarray  # (n_t, n, n_params, n_params)
    ok: np.ndarray  # (n_t, n)
    a: np.ndarray  # (n_params, n_t, n)
    convex: np.ndarray  # (n_params, n_t, n)
    all_convex: np.ndarray  # (n_params, n_t)
    rate: np.ndarray  # (n_params, n_t, n)
    bad: Tuple[np.ndarray, ...]  # per step


def _fit_quadratic_cost(ws: "_HJBWorkspace", L: CostFunction) -> _QuadraticCost:
    """Probe L on the steps x nodes grid and fit a quadratic per cell.

    As ``affine_family_structure`` probes the characteristics: each
    coordinate at its low, mid and high value with the others at mid, each
    pair of coordinates at both highs for the cross term.  The fit is
    checked at each coordinate's quarter points and, with several
    coordinates, at every corner of the box and at the four quarter points
    of each pair's two diagonals, so that a kink between the probe lines
    and a corner is seen; one cost call per probe.
    """
    aff = ws.aff
    mid = 0.5 * (aff.lows + aff.highs)
    r = 0.5 * (aff.highs - aff.lows)
    n_p = aff.n_params
    active = [i for i in range(n_p) if r[i] > 0]
    t = np.repeat(ws.t_grid[:-1], ws.n)
    x = np.tile(ws.x_grid, ws.n_t)

    def offset(scales) -> np.ndarray:
        d = np.zeros(n_p)
        for i, scale in scales.items():
            d[i] = scale * r[i]
        return d

    def probe(d: np.ndarray) -> np.ndarray:
        p = np.broadcast_to(mid + d, (t.size, n_p))
        return L(t, x, p).reshape(ws.n_t, ws.n)

    g = np.zeros((ws.n_t, ws.n, n_p))
    hess = np.zeros((ws.n_t, ws.n, n_p, n_p))
    ok = np.ones((ws.n_t, ws.n), dtype=bool)
    if active:
        f0 = probe(np.zeros(n_p))
        f_hi = {}
        with np.errstate(all="ignore"):
            for i in active:
                f_lo, f_hi[i] = probe(offset({i: -1.0})), probe(offset({i: 1.0}))
                g[..., i] = (f_hi[i] - f_lo) / (2.0 * r[i])
                hess[..., i, i] = (f_lo - 2.0 * f0 + f_hi[i]) / r[i] ** 2
            for pos, i in enumerate(active):
                for j in active[pos + 1:]:
                    f_ij = probe(offset({i: 1.0, j: 1.0}))
                    hess[..., i, j] = hess[..., j, i] = (
                        (f_ij - f_hi[i] - f_hi[j] + f0) / (r[i] * r[j]))
            checks = [offset({i: s}) for i in active for s in (-0.5, 0.5)]
            if len(active) > 1:
                checks += [offset(dict(zip(active, signs)))
                           for signs in itertools.product((-1.0, 1.0), repeat=len(active))]
                checks += [offset({i: si, j: sj})
                           for pos, i in enumerate(active) for j in active[pos + 1:]
                           for si in (-0.5, 0.5) for sj in (-0.5, 0.5)]
            for d in checks:
                f = probe(d)
                fit = f0 + g @ d + 0.5 * ((hess @ d) @ d)
                ok &= np.abs(fit - f) <= QUADRATIC_FIT_TOL * (1.0 + np.abs(f))
    a = 0.5 * np.moveaxis(np.diagonal(hess, axis1=2, axis2=3), -1, 0)
    convex = a > 0
    return _QuadraticCost(
        mid, g, hess, ok, a, convex, convex.all(axis=-1),
        np.divide(-0.5, a, out=np.zeros_like(a), where=convex),
        tuple(np.flatnonzero(~row) for row in ok))


def _vertex_or_end(m, rate, convex, mid: float, lo: float, hi: float, out=None) -> np.ndarray:
    """argmin over [lo, hi] of a (s - mid)^2 + m (s - mid), mid the midpoint,
    given rate = -1 / (2a) where a > 0 (``convex``, None where a > 0 at
    every node): the clipped vertex there, else the lower end, lo on ties.
    Works in place on m, and writes into ``out`` (m when None)."""
    ends = None if convex is None else np.where(m >= 0, lo, hi)
    m *= rate
    m += mid
    out = m.clip(lo, hi, out=m if out is None else out)
    if ends is not None:
        out[...] = np.where(convex, out, ends)
    return out


def _lowest(S: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Per entry, the candidate of S (K, ...) with the lowest H, the first
    on ties."""
    return np.take_along_axis(S, np.argmin(H, axis=0)[None], axis=0)[0]


class _StepBuffers:
    """The arrays a backward step writes in place, for a stack of shape
    (n,), one value vector, or (B, n), a stack of B.

    ``V`` holds the values at t_{k+1} going into a step and those at t_k
    coming out, ``P`` the controls the step chose, ``rows`` the (dl, d, du)
    rows of its implicit system and ``weights`` its clipped jump weights,
    one block per jump location.  ``terms`` are the terms of H the
    controls read: the upwind and central difference quotients dp, dm and
    dc, the second difference d2v, and the jump parts j0 and jlin of
    J(p)v = j0 + sum_i p_i jlin_i.  A term the workspace does not form is
    None: dp and dm under the central stencil, d2v without diffusion, jlin
    without jumps, and j0 without jumps or under the central stencil, whose
    closed form does not read it (``_HJBWorkspace._terms_at`` forms it at
    the golden-section cells).  The rest are a step's intermediates and
    fixed views of the arrays, made once because a view costs about as
    much as an operation at this size.
    """

    def __init__(self, ws: "_HJBWorkspace", shape: Tuple[int, ...]):
        n, n_p, n_loc = ws.n, ws.aff.n_params, ws.aff.locations.size
        lead = shape[:-1]
        V = self.V = np.empty(shape)
        self.V_flat = V.reshape(-1)
        self.P = np.empty(shape + (n_p,))
        self.p = _params(self.P)
        self.x = np.broadcast_to(ws.x_grid, shape)  # the node of each entry
        # (minuend, subtrahend, out, divisor) of dc's interior and of its
        # two one-sided edges, columns (1, n - 1) less (0, n - 2) into
        # columns (0, n - 1); one column each, broadcast, when n = 2
        stride = max(n - 2, 1)
        dc = np.empty(shape)
        self.quotients = ((V[..., 2:], V[..., :-2], dc[..., 1:-1], np.asarray(2.0 * ws.h)),
                          (V[..., 1::stride], V[..., :n - 1:stride], dc[..., ::n - 1], ws.step_h))
        d2v = dp = dm = None
        if ws.diffusive:
            d2v = np.zeros(shape)  # linear-extrapolation ghosts: zero curvature at the padded edges
            self.curvature = (V[..., 2:], V[..., 1:-1], V[..., :-2], d2v[..., 1:-1])
        if not ws.central:
            # the forward differences, each end one repeated past it: dm
            # and dp are the differences left and right of each node
            diff = np.empty(lead + (n + 1,))
            dm, dp = diff[..., :-1], diff[..., 1:]
            self.differences = (V[..., 1:], V[..., :-1], diff[..., 1:-1], diff[..., ::n],
                                diff[..., 1:n:stride])
        j0 = jlin = None
        self.weights = np.empty((n_loc,) + shape)
        if n_loc:
            self.taps = np.empty(lead + ws.tap_index.shape)  # (n_locations, 2, n) per row
            self.tap_pair = (self.taps[..., 0, :], self.taps[..., 1, :])
            self.parts = np.empty(lead + (n_loc, n))  # S_j v - v per location
            self.parts_rows = [self.parts[..., j, :] for j in range(n_loc)]
            jlin = np.empty((n_p,) + shape)
            j0 = None if ws.central else np.empty(shape)  # only H itself reads it
            self.jlin_rows, self.weight_rows = list(jlin), list(self.weights)
        self.terms = (dp, dm, dc, d2v, j0, jlin)
        # two scratch arrays, each reused along a step: H's slope, then the
        # jump source, then the drift b; the vertex argument m, then b's
        # central drift term
        self.slope = self.jumps = self.b = np.empty(shape)
        self.m = self.drift = np.empty(shape)
        self.c = np.empty(shape) if ws.diffusive else None
        self.rows = np.empty((3,) + shape)
        lower, diag, upper = self.rows
        # the three rows laid end to end as gtsv takes them: a stack's
        # systems are one system whose couplings across block boundaries,
        # the last entry of each block of dl and du, are zero
        self.system = (lower.reshape(-1)[:-1], diag.reshape(-1), upper.reshape(-1)[:-1])
        self.block_ends = self.rows[::2, ..., -1]
        self.central_rows = (self.drift[..., :-1], upper[..., :-1],
                             self.drift[..., 1:], lower[..., :-1])
        self.edge = np.empty(lead + (2,))
        self.edge_pair = (self.edge[..., 0], self.edge[..., 1])
        self.edges = (self.b[..., ::n - 1], diag[..., ::n - 1], upper[..., 0], lower[..., -2])


class _HJBWorkspace:
    """The discrete control problem: the affine family, the grid and the
    running cost ``L``, with what the backward and forward sweeps share.

    The backward step works on one value vector or on a (B, n) stack of
    them, one row per terminal potential, and the B implicit systems are
    solved as one block-diagonal tridiagonal system.  Controls are chosen
    one coordinate at a time in closed form from ``model``, the quadratic
    model of L fitted once, on construction, on the grid of steps x nodes;
    the cells where the model fails its check take golden section on the
    exact cost, node by node.  The model depends on (step, node) only and
    every array carries the stack as leading axes, so a batched solve
    equals B single solves bit for bit.  A family with no diffusion at any
    control (c0 = 0 and no diffusion coefficient) has zero diffusion terms
    in H and in the implicit systems, and they are not formed.

    Every step writes into the ``_StepBuffers`` of its stack's shape, so a
    sweep allocates little beyond the cost call's result: the workspace
    keeps those of single sweeps, and a batched sweep makes its own.
    """

    def __init__(self, fam: ThetaFamily, grid_cfg: HJBGridConfig, cost: CostFunction):
        self.aff = affine_family_structure(fam)
        self.x_grid, i0, i1 = grid_cfg.build_grid()
        self.report = (i0, i1)
        self.h = float(self.x_grid[1] - self.x_grid[0])
        self.h2 = self.h**2
        self.n = self.x_grid.size
        self.dt = 1.0 / grid_cfg.n_t
        self.n_t = grid_cfg.n_t
        self.t_grid = np.linspace(0.0, 1.0, grid_cfg.n_t + 1)
        lam_max = self.aff.max_intensity()
        if self.dt * lam_max > 1.0:
            suggested = max(1, int(math.ceil(lam_max)))
            raise CFLError(
                f"dt * jump intensity = {self.dt * lam_max:.3g} > 1; "
                f"use n_t >= {suggested}"
            )
        # a jump by y is linear interpolation of v at x + y, extrapolated
        # linearly past the edges: the two-tap gather (1 - f) v[i] + f v[i+1]
        # at taps (i, i + 1) with weights (1 - f, f), per location
        pos = np.arange(self.n) + self.aff.locations[:, None] / self.h
        i = np.clip(np.floor(pos).astype(int), 0, self.n - 2)
        f = pos - i  # may fall outside [0, 1] at the edges: extrapolation
        self.tap_index = np.stack([i, i + 1], axis=1)  # (n_locations, 2, n)
        self.tap_weights = np.stack([1.0 - f, f], axis=1)
        # the transpose scatters (1 - f, f) * q to the interleaved (i, i + 1)
        self.scatter = [(np.column_stack(ij).ravel(), g, f) for ij, (g, f) in
                        zip(self.tap_index, self.tap_weights)]
        self.trunc = truncate(self.aff.locations[:, None])[:, 0]
        # the jump compensator -sum_j w_j h(y_j) v_x is an ordinary drift;
        # folding it into the implicit upwinded drift keeps the explicit jump
        # part S - I monotone and the whole scheme stable under the CFL bound
        self.drift0 = self.aff.b0 - float(self.trunc @ self.aff.w0)
        self.drift_lin = self.aff.b_lin - self.trunc @ self.aff.w_lin
        # the scalars a step multiplies, adds or divides by, as 0-d arrays,
        # which a ufunc takes in less time than floats; the values are the
        # same, and so is every result.  Per parameter or location: the
        # drift, diffusion and jump-weight coefficients, the coefficients
        # of each jlin_i, and the box.  (-dt, dt) scales the edge rows' b
        self.edge_dt = np.array([-self.dt, self.dt])
        zd = np.asarray
        self.zero, self.one = zd(0.0), zd(1.0)
        self.step_dt, self.half_dt, self.step_h = zd(self.dt), zd(0.5 * self.dt), zd(self.h)
        self.drift_coefs, self.drift_const = [zd(v) for v in self.drift_lin], zd(self.drift0)
        self.c_coefs, self.c_const = [zd(v) for v in self.aff.c_lin], zd(self.aff.c0)
        self.weight_coefs = [[zd(v) for v in row] for row in self.aff.w_lin]
        self.weight_consts = [zd(v) for v in self.aff.w0]
        self.jlin_coefs = [[zd(v) for v in col] for col in self.aff.w_lin.T]
        self.box = [(zd(lo), zd(hi)) for lo, hi in zip(self.aff.lows, self.aff.highs)]
        # with no drift at any control, c >= |b| h holds at every node, so
        # the auto stencil is the central one
        drift_free = self.drift0 == 0.0 and not self.drift_lin.any()
        self.central = grid_cfg.drift_stencil == "central" or drift_free
        self.diffusive = self.aff.c0 != 0.0 or bool(self.aff.c_lin.any())
        self.sweeps = 1 if self.aff.n_params == 1 else 2
        self.L = cost
        self.model = _fit_quadratic_cost(self, cost)

    @functools.cached_property
    def single(self) -> _StepBuffers:
        """The buffers of single sweeps, which a dual ascent runs many
        times, made on first use."""
        return _StepBuffers(self, (self.n,))

    # -- characteristics at controls ps, a list of per-parameter arrays ----

    def effective_drift(self, ps: List[np.ndarray], out=None) -> np.ndarray:
        b = _lincomb(self.drift_coefs, ps, out)
        b += self.drift_const
        return b

    def diffusion(self, ps: List[np.ndarray], out=None) -> np.ndarray:
        c = _lincomb(self.c_coefs, ps, out)
        c += self.c_const
        return c

    def cost(self, t: float, P: np.ndarray, cols=None) -> np.ndarray:
        """L(t, x, P) for a stack of controls over the grid nodes (or the
        nodes ``cols``, P's second-to-last axis), in one call."""
        x = self.x_grid if cols is None else self.x_grid[cols]
        x = np.broadcast_to(x, P.shape[:-1]).ravel()
        return self.L(t, x, P.reshape(-1, P.shape[-1])).reshape(P.shape[:-1])

    # -- the backward step ------------------------------------------------

    def form_terms(self, buf: _StepBuffers) -> None:
        """H's terms of the values buf.V into buf.terms."""
        V = buf.V
        dp, dm, dc, d2v, j0, jlin = buf.terms
        if jlin is not None:
            # S_j v - v = (1 - f) v[i] + f v[i + 1] - v per location
            V.take(self.tap_index, axis=-1, out=buf.taps, mode="clip")
            buf.taps *= self.tap_weights
            np.add(*buf.tap_pair, out=buf.parts)
            for part in buf.parts_rows:
                part -= V
            for row, wl in zip(buf.jlin_rows, self.jlin_coefs):
                _lincomb(wl, buf.parts_rows, row)
            if j0 is not None:
                _lincomb(self.weight_consts, buf.parts_rows, j0)
        for left, right, out, width in buf.quotients:
            np.subtract(left, right, out=out)
            out /= width
        if d2v is not None:
            ahead, at, behind, out = buf.curvature
            np.multiply(at, 2.0, out=out)
            np.subtract(ahead, out, out=out)
            out += behind
            out /= self.h2
        if dp is not None:
            ahead, behind, out, ends, nearest = buf.differences
            np.subtract(ahead, behind, out=out)
            out /= self.h
            ends[...] = nearest

    def backward_step(self, k: int, buf: _StepBuffers,
                      kept: Optional["_StepSystems"] = None) -> None:
        """Step k of the backward sweep, in place on buf: the values buf.V
        at t_{k+1} become those at t_k, and buf.P holds the controls chosen.

        The step minimizes H per node over the controls, one coordinate at
        a time, then solves the implicit system of those controls with the
        cost and the explicit jump part as source.  With ``kept``, for one
        value vector, step k's implicit system and clipped jump weights are
        copied into it before gtsv spends them.
        """
        self.form_terms(buf)
        buf.P[...] = self.model.mid
        for _ in range(self.sweeps):
            for i, (lo, hi) in enumerate(self.box):
                if hi <= lo:
                    buf.p[i][...] = lo
                else:
                    self._argmin(k, buf, i, lo, hi)
        source = self.L(self.t_grid[k], buf.x, buf.P)
        if self.aff.locations.size:
            for w, wl, w0 in zip(buf.weight_rows, self.weight_coefs, self.weight_consts):
                _lincomb(wl, buf.p, w)
                w += w0
                np.maximum(w, self.zero, out=w)
            source += _lincomb(buf.weight_rows, buf.parts_rows, buf.jumps)
        source *= self.step_dt
        buf.V += source  # V + dt * source: the right-hand side
        b = self.effective_drift(buf.p, buf.b)
        c = None
        if self.diffusive:
            c = np.maximum(self.diffusion(buf.p, buf.c), self.zero, out=buf.c)
        # the rows of I - dt * (implicit drift + implicit diffusion); with
        # no diffusion the c / h^2 terms are zero and not formed
        dt, h = self.dt, self.h
        lower, diag, upper = buf.rows
        drift = np.multiply(b, self.half_dt, out=buf.drift)  # +-0.5 dt b / h on a row's neighbours
        drift /= self.step_h
        if self.central:
            drift_left, upper_head, drift_right, lower_head = buf.central_rows
            np.negative(drift_left, out=upper_head)
            lower_head[...] = drift_right
            if c is None:
                diag.fill(1.0)
            else:
                half = 0.5 * dt * c / self.h2
                upper_head -= half[..., :-1]
                lower_head -= half[..., 1:]
                np.add(1.0, dt * c / self.h2, out=diag)
        else:
            up = np.maximum(b, 0.0)
            dn = np.minimum(b, 0.0)
            central = (0.0 if c is None else c) >= np.abs(b) * h
            row_upper = np.where(central, -drift, -dt * up / h)
            row_lower = np.where(central, drift, dt * dn / h)
            if c is None:
                diag[...] = np.where(central, 1.0, 1.0 + dt * (up - dn) / h)
            else:
                diffusion = dt * c / self.h2
                diag[...] = np.where(central, 1.0 + diffusion,
                                     1.0 + dt * (up - dn) / h + diffusion)
                half = 0.5 * dt * c / self.h2
                row_upper -= half
                row_lower -= half
            upper[..., :-1] = row_upper[..., :-1]
            lower[..., :-1] = row_lower[..., 1:]
        buf.block_ends.fill(0.0)
        # edge rows sit in the padded region: one-sided drift, zero
        # curvature; with e = dt b / h at columns 0 and n - 1, the diagonal
        # is 1 + e0 and 1 - e1, du's first entry -e0 and dl's last e1
        b_ends, diag_ends, upper_first, lower_last = buf.edges
        edge = np.multiply(b_ends, self.edge_dt, out=buf.edge)  # -e0 and e1
        edge /= self.step_h
        np.subtract(self.one, edge, out=diag_ends)
        upper_first[...] = buf.edge_pair[0]
        lower_last[...] = buf.edge_pair[1]
        if kept is not None:
            kept.rows[:, k] = buf.rows
            kept.weights[k] = buf.weights
        _gtsv(*buf.system, buf.V_flat)

    def _argmin(self, k, buf, i, lo, hi) -> None:
        """Coordinate i of buf.P set to its per-node argmin of H at step k.

        Along the coordinate, H(s) = const + beta (s - mid) + L(s): beta
        comes exactly from the stencil terms, and the cost model gives L's
        slope and curvature at the other coordinates of P.  Under the
        central stencil H is one quadratic and the argmin its clipped
        vertex.  Under the auto stencil H is one quadratic on each piece
        between the split points, and the argmin is the best of each
        branch's clipped vertex and the piece ends.  The cells where the
        cost model failed its check take golden section on the exact cost,
        from P as it stands before coordinate i changes.
        """
        P, terms, model = buf.P, buf.terms, self.model
        dp, dm, dc, d2v, _, jlin = terms
        bad = model.bad[k]
        golden = None
        if bad.size:
            golden = self._piecewise_golden(
                k, P[..., bad, :], i, lo, hi, self._terms_at(buf, bad), bad)
        mid, rate = model.mid[i, ...], model.rate[i, k]  # mid as a 0-d array
        convex = None if model.all_convex[i, k] else model.convex[i, k]
        cost_slope = model.g[k, :, i]
        for j in range(P.shape[-1]):
            if j != i:
                cost_slope = cost_slope + model.hess[k, :, i, j] * (buf.p[j] - model.mid[j])
        # H's slope at mid apart from the drift term, whose difference
        # quotient depends on the stencil branch
        slope = cost_slope
        if d2v is not None:
            slope = np.multiply(d2v, 0.5 * self.aff.c_lin[i], out=buf.slope)
            slope += cost_slope
        if jlin is not None:
            slope = np.add(slope, buf.jlin_rows[i], out=buf.slope)
        dl = self.drift_coefs[i]
        if self.central:
            m = np.multiply(dc, dl, out=buf.m)
            m += slope
            _vertex_or_end(m, rate, convex, mid, lo, hi, out=buf.p[i])
        else:
            vertices = [_vertex_or_end(slope + dl * d, rate, convex, mid, lo, hi)
                        for d in (dc, dp, dm)]
            S = np.stack(vertices + self._piece_ends(P, i, lo, hi))
            u = S - mid
            # H up to terms constant in s, with the modelled cost
            H = self._stencil_terms(self._with_coordinate(P, i, S), terms)
            H += (model.a[i, k] * u + cost_slope) * u
            buf.p[i][...] = _lowest(S, H)
        if golden is not None:
            P[..., bad, i] = golden

    # -- H at given controls: the auto stencil and the fallback cells -----

    def _terms_at(self, buf: _StepBuffers, cols) -> tuple:
        """buf.terms at the nodes ``cols``, with j0 there, which the
        central stencil's closed form does not form."""
        dp, dm, dc, d2v, _, jlin = buf.terms
        j0 = None
        if jlin is not None:
            j0 = _lincomb(self.weight_consts, [part[..., cols] for part in buf.parts_rows])
            jlin = [j[..., cols] for j in jlin]
        return tuple(None if a is None else a[..., cols] for a in (dp, dm, dc, d2v)) + (j0, jlin)

    def hamiltonian(self, k, P, i, S, terms, cols=None) -> np.ndarray:
        """H at step k with coordinate i of P set to each of the K probes in S.

        P has shape (..., m, n_params) for the m nodes ``cols`` (all nodes
        when None) and ``terms`` are restricted to them; S broadcasts to
        (K,) + P.shape[:-1].  Returns that shape, from a single exact cost
        call.
        """
        Q = self._with_coordinate(P, i, S)
        H = self._stencil_terms(Q, terms)
        H += self.cost(self.t_grid[k], Q, cols)
        return H

    @staticmethod
    def _with_coordinate(P, i, S) -> np.ndarray:
        """Controls P with coordinate i set to each of the K probes in S."""
        Q = np.empty((len(S),) + P.shape)
        if P.shape[-1] > 1:
            Q[...] = P
        Q[..., i] = S
        return Q

    def _stencil_terms(self, Q, terms) -> np.ndarray:
        """H at controls Q without the cost; a function of its own so that
        its temporaries are freed before the cost call."""
        dp, dm, dc, d2v, j0, jlin = terms
        qs = _params(Q)
        b = self.effective_drift(qs)
        c = 0.0 if d2v is None else self.diffusion(qs)
        if self.central:
            H = b * dc
        else:
            upwind = np.maximum(b, 0.0) * dp + np.minimum(b, 0.0) * dm
            H = np.where(c >= np.abs(b) * self.h, b * dc, upwind)
        if d2v is not None:
            H += 0.5 * c * d2v
        if jlin is not None:
            H += j0 + _lincomb(jlin, qs)
        return H

    def _split_points(self, P, i, lo, hi) -> List[np.ndarray]:
        """The points of [lo, hi] where c(s) = |b(s)| h along coordinate i.

        Under the auto stencil the drift term of H switches there between
        b dc and the upwind b dp or b dm, so H is one quadratic in s
        between them and jumps at them.  None under the central stencil.
        """
        if self.central:
            return []
        dl, cl, h = self.drift_lin[i], self.aff.c_lin[i], self.h
        ps = _params(P)
        b_rest = self.effective_drift(ps) - dl * P[..., i]
        c_rest = self.diffusion(ps) - cl * P[..., i]
        splits = []
        for sign in (1.0, -1.0):
            denom = cl - sign * h * dl
            if denom != 0.0:
                splits.append(np.clip((sign * h * b_rest - c_rest) / denom, lo, hi))
        return splits

    def _piece_ends(self, P, i, lo, hi) -> List[np.ndarray]:
        """Both ends of [lo, hi], and each split point with a point just
        inside either side, because the upwind side of a split is open."""
        inside = SPLIT_STEP * (hi - lo)
        shape = P.shape[:-1]
        return [np.full(shape, lo), np.full(shape, hi)] + [
            np.clip(r + e, lo, hi) for r in self._split_points(P, i, lo, hi)
            for e in (-inside, 0.0, inside)]

    def _piecewise_golden(self, k, P, i, lo, hi, terms, cols) -> np.ndarray:
        """Golden section on the exact cost over each piece of [lo, hi]
        between the split points; of the piece minima and the piece ends,
        the candidate with the lowest exact H wins.  Where H is infinite at
        both probes, golden section returns the upper end of its bracket;
        the priced ends let a finite H at another end win."""
        shape = P.shape[:-1]
        ends = np.sort(np.stack(
            [np.full(shape, lo), *self._split_points(P, i, lo, hi), np.full(shape, hi)]), axis=0)
        pieces = np.broadcast_to(P, (len(ends) - 1,) + P.shape)
        S = self._golden_section(k, pieces, i, ends[:-1], ends[1:], terms, cols)
        S = np.concatenate([S, ends])
        return _lowest(S, self.hamiltonian(k, P, i, S, terms, cols))

    def _golden_section(self, k, P, i, lo, hi, terms, cols) -> np.ndarray:
        """Per-node golden-section argmin of H over coordinate i on the
        brackets [lo, hi], arrays of shape P.shape[:-1]."""
        a, b_ = lo, hi
        for _ in range(48):
            c1 = b_ - GOLDEN * (b_ - a)
            c2 = a + GOLDEN * (b_ - a)
            f1, f2 = self.hamiltonian(k, P, i, np.stack([c1, c2]), terms, cols)
            left = f1 < f2
            b_ = np.where(left, c2, b_)
            a = np.where(left, a, c1)
        return np.clip(0.5 * (a + b_), lo, hi)


@dataclass(frozen=True)
class _StepSystems:
    """What a backward sweep of one value vector built at each step, kept
    for its adjoint sweep: the implicit system's rows (dl, d, du; the last
    entry of dl and du is the zero coupling past the block) and the clipped
    jump weights, one (n,) row per jump location."""

    rows: np.ndarray  # (3, n_t, n)
    weights: np.ndarray  # (n_t, n_locations, n)


def _solve_hjb_ws(ws: _HJBWorkspace, terminal: np.ndarray) -> ValueGrid:
    """One backward sweep of one terminal potential, keeping each step's
    system for ``_forward_ws``."""
    values = np.empty((ws.n_t + 1, ws.n))
    controls = np.empty((ws.n_t, ws.n, ws.aff.n_params))
    kept = _StepSystems(np.empty((3, ws.n_t, ws.n)),
                        np.empty((ws.n_t, ws.aff.locations.size, ws.n)))
    buf = ws.single
    values[-1] = buf.V[...] = terminal
    for k in range(ws.n_t - 1, -1, -1):
        ws.backward_step(k, buf, kept)
        controls[k] = buf.P
        values[k] = buf.V
    return ValueGrid(ws.x_grid, ws.t_grid, values, controls, ws.report, kept)


def _initial_values(ws: _HJBWorkspace, terminals: np.ndarray) -> np.ndarray:
    """v(0, .) for a (B, n) stack of terminal potentials in one backward
    sweep that keeps only the current step, and no step's system."""
    buf = _StepBuffers(ws, terminals.shape)
    buf.V[...] = terminals
    for k in range(ws.n_t - 1, -1, -1):
        ws.backward_step(k, buf)
    return buf.V.copy()


def solve_hjb(
    inst: TransportInstance,
    lambda1: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    grid_cfg: HJBGridConfig = HJBGridConfig(),
) -> ValueGrid:
    """Backward dynamic-programming solve of the dual control problem.

    Returns the value surface with v(0, .) equal to the control value started
    from each grid point, plus the per-node optimal parameters.
    """
    ws = _HJBWorkspace(inst.fam, grid_cfg, inst.cost)
    terminal = np.asarray(lambda1(ws.x_grid) if callable(lambda1) else lambda1, dtype=float)
    if terminal.shape != ws.x_grid.shape:
        raise ValueError("terminal array must match the padded grid")
    if not np.all(np.isfinite(terminal)):
        raise ValueError("terminal function must be bounded on the grid")
    return _solve_hjb_ws(ws, terminal)


def _forward_ws(ws: _HJBWorkspace, systems: _StepSystems, q0: np.ndarray) -> np.ndarray:
    """Adjoint of one backward sweep applied to q0: the terminal grid law
    of the process under the controls that sweep chose.

    Each step solves the transpose of the implicit system the backward
    step kept, then adds dt J^T r, the transpose of its explicit jump part
    with the weights that step clipped; nothing is formed again.  J^T
    scatter-adds each location's (1 - f, f) * w * r onto the interleaved
    taps (i, i + 1), visiting source nodes in ascending order, so each sum
    runs in the order of a CSR product with S^T and the L-BFGS-B gradient
    does not depend on how J^T is stored.  gtsv solves in place, so the
    kept systems are spent.
    """
    dl, d, du = systems.rows
    wq = np.empty(ws.n)
    spread = np.empty((ws.n, 2))  # (1 - f, f) * wq at the interleaved taps
    taps = spread.reshape(-1)
    q = q0.copy()
    for k in range(ws.n_t):
        r = _gtsv(du[k, :-1], d[k], dl[k, :-1], q)  # the transposed system
        jt = 0.0  # J^T r, summed over the locations from zero
        for (index, g, f), w in zip(ws.scatter, systems.weights[k]):
            np.multiply(w, r, out=wq)
            np.multiply(g, wq, out=spread[:, 0])
            np.multiply(f, wq, out=spread[:, 1])
            part = np.bincount(index, taps, ws.n)
            part -= wq
            jt = jt + part
        jt *= ws.step_dt
        jt += r
        q = jt
    return q


# ---------------------------------------------------------------------------
# dual ascent


@dataclass(frozen=True)
class DualAscentConfig:
    grid: HJBGridConfig = HJBGridConfig()
    bound: float = DUAL_BOUND_DEFAULT
    # mollifier width (in state units) for the ascent class: the potential is
    # a Gaussian-smoothed version of the optimization variables.  Suppresses
    # grid-scale oscillations that would otherwise exploit the mismatch
    # between the discrete dynamics and an atomic target marginal; smooth
    # optima (quadratics in particular) pass through up to an additive
    # constant, which the dual value ignores.  0 disables smoothing.
    smoothing: float = 0.0

    def __post_init__(self):
        for name in ("bound", "smoothing"):
            mc.check_number(name, getattr(self, name))
        if not self.bound > 0:
            raise ValueError(f"bound = {self.bound!r} must be positive")
        if not self.smoothing >= 0:
            raise ValueError(f"smoothing = {self.smoothing!r} must be nonnegative")


@dataclass(frozen=True)
class DualAscentResult:
    dual_value: float
    lambda1: np.ndarray
    x_grid: np.ndarray
    history: Tuple[float, ...]
    converged: bool
    likely_infeasible: bool
    evidence: dict  # warm-start rows; the polish's status, message, nit, nfev; the class searched


def dual_ascent(inst: TransportInstance, cfg: DualAscentConfig = DualAscentConfig()) -> DualAscentResult:
    """Maximize the dual value over the quadratics a x^2 + d x clipped at
    ±bound and mollified by ``cfg.smoothing``, in two stages that record
    each dual value in ``history``:

    1. a warm start over λ = 0 and 50 quadratics, priced by one batched
       backward sweep that keeps no systems;
    2. an L-BFGS-B polish of (a, d) from the best of them.  It prices a
       potential once, by one backward sweep that keeps each step's implicit
       system and jump weights, and takes the gradient in the grid potential,
       the forward-transported terminal law minus the target, from one
       adjoint sweep on those systems, chained through the clip.

    That gradient is the adjoint under the frozen optimal controls, not the
    exact gradient of the discrete dual, so the polish can end worse than a
    quadratic it priced earlier.  The result is the best quadratic priced,
    and ``converged`` is the polish's success flag.
    """
    ws = _HJBWorkspace(inst.fam, cfg.grid, inst.cost)
    x_grid = ws.x_grid
    x2 = x_grid**2
    mu0_w = inst.mu0.grid_weights(x_grid)
    mu1_w = inst.mu1.grid_weights(x_grid)

    kernel = None
    if cfg.smoothing > 0:
        diff = x_grid[:, None] - x_grid[None, :]
        kernel = np.exp(-0.5 * (diff / cfg.smoothing) ** 2)
        kernel *= ws.h / (cfg.smoothing * math.sqrt(2.0 * math.pi))

    # clipped quadratic potentials a x^2 + d x: the natural shapes for
    # variance/rate transport
    ad_grid = [(0.0, 0.0)] + [
        (a, d)
        for a in (0.25, 1.0, 4.0, 16.0, 64.0, -0.25, -1.0, -4.0, -16.0, -64.0)
        for d in (0.0, 1.0, -1.0, 4.0, -4.0)
    ]
    lams = [np.clip(a * x2 + d * x_grid, -cfg.bound, cfg.bound) for a, d in ad_grid]
    if kernel is not None:
        lams = [kernel @ z for z in lams]
    v0 = _initial_values(ws, np.stack(lams))
    history = [float(mu0_w @ v - mu1_w @ lam) for v, lam in zip(v0, lams)]
    best = int(np.argmax(history))  # the first of equal maxima
    best_val, best_lam = history[best], lams[best]
    priced: dict = {}  # clipped quadratic's bytes -> (-value, -gradient in the potential)

    def negative_dual(ad: np.ndarray):
        """Minus the dual value of the quadratic (a, d) and its gradient in
        (a, d): the full-grid gradient chained through the clip."""
        nonlocal best_val, best_lam
        q = float(ad[0]) * x2 + float(ad[1]) * x_grid
        z = np.clip(q, -cfg.bound, cfg.bound)
        key = z.tobytes()
        if key not in priced:
            lam = z if kernel is None else kernel @ z
            vg = _solve_hjb_ws(ws, lam)
            value = float(mu0_w @ vg.initial() - mu1_w @ lam)
            grad = _forward_ws(ws, vg.systems, mu0_w) - mu1_w
            if kernel is not None:
                grad = kernel @ grad  # the mollifier is symmetric
            history.append(value)
            priced[key] = (-value, -grad)
            if value > best_val:
                best_val, best_lam = value, lam
        f, g = priced[key]
        inside = np.abs(q) < cfg.bound
        return f, np.array([g @ (x2 * inside), g @ (x_grid * inside)])

    polish = minimize(
        negative_dual,
        np.array(ad_grid[best]),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": POLISH_MAXITER, "ftol": POLISH_FTOL, "gtol": POLISH_GTOL},
    )
    return DualAscentResult(
        dual_value=best_val,
        lambda1=best_lam,
        x_grid=x_grid,
        history=tuple(history),
        converged=bool(polish.success),
        likely_infeasible=best_val > INFEASIBLE_DUAL_CAP,
        evidence={
            "warm_start_rows": len(ad_grid),
            "polish": {"status": int(polish.status), "message": str(polish.message),
                       "nit": int(polish.nit), "nfev": int(polish.nfev)},
            "potential_class": POTENTIAL_CLASS,
        },
    )


# ---------------------------------------------------------------------------
# primal side: a deterministic schedule whose mean control fits the target


@dataclass(frozen=True)
class PrimalResult:
    primal_value: float
    schedule: np.ndarray  # (n_steps, n_params)
    feasibility_residual: float
    likely_infeasible: bool
    evidence: dict  # fit and schedule run statuses and counts; None if nothing is free


def _exponent_basis(aff: _AffineFamily, u: np.ndarray):
    """psi(u; p) = psi0(u) + sum_i p_i psi_i(u) on the frequency grid."""
    jumps = jump_exponent(u, aff.locations)
    psi0 = 1j * u * aff.b0 - 0.5 * aff.c0 * u**2 + aff.w0 @ jumps
    psi_lin = (1j * np.outer(aff.b_lin, u) - 0.5 * np.outer(aff.c_lin, u**2)
               + aff.w_lin.T @ jumps)
    return psi0, psi_lin


def schedule_cost(cost: CostFunction, schedule: np.ndarray) -> float:
    """Running cost dt * sum_k L(t_k, ., p_k) of a state-independent cost
    along a (K, n_params) piecewise-constant schedule on [0, 1]."""
    K = schedule.shape[0]
    dt = 1.0 / K
    vals = cost(dt * np.arange(K), np.zeros(K), schedule)
    bad = vals[~np.isfinite(vals)]
    if bad.size:
        raise ExpressionError(f"expression {cost.source!r} evaluated to {float(bad[0])}")
    # summed left to right, as K scalar calls would be
    return dt * sum(vals.tolist())


def solve_primal_deterministic(inst: TransportInstance) -> PrimalResult:
    """The cheapest schedule of PRIMAL_STEPS constant controls whose mean
    best fits the target on PRIMAL_U_GRID.

    The terminal exponent psi0 + mean(P) . psi_lin is linear in the mean
    control, so the mean is a bounded linear least-squares fit to
    log(cf1 / cf0) - psi0.  One SLSQP run from the constant schedule then
    minimises the cost with the combinations of the mean that the fit
    identifies held fixed.
    """
    if inst.cost.reads_state:
        raise StateDependentCostError(
            "deterministic primal solver requires a state-independent cost"
        )
    aff = affine_family_structure(inst.fam)
    K = PRIMAL_STEPS
    u = PRIMAL_U_GRID
    psi0, psi_lin = _exponent_basis(aff, u)
    cf0, cf1 = inst.mu0.cf(u), inst.mu1.cf(u)
    free = aff.highs > aff.lows
    P = np.tile(aff.lows, (K, 1))
    evidence = dict.fromkeys(("fit_status", "schedule_status", "schedule_nit", "schedule_nfev"))
    if free.any():
        with np.errstate(all="ignore"):
            ratio = cf1 / cf0
            # cf(-u) = conj cf(u): u >= 0 carries the fit, unwrapped from 0 at u = 0
            ok = (u >= 0) & np.isfinite(np.log(np.abs(ratio)))
        phase = np.unwrap(np.angle(ratio[ok]))
        A = np.vstack([psi_lin[:, ok].real.T, psi_lin[:, ok].imag.T])
        rhs = np.concatenate([np.log(np.abs(ratio[ok])) - psi0[ok].real, phase - psi0[ok].imag])
        rhs -= A[:, ~free] @ aff.lows[~free]
        A[:, ~free] = 0.0  # fixed parameters are neither fitted nor held
        fit = lsq_linear(A[:, free], rhs, bounds=(aff.lows[free], aff.highs[free]), tol=1e-14)
        mean = aff.lows.copy()
        mean[free] = fit.x
        _, sv, vt = np.linalg.svd(A, full_matrices=False)
        R = vt[sv > PRIMAL_RANK_TOL * sv.max()]
        res = minimize(
            lambda z: schedule_cost(inst.cost, z.reshape(K, -1)),
            np.tile(mean, K),
            method="SLSQP",
            bounds=list(zip(np.tile(aff.lows, K), np.tile(aff.highs, K))),
            constraints={"type": "eq", "fun": lambda z: R @ (z.reshape(K, -1).mean(axis=0) - mean),
                         "jac": lambda z: np.tile(R / K, K)},
            options={"ftol": 1e-15, "maxiter": 200},
        )
        P = (res.x if res.success else np.tile(mean, K)).reshape(K, -1)
        evidence = {"fit_status": int(fit.status), "schedule_status": int(res.status),
                    "schedule_nit": int(res.nit), "schedule_nfev": int(res.nfev)}
    resid = float(np.max(np.abs(cf0 * np.exp(psi0 + P.mean(axis=0) @ psi_lin) - cf1)))
    return PrimalResult(
        primal_value=schedule_cost(inst.cost, P),
        schedule=P,
        feasibility_residual=resid,
        likely_infeasible=resid > FEASIBILITY_TOL,
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# Monte Carlo validation and the duality report


@dataclass(frozen=True)
class MCValidation:
    terminal_ks: float


def evaluate_cost_mc(
    inst: TransportInstance,
    schedule: np.ndarray,
    n_paths: int = 100_000,
    seed: int = 0,
) -> MCValidation:
    """Simulate the schedule for its terminal fit; the running cost of a
    deterministic schedule is its exact ``schedule_cost``, so only the
    terminal law is validated.  Paths start at independent draws from mu0,
    or at mu0's point."""
    if inst.cost.reads_state:
        raise StateDependentCostError(
            "schedule validation requires a state-independent cost"
        )
    schedule = np.atleast_2d(np.asarray(schedule, float))
    sim_cfg = mc.SimulationConfig(
        horizon=1.0, n_steps=schedule.shape[0], n_paths=n_paths, seed=seed,
    )
    x0, start = inst.mu0.location, 0.0
    if inst.mu0.kind != "point-mass":  # mu0's draws come from a generator of their own
        x0, start = 0.0, inst.mu0.sample(np.random.default_rng(seed), n_paths)
    bundle = mc.simulate_paths(inst.fam.stack(schedule), x0, sim_cfg)
    ks = mc.marginal_ks(bundle.terminal + start, inst.mu1.cdf)
    return MCValidation(ks)


@dataclass(frozen=True)
class DualityReport:
    primal_value: float
    dual_value: float
    gap: float
    control_schedule: np.ndarray
    dual_potential: np.ndarray
    dual_x_grid: np.ndarray
    feasibility_residual: float
    mc_validation: MCValidation
    weak_duality_ok: bool
    allowance: float
    ascent_history: Tuple[float, ...]
    dual_converged: bool  # the polish's success flag
    dual_likely_infeasible: bool
    primal_likely_infeasible: bool
    primal_evidence: dict  # PrimalResult.evidence
    dual_evidence: dict  # DualAscentResult.evidence


def duality_report(
    inst: TransportInstance,
    dual_cfg: DualAscentConfig = DualAscentConfig(),
    mc_paths: int = 100_000,
    mc_seed: int = 0,
) -> DualityReport:
    """Run both sides of the transport problem and report the duality gap."""
    primal = solve_primal_deterministic(inst)
    dual = dual_ascent(inst, dual_cfg)
    gap = primal.primal_value - dual.dual_value
    allowance = GAP_ALLOWANCE_REL * (1.0 + abs(primal.primal_value))
    validation = evaluate_cost_mc(inst, primal.schedule, mc_paths, mc_seed)
    return DualityReport(
        primal_value=primal.primal_value,
        dual_value=dual.dual_value,
        gap=gap,
        control_schedule=primal.schedule,
        dual_potential=dual.lambda1,
        dual_x_grid=dual.x_grid,
        feasibility_residual=primal.feasibility_residual,
        mc_validation=validation,
        weak_duality_ok=gap >= -allowance,
        allowance=allowance,
        ascent_history=dual.history,
        dual_converged=dual.converged,
        dual_likely_infeasible=dual.likely_infeasible,
        primal_likely_infeasible=primal.likely_infeasible,
        primal_evidence=primal.evidence,
        dual_evidence=dual.evidence,
    )
