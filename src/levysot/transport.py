"""Semimartingale optimal transport on one-dimensional Levy-driven instances.

The dual side solves the HJB partial integro-differential equation backward in
time (implicit upwinded drift/diffusion, explicit jump integral) and ascends
over piecewise-linear bounded terminal potentials; the gradient of the dual
value is the terminal law of the optimally controlled process minus the target
marginal, transported forward by the adjoint of the backward scheme.  The
primal side optimizes deterministic piecewise-constant control schedules under
a characteristic-function matching penalty with continuation.

Control families must have affine parameter-to-characteristics maps with
fixed jump locations (verified numerically); this covers product-box families
whose drift, diffusion and jump weights are affine in the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy import stats
from scipy.linalg.lapack import dgtsv
from scipy.optimize import minimize

from .measures import truncate_scalar
from .triplets import (
    LevyTriplet,
    ThetaFamily,
    family_condition_b,
    family_condition_j,
)
from . import montecarlo as mc

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DUAL_BOUND_DEFAULT = 50.0
GTOL_DEFAULT = 1e-3
FTOL_PRIMAL = 1e-2
GAP_ALLOWANCE_REL = 0.02
RHO_SCHEDULE = (10.0, 1e2, 1e3, 1e4, 1e5)
INFEASIBLE_DUAL_CAP = 1e3


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
        if self.kind == "gaussian" and self.variance <= 0:
            raise ValueError("gaussian marginal needs positive variance")
        if self.kind == "grid-density":
            pts = np.asarray(self.points, dtype=float)
            wts = np.asarray(self.weights, dtype=float)
            if pts.shape != wts.shape or pts.ndim != 1:
                raise ValueError("grid-density needs matching 1-d points/weights")
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

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "point-mass":
            return (x >= self.location).astype(float)
        if self.kind == "gaussian":
            return stats.norm.cdf(x, loc=self.mean, scale=math.sqrt(self.variance))
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

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """∫ f dμ by the marginal's native quadrature."""
        if self.kind == "point-mass":
            return float(np.asarray(f(np.array([self.location])))[0])
        if self.kind == "gaussian":
            nodes, wts = np.polynomial.hermite.hermgauss(96)
            x = self.mean + math.sqrt(2.0 * self.variance) * nodes
            return float(np.dot(wts / math.sqrt(math.pi), np.asarray(f(x), float)))
        return float(np.dot(self.weights, np.asarray(f(self.points), float)))

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
    """Running cost L(t, x, p) over a family's parameter vector p.

    The evaluator must broadcast over numpy arrays: x of shape (M,) with p of
    shape (n_params,) or (M, n_params) returns shape (M,).
    """

    evaluator: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    declared_convex: bool = True

    def __call__(self, t: float, x, p):
        return np.asarray(self.evaluator(t, np.asarray(x, float), np.asarray(p, float)), float)

    def is_state_dependent(self, fam: ThetaFamily, samples: int = 24, seed: int = 0) -> bool:
        rng = np.random.default_rng(seed)
        ps = fam.sample(rng, samples)
        xs = rng.uniform(-5.0, 5.0, size=(samples, 2))
        ts = rng.random(samples)
        for t, (x1, x2), p in zip(ts, xs, ps):
            v1 = float(self(t, np.array([x1]), p)[0])
            v2 = float(self(t, np.array([x2]), p)[0])
            if abs(v1 - v2) > 1e-10 * (1.0 + abs(v1)):
                return True
        return False


@dataclass(frozen=True)
class CostValidationReport:
    nonnegative: bool
    convex_along_segments: bool
    time_moduli: Tuple[Tuple[float, float], ...]  # (epsilon, sampled modulus)
    passed: bool


def validate_cost(
    L: CostFunction, fam: ThetaFamily, samples: int = 200, seed: int = 0
) -> CostValidationReport:
    """Sampled nonnegativity, theta-convexity and time-continuity checks."""
    rng = np.random.default_rng(seed)
    ps = fam.sample(rng, samples)
    xs = rng.uniform(-5.0, 5.0, samples)
    ts = rng.random(samples)
    nonneg = True
    convex = True
    for t, x, p in zip(ts, xs, ps):
        if float(L(t, np.array([x]), p)[0]) < 0:
            nonneg = False
    if L.declared_convex:
        qs = fam.sample(rng, samples)
        for t, x, p, q in zip(ts, xs, ps, qs):
            mid = float(L(t, np.array([x]), 0.5 * (p + q))[0])
            avg = 0.5 * (float(L(t, np.array([x]), p)[0]) + float(L(t, np.array([x]), q)[0]))
            if mid > avg + 1e-8:
                convex = False
    moduli = []
    for eps in (0.1, 0.01):
        worst = 0.0
        for t, x, p in zip(ts, xs, ps):
            s = min(max(t + rng.uniform(-eps, eps), 0.0), 1.0)
            lt = float(L(t, np.array([x]), p)[0])
            ls = float(L(s, np.array([x]), p)[0])
            worst = max(worst, abs(ls - lt) / (1.0 + lt))
        moduli.append((eps, worst))
    passed = nonneg and (convex or not L.declared_convex)
    return CostValidationReport(nonneg, convex, tuple(moduli), passed)


@dataclass(frozen=True)
class TransportInstance:
    """Marginals, a control family (d = 1) and a running cost; horizon 1."""

    mu0: Marginal
    mu1: Marginal
    fam: ThetaFamily
    cost: CostFunction

    def validate(self, resolution: int = 5, delta_schedule=(0.4, 0.2, 0.1)) -> None:
        probe = self.fam.at(self.fam.corners()[0])
        if probe.dimension != 1:
            raise ValueError("transport instances must be one-dimensional")
        bound = family_condition_b(self.fam, resolution)
        if not bound.finite_flag:
            raise ValueError("family violates the boundedness condition")
        rep = family_condition_j(self.fam, delta_schedule, resolution)
        if rep.verdict != "holds":
            raise ValueError(
                f"family small-jump condition verdict {rep.verdict!r}; need 'holds'"
            )


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

    def drift(self, p: np.ndarray) -> np.ndarray:
        return self.b0 + p @ self.b_lin

    def diffusion(self, p: np.ndarray) -> np.ndarray:
        return self.c0 + p @ self.c_lin

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


def _jump_profile(t: LevyTriplet) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a measure into (locations, weights) including quadrature nodes."""
    locs: List[float] = []
    wts: List[float] = []
    for loc, w in t.F.atoms:
        locs.append(float(loc[0]))
        wts.append(float(w))
    for piece in t.F.density_pieces:
        x, w = piece.quad()
        locs.extend(float(v) for v in x)
        wts.extend(float(v) for v in w)
    return np.array(locs), np.array(wts)


def _align_profile(
    union: np.ndarray, locs: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Scatter a (locations, weights) profile onto the union of locations."""
    out = np.zeros(union.size)
    if locs.size == 0:
        return out
    idx = np.searchsorted(union, locs)
    idx = np.clip(idx, 0, union.size - 1)
    near = np.where(
        (idx > 0) & (np.abs(union[np.maximum(idx - 1, 0)] - locs) < np.abs(union[idx] - locs)),
        idx - 1,
        idx,
    )
    if np.max(np.abs(union[near] - locs)) > 1e-12:
        raise NotImplementedError(
            "HJB/primal solvers require fixed jump locations across parameters"
        )
    np.add.at(out, near, w)
    return out


def affine_family_structure(fam: ThetaFamily, check_tol: float = 1e-8) -> _AffineFamily:
    """Extract and verify the affine parameter-to-characteristics structure."""
    lows = np.array([lo for lo, _ in fam.parameter_box])
    highs = np.array([hi for _, hi in fam.parameter_box])
    base = lows.copy()
    n_p = lows.size
    mid = 0.5 * (lows + highs)
    probes = [base, mid]
    for i in range(n_p):
        p = base.copy()
        p[i] = highs[i]
        probes.append(p)
    triplets = [fam.at(p) for p in probes]
    profiles = [_jump_profile(t) for t in triplets]
    all_locs = np.concatenate([locs for locs, _ in profiles]) if profiles else np.empty(0)
    if all_locs.size:
        union = np.sort(all_locs)
        keep = np.concatenate([[True], np.diff(union) > 1e-12])
        union = union[keep]
    else:
        union = np.empty(0)
    aligned = [_align_profile(union, locs, w) for locs, w in profiles]

    t0 = triplets[0]
    w0 = aligned[0]
    b_lin = np.zeros(n_p)
    c_lin = np.zeros(n_p)
    w_lin = np.zeros((union.size, n_p))
    for i in range(n_p):
        span = highs[i] - lows[i]
        if span <= 0:
            continue
        t = triplets[2 + i]
        b_lin[i] = (float(t.b[0]) - float(t0.b[0])) / span
        c_lin[i] = (float(t.c[0, 0]) - float(t0.c[0, 0])) / span
        w_lin[:, i] = (aligned[2 + i] - w0) / span
    aff = _AffineFamily(
        lows, highs,
        float(t0.b[0]) - float(lows @ b_lin), b_lin,
        float(t0.c[0, 0]) - float(lows @ c_lin), c_lin,
        union, w0 - w_lin @ lows, w_lin,
    )
    # verify affinity at the box midpoint
    t_mid = triplets[1]
    w_mid = aligned[1]
    pred_b = float(aff.drift(mid[None, :])[0])
    pred_c = float(aff.diffusion(mid[None, :])[0])
    scale = 1.0 + abs(pred_b) + abs(pred_c) + (np.max(np.abs(w_mid)) if w_mid.size else 0.0)
    err = abs(pred_b - float(t_mid.b[0])) + abs(pred_c - float(t_mid.c[0, 0]))
    if union.size:
        err += float(np.max(np.abs(aff.weights(mid[None, :])[0] - w_mid)))
    if err > check_tol * scale:
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
    n_x: int = 400  # intervals on the reported domain
    n_t: int = 400
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

    def initial(self) -> np.ndarray:
        return self.values[0]


def _lincomb(coefs, arrays):
    """coefs[0] * arrays[0] + coefs[1] * arrays[1] + ..., summed in order.

    Elementwise, so every entry gets the same arithmetic at any array shape;
    a BLAS product would not promise that across batch sizes.
    """
    out = coefs[0] * arrays[0]
    for c, a in zip(coefs[1:], arrays[1:]):
        out = out + c * a
    return out


def _params(P: np.ndarray) -> List[np.ndarray]:
    return [P[..., i] for i in range(P.shape[-1])]


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system in place with LAPACK gtsv.

    Raises LinAlgError on a singular matrix and ValueError on a non-finite
    solution, the exception types of ``scipy.linalg.solve_banded``.
    """
    *_, x, info = dgtsv(dl, d, du, rhs, overwrite_dl=1, overwrite_d=1,
                        overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if not np.isfinite(x).all():
        raise ValueError("HJB step produced infs or NaNs")
    return x


class _HJBWorkspace:
    """Per-grid precomputation shared by backward and forward sweeps.

    The backward step works on a (B, n) stack of value vectors, one row per
    terminal potential: every array it builds carries the stack as leading
    axes, the Hamiltonian probes of one coordinate go through one cost call,
    and the B implicit systems are solved as one block-diagonal tridiagonal
    system.  The arithmetic per row does not depend on B, so a batched solve
    equals B single solves bit for bit.
    """

    def __init__(self, fam: ThetaFamily, grid_cfg: HJBGridConfig):
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
        self.taps = []
        for y in self.aff.locations:
            pos = np.arange(self.n) + y / self.h
            i = np.clip(np.floor(pos).astype(int), 0, self.n - 2)
            f = pos - i  # may fall outside [0, 1] at the edges: extrapolation
            self.taps.append((i, i + 1, 1.0 - f, f, np.column_stack([i, i + 1]).ravel()))
        self.trunc = np.array([truncate_scalar(y) for y in self.aff.locations])
        # the jump compensator -sum_j w_j h(y_j) v_x is an ordinary drift;
        # folding it into the implicit upwinded drift keeps the explicit jump
        # part S - I monotone and the whole scheme stable under the CFL bound
        self.drift0 = self.aff.b0 - float(self.trunc @ self.aff.w0)
        self.drift_lin = self.aff.b_lin - self.trunc @ self.aff.w_lin
        self.central = grid_cfg.drift_stencil == "central"
        self._x_tiles = {}

    # -- characteristics at controls P of shape (..., n_params) -----------

    def effective_drift(self, P: np.ndarray) -> np.ndarray:
        return self.drift0 + _lincomb(self.drift_lin, _params(P))

    def diffusion(self, P: np.ndarray) -> np.ndarray:
        return self.aff.c0 + _lincomb(self.aff.c_lin, _params(P))

    def jump_weights(self, P: np.ndarray) -> List[np.ndarray]:
        """Clipped jump weight per location."""
        ps = _params(P)
        return [np.maximum(w0 + _lincomb(wl, ps), 0.0)
                for w0, wl in zip(self.aff.w0, self.aff.w_lin)]

    def cost(self, L: CostFunction, t: float, P: np.ndarray) -> np.ndarray:
        """L(t, x, P) over the grid for a stack of controls, in one call."""
        rows = P.size // (self.n * P.shape[-1])
        x = self._x_tiles.get(rows)
        if x is None:
            x = self._x_tiles[rows] = np.tile(self.x_grid, rows)
        return L(t, x, P.reshape(-1, P.shape[-1])).reshape(P.shape[:-1])

    # -- explicit jump part ------------------------------------------------

    def jump_parts(self, V: np.ndarray) -> List[np.ndarray]:
        """S_j v - v per jump location, for a (B, n) stack."""
        return [g * V[:, i] + f * V[:, i1] - V for i, i1, g, f, _ in self.taps]

    def jump_apply_transpose(self, W: List[np.ndarray], q: np.ndarray) -> np.ndarray:
        """J^T q for the forward (adjoint) sweep of one value vector.

        The scatter-add visits source nodes in ascending order, so each sum
        runs in the order of a CSR product with S^T and the L-BFGS-B
        gradient does not depend on how J^T is stored.
        """
        out = np.zeros(self.n)
        for (_, _, g, f, index), w in zip(self.taps, W):
            wq = w * q
            out += np.bincount(
                index, weights=np.column_stack([g * wq, f * wq]).ravel(), minlength=self.n
            ) - wq
        return out

    # -- per-step Hamiltonian minimization -------------------------------

    def _stencils(self, V: np.ndarray, parts: List[np.ndarray]):
        """Difference quotients and jump terms of H for a (B, n) stack."""
        h = self.h
        diff = (V[:, 1:] - V[:, :-1]) / h
        dc = np.empty_like(V)
        dc[:, 1:-1] = (V[:, 2:] - V[:, :-2]) / (2.0 * h)
        dc[:, 0] = diff[:, 0]
        dc[:, -1] = diff[:, -1]
        # linear-extrapolation ghosts: zero curvature at the padded edges
        d2v = np.zeros_like(V)
        d2v[:, 1:-1] = (V[:, 2:] - 2.0 * V[:, 1:-1] + V[:, :-2]) / self.h2
        dp = dm = None
        if not self.central:
            dp = np.empty_like(V)
            dp[:, :-1] = diff
            dp[:, -1] = diff[:, -1]
            dm = np.empty_like(V)
            dm[:, 1:] = diff
            dm[:, 0] = diff[:, 0]
        # J(p)v = j0 + sum_i p_i j_i, with j_i stacked on a last axis
        j0 = jlin = None
        if parts:
            j0 = _lincomb(self.aff.w0, parts)
            jlin = np.stack([_lincomb(wl, parts) for wl in self.aff.w_lin.T], axis=-1)
        return dp, dm, dc, d2v, j0, jlin

    def hamiltonian(self, t, L, P, i, S, terms) -> np.ndarray:
        """H with coordinate i of P set to each of the K probes in S.

        P has shape (B, n, n_params); S broadcasts to (K, B, n).  Returns
        (K, B, n), from a single cost call.
        """
        dp, dm, dc, d2v, j0, jlin = terms
        Q = np.empty((len(S),) + P.shape)
        if P.shape[-1] > 1:
            Q[...] = P
        Q[..., i] = S
        H = self._transport_terms(Q, dp, dm, dc, d2v)
        if j0 is not None:
            H += j0 + _lincomb(_params(jlin), _params(Q))
        H += self.cost(L, t, Q)
        return H

    def _transport_terms(self, Q, dp, dm, dc, d2v) -> np.ndarray:
        """Drift and diffusion terms of H; a function of its own so that its
        temporaries are freed before the cost call."""
        b = self.effective_drift(Q)
        c = self.diffusion(Q)
        if self.central:
            H = b * dc
        else:
            upwind = np.maximum(b, 0.0) * dp + np.minimum(b, 0.0) * dm
            H = np.where(c >= np.abs(b) * self.h, b * dc, upwind)
        H += 0.5 * c * d2v
        return H

    def optimize_controls(self, t: float, L: CostFunction, terms, shape) -> np.ndarray:
        """Per-node minimizing parameters of the discrete Hamiltonian."""
        aff = self.aff
        P = np.empty(shape + (aff.n_params,))
        P[...] = 0.5 * (aff.lows + aff.highs)
        sweeps = 1 if aff.n_params == 1 else 2
        for _ in range(sweeps):
            for i in range(aff.n_params):
                lo, hi = aff.lows[i], aff.highs[i]
                P[..., i] = lo if hi <= lo else self._minimize_coordinate(
                    t, L, P, i, lo, hi, terms)
        return P

    def _minimize_coordinate(self, t, L, P, i, lo, hi, terms) -> np.ndarray:
        """Per-node argmin over coordinate i; closed form when quadratic."""
        mid = 0.5 * (lo + hi)
        span = hi - lo
        probe = lo + 0.25 * span
        probes = np.array([lo, mid, hi, probe])[:, None, None]
        f_lo, f_mid, f_hi, f_probe = self.hamiltonian(t, L, P, i, probes, terms)
        # fit A (s-lo)^2 + B (s-lo) + f_lo through three probes and verify at
        # the fourth before trusting the closed-form argmin; the check is one
        # decision per potential, over all of its nodes
        A = 2.0 * (f_lo - 2.0 * f_mid + f_hi) / span**2
        B = (4.0 * f_mid - 3.0 * f_lo - f_hi) / span
        fit = A * (probe - lo) ** 2 + B * (probe - lo) + f_lo
        quadratic = np.all(np.abs(fit - f_probe) <= 1e-9 * (1.0 + np.abs(f_probe)), axis=-1)
        with np.errstate(all="ignore"):
            vertex = lo - B / (2.0 * A)
        interior = np.where(A > 0, np.clip(vertex, lo, hi), lo)
        endpoint = np.where(f_lo <= f_hi, lo, hi)
        s = np.where(A > 0, interior, endpoint)
        if not quadratic.all():
            rows = np.flatnonzero(~quadratic)
            sub = tuple(None if a is None else a[rows] for a in terms)
            s[rows] = self._golden_section(t, L, P[rows], i, lo, hi, sub)
        return s

    def _golden_section(self, t, L, P, i, lo, hi, terms) -> np.ndarray:
        a = np.full(P.shape[:-1], lo)
        b_ = np.full(P.shape[:-1], hi)
        for _ in range(48):
            c1 = b_ - GOLDEN * (b_ - a)
            c2 = a + GOLDEN * (b_ - a)
            f1, f2 = self.hamiltonian(t, L, P, i, np.stack([c1, c2]), terms)
            left = f1 < f2
            b_ = np.where(left, c2, b_)
            a = np.where(left, a, c1)
        return np.clip(0.5 * (a + b_), lo, hi)

    # -- frozen-control implicit step ------------------------------------

    def tridiagonal(self, b: np.ndarray, c: np.ndarray):
        """(dl, d, du) of I - dt * (implicit drift + implicit diffusion).

        b and c are (B, n) stacks; the B systems are laid end to end as one
        system of size B * n whose couplings across block boundaries are
        zero, so gtsv eliminates each block exactly as it would alone.
        """
        h, h2, dt = self.h, self.h2, self.dt
        half = 0.5 * dt * c / h2
        if self.central:
            diag = 1.0 + dt * c / h2
            row_upper = -0.5 * dt * b / h - half
            row_lower = 0.5 * dt * b / h - half
        else:
            up = np.maximum(b, 0.0)
            dn = np.minimum(b, 0.0)
            central = c >= np.abs(b) * h
            diag = np.where(central, 1.0 + dt * c / h2, 1.0 + dt * (up - dn) / h + dt * c / h2)
            row_upper = np.where(central, -0.5 * dt * b / h - half, -dt * up / h - half)
            row_lower = np.where(central, 0.5 * dt * b / h - half, dt * dn / h - half)
        du = np.empty_like(b)
        dl = np.empty_like(b)
        du[:, :-1] = row_upper[:, :-1]
        dl[:, :-1] = row_lower[:, 1:]
        du[:, -1] = dl[:, -1] = 0.0
        # edge rows sit in the padded region: one-sided drift, zero curvature
        diag[:, 0] = 1.0 + dt * b[:, 0] / h
        du[:, 0] = -dt * b[:, 0] / h
        diag[:, -1] = 1.0 - dt * b[:, -1] / h
        dl[:, -2] = dt * b[:, -1] / h
        return dl.ravel()[:-1], diag.ravel(), du.ravel()[:-1]

    def backward_step(self, k: int, V: np.ndarray, L: CostFunction):
        """Values at t_k from values V at t_{k+1}, for a (B, n) stack.

        Returns the controls (B, n, n_params) and the values (B, n).
        """
        t = self.t_grid[k]
        parts = self.jump_parts(V)
        P = self.optimize_controls(t, L, self._stencils(V, parts), V.shape)
        source = self.cost(L, t, P)
        if parts:
            source = _lincomb(self.jump_weights(P), parts) + source
        rhs = V + self.dt * source
        dl, d, du = self.tridiagonal(self.effective_drift(P), np.maximum(self.diffusion(P), 0.0))
        return P, _gtsv(dl, d, du, rhs.ravel()).reshape(V.shape)


def _solve_hjb_ws(ws: _HJBWorkspace, cost: CostFunction, terminal: np.ndarray) -> ValueGrid:
    values = np.empty((ws.n_t + 1, ws.n))
    controls = np.empty((ws.n_t, ws.n, ws.aff.n_params))
    values[-1] = terminal
    V = values[-1:]
    for k in range(ws.n_t - 1, -1, -1):
        P, V = ws.backward_step(k, V, cost)
        controls[k] = P[0]
        values[k] = V[0]
    return ValueGrid(ws.x_grid, ws.t_grid, values, controls, ws.report)


def _initial_values(ws: _HJBWorkspace, cost: CostFunction, terminals: np.ndarray) -> np.ndarray:
    """v(0, .) for a (B, n) stack of terminal potentials in one backward
    sweep that keeps only the current step."""
    V = terminals
    for k in range(ws.n_t - 1, -1, -1):
        _, V = ws.backward_step(k, V, cost)
    return V


def _terminal_on_grid(ws: _HJBWorkspace, lambda1) -> np.ndarray:
    if callable(lambda1):
        terminal = np.asarray(lambda1(ws.x_grid), dtype=float)
    else:
        terminal = np.asarray(lambda1, dtype=float)
        if terminal.shape != ws.x_grid.shape:
            raise ValueError("terminal array must match the padded grid")
    if not np.all(np.isfinite(terminal)):
        raise ValueError("terminal function must be bounded on the grid")
    return terminal


def solve_hjb(
    inst: TransportInstance,
    lambda1: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    grid_cfg: HJBGridConfig = HJBGridConfig(),
) -> ValueGrid:
    """Backward dynamic-programming solve of the dual control problem.

    Returns the value surface with v(0, .) equal to the control value started
    from each grid point, plus the per-node optimal parameters.
    """
    ws = _HJBWorkspace(inst.fam, grid_cfg)
    return _solve_hjb_ws(ws, inst.cost, _terminal_on_grid(ws, lambda1))


def _forward_ws(ws: _HJBWorkspace, controls: np.ndarray, q0: np.ndarray) -> np.ndarray:
    """Adjoint of the backward step maps applied to q0: the terminal grid law
    of the controlled process under the frozen controls."""
    q = q0
    for k in range(ws.n_t):
        P = controls[k]
        dl, d, du = ws.tridiagonal(ws.effective_drift(P)[None],
                                   np.maximum(ws.diffusion(P), 0.0)[None])
        r = _gtsv(du, d, dl, q.copy())  # the transposed system
        q = r + ws.dt * ws.jump_apply_transpose(ws.jump_weights(P), r)
    return q


# ---------------------------------------------------------------------------
# dual ascent


@dataclass(frozen=True)
class DualAscentConfig:
    grid: HJBGridConfig = HJBGridConfig(n_x=240, n_t=100)
    bound: float = DUAL_BOUND_DEFAULT
    gtol: float = GTOL_DEFAULT
    max_iterations: int = 400
    # mollifier width (in state units) for the ascent class: the potential is
    # a Gaussian-smoothed version of the optimization variables.  Suppresses
    # grid-scale oscillations that would otherwise exploit the mismatch
    # between the discrete dynamics and an atomic target marginal; smooth
    # optima (quadratics in particular) pass through up to an additive
    # constant, which the dual value ignores.  0 disables smoothing.
    smoothing: float = 0.0


@dataclass(frozen=True)
class DualAscentResult:
    dual_value: float
    lambda1: np.ndarray
    x_grid: np.ndarray
    history: Tuple[float, ...]
    converged: bool
    likely_infeasible: bool


def dual_ascent(inst: TransportInstance, cfg: DualAscentConfig = DualAscentConfig()) -> DualAscentResult:
    """Maximize the dual value over bounded piecewise-linear terminal potentials.

    Three stages, all recorded in ``history``:

    1. a warm start over λ = 0 and 50 clipped quadratics a x^2 + d x, whose
       51 dual values come from one batched backward sweep;
    2. a Nelder–Mead polish of (a, d) from the best of them;
    3. L-BFGS-B over the full grid potential from the polished quadratic,
       with the forward-transported terminal law minus the target as the
       exact ascent direction.
    """
    ws = _HJBWorkspace(inst.fam, cfg.grid)
    x_grid = ws.x_grid
    mu0_w = inst.mu0.grid_weights(x_grid)
    mu1_w = inst.mu1.grid_weights(x_grid)
    history: List[float] = []

    if cfg.smoothing > 0:
        diff = x_grid[:, None] - x_grid[None, :]
        kernel = np.exp(-0.5 * (diff / cfg.smoothing) ** 2)
        kernel *= ws.h / (cfg.smoothing * math.sqrt(2.0 * math.pi))
    else:
        kernel = None

    def potential(z: np.ndarray) -> np.ndarray:
        return kernel @ z if kernel is not None else z

    def dual_values(zs: List[np.ndarray]) -> List[float]:
        lams = [_terminal_on_grid(ws, potential(z)) for z in zs]
        v0 = _initial_values(ws, inst.cost, np.stack(lams))
        values = [float(mu0_w @ v - mu1_w @ lam) for v, lam in zip(v0, lams)]
        history.extend(values)
        return values

    def negative_dual(z: np.ndarray):
        lam = potential(z)
        vg = _solve_hjb_ws(ws, inst.cost, _terminal_on_grid(ws, lam))
        value = float(mu0_w @ vg.initial() - mu1_w @ lam)
        grad = _forward_ws(ws, vg.controls, mu0_w) - mu1_w
        if kernel is not None:
            grad = kernel @ grad  # the mollifier is symmetric
        history.append(value)
        return -value, -grad

    # coarse initialization: search clipped quadratic potentials a x^2 + d x,
    # which are the natural shapes for variance/rate transport, then refine
    # the full grid potential from the best one
    def quad_potential(a: float, d: float) -> np.ndarray:
        return np.clip(a * x_grid**2 + d * x_grid, -cfg.bound, cfg.bound)

    ad_grid = [(0.0, 0.0)] + [
        (a, d)
        for a in (0.25, 1.0, 4.0, 16.0, 64.0, -0.25, -1.0, -4.0, -16.0, -64.0)
        for d in (0.0, 1.0, -1.0, 4.0, -4.0)
    ]
    values = dual_values([np.zeros(x_grid.size)] + [quad_potential(*ad) for ad in ad_grid[1:]])
    best = int(np.argmax(values))  # the first of equal maxima
    best_ad, best_val = ad_grid[best], values[best]
    polish = minimize(
        lambda ad: -dual_values([quad_potential(ad[0], ad[1])])[0],
        np.array(best_ad),
        method="Nelder-Mead",
        options={"maxiter": 60, "xatol": 1e-4, "fatol": 1e-6},
    )
    if -polish.fun > best_val:
        best_ad = (float(polish.x[0]), float(polish.x[1]))

    x0 = quad_potential(*best_ad)
    res = minimize(
        negative_dual,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-cfg.bound, cfg.bound)] * x_grid.size,
        options={"maxiter": cfg.max_iterations, "ftol": 1e-12, "gtol": cfg.gtol},
    )
    lam_best = potential(np.asarray(res.x, float))
    best = float(-res.fun)
    return DualAscentResult(
        dual_value=best,
        lambda1=lam_best,
        x_grid=x_grid,
        history=tuple(history),
        converged=bool(res.success),
        likely_infeasible=best > INFEASIBLE_DUAL_CAP,
    )


# ---------------------------------------------------------------------------
# primal side: deterministic schedules with CF-matching penalty


@dataclass(frozen=True)
class PrimalConfig:
    n_steps: int = 20
    u_grid: np.ndarray = field(default_factory=lambda: np.linspace(-5.0, 5.0, 41))
    rho_schedule: Tuple[float, ...] = RHO_SCHEDULE
    ftol: float = FTOL_PRIMAL


@dataclass(frozen=True)
class PrimalResult:
    primal_value: float
    schedule: np.ndarray  # (n_steps, n_params)
    feasibility_residual: float
    likely_infeasible: bool


def _exponent_basis(aff: _AffineFamily, u_grid: np.ndarray):
    """psi(u; p) = psi0(u) + sum_i p_i psi_i(u) on the frequency grid."""
    u = u_grid
    psi0 = 1j * u * aff.b0 - 0.5 * aff.c0 * u**2
    psi_lin = np.empty((aff.n_params, u.size), dtype=complex)
    jump_core = np.empty((aff.locations.size, u.size), dtype=complex)
    for j, y in enumerate(aff.locations):
        jump_core[j] = np.exp(1j * u * y) - 1.0 - 1j * u * truncate_scalar(y)
    if aff.locations.size:
        psi0 = psi0 + aff.w0 @ jump_core
    for i in range(aff.n_params):
        psi_lin[i] = 1j * u * aff.b_lin[i] - 0.5 * aff.c_lin[i] * u**2
        if aff.locations.size:
            psi_lin[i] = psi_lin[i] + aff.w_lin[:, i] @ jump_core
    return psi0, psi_lin


def schedule_cost(cost: CostFunction, schedule: np.ndarray) -> float:
    """Running cost dt * sum_k L(t_k, ., p_k) of a state-independent cost
    along a (K, n_params) piecewise-constant schedule on [0, 1]."""
    K = schedule.shape[0]
    dt = 1.0 / K
    t_grid = dt * np.arange(K)
    x = np.zeros(1)
    return dt * sum(float(cost(t_grid[k], x, schedule[k])[0]) for k in range(K))


def solve_primal_deterministic(
    inst: TransportInstance, cfg: PrimalConfig = PrimalConfig()
) -> PrimalResult:
    """Optimize a deterministic piecewise-constant control schedule.

    Terminal-law matching in characteristic-function sup norm over a frequency
    grid, quadratic penalty with continuation over rho.
    """
    if inst.cost.is_state_dependent(inst.fam):
        raise StateDependentCostError(
            "deterministic primal solver requires a state-independent cost"
        )
    aff = affine_family_structure(inst.fam)
    K = cfg.n_steps
    dt = 1.0 / K
    u = np.asarray(cfg.u_grid, float)
    psi0, psi_lin = _exponent_basis(aff, u)
    cf0 = inst.mu0.cf(u)
    cf1 = inst.mu1.cf(u)
    n_p = aff.n_params

    def running_cost(flat):
        return schedule_cost(inst.cost, flat.reshape(K, n_p))

    def residual(flat):
        P = flat.reshape(K, n_p)
        exponent = dt * (K * psi0 + P.sum(axis=0) @ psi_lin)
        cf_term = cf0 * np.exp(exponent)
        if u.size == 0:
            return 0.0
        return float(np.max(np.abs(cf_term - cf1) ** 2))

    bounds = [(aff.lows[i], aff.highs[i]) for i in range(n_p)] * K
    flat = np.tile(0.5 * (aff.lows + aff.highs), K)
    for rho in cfg.rho_schedule:
        res = minimize(
            lambda z, r=rho: running_cost(z) + r * residual(z),
            flat,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12},
        )
        flat = np.asarray(res.x, float)
    P = flat.reshape(K, n_p)
    resid = math.sqrt(residual(flat))
    return PrimalResult(
        primal_value=running_cost(flat),
        schedule=P,
        feasibility_residual=resid,
        likely_infeasible=resid > cfg.ftol,
    )


# ---------------------------------------------------------------------------
# Monte Carlo validation and the duality report


@dataclass(frozen=True)
class MCValidation:
    cost_estimate: float
    ci: float
    terminal_ks: float


def evaluate_cost_mc(
    inst: TransportInstance,
    schedule: np.ndarray,
    n_paths: int = 100_000,
    seed: int = 0,
) -> MCValidation:
    """Simulate the schedule for its terminal fit; the running cost of a
    deterministic schedule is its exact ``schedule_cost``."""
    if inst.cost.is_state_dependent(inst.fam):
        raise StateDependentCostError(
            "schedule validation requires a state-independent cost"
        )
    schedule = np.atleast_2d(np.asarray(schedule, float))
    K = schedule.shape[0]
    times = (1.0 / K) * np.arange(K)
    triplets = [inst.fam.at(p) for p in schedule]
    sched_fn = mc.piecewise_schedule(times, triplets)
    sim_cfg = mc.SimulationConfig(
        horizon=1.0, n_steps=K, n_paths=n_paths, seed=seed,
        small_jump_threshold=1e-3, gaussian_compensation=True,
    )
    x0 = inst.mu0.location if inst.mu0.kind == "point-mass" else inst.mu0.mean
    bundle = mc.simulate_paths(sched_fn, x0, sim_cfg)
    ks = mc.marginal_ks(bundle.terminal, inst.mu1.cdf)
    return MCValidation(schedule_cost(inst.cost, schedule), 0.0, ks)


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
    dual_converged: bool  # L-BFGS-B's success flag
    dual_likely_infeasible: bool
    primal_likely_infeasible: bool


def duality_report(
    inst: TransportInstance,
    primal_cfg: PrimalConfig = PrimalConfig(),
    dual_cfg: DualAscentConfig = DualAscentConfig(),
    mc_paths: int = 100_000,
    mc_seed: int = 0,
) -> DualityReport:
    """Run both sides of the transport problem and report the duality gap."""
    primal = solve_primal_deterministic(inst, primal_cfg)
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
    )
