"""Levy triplet algebra: boundedness/small-jump diagnostics, the modified
second characteristic, exponents, generators and measure feature maps.

Conventions fixed here and used everywhere else:
  * truncation h(x) = x * min(1, 1/|x|) (unit-ball projection),
  * |b| Euclidean, |c| Frobenius,
  * family suprema are grid estimates including box corners and are reported
    as lower bounds on the true supremum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .measures import (
    LevyMeasure,
    TruncationRule,
    _sqnorm,
)

SYMMETRY_TOL = 1e-12
PSD_EIG_TOL = 1e-10
TOL_J = 1e-3
COND_J_FAIL_FACTOR = 10.0


@dataclass(frozen=True)
class LevyTriplet:
    """Differential characteristics (b, c, F) of a Levy(-type) law."""

    b: np.ndarray
    c: np.ndarray
    F: LevyMeasure

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        b.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        d = b.shape[0]
        if c.shape != (d, d):
            raise ValueError(f"c has shape {c.shape}, expected ({d}, {d})")
        if self.F.dimension != d:
            raise ValueError("F dimension does not match b")
        if np.max(np.abs(c - c.T)) > SYMMETRY_TOL:
            raise ValueError("c is not symmetric within 1e-12")
        if np.min(np.linalg.eigvalsh(0.5 * (c + c.T))) < -PSD_EIG_TOL:
            raise ValueError("c has an eigenvalue below -1e-10")

    @property
    def dimension(self) -> int:
        return self.b.shape[0]

    @property
    def truncation(self) -> TruncationRule:
        return TruncationRule(self.dimension)

    @staticmethod
    def scalar(b: float, c: float, F: Optional[LevyMeasure] = None) -> "LevyTriplet":
        return LevyTriplet(
            np.array([float(b)]),
            np.array([[float(c)]]),
            F if F is not None else LevyMeasure.zero(1),
        )


def condition_b_value(t: LevyTriplet) -> float:
    """The boundedness functional |b| + |c| + ∫ |x|^2 ∧ |x| F(dx)."""
    jump = t.F.integrate(lambda x: np.minimum(_sqnorm(x), np.sqrt(_sqnorm(x))))
    return float(np.linalg.norm(t.b) + np.linalg.norm(t.c, "fro") + jump)


def small_jump_second_moment(F: LevyMeasure, delta: float) -> float:
    """∫_{|x| <= delta} |x|^2 F(dx)."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    return F.integrate_ball(_sqnorm, delta)


def modified_triplet(t: LevyTriplet) -> LevyTriplet:
    """(b, c, F) -> (b, c + ∫ h h^T dF, F): the modified second characteristic."""
    h = t.truncation
    d = t.dimension
    corr = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            corr[i, j] = corr[j, i] = t.F.integrate(
                lambda x, i=i, j=j: h.apply(x)[..., i] * h.apply(x)[..., j]
            )
    return LevyTriplet(t.b, t.c + corr, t.F)


def levy_exponent(t: LevyTriplet, u) -> complex:
    """psi(u) = i u.b - u.c.u/2 + ∫ (e^{i u.x} - 1 - i u.h(x)) F(dx)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (t.dimension,):
        raise ValueError("frequency dimension mismatch")
    h = t.truncation
    drift = 1j * float(u @ t.b)
    diff = -0.5 * float(u @ t.c @ u)
    jump = t.F.integrate_complex(
        lambda x: np.exp(1j * (x @ u)) - 1.0 - 1j * (h.apply(x) @ u)
    )
    return drift + diff + jump


def generator_apply(
    t: LevyTriplet,
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray], np.ndarray],
    x,
) -> float:
    """Apply the integro-differential generator of (b, c, F) to f at x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (t.dimension,):
        raise ValueError("state dimension mismatch")
    g = np.atleast_1d(np.asarray(grad(x), dtype=float))
    H = np.atleast_2d(np.asarray(hess(x), dtype=float))
    fx = float(f(x))
    h = t.truncation

    def integrand(y):
        shifted = np.array([float(f(x + yi)) for yi in y])
        if not np.all(np.isfinite(shifted)):
            raise ValueError("f non-finite at a shifted point")
        return shifted - fx - h.apply(y) @ g

    jump = t.F.integrate(integrand)
    return float(g @ t.b + 0.5 * np.sum(t.c * H) + jump)


def martingale_residual(t: LevyTriplet) -> np.ndarray:
    """b + ∫ (x - h(x)) F(dx); a zero vector certifies the martingale set."""
    h = t.truncation
    res = np.array(
        [
            t.F.integrate(lambda x, i=i: x[..., i] - h.apply(x)[..., i])
            for i in range(t.dimension)
        ]
    )
    return t.b + res


@dataclass(frozen=True)
class FeatureMapConfig:
    """Windowed small-jump features plus oscillatory features of a measure."""

    m_max: int = 3
    u_grid: Tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        grid = tuple(np.atleast_1d(np.asarray(u, float)) for u in self.u_grid)
        for u in grid:
            if np.linalg.norm(u) == 0.0:
                raise ValueError("zero frequency not allowed in u_grid")
        object.__setattr__(self, "u_grid", grid)

    @property
    def size(self) -> int:
        return self.m_max + 2 * len(self.u_grid)


def _window(m: int, r: np.ndarray) -> np.ndarray:
    """Piecewise-linear ramp: 0 on [0, 1/(2m)], 1 on [1/m, inf)."""
    lo, hi = 1.0 / (2 * m), 1.0 / m
    return np.clip((r - lo) / (hi - lo), 0.0, 1.0)


def measure_features(F: LevyMeasure, cfg: FeatureMapConfig) -> np.ndarray:
    """Finite feature map separating the supported parametric measure families."""
    out = np.empty(cfg.size)
    for m in range(1, cfg.m_max + 1):
        out[m - 1] = F.integrate(
            lambda x, m=m: np.minimum(_sqnorm(x), 1.0) * _window(m, np.sqrt(_sqnorm(x)))
        )
    k = cfg.m_max
    for u in cfg.u_grid:
        z = F.integrate_complex(
            lambda x: np.minimum(_sqnorm(x), 1.0) * np.exp(1j * (x @ u))
        )
        out[k], out[k + 1] = z.real, z.imag
        k += 2
    return out


@dataclass(frozen=True)
class ThetaFamily:
    """Parametric family p -> (b(p), c(p), F(p)) over a box of parameters."""

    parameter_box: Tuple[Tuple[float, float], ...]
    triplet_map: Callable[[np.ndarray], LevyTriplet]
    structural_tag: str = "general"
    # for product-box families: parameter indices feeding each component
    blocks: Optional[Mapping[str, Tuple[int, ...]]] = None

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.parameter_box)
        for lo, hi in box:
            if hi < lo:
                raise ValueError("parameter bounds must satisfy low <= high")
        object.__setattr__(self, "parameter_box", box)
        if self.structural_tag not in ("product-box", "general"):
            raise ValueError(f"unknown structural_tag {self.structural_tag!r}")
        if self.structural_tag == "product-box" and self.blocks is None:
            raise ValueError("product-box families must declare parameter blocks")

    @property
    def n_params(self) -> int:
        return len(self.parameter_box)

    def at(self, p) -> LevyTriplet:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if p.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {p.shape}")
        return self.triplet_map(p)

    def corners(self) -> np.ndarray:
        return np.array(list(itertools.product(*self.parameter_box)))

    def grid(self, resolution: int) -> np.ndarray:
        if resolution < 2:
            raise ValueError("resolution must be >= 2 grid points per axis")
        axes = [np.linspace(lo, hi, resolution) for lo, hi in self.parameter_box]
        return np.array(list(itertools.product(*axes)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lows = np.array([lo for lo, _ in self.parameter_box])
        highs = np.array([hi for _, hi in self.parameter_box])
        return lows + (highs - lows) * rng.random((n, len(lows)))

    def validate(self, rng: Optional[np.random.Generator] = None, n_interior: int = 8):
        """Evaluate the map on corners and random interior points."""
        rng = rng or np.random.default_rng(0)
        pts = np.vstack([self.corners(), self.sample(rng, n_interior)])
        for p in pts:
            t = self.at(p)
            if not (np.all(np.isfinite(t.b)) and np.all(np.isfinite(t.c))):
                raise ValueError(f"triplet map non-finite at p={p}")


@dataclass(frozen=True)
class FamilyBoundEstimate:
    """Grid estimate of a family supremum; a lower bound on the true sup."""

    sup_estimate: float
    finite_flag: bool
    resolution: int
    note: str = "grid estimate including corners; lower bound on the true sup"


def family_condition_b(fam: ThetaFamily, resolution: int = 9) -> FamilyBoundEstimate:
    """Estimate sup over the family of the boundedness functional."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    pts = np.vstack([fam.corners(), fam.grid(resolution)])
    values = []
    for p in pts:
        try:
            values.append(condition_b_value(fam.at(p)))
        except Exception as exc:
            raise RuntimeError(f"family evaluation failed at p={p}: {exc}") from exc
    values = np.array(values)
    finite = bool(np.all(np.isfinite(values)))
    return FamilyBoundEstimate(float(np.max(values)), finite, resolution)


@dataclass(frozen=True)
class ConditionJReport:
    profile: Tuple[Tuple[float, float], ...]  # (delta, sup estimate)
    verdict: str  # holds | fails | inconclusive
    resolution: int


def family_condition_j(
    fam: ThetaFamily,
    delta_schedule: Sequence[float],
    resolution: int = 9,
) -> ConditionJReport:
    """Probe the uniform vanishing of small-jump second moments over the family."""
    deltas = [float(d) for d in delta_schedule]
    if len(deltas) < 3 or any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta_schedule must be strictly decreasing with >= 3 entries")
    pts = np.vstack([fam.corners(), fam.grid(resolution)])
    if pts.size == 0:
        raise ValueError("empty family")
    triplets = [fam.at(p) for p in pts]
    profile = []
    for d in deltas:
        sup = max(small_jump_second_moment(t.F, d) for t in triplets)
        profile.append((d, float(sup)))
    sups = np.array([s for _, s in profile])
    if np.min(sups) >= COND_J_FAIL_FACTOR * TOL_J:
        verdict = "fails"
    elif sups[-1] <= TOL_J and np.all(np.diff(sups) <= 1e-12):
        # small terminal value with a (weakly) decreasing profile: consistent
        # with a power-law decay toward 0
        verdict = "holds"
    else:
        verdict = "inconclusive"
    return ConditionJReport(tuple(profile), verdict, resolution)


def box_independence_check(
    fam: ThetaFamily, samples: int = 16, seed: int = 0
) -> bool:
    """Sampled verification that each component only sees its own block."""
    if fam.structural_tag != "product-box":
        return False
    blocks = {k: tuple(v) for k, v in (fam.blocks or {}).items()}
    rng = np.random.default_rng(seed)
    pts = fam.sample(rng, samples)
    lows = np.array([lo for lo, _ in fam.parameter_box])
    highs = np.array([hi for _, hi in fam.parameter_box])
    for p in pts:
        base = fam.at(p)
        for component, idx in blocks.items():
            if not idx:
                continue
            q = p.copy()
            for i in idx:
                lo, hi = lows[i], highs[i]
                if hi > lo:
                    q[i] = lo + (hi - lo) * rng.random()
            other = fam.at(q)
            if component != "b" and not np.array_equal(base.b, other.b):
                return False
            if component != "c" and not np.array_equal(base.c, other.c):
                return False
            if component != "F" and base.F.state_key() != other.F.state_key():
                return False
    return True
