"""Levy triplet algebra: boundedness/small-jump diagnostics, the modified
second characteristic, exponents and measure feature maps.

A TripletStack holds P triplets as arrays, and a single triplet is a
one-row stack.  Every condition and map below takes a stack and evaluates
every row at once, each row bit for bit as its own one-row stack
(``TripletStack.row``).

Conventions fixed here and used everywhere else:
  * truncation h = measures.truncate: x on the closed unit ball and x / |x|
    beyond it (exactly ±1 in d = 1),
  * |b| Euclidean, |c| Frobenius,
  * family suprema are grid estimates including box corners and are reported
    as lower bounds on the true supremum.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .measures import MeasureStack, _sqnorm, row_dot, row_norm, truncate

SYMMETRY_TOL = 1e-12
PSD_EIG_TOL = 1e-10
TOL_J = 1e-3
COND_J_FAIL_FACTOR = 10.0


def _check_diffusion(c: np.ndarray) -> None:
    """Each c[i] of a (P, d, d) array must be symmetric and PSD."""
    if c.shape[-1] == 1:
        # the 1 x 1 case: symmetric, and its eigenvalue is the entry itself
        eig = c[:, 0, 0]
    else:
        ct = np.swapaxes(c, -1, -2)
        if np.max(np.abs(c - ct), initial=0.0) > SYMMETRY_TOL:
            raise ValueError("c is not symmetric within 1e-12")
        eig = np.linalg.eigvalsh(0.5 * (c + ct))
    if (eig < -PSD_EIG_TOL).any():
        raise ValueError("c has an eigenvalue below -1e-10")


@dataclass(frozen=True)
class TripletStack:
    """P triplets as arrays: b (P, d), c (P, d, d) and the measures F.

    A single triplet is a one-row stack.  Every c[i] must be symmetric and
    PSD (``_check_diffusion``); F checks the atoms and the jump mass
    (``MeasureStack``).
    """

    b: np.ndarray
    c: np.ndarray
    F: MeasureStack

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if b.ndim != 2:
            raise ValueError(f"b has shape {b.shape}, expected (P, d)")
        P, d = b.shape
        if c.shape != (P, d, d):
            raise ValueError(f"c has shape {c.shape}, expected ({P}, {d}, {d})")
        if self.F.dimension != d or len(self.F) != P:
            raise ValueError("F dimension does not match b")
        _check_diffusion(c)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __len__(self) -> int:
        return self.b.shape[0]

    @property
    def dimension(self) -> int:
        return self.b.shape[1]

    @staticmethod
    def pack(stacks: Sequence["TripletStack"]) -> "TripletStack":
        """The rows of stacks of one dimension as one stack."""
        ts = list(stacks)
        if not ts:
            raise ValueError("cannot stack zero triplets")
        F = MeasureStack.pack([t.F for t in ts])
        return TripletStack(np.concatenate([t.b for t in ts]), np.concatenate([t.c for t in ts]), F)

    def row(self, i: int) -> "TripletStack":
        """Row i as a one-row stack; its measure is ``F.row(i)``."""
        return TripletStack(self.b[[i]], self.c[[i]], self.F.row(i))


def _dots(x: np.ndarray, U: np.ndarray) -> np.ndarray:
    """x @ u for each row u of U (nU, d): (P, n, d) locations -> (P, nU, n).

    Each (row, u) pair is one matrix-vector product, as ``x @ u`` is.
    """
    return (x[:, None] @ U[..., None])[..., 0]


def _real(v):
    return v.real


def _imag(v):
    return v.imag


def condition_b_value(st: TripletStack) -> np.ndarray:
    """The boundedness functional |b| + |c| + ∫ |x|^2 ∧ |x| F(dx) of each row."""
    jump = st.F.integrate(lambda x: np.minimum(_sqnorm(x), np.sqrt(_sqnorm(x))))
    return row_norm(st.b) + row_norm(st.c.reshape(len(st), -1)) + jump


def small_jump_second_moment(F: MeasureStack, delta: float) -> np.ndarray:
    """∫_{|x| <= delta} |x|^2 F(dx) of each row."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    return F.integrate_ball(_sqnorm, delta)


def modified_triplet(t: TripletStack) -> TripletStack:
    """(b, c, F) -> (b, c + ∫ h h^T dF, F): the modified second
    characteristic of each row."""

    def outer(x):  # (P, n, d) -> h h^T as (P, d, d, n)
        # contiguous rows, as one integral per entry would have them
        h = np.ascontiguousarray(np.swapaxes(truncate(x), 1, 2))
        return h[:, :, None, :] * h[:, None, :, :]

    return TripletStack(t.b, t.c + t.F.integrate(outer), t.F)


def levy_exponent(t: TripletStack, u) -> np.ndarray:
    """psi(u) = i u.b - u.c.u/2 + ∫ (e^{i u.x} - 1 - i u.h(x)) F(dx).

    For a grid of frequencies ((U,) when d = 1, else (U, d)), the (P, U)
    array of psi, one row per triplet.
    """
    d = t.dimension
    U = np.asarray(u, dtype=float)
    if U.ndim == 1 and d == 1:
        U = U[:, None]
    if U.ndim != 2 or U.shape[1] != d:
        raise ValueError("frequency dimension mismatch")
    P = len(t)
    bu = row_dot(t.b, np.broadcast_to(U, (P,) + U.shape))
    ucu = (U[None, :, None, :] @ t.c[:, None] @ U[None, :, :, None])[..., 0, 0]
    diff = -0.5 * ucu
    re, im = t.F.integrate_parts(
        lambda grp: np.exp(1j * _dots(grp.x, U)) - 1.0 - 1j * _dots(truncate(grp.x), U),
        (_real, _imag),
    )
    # i*bu + diff + jump in Python's complex arithmetic, spelled out in
    # floats so that every rounding and every signed zero matches
    out = np.empty((P, U.shape[0]), dtype=complex)
    out.real = (0.0 * bu - 0.0) + diff + re
    out.imag = (0.0 + bu) + 0.0 + im
    return out


def jump_exponent(u, locations) -> np.ndarray:
    """e^{iuy} - 1 - iu h(y), the term a unit jump at y adds to the exponent,
    for each location y (rows) and frequency u (columns), in d = 1."""
    y = np.asarray(locations, dtype=float)[:, None]
    u = np.asarray(u, dtype=float)
    return np.exp(1j * u * y) - 1.0 - 1j * u * truncate(y)


def martingale_residual(st: TripletStack) -> np.ndarray:
    """b + ∫ (x - h(x)) F(dx) of each row, (P, d); a zero row certifies the
    martingale set."""
    # one contiguous row per component, as one integral per component would have it
    return st.b + st.F.integrate(lambda x: np.ascontiguousarray(np.swapaxes(x - truncate(x), 1, 2)))


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

    @functools.cached_property
    def u_array(self) -> np.ndarray:
        return np.array(self.u_grid)

    @functools.cached_property
    def window_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """(lo, hi - lo) of the window ramps m = 1..m_max, as (m_max, 1)
        columns: window m is 0 on [0, 1/(2m)] and 1 on [1/m, inf), linear
        in between."""
        m = np.arange(1, self.m_max + 1)[:, None]
        lo, hi = 1.0 / (2 * m), 1.0 / m
        return lo, hi - lo


def measure_features(F: MeasureStack, cfg: FeatureMapConfig) -> np.ndarray:
    """Finite feature map separating the supported parametric measure
    families: a (P, size) array, one row per measure."""
    lo, width = cfg.window_bounds
    out = np.empty((len(F), cfg.size))
    (out[:, : cfg.m_max],) = F.integrate_parts(
        lambda grp: grp.sq1[:, None]
        * np.minimum(np.maximum((np.sqrt(grp.sq)[:, None] - lo) / width, 0.0), 1.0)
    )
    if cfg.u_grid:
        out[:, cfg.m_max :: 2], out[:, cfg.m_max + 1 :: 2] = F.integrate_parts(
            lambda grp: grp.sq1[:, None] * np.exp(1j * _dots(grp.x, cfg.u_array)),
            (_real, _imag),
        )
    return out


@dataclass(frozen=True)
class ThetaFamily:
    """Parametric family p -> (b(p), c(p), F(p)) over a box of parameters;
    ``stack_map`` takes a (P, n_params) array to the TripletStack of its
    rows' members."""

    parameter_box: Tuple[Tuple[float, float], ...]
    stack_map: Callable[[np.ndarray], TripletStack]
    structural_tag: str = "general"
    # for product-box families: parameter indices feeding each component
    blocks: Optional[Mapping[str, Tuple[int, ...]]] = None
    # for compiled families: parameter indices that b, c and F each read
    reads: Optional[Mapping[str, Tuple[int, ...]]] = None
    # the parameters' names, as a document's ``params``; p0, p1, ... if none
    param_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.parameter_box)
        for lo, hi in box:
            if hi < lo:
                raise ValueError("parameter bounds must satisfy low <= high")
        object.__setattr__(self, "parameter_box", box)
        names = tuple(self.param_names or (f"p{i}" for i in range(len(box))))
        if len(names) != len(box):
            raise ValueError("parameter names must match the box length")
        object.__setattr__(self, "param_names", names)
        if self.structural_tag not in ("product-box", "general"):
            raise ValueError(f"unknown structural_tag {self.structural_tag!r}")
        if self.structural_tag == "product-box" and self.blocks is None:
            raise ValueError("product-box families must declare parameter blocks")

    @property
    def n_params(self) -> int:
        return len(self.parameter_box)

    def at(self, p) -> TripletStack:
        """The member at p, as a one-row stack."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if p.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {p.shape}")
        return self.stack_map(p[None])

    def stack(self, params) -> TripletStack:
        """The members at the rows of a (P, n_params) array, as one stack."""
        params = np.asarray(params, dtype=float)
        if params.ndim != 2 or params.shape[1] != self.n_params:
            raise ValueError(f"expected (P, {self.n_params}) parameters, got {params.shape}")
        return self.stack_map(params)

    def corners(self) -> np.ndarray:
        return np.array(list(itertools.product(*self.parameter_box)))

    def grid(self, resolution: int) -> np.ndarray:
        if resolution < 2:
            raise ValueError("resolution must be >= 2 grid points per axis")
        axes = [np.linspace(lo, hi, resolution) for lo, hi in self.parameter_box]
        return np.array(list(itertools.product(*axes)))


@dataclass(frozen=True)
class FamilyBoundEstimate:
    """Grid estimate of a family supremum; a lower bound on the true sup."""

    sup_estimate: float
    finite_flag: bool
    note: str = "grid estimate including corners; lower bound on the true sup"


def family_points(fam: ThetaFamily, resolution: int) -> TripletStack:
    """The members at the box corners and then the grid points, as one
    stack; when one fails, the error names its point."""
    pts = np.vstack([fam.corners(), fam.grid(resolution)])
    try:
        return fam.stack(pts)
    except Exception:
        for p in pts:
            try:
                fam.at(p)
            except Exception as exc:
                raise RuntimeError(f"family evaluation failed at p={p}: {exc}") from exc
        raise


@dataclass(frozen=True)
class ConditionJReport:
    profile: Tuple[Tuple[float, float], ...]  # (delta, sup estimate)
    verdict: str  # holds | fails | inconclusive


def delta_schedule_floats(delta_schedule: Sequence[float]) -> list:
    """The schedule as floats; it must be strictly decreasing, with at least
    three entries for the profile's decay fit."""
    deltas = [float(d) for d in delta_schedule]
    if len(deltas) < 3 or any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta_schedule must be strictly decreasing with >= 3 entries")
    return deltas


def family_condition_j(points: TripletStack, delta_schedule: Sequence[float]) -> ConditionJReport:
    """Probe the uniform vanishing of small-jump second moments over the
    family's members at the corners and grid points (``family_points``)."""
    deltas = delta_schedule_floats(delta_schedule)
    sups = np.array([small_jump_second_moment(points.F, d).max() for d in deltas])
    if np.min(sups) >= COND_J_FAIL_FACTOR * TOL_J:
        verdict = "fails"
    elif sups[-1] <= TOL_J and np.all(np.diff(sups) <= 1e-12):
        # small terminal value with a (weakly) decreasing profile: consistent
        # with a power-law decay toward 0
        verdict = "holds"
    else:
        verdict = "inconclusive"
    return ConditionJReport(tuple(zip(deltas, sups.tolist())), verdict)


@dataclass(frozen=True)
class FamilyChecks:
    """A family's conditions B and J and its martingale residuals at the box
    corners, read from one stack of its members."""

    points: TripletStack  # the 2**n_params corners, then the grid points
    condition_b: FamilyBoundEstimate
    condition_j: ConditionJReport
    corner_residuals: np.ndarray  # (2**n_params, d), in the order of corners()


def family_checks(
    fam: ThetaFamily, delta_schedule: Sequence[float], resolution: int
) -> FamilyChecks:
    """Price the family at its corners and grid points once, and read every
    check from that stack; condition B is the grid sup of the boundedness
    functional."""
    # a member whose atom's square overflows is unbounded: condition B reads
    # that inf (J and the residual read the same points), so the overflow
    # is the answer, not a fault to warn of
    with np.errstate(over="ignore"):
        points = family_points(fam, resolution)
        values = condition_b_value(points)
        return FamilyChecks(
            points,
            FamilyBoundEstimate(float(np.max(values)), bool(np.isfinite(values).all())),
            family_condition_j(points, delta_schedule),
            martingale_residual(points)[: 2**fam.n_params],
        )


def box_independence_check(fam: ThetaFamily) -> bool:
    """Whether a product-box family is box-like: each component of (b, c, F)
    reads only parameters that its own block lists and no other block does.

    The reads come from the family's compiled expressions, so this is exact;
    a family without recorded reads, such as a Python map, answers False.
    """
    if fam.structural_tag != "product-box" or fam.reads is None:
        return False

    def owned(comp: str) -> set:
        others = {i for owner, idx in fam.blocks.items() if owner != comp for i in idx}
        return set(fam.blocks.get(comp, ())) - others

    return all(set(fam.reads[comp]) <= owned(comp) for comp in ("b", "c", "F"))
