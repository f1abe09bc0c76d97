"""Jump-intensity measures and the truncation function h.

A measure is represented by finitely many atoms plus piecewise densities on
intervals bounded away from zero (one-dimensional pieces).  Integrals against
the density pieces use Gauss-Legendre quadrature with per-piece node counts.
A MeasureStack holds P measures as arrays and integrates them row by row,
over the whole line or over a ball; a single measure is a one-row stack.

``truncate`` is the package's one truncation function: h(x) = x on the
closed unit ball and x / |x| beyond it, which is exactly ±1 in d = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

DEFAULT_QUAD_NODES = 64

# cap on the numerically verified integral of |x|^2 ∧ 1 for density pieces
DEFAULT_MASS_CAP = 1e8


class QuadratureError(RuntimeError):
    """A density evaluated to a non-finite value on a quadrature node."""


@lru_cache(maxsize=64)
def _leggauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre_nodes(lo: float, hi: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for Gauss-Legendre quadrature on [lo, hi]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def truncate(x) -> np.ndarray:
    """The truncation function h along the last axis: x inside the closed
    unit ball, x / |x| beyond it (exactly ±1 in d = 1)."""
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.where(norm > 1.0, x / np.maximum(norm, 1.0), x)


@dataclass(frozen=True)
class DensityPiece:
    """A density on an interval [lo, hi] that excludes a neighborhood of 0."""

    lo: float
    hi: float
    density: Callable[[np.ndarray], np.ndarray]
    nodes: int = DEFAULT_QUAD_NODES

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.lo < 0.0 < self.hi:
            raise ValueError("density piece must not straddle 0")
        if self.nodes < 8:
            raise ValueError("quadrature node count must be >= 8 per piece")

    def quad(self, lo: float | None = None, hi: float | None = None):
        """Quadrature nodes/weights for the piece, optionally clipped."""
        a = self.lo if lo is None else max(self.lo, lo)
        b = self.hi if hi is None else min(self.hi, hi)
        if b <= a:
            return np.empty(0), np.empty(0)
        x, w = gauss_legendre_nodes(a, b, self.nodes)
        f = np.asarray(self.density(x), dtype=float)
        # a Lévy density is finite and, like an atom weight, nonnegative
        for bad, error, what in ((~np.isfinite(f), QuadratureError, "non-finite"),
                                 (f < 0.0, ValueError, "negative")):
            if bad.any():
                at = x[np.broadcast_to(bad, x.shape)][0]
                raise error(f"density {what} at x={at:.6g} on piece [{self.lo}, {self.hi}]")
        return x, w * f


@dataclass(frozen=True)
class MeasureStack:
    """P measures as arrays, one row each.

    Row i holds the atoms ``atom_x[i, k]`` with weights ``atom_w[i, k]``, its
    own atoms first and then padding of weight 0, plus the density pieces
    ``pieces[i]`` (``pieces`` is empty when no row has any).  An integral is
    one BLAS dot product per row over the row's own atoms, then one per
    piece, added in order: the sums ``np.dot`` forms for one measure.  BLAS
    sums a dot product in an order that depends on its length, so rows are
    grouped by length and never dotted over padding; each row therefore
    integrates bit for bit like its own one-row stack, ``row(i)``.
    """

    dimension: int
    atom_x: np.ndarray  # (P, K, d)
    atom_w: np.ndarray  # (P, K)
    pieces: Tuple[Tuple[DensityPiece, ...], ...] = ()
    # the atoms, then one group per piece slot
    _groups: Tuple["_Group", ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.atom_x, dtype=float)
        w = np.asarray(self.atom_w, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.dimension or w.shape != x.shape[:2]:
            raise ValueError(
                f"atom arrays have shapes {x.shape} and {w.shape}, expected "
                f"(P, K, {self.dimension}) and (P, K)"
            )
        sq = _sqnorm(x)
        used = w > 0.0
        if used.all():
            sizes = None
            at_zero = (sq == 0.0).any()
        else:
            if not (w >= 0.0).all():
                raise ValueError("atom weights must be positive")
            # rows are integrated over their first sizes[i] atoms
            if (used[:, 1:] & ~used[:, :-1]).any():
                raise ValueError("a row's padding of weight 0 must follow its atoms")
            sizes = used.sum(axis=1)
            at_zero = (used & (sq == 0.0)).any()
        if at_zero:
            raise ValueError("no atom at 0 allowed")
        pieces = tuple(tuple(row) for row in self.pieces)
        if pieces and len(pieces) != w.shape[0]:
            raise ValueError("pieces must list one tuple of density pieces per row")
        if any(pieces) and self.dimension != 1:
            raise ValueError("density pieces are supported only in dimension 1")
        groups = [_Group(x, w, sizes, sq, np.minimum(sq, 1.0))] + _piece_groups(pieces)
        object.__setattr__(self, "atom_x", x)
        object.__setattr__(self, "atom_w", w)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_groups", tuple(groups))
        # finiteness of ∫ |x|^2 ∧ 1 dF, checked numerically against the cap
        (mass,) = self.integrate_parts(lambda grp: grp.sq1)
        if not (mass <= DEFAULT_MASS_CAP).all():
            bad = int(np.argmax(~(mass <= DEFAULT_MASS_CAP)))
            raise ValueError(f"∫|x|^2∧1 dF = {mass[bad]} exceeds cap {DEFAULT_MASS_CAP}")

    def __len__(self) -> int:
        return self.atom_w.shape[0]

    @staticmethod
    def pack(stacks: Sequence["MeasureStack"]) -> "MeasureStack":
        """The rows of stacks of one dimension as one stack, their atom
        lists padded again."""
        ms = list(stacks)
        if not ms:
            raise ValueError("cannot stack zero measures")
        d = ms[0].dimension
        if any(m.dimension != d for m in ms):
            raise ValueError("dimension mismatch")
        rows = [(m.atom_x[i][m.atom_w[i] > 0.0], m.atom_w[i][m.atom_w[i] > 0.0])
                for m in ms for i in range(len(m))]
        x = np.ones((len(rows), max(rw.size for _, rw in rows), d))
        w = np.zeros(x.shape[:2])
        for i, (rx, rw) in enumerate(rows):
            x[i, : rw.size], w[i, : rw.size] = rx, rw
        pieces = tuple(row for m in ms for row in (m.pieces or ((),) * len(m)))
        return MeasureStack(d, x, w, pieces if any(pieces) else ())

    def row(self, i: int) -> "MeasureStack":
        """Row i as a one-row stack: its own atoms and density pieces."""
        i = range(len(self))[i]
        keep = self.atom_w[i] > 0.0
        pieces = self.pieces[i] if self.pieces else ()
        return MeasureStack(self.dimension, self.atom_x[i][keep][None], self.atom_w[i][keep][None],
                            (pieces,) if pieces else ())

    def jump_profile(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row i as discrete jumps: its atoms, then the quadrature nodes of
        each density piece in order, as locations (n, d) and weights (n,).

        Read from the stack's arrays, so no density is evaluated again.
        """
        used = [
            (grp.x[i], grp.w[i]) if grp.sizes is None
            else (grp.x[i, : grp.sizes[i]], grp.w[i, : grp.sizes[i]])
            for grp in self._groups
        ]
        return np.concatenate([x for x, _ in used]), np.concatenate([w for _, w in used])

    def integrate_parts(self, g, parts=(lambda v: v,)) -> list:
        """Row-wise integrals of each part of g.

        g maps a group of locations (a _Group: ``x`` (P, n, d), ``sq`` =
        |x|^2 and ``sq1`` = |x|^2 ∧ 1, both (P, n)) to values (P, ..., n);
        each part (a view such as ``v.real``) of the values is integrated,
        giving one (P, ...) array per part.
        """
        # a BLAS dot product is never -0.0, so starting from the first
        # group's sums equals starting from a running total of 0.0
        totals = [None] * len(parts)
        for k, grp in enumerate(self._groups):
            vals = g(grp)
            if k and not np.isfinite(vals).all():
                row = int(np.argmax(~np.isfinite(vals).reshape(len(self), -1).all(axis=1)))
                piece = self.pieces[row][k - 1]
                raise QuadratureError(
                    f"integrand non-finite on piece [{piece.lo}, {piece.hi}]"
                )
            for i, part in enumerate(parts):
                dot = _group_dot(grp.w, vals, grp.sizes, part)
                totals[i] = dot if totals[i] is None else totals[i] + dot
        return totals

    def integrate(self, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Row-wise ∫ g dF; g maps (P, n, d) locations to (P, ..., n) values
        and the result has shape (P, ...)."""
        return self.integrate_parts(lambda grp: np.asarray(g(grp.x), dtype=float))[0]

    def integrate_ball(self, g: Callable[[np.ndarray], np.ndarray], radius: float) -> np.ndarray:
        """Row-wise ∫_{|x| <= radius} g dF, g mapping (P, n, d) locations to
        (P, n) values: a row adds its atoms in the ball one at a time, in
        atom order (the running total is never -0.0, so the 0.0 of an atom
        outside leaves it unchanged), then one dot product per density
        piece over its quadrature on the piece's part of [-radius, radius]."""
        atoms = self._groups[0]
        norms = row_norm(atoms.x.reshape(-1, self.dimension)).reshape(atoms.w.shape)
        terms = np.where((atoms.w > 0.0) & (norms <= radius), atoms.w * g(atoms.x), 0.0)
        total = np.zeros(len(self))
        for column in terms.T:
            total += column
        for grp in _piece_groups(self.pieces, radius):
            total += _group_dot(grp.w, np.asarray(g(grp.x), dtype=float), grp.sizes, lambda v: v)
        return total


def _piece_groups(pieces, radius: float = np.inf) -> list:
    """A _Group per piece slot: each row's piece quadrature on [-radius, radius]."""
    groups = []
    for j in range(max(map(len, pieces), default=0)):
        quads = [row[j].quad(-radius, radius) if j < len(row) else None for row in pieces]
        sizes = np.array([0 if q is None else q[0].size for q in quads])
        px, pw = np.ones((len(quads), sizes.max(), 1)), np.zeros((len(quads), sizes.max()))
        for i, q in enumerate(quads):
            if q is not None:
                px[i, : sizes[i], 0], pw[i, : sizes[i]] = q
        full = (sizes == sizes.max()).all()
        psq = _sqnorm(px)
        groups.append(_Group(px, pw, None if full else sizes, psq, np.minimum(psq, 1.0)))
    return groups


class _Group(NamedTuple):
    """Locations and weights summed by one dot product per row."""

    x: np.ndarray  # (P, n, d)
    w: np.ndarray  # (P, n)
    sizes: Optional[np.ndarray]  # entries used per row; None when all n are
    sq: np.ndarray  # |x|^2, (P, n)
    sq1: np.ndarray  # |x|^2 ∧ 1


def _group_dot(w: np.ndarray, vals: np.ndarray, sizes, part) -> np.ndarray:
    """row_dot(w, part(vals)) over each row's first sizes[i] entries.  The
    part is taken after slicing, so the real and imaginary parts of complex
    values keep the strides np.real gives them."""
    if sizes is None:
        return row_dot(w, part(vals))
    out = np.zeros(vals.shape[:-1])
    for m in np.unique(sizes):
        rows = sizes == m
        out[rows] = row_dot(w[rows, :m], part(vals[rows, ..., :m]))
    return out


def row_dot(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``w[i] @ v[i, ..., :]`` for each row i.

    Each product is one BLAS dot call with the strides ``np.dot`` would
    pass, so a row equals ``np.dot(w[i], v[i, j])`` bit for bit; numpy's
    own reductions sum in a different order.
    """
    lead = (w.shape[0],) + (1,) * (v.ndim - 2) + (1, w.shape[1])
    return np.matmul(w.reshape(lead), v[..., None])[..., 0, 0]


def row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, formed as np.linalg.norm forms it."""
    return np.sqrt(row_dot(x, x))


def _sqnorm(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.add.reduce(x * x, axis=-1)
