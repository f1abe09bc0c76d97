"""Integrals against triplets and marginals, shared by the test modules."""

import math

import numpy as np

from levysot.measures import truncate
from one_row import atoms, pieces


def generator_apply(t, f, grad, hess, x) -> float:
    """Apply the integro-differential generator of the one-row stack
    (b, c, F) to f at x, given f's gradient and Hessian."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (t.dimension,):
        raise ValueError("state dimension mismatch")
    g = np.atleast_1d(np.asarray(grad(x), dtype=float))
    H = np.atleast_2d(np.asarray(hess(x), dtype=float))
    fx = float(f(x))

    def integrand(y):
        shifted = np.array([float(f(x + yi)) for yi in y[0]])
        if not np.all(np.isfinite(shifted)):
            raise ValueError("f non-finite at a shifted point")
        return (shifted - fx - truncate(y[0]) @ g)[None]

    jump = float(t.F.integrate(integrand)[0])
    return float(g @ t.b[0] + 0.5 * np.sum(t.c[0] * H) + jump)


def ball_integrate(F, g, radius: float) -> float:
    """∫_{|x| <= radius} g(x) F(dx) for a one-row MeasureStack: its atoms in
    the ball added one at a time, then one dot product per density piece
    over its quadrature on the piece's part of [-radius, radius]."""
    total = 0.0
    for loc, w in atoms(F):
        if np.linalg.norm(loc) <= radius:
            total += w * float(np.asarray(g(loc[None, :]), dtype=float)[0])
    for piece in pieces(F):
        x, w = piece.quad(lo=-radius, hi=radius)
        if x.size:
            total += float(np.dot(w, np.asarray(g(x[:, None]), dtype=float)))
    return total


def marginal_integrate(m, f) -> float:
    """∫ f dμ for a Marginal, by the marginal's native quadrature."""
    if m.kind == "gaussian":
        nodes, wts = np.polynomial.hermite.hermgauss(96)
        x = m.mean + math.sqrt(2.0 * m.variance) * nodes
        return float(np.dot(wts / math.sqrt(math.pi), np.asarray(f(x), float)))
    return float(np.dot(m.weights, np.asarray(f(m.points), float)))
