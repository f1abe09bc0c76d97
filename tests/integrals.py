"""Integrals against triplets and marginals, shared by the test modules."""

import math

import numpy as np


def generator_apply(t, f, grad, hess, x) -> float:
    """Apply the integro-differential generator of the triplet (b, c, F) to
    f at x, given f's gradient and Hessian."""
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


def marginal_integrate(m, f) -> float:
    """∫ f dμ for a transport Marginal, by the marginal's native quadrature."""
    if m.kind == "point-mass":
        return float(np.asarray(f(np.array([m.location])))[0])
    if m.kind == "gaussian":
        nodes, wts = np.polynomial.hermite.hermgauss(96)
        x = m.mean + math.sqrt(2.0 * m.variance) * nodes
        return float(np.dot(wts / math.sqrt(math.pi), np.asarray(f(x), float)))
    return float(np.dot(m.weights, np.asarray(f(m.points), float)))
