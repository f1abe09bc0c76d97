"""One-row stacks built from plain numbers, and their one row read back,
shared by the test modules."""

import numpy as np

from levysot.measures import MeasureStack
from levysot.triplets import ThetaFamily, TripletStack, levy_exponent


def measure(*atoms, pieces=(), dimension=1) -> MeasureStack:
    """The measure of (location, weight) atoms and density pieces; a d = 1
    location may be a scalar."""
    x = np.array([np.atleast_1d(np.asarray(loc, dtype=float)) for loc, _ in atoms])
    w = np.array([[float(wt) for _, wt in atoms]])
    return MeasureStack(dimension, x.reshape(1, len(atoms), dimension), w.reshape(1, len(atoms)),
                        (tuple(pieces),) if pieces else ())


def triplet(b=0.0, c=0.0, F=None) -> TripletStack:
    """The triplet (b, c, F); in d = 1, b and c may be scalars, and F
    defaults to the zero measure."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    return TripletStack(b[None], c[None], measure(dimension=b.size) if F is None else F)


def family(box, member, **kwargs) -> ThetaFamily:
    """A family from a map of one parameter vector to a one-row stack."""
    return ThetaFamily(box, lambda P: TripletStack.pack([member(p) for p in P]), **kwargs)


def atoms(F) -> list:
    """The atoms of a one-row stack's measure, as (location, weight) pairs."""
    (x,), (w,) = F.atom_x, F.atom_w
    return [(loc, float(wt)) for loc, wt in zip(x[w > 0], w[w > 0])]


def pieces(F) -> tuple:
    """The density pieces of a one-row stack's measure."""
    return F.pieces[0] if F.pieces else ()


def psi(t, u) -> complex:
    """The exponent of a one-row stack at one frequency u."""
    return complex(levy_exponent(t, np.atleast_1d(np.asarray(u, dtype=float))[None])[0, 0])
