"""A comparison key for Lévy measures, shared by the test modules."""

import numpy as np

from one_row import atoms, pieces


def state_key(F):
    """Hashable snapshot of a one-row MeasureStack for bit-identity
    comparisons: the dimension, each atom's location bytes and weight, and
    each density piece's ends, node count and density at five points across
    it."""
    atom_key = tuple((loc.tobytes(), w) for loc, w in atoms(F))
    piece_key = tuple(
        (p.lo, p.hi, p.nodes, tuple(np.asarray(p.density(np.linspace(p.lo, p.hi, 5)), float)))
        for p in pieces(F)
    )
    return (F.dimension, atom_key, piece_key)
