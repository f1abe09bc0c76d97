"""The jump count matrix that ``montecarlo._jump_sums`` sums without
forming, kept as the tests' reference for its draws and its bits."""

import numpy as np

from levysot.montecarlo import _draw_locations


def jump_counts(rng: np.random.Generator, totals: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """(n, L) jump counts per path and location, given each path's Poisson
    total and the L locations' rates: independent Poisson(rate) counts.

    With fewer expected jumps than L - 1, each jump draws one uniform and
    takes the location where it falls on cumsum(rates) (Cont & Tankov 2004,
    Alg. 6.2); otherwise each total is split multinomially, up to L - 1
    binomials per path.  With one location the counts are the totals, and
    the generator draws nothing.  The sampler forms its jump sums with
    _jump_sums, which draws the same numbers; this matrix is its reference.
    """
    n, size = totals.size, rates.size
    if rates.sum() >= size - 1:
        return rng.multinomial(totals, rates / rates.sum())
    loc = _draw_locations(rng, totals, rates)
    path = np.repeat(np.arange(n), totals)
    return np.bincount(path * size + loc, minlength=n * size).reshape(n, size)
