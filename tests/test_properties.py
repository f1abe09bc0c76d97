"""Randomized invariant suites (hypothesis, fixed seeds via derandomization)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import property_checks as pc

SUITE = settings(max_examples=200, derandomize=True, deadline=None)

finite = dict(allow_nan=False, allow_infinity=False)


def sc(lo, hi):
    return st.floats(lo, hi, **finite)


atom = st.tuples(
    sc(0.1, 2.0).flatmap(lambda r: st.sampled_from([r, -r])), sc(0.05, 3.0)
)
atoms = st.lists(atom, min_size=0, max_size=3).map(tuple)


@SUITE
@given(b=sc(-2, 2), c=sc(0, 2), ats=atoms, u=sc(-3, 3), x=sc(-2, 2))
def test_exponent_generator_consistency(b, c, ats, u, x):
    pc.check_exponent_generator_consistency(b, c, ats, u, x)


@SUITE
@given(b=sc(-2, 2), c=sc(0, 2), ats=atoms, u=sc(-4, 4))
def test_exponent_symmetry_and_dissipativity(b, c, ats, u):
    pc.check_exponent_symmetry(b, c, ats, u)


atom2d = st.tuples(st.tuples(sc(-1.5, 1.5), sc(-1.5, 1.5)), sc(0.05, 2.0)).filter(
    lambda a: abs(a[0][0]) + abs(a[0][1]) > 0.05
)


@SUITE
@given(
    b=st.tuples(sc(-1, 1), sc(-1, 1)),
    cdiag=st.tuples(sc(0, 2), sc(0, 2)),
    ats=st.lists(atom2d, min_size=1, max_size=3),
)
def test_u_correction_psd(b, cdiag, ats):
    pc.check_u_correction_psd(b, cdiag, ats)


@SUITE
@given(a=atoms.filter(len), b=atoms.filter(len), scale=sc(0.1, 5.0))
def test_feature_map_linearity(a, b, scale):
    pc.check_feature_map_linearity(a, b, scale)


@SUITE
@given(
    b0=sc(-1, 1),
    c_hi=sc(0.1, 3.0),
    loc=sc(0.15, 1.0).flatmap(lambda r: st.sampled_from([r, -r])),
    w=sc(0.1, 3.0),
    amp=sc(0.5, 4.0),
    freq=sc(0.5, 3.0),
    kappa=st.integers(-7, 7),
)
def test_hjb_monotonicity_and_constant_shift(b0, c_hi, loc, w, amp, freq, kappa):
    pc.check_hjb_monotonicity_and_shift(b0, c_hi, loc, w, amp, freq, kappa)


@SUITE
@given(
    b=sc(-1, 1),
    # keep a Brownian component so distinct seeds must produce distinct paths
    c=sc(0.05, 1),
    loc=sc(0.1, 1.0),
    w=sc(0.1, 2.0),
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(1, 100),
)
def test_simulation_determinism_and_block_prefix(b, c, loc, w, seed, extra):
    pc.check_simulation_determinism(b, c, loc, w, seed, extra)
