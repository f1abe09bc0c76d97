"""Stacked evaluation: template-compiled families and sequences, MeasureStack
integrals, the stacked exponent and the projection objective.

Every row of a stack must equal its one-row stack, ``row(i)``, bit for
bit, and both must equal the formula the closedness probe used before
stacking, kept here as an inline reference: one np.dot over the atoms and
one per density piece, np.linalg.norm and Python's complex arithmetic, one
triplet and one frequency at a time.
"""

import numpy as np
import pytest

from integrals import ball_integrate
from measure_keys import state_key
from one_row import atoms, family, measure, pieces, triplet
from levysot import fixtures
from levysot.exprs import ExpressionError
from levysot.limits import _PROBE_FEATURES, _distances, exponent_limit_profile
from levysot.measures import DensityPiece, MeasureStack, _sqnorm, truncate
from levysot.serialize import compile_template, family_from_dict, sequence_from_dict
from levysot.triplets import (
    FeatureMapConfig,
    TripletStack,
    condition_b_value,
    family_points,
    levy_exponent,
    martingale_residual,
    measure_features,
    modified_triplet,
    small_jump_second_moment,
)

# ---------------------------------------------------------------------------
# the reference: one triplet at a time


def _ref_integrate(F, g):
    total = 0.0
    if atoms(F):
        locs = np.stack([loc for loc, _ in atoms(F)])
        ws = np.array([w for _, w in atoms(F)])
        total += float(np.dot(ws, np.asarray(g(locs), dtype=float)))
    for piece in pieces(F):
        x, w = piece.quad()
        total += float(np.dot(w, np.asarray(g(x[:, None]), dtype=float)))
    return total


def _ref_features(F, cfg):
    out = np.empty(cfg.size)
    for m in range(1, cfg.m_max + 1):
        lo, hi = 1.0 / (2 * m), 1.0 / m
        out[m - 1] = _ref_integrate(
            F,
            lambda x: np.minimum(_sqnorm(x), 1.0)
            * np.clip((np.sqrt(_sqnorm(x)) - lo) / (hi - lo), 0.0, 1.0),
        )
    k = cfg.m_max
    for u in cfg.u_grid:
        g = lambda x: np.minimum(_sqnorm(x), 1.0) * np.exp(1j * (x @ u))  # noqa: E731
        out[k] = _ref_integrate(F, lambda x: np.real(g(x)))
        out[k + 1] = _ref_integrate(F, lambda x: np.imag(g(x)))
        k += 2
    return out


def _ref_modified(t):
    corr = np.empty((t.dimension, t.dimension))
    for i in range(t.dimension):
        for j in range(i, t.dimension):
            corr[i, j] = corr[j, i] = _ref_integrate(
                t.F, lambda x: truncate(x)[..., i] * truncate(x)[..., j]
            )
    return TripletStack(t.b, t.c + corr, t.F)


def _ref_distance(s, t):
    return float(
        np.linalg.norm(s.b[0] - t.b[0])
        + np.linalg.norm(s.c[0] - t.c[0], "fro")
        + np.linalg.norm(
            _ref_features(s.F, _PROBE_FEATURES) - _ref_features(t.F, _PROBE_FEATURES)
        )
    )


def _ref_exponent(t, u):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g = lambda x: np.exp(1j * (x @ u)) - 1.0 - 1j * (truncate(x) @ u)  # noqa: E731
    jump = complex(
        _ref_integrate(t.F, lambda x: np.real(g(x))), _ref_integrate(t.F, lambda x: np.imag(g(x)))
    )
    return 1j * float(u @ t.b[0]) + -0.5 * float(u @ t.c[0] @ u) + jump


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# ---------------------------------------------------------------------------
# families under test

TWO_ATOM_DOC = {
    "box": [[0.0, 3.0], [0.05, 1.5]],
    "params": ["a", "y"],
    "b": ["0.1 * a"],
    "c": [["pow(a, 0.5) / 3"]],
    "F": {
        "atoms": [
            {"x": ["y"], "w": "a"},
            {"x": ["-pow(y, 1.5)"], "w": "2 - a"},
        ]
    },
}

# five atoms, some dropped on parts of the box: rows of one stack hold
# different numbers of atoms
MANY_ATOM_DOC = {
    "box": [[0.0, 3.0], [0.05, 1.5]],
    "params": ["a", "y"],
    "b": ["0"],
    "c": [["0.2"]],
    "F": {
        "atoms": [
            {"x": ["y"], "w": "a"},
            {"x": ["-pow(y, 1.5)"], "w": "2 - a"},
            {"x": ["1.7"], "w": "exp(-a)"},
            {"x": ["y / 3"], "w": "a - 1"},
            {"x": ["2.5"], "w": "0.25"},
        ]
    },
}

PIECE_DOC = {
    "box": [[0.0, 2.0], [0.1, 0.9]],
    "params": ["lam", "y"],
    "b": ["0"],
    "c": [["0"]],
    "F": {
        "atoms": [{"x": ["y"], "w": "lam"}],
        "pieces": [
            {"lo": 0.05, "hi": 1.5, "density": "lam * exp(-x) / pow(x, 1.5)"},
            {"lo": -1.0, "hi": -0.2, "density": "y * y + 0 * x"},
        ],
    },
}


def _hand_built():
    return family(
        ((0.0, 2.0), (0.1, 1.0)),
        lambda p: triplet(
            0.3 * p[0],
            p[0],
            measure((p[1], p[0]), (-0.5, 1.0)) if p[0] > 0 else measure((-0.5, 1.0)),
        ),
    )


FAMILIES = {
    "pure-jump": lambda: family_from_dict(fixtures.pure_jump_family_doc()),
    "pinned-variance": lambda: family_from_dict(fixtures.pinned_variance_family_doc()),
    "two-atom": lambda: family_from_dict(TWO_ATOM_DOC),
    "many-atom": lambda: family_from_dict(MANY_ATOM_DOC),
    "hand-built": _hand_built,
}


def _targets():
    seq = sequence_from_dict(fixtures.shrinking_jump_sequence_doc())
    return [seq.stack.row(0), seq.stack.row(-1), triplet(0.0, 1.0),
            triplet(0.1, 0.4, measure((0.3, 2.0), (-1.2, 0.5)))]


def _points(fam, n_random=60):
    """The 17 x 17 scan of the projection plus random points, in the box."""
    lows = np.array([lo for lo, _ in fam.parameter_box])
    highs = np.array([hi for _, hi in fam.parameter_box])
    axes = [np.linspace(0.0, 1.0, 17)] * len(lows)
    scan = np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(lows), -1).T
    s = np.vstack([scan, np.random.default_rng(3).random((n_random, len(lows)))])
    return lows + s * (highs - lows)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("use_u_map", [False, True])
def test_stacked_distances_are_bitwise_the_single_row_and_reference(name, use_u_map):
    fam = FAMILIES[name]()
    P = _points(fam)
    stack = fam.stack(P)
    if use_u_map:
        stack = modified_triplet(stack)
    for t in _targets():
        t_features = measure_features(t.F, _PROBE_FEATURES)
        stacked = _distances(stack, t, t_features)
        single, ref = [], []
        for p in P[::7]:
            row = fam.stack(p[None])
            single.append(_distances(modified_triplet(row) if use_u_map else row, t, t_features)[0])
            member = _ref_modified(fam.at(p)) if use_u_map else fam.at(p)
            ref.append(_ref_distance(member, t))
        assert np.array_equal(_bits(stacked[::7]), _bits(single))
        assert np.array_equal(_bits(single), _bits(ref))


def test_density_piece_family_is_bitwise():
    # the density pieces of each row are integrated by the row's own
    # DensityPiece quadrature, so no deviation is allowed: the largest
    # relative deviation from the reference is 0
    fam = family_from_dict(PIECE_DOC)
    P = _points(fam, n_random=20)
    stack = fam.stack(P)
    for t in _targets() + [fam.at(np.array([1.3, 0.4]))]:
        t_features = measure_features(t.F, _PROBE_FEATURES)
        for use_u_map in (False, True):
            st = modified_triplet(stack) if use_u_map else stack
            got = _distances(st, t, t_features)
            ref = np.array(
                [_ref_distance(_ref_modified(fam.at(p)) if use_u_map else fam.at(p), t) for p in P]
            )
            deviation = np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300))
            assert deviation <= 1e-13
            assert np.array_equal(_bits(got), _bits(ref)), deviation


def test_rows_of_a_stack_are_the_family_members():
    for name, make in FAMILIES.items():
        fam = make()
        P = _points(fam, n_random=5)
        stack = fam.stack(P)
        for i in range(0, len(P), 11):
            a, b = stack.row(i), fam.at(P[i])
            assert np.array_equal(a.b, b.b) and np.array_equal(a.c, b.c), name
            assert state_key(a.F) == state_key(b.F), name


def test_features_and_integrals_of_a_measure_match_the_reference():
    piece = DensityPiece(0.2, 0.9, lambda x: 3.0 * x)
    for F in (
        measure(),
        measure((0.4, 2.0)),
        measure(*[(0.1 * k - 0.75, 0.3 + k) for k in range(1, 19)]),
        measure((-0.3, 1.5), pieces=(piece, piece)),
        measure(([0.3, -0.4], 1.0), ([1.5, 0.2], 0.5), ([0.1, 0.1], 2.0), dimension=2),
    ):
        cfg = _PROBE_FEATURES if F.dimension == 1 else FeatureMapConfig(
            m_max=3, u_grid=(np.array([0.5, 1.0]), np.array([-1.0, 2.0]))
        )
        assert np.array_equal(_bits(measure_features(F, cfg)[0]), _bits(_ref_features(F, cfg)))
        g = lambda x: np.minimum(_sqnorm(x), np.sqrt(_sqnorm(x)))  # noqa: E731
        assert F.integrate(g)[0] == _ref_integrate(F, g)


def test_stacked_exponent_matches_single_calls_and_reference():
    seq = sequence_from_dict(fixtures.shrinking_jump_sequence_doc())
    fam = family_from_dict(PIECE_DOC)
    u_grid = np.linspace(-2.0, 2.0, 42)
    for stack in (seq.stack, fam.stack(_points(fam, n_random=0)[::40])):
        psi = levy_exponent(stack, u_grid)
        assert psi.shape == (len(stack), u_grid.size)
        for i in range(len(stack)):
            t = stack.row(i)
            (row,) = levy_exponent(t, u_grid[::5])
            for j, single in zip(range(0, u_grid.size, 5), row.tolist()):
                assert repr(complex(psi[i, j])) == repr(single)
                assert repr(single) == repr(_ref_exponent(t, u_grid[j]))
    profile = exponent_limit_profile(seq, u_grid)
    assert tuple(profile.values[3].tolist()) == tuple(
        _ref_exponent(seq.stack.row(i), u_grid[3]) for i in range(len(seq.stack))
    )


# ---------------------------------------------------------------------------
# checks row by row: the stack raises what fam.at raises


def _error_family(**entries):
    doc = {"box": [[0.0, 1.0], [0.0, 1.0]], "params": ["a", "y"], "b": ["0"], "c": [["1"]],
           "F": {"atoms": [{"x": ["1"], "w": "1"}]}}
    doc.update(entries)
    return family_from_dict(doc)


@pytest.mark.parametrize(
    "fam, bad, kind",
    [
        # a positive-weight atom at 0
        (_error_family(F={"atoms": [{"x": ["y - 0.5"], "w": "1 + a"}]}), [0.3, 0.5], ValueError),
        # c not PSD
        (_error_family(c=[["a - 0.5"]]), [0.0, 0.2], ValueError),
        # a non-finite coefficient: division by zero inside the box
        (_error_family(b=["1 / (y - 0.5)"]), [0.7, 0.5], ExpressionError),
        # a non-finite coefficient: overflow inside the box
        (_error_family(b=["exp(1000 * y)"]), [0.7, 1.0], ExpressionError),
    ],
)
def test_stack_raises_what_at_raises(fam, bad, kind):
    good = [0.6, 0.25]
    with pytest.raises(kind) as at_error:
        fam.at(np.array(bad))
    with pytest.raises(kind) as stack_error:
        fam.stack(np.array([good, bad, good]))
    assert type(stack_error.value) is type(at_error.value)
    fam.stack(np.array([good, good]))


def test_dropped_atom_location_is_never_evaluated():
    # at a = 0 the atom is dropped, and its location 1 / a is never formed
    fam = _error_family(F={"atoms": [{"x": ["1 / a"], "w": "a"}]})
    stack = fam.stack(np.array([[0.0, 0.5], [2.0 / 3.0, 0.5]]))
    assert atoms(fam.at(np.array([0.0, 0.5])).F) == []
    assert atoms(stack.row(1).F)[0][0][0] == 1.5
    with pytest.raises(ExpressionError):
        _error_family(F={"atoms": [{"x": ["1 / (a - 0.5)"], "w": "1"}]}).at(np.array([0.5, 0.0]))


def test_sequence_rows_and_packed_rows_agree():
    # the sequence stack evaluates the template over the whole schedule at
    # once; packing its one-n evaluations gives the same arrays
    doc = fixtures.shrinking_jump_sequence_doc()
    seq = sequence_from_dict(doc)
    template = compile_template(doc, ("n",), "sequence")
    packed = TripletStack.pack([template.stack([[n]]) for n in seq.n_schedule])
    compiled = seq.stack
    assert np.array_equal(packed.b, compiled.b)
    assert np.array_equal(packed.c, compiled.c)
    assert np.array_equal(packed.F.atom_x, compiled.F.atom_x)
    assert np.array_equal(packed.F.atom_w, compiled.F.atom_w)


def test_sequence_index_is_evaluated_as_a_float():
    # 100003 ** 4 needs 67 bits: each product is rounded to a double, where
    # exact integer arithmetic would round once, at the end
    seq = sequence_from_dict({"b": ["n * n * n * n * n"], "c": [["0"]], "n_schedule": [100003]})
    n = 100003.0
    assert seq.stack.b[0, 0] == (((n * n) * n) * n) * n
    assert (((n * n) * n) * n) * n != float(100003**5)


def test_jump_profile_is_each_rows_atoms_then_piece_nodes():
    # rows differ in atom count (row 1 is padded, row 2 has none) and in
    # piece slots (row 1 has one piece, with fewer nodes; row 2 has none)
    wide = DensityPiece(0.1, 0.6, lambda x: 2.0 + x)
    narrow = DensityPiece(-0.8, -0.2, lambda x: x * x, nodes=12)
    measures = [
        measure((0.4, 2.0), (-1.5, 0.5), pieces=(wide, narrow)),
        measure((2.5, 1.0), pieces=(narrow,)),
        measure(),
    ]
    stack = MeasureStack.pack(measures)
    for i, F in enumerate(measures):
        x, w = stack.jump_profile(i)
        quads = [p.quad() for p in pieces(F)]
        ref_x = np.concatenate([[loc[0] for loc, _ in atoms(F)]] + [q[0] for q in quads])
        ref_w = np.concatenate([[wt for _, wt in atoms(F)]] + [q[1] for q in quads])
        assert x.shape == (ref_x.size, 1)
        assert np.array_equal(_bits(x[:, 0]), _bits(ref_x))
        assert np.array_equal(_bits(w), _bits(ref_w))


# ---------------------------------------------------------------------------
# the ball integral and the conditions, against the per-row formulas


def _ref_condition_b(t):
    jump = t.F.integrate(lambda x: np.minimum(_sqnorm(x), np.sqrt(_sqnorm(x))))[0]
    return float(np.linalg.norm(t.b[0]) + np.linalg.norm(t.c[0], "fro") + jump)


def _ref_martingale_residual(t):
    return t.b[0] + np.array(
        [t.F.integrate(lambda x, i=i: x[..., i] - truncate(x)[..., i])[0]
         for i in range(t.dimension)]
    )


def _condition_stacks():
    """Both family grids at resolution 9, the sequence, and stacks of
    measures with atoms on the ball's boundary (|x| = 0.5 and, in d = 2,
    |x| = 0.25 exactly)."""
    grids = {
        name: FAMILIES[name]().stack(
            np.vstack([FAMILIES[name]().corners(), FAMILIES[name]().grid(9)])
        )
        for name in ("pure-jump", "pinned-variance")
    }
    four_atom = measure(
        (-0.3, 1.0), (0.1, 2.0), (0.5, 3.0), (1.5, 0.5),
        pieces=(DensityPiece(0.05, 0.8, lambda x: 1.0 + x),
                DensityPiece(-2.0, -0.2, np.exp, nodes=24)),
    )
    pieces_1d = [
        triplet(0.3, 0.7, four_atom),
        triplet(-1.0, 0.0, measure((0.5, 2.0), (0.8, 1.0))),
        triplet(0.0, 2.0),
    ]
    atoms_2d = measure(([0.0, -0.25], 1.5), ([0.3, 0.4], 2.0), ([-1.0, 2.0], 0.5), dimension=2)
    plane = [
        triplet([0.1, -0.2], [[1.0, 0.3], [0.3, 2.0]], atoms_2d),
        triplet(np.zeros(2), np.eye(2)),
    ]
    return {
        **grids,
        "sequence": sequence_from_dict(fixtures.shrinking_jump_sequence_doc()).stack,
        "four-atom-two-piece": TripletStack.pack(pieces_1d),
        "two-dimensional": TripletStack.pack(plane),
    }


def test_ball_integral_and_row_wise_conditions_equal_the_per_row_oracle():
    deltas = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01)
    for name, st in _condition_stacks().items():
        rows = [st.row(i) for i in range(len(st))]
        for d in deltas:
            ref = [ball_integrate(t.F, _sqnorm, d) for t in rows]
            assert np.array_equal(_bits(st.F.integrate_ball(_sqnorm, d)), _bits(ref)), (name, d)
            assert np.array_equal(_bits(small_jump_second_moment(st.F, d)), _bits(ref)), (name, d)
        ref_b = [_ref_condition_b(t) for t in rows]
        assert np.array_equal(_bits(condition_b_value(st)), _bits(ref_b)), name
        ref_res = np.array([_ref_martingale_residual(t) for t in rows])
        assert np.array_equal(_bits(martingale_residual(st)), _bits(ref_res)), name
    # an atom at |x| = delta is inside the ball
    boundary = measure((0.5, 2.0), (0.8, 1.0))
    assert np.isclose(boundary.integrate_ball(lambda x: np.ones(x.shape[:2]), 0.5)[0], 2.0)
    assert small_jump_second_moment(boundary, 0.5)[0] == 2.0 * 0.25
    plane = _condition_stacks()["two-dimensional"].F
    assert small_jump_second_moment(plane, 0.25)[0] == 1.5 * 0.0625


def _row_maps(st):
    """Every row-wise map at st: the exponent, the features, conditions B
    and J, the martingale residual and the modified triplet."""
    if st.dimension == 1:
        u, cfg = np.linspace(-2.0, 2.0, 9), _PROBE_FEATURES
    else:
        u = np.array([[0.5, 1.0], [-1.0, 2.0], [0.3, -0.7]])
        cfg = FeatureMapConfig(m_max=3, u_grid=tuple(u))
    modified = modified_triplet(st)
    return (levy_exponent(st, u), measure_features(st.F, cfg), condition_b_value(st),
            small_jump_second_moment(st.F, 0.25), martingale_residual(st), modified.b, modified.c)


def test_a_row_gives_its_row_of_every_map_bit_for_bit():
    # row(i), counted from either end, is row i of the stack under every
    # map: rows with padded atoms, density pieces and d = 2 among them
    stacks = {**_condition_stacks(), "piece-doc": family_points(family_from_dict(PIECE_DOC), 4)}
    for name, st in stacks.items():
        whole = _row_maps(st)
        for i in range(-len(st), len(st)):
            for got, want in zip(_row_maps(st.row(i)), whole):
                assert got.shape == (1,) + want.shape[1:], name
                assert got[0].tobytes() == want[i].tobytes(), (name, i)
