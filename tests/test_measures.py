import numpy as np
import pytest

from measure_keys import state_key
from one_row import measure
from levysot.measures import (
    DensityPiece,
    MeasureStack,
    QuadratureError,
    gauss_legendre_nodes,
    truncate,
)


def test_truncation_identity_inside_ball():
    x = np.array([[0.3], [-0.9], [1.0], [-1.0]])
    assert truncate(x).tobytes() == x.tobytes()
    y = np.random.default_rng(5).uniform(-1.0, 1.0, (1000, 1))
    assert truncate(y).tobytes() == y.tobytes()


def test_truncation_projects_outside_ball():
    x = np.array([3.0, 4.0])
    out = truncate(x)
    assert np.isclose(np.linalg.norm(out), 1.0)
    assert np.allclose(out, x / 5.0)


def test_truncate_is_clip_in_one_dimension():
    # x / |x| is exactly ±1 in d = 1, where x * (1 / |x|) reads 0.9999999999999999
    # at 3.7 and 7.3
    for y in (3.7, 7.3):
        assert truncate([y])[0] == 1.0 and truncate([-y])[0] == -1.0
    rng = np.random.default_rng(11)
    y = rng.uniform(1.0, 10.0, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    assert truncate(y[:, None])[:, 0].tobytes() == np.clip(y, -1.0, 1.0).tobytes()


def test_gauss_legendre_exact_on_polynomials():
    x, w = gauss_legendre_nodes(1.0, 2.0, 16)
    # degree-5 polynomial integrated exactly
    assert np.isclose(np.dot(w, x**5), (2.0**6 - 1.0) / 6.0, rtol=1e-13)


def test_density_piece_validation():
    unit = lambda x: np.ones_like(x)
    with pytest.raises(ValueError):
        DensityPiece(2.0, 1.0, unit)
    with pytest.raises(ValueError):
        DensityPiece(-1.0, 1.0, unit)  # straddles 0
    with pytest.raises(ValueError):
        DensityPiece(1.0, 2.0, unit, nodes=4)


def test_density_piece_quadrature_error():
    def infinite(x):
        # 1 / 0 on purpose: the quadrature is to report it, not numpy
        with np.errstate(divide="ignore"):
            return 1.0 / (x - x)

    piece = DensityPiece(1.0, 2.0, infinite)
    with pytest.raises(QuadratureError):
        piece.quad()


def test_a_negative_density_is_refused_naming_its_piece():
    # as a negative atom weight is: a Lévy measure is nonnegative; the error
    # names the first node where the density is negative, also for a constant
    for density in (lambda x: x - 1.5, lambda x: -1.0):
        with pytest.raises(ValueError, match=r"density negative at x=1.00035 on piece \[1.0, 2.0\]"):
            measure(pieces=(DensityPiece(1.0, 2.0, density),))


def test_an_integrand_non_finite_on_a_piece_names_the_piece():
    # the second row's piece is where the integrand is infinite; the atoms
    # and the first row's piece give finite values
    F = MeasureStack.pack([
        measure((0.5, 2.0), pieces=(DensityPiece(1.0, 2.0, np.ones_like),)),
        measure((0.5, 1.0), pieces=(DensityPiece(3.0, 4.0, np.ones_like),)),
    ])
    with pytest.raises(QuadratureError, match=r"integrand non-finite on piece \[3.0, 4.0\]"):
        F.integrate(lambda x: np.where(x[..., 0] > 2.5, np.inf, x[..., 0]))


def test_atom_validation():
    with pytest.raises(ValueError, match="no atom at 0"):
        measure((0.0, 1.0))
    with pytest.raises(ValueError, match="atom weights must be positive"):
        measure((0.5, -1.0))
    # a weight of 0 is padding, which must come after the row's atoms
    assert measure((0.5, 2.0), (0.7, 0.0)).integrate(lambda x: x[..., 0])[0] == 1.0
    with pytest.raises(ValueError, match="padding of weight 0"):
        measure((0.5, 0.0), (0.7, 2.0))
    with pytest.raises(ValueError, match="atom arrays have shapes"):
        MeasureStack(1, np.array([[[1.0, 2.0]]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="dimension 1"):
        measure((np.array([1.0, 2.0]), 1.0), pieces=(DensityPiece(1.0, 2.0, np.ones_like),),
                dimension=2)


def test_atomic_integration():
    F = measure((0.5, 2.0), (-1.5, 3.0))
    (total,) = F.integrate(lambda x: x[..., 0] ** 2)
    assert np.isclose(total, 2.0 * 0.25 + 3.0 * 2.25)


def test_density_integration_matches_closed_form():
    F = measure(pieces=(DensityPiece(1.0, 2.0, lambda x: np.ones_like(x)),))
    assert np.isclose(F.integrate(lambda x: x[..., 0])[0], 1.5, rtol=1e-12)


def test_mass_cap_enforced():
    with pytest.raises(ValueError):
        measure((2.0, 1e9))


def test_state_key_distinguishes_measures():
    F = measure((0.5, 2.0))
    G = measure((0.5, 2.0))
    H = measure((0.5, 2.5))
    assert state_key(F) == state_key(G)
    assert state_key(F) != state_key(H)


def test_a_stack_row_equals_the_stack_packed_from_it():
    # each row, counted from either end, equals the stack packed from it bit
    # for bit
    pieces = (DensityPiece(0.1, 0.6, lambda x: 2.0 + x), DensityPiece(-2.0, -0.5, np.exp, nodes=16))
    rows = [measure((0.4, 2.0), (-1.5, 0.5)),
            measure((0.3, 1.0), pieces=pieces),
            measure(pieces=pieces[1:])]
    stack = MeasureStack.pack(rows)
    measures = [stack.row(i) for i in range(-len(stack), len(stack))]
    with pytest.raises(IndexError):
        stack.row(len(stack))
    for m in measures:
        packed = MeasureStack.pack([m])
        assert len(m._groups) == len(packed._groups)
        for got, want in zip(m._groups, packed._groups):
            for a, b in zip(got, want):
                assert (a is None and b is None) or (a.shape == b.shape and a.tobytes() == b.tobytes())
