import numpy as np
import pytest

from integrals import generator_apply
from levysot.cli import fixture_doc
from levysot.serialize import SchemaError, family_from_dict
from levysot.triplets import (
    FeatureMapConfig,
    ThetaFamily,
    TripletStack,
    box_independence_check,
    condition_b_value,
    family_checks,
    family_condition_j,
    family_points,
    jump_exponent,
    martingale_residual,
    measure_features,
    modified_triplet,
    small_jump_second_moment,
)
from one_row import family, measure, psi, triplet


def scalar(b=0.0, c=0.0, atoms=()):
    return triplet(b, c, measure(*atoms))


def test_triplet_validation():
    with pytest.raises(ValueError):
        triplet(np.array([0.0, 0.0]), np.array([[1.0]]), measure(dimension=2))
    with pytest.raises(ValueError):
        triplet(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), measure(dimension=2))
    with pytest.raises(ValueError):
        triplet(0.0, -1.0)
    # F must hold one measure of b's dimension per row
    with pytest.raises(ValueError, match="F dimension"):
        TripletStack(np.zeros((2, 1)), np.zeros((2, 1, 1)), measure())
    with pytest.raises(ValueError, match="F dimension"):
        triplet(np.zeros(2), np.eye(2), measure())


def test_condition_b_closed_form():
    t = scalar(b=1.0, c=2.0, atoms=((0.5, 3.0),))
    # |b| + |c| + w * min(y^2, |y|)
    assert np.isclose(condition_b_value(t)[0], 1.0 + 2.0 + 3.0 * 0.25)
    big = scalar(atoms=((2.0, 1.5),))
    assert np.isclose(condition_b_value(big)[0], 1.5 * 2.0)


def test_small_jump_second_moment():
    F = measure((0.5, 2.0))
    assert np.isclose(small_jump_second_moment(F, 0.5)[0], 2.0 * 0.25)
    assert small_jump_second_moment(F, 0.4)[0] == 0.0
    with pytest.raises(ValueError):
        small_jump_second_moment(F, 0.0)


def test_modified_triplet_scalar():
    t = scalar(b=0.3, c=0.7, atoms=((0.5, 4.0),))
    m = modified_triplet(t)
    assert np.isclose(m.c[0, 0, 0], 0.7 + 4.0 * 0.25)
    assert np.allclose(m.b, t.b)
    # jumps beyond the unit ball contribute through the truncation
    big = scalar(c=1.0, atoms=((2.0, 3.0),))
    assert np.isclose(modified_triplet(big).c[0, 0, 0], 1.0 + 3.0 * 1.0)


def test_exponent_gaussian_closed_form():
    t = triplet(0.5, 2.0)
    u = 1.3
    assert np.isclose(psi(t, u), 1j * u * 0.5 - 0.5 * 2.0 * u**2)


def test_exponent_poisson_closed_form():
    y, w, u = 0.5, 2.0, 1.7
    t = scalar(atoms=((y, w),))
    expected = w * (np.exp(1j * u * y) - 1.0 - 1j * u * y)
    assert np.isclose(psi(t, u), expected)


def test_generator_on_quadratic():
    t = scalar(b=0.4, c=1.5, atoms=((0.5, 2.0),))
    val = generator_apply(
        t,
        f=lambda x: float(x[0] ** 2),
        grad=lambda x: 2.0 * x,
        hess=lambda x: 2.0 * np.eye(1),
        x=np.array([1.0]),
    )
    # A x^2 at x: 2xb + c + w((x+y)^2 - x^2 - 2x h(y))
    x, y, w = 1.0, 0.5, 2.0
    expected = 2 * x * 0.4 + 1.5 + w * ((x + y) ** 2 - x**2 - 2 * x * y)
    assert np.isclose(val, expected)


def test_martingale_residual():
    assert np.allclose(martingale_residual(scalar(atoms=((0.5, 3.0),))), 0.0)
    t = scalar(b=0.0, atoms=((2.0, 1.0),))
    assert np.isclose(martingale_residual(t)[0, 0], 2.0 - 1.0)
    assert np.allclose(martingale_residual(scalar(b=-1.0, atoms=((2.0, 1.0),))), 0.0)


def test_feature_map_size_and_window():
    cfg = FeatureMapConfig(m_max=2, u_grid=(np.array([1.0]),))
    assert cfg.size == 4
    (feats,) = measure_features(measure((0.05, 1.0)), cfg)
    # a jump of size 0.05 is below the 1/(2m) ramp for m = 1, 2
    assert np.allclose(feats[:2], 0.0)
    with pytest.raises(ValueError):
        FeatureMapConfig(m_max=0)
    with pytest.raises(ValueError):
        FeatureMapConfig(u_grid=(np.array([0.0]),))


def _pure_jump_family():
    return family(
        ((0.0, 1e6), (1e-4, 1.0)),
        lambda p: triplet(F=measure((p[1], p[0])) if p[0] > 0 else None),
    )


def test_family_shapes_and_validation():
    fam = _pure_jump_family()
    assert fam.corners().shape == (4, 2)
    assert fam.grid(3).shape == (9, 2)
    with pytest.raises(ValueError):
        ThetaFamily(((1.0, 0.0),), lambda p: None)
    # parameters are named p0, p1, ... unless named, one name per bound
    assert fam.param_names == ("p0", "p1")
    assert ThetaFamily(((0.0, 1.0),), lambda p: None, param_names=["lam"]).param_names == ("lam",)
    with pytest.raises(ValueError, match="names"):
        ThetaFamily(((0.0, 1.0),), lambda p: None, param_names=("a", "b"))


def test_family_condition_b_grid_estimate():
    fam = _pure_jump_family()
    est = family_checks(fam, (0.4, 0.2, 0.1), resolution=3).condition_b
    assert est.finite_flag
    # at the (1e6, 1e-4) corner: w * y^2 = 1e6 * 1e-8 = 0.01; sup at y = 1
    assert np.isclose(est.sup_estimate, 1e6)


def test_family_condition_j_verdicts():
    fails = family_condition_j(family_points(_pure_jump_family(), 3), (0.4, 0.2, 0.1))
    assert fails.verdict == "fails"
    diffusive = family(((0.0, 4.0),), lambda p: triplet(0.0, p[0]))
    assert family_condition_j(family_points(diffusive, 9), (0.4, 0.2, 0.1)).verdict == "holds"
    with pytest.raises(ValueError):
        family_condition_j(family_points(diffusive, 9), (0.1, 0.2, 0.4))


def test_box_independence():
    # only F reads parameters (lam and y), so the family is box-like with
    # nothing declared
    assert box_independence_check(family_from_dict(fixture_doc("pure_jump_family.json")))
    # a Python map records no reads, so nothing is known of its product form
    assert not box_independence_check(_pure_jump_family())
    general = family(((0.0, 1.0),), lambda p: triplet(p[0], 0.0))
    assert not box_independence_check(general)


@pytest.mark.parametrize("b, c, atom_x, box_like", [
    ("y", "0", "y", False),
    ("y", "0", "0.5", True),
    ("0", "lam", "y", False),
], ids=["b-and-F-read-y", "b-reads-y-F-lam", "c-and-F-read-lam"])
def test_box_independence_needs_pairwise_disjoint_reads(b, c, atom_x, box_like):
    doc = fixture_doc("pure_jump_family.json")
    doc["b"], doc["c"] = [b], [[c]]
    doc["F"]["atoms"][0]["x"] = [atom_x]
    assert box_independence_check(family_from_dict(doc)) is box_like


@pytest.mark.parametrize("blocks, b, atom_x, box_like", [
    # b and the atom location both read y, which no block lists
    ({"b": [], "c": [], "F": [0]}, "y", "y", False),
    # y listed by two blocks
    ({"b": [1], "c": [], "F": [0, 1]}, "y", "y", False),
    ({"b": [1], "c": [], "F": [0]}, "y", "0.5", True),
])
def test_box_independence_needs_each_read_in_its_own_block(blocks, b, atom_x, box_like):
    # a declaration of which component owns each parameter is refused, not
    # trusted: the read sets alone decide, and they give the verdict each
    # block declaration above was meant to state
    doc = fixture_doc("pure_jump_family.json")
    doc["b"] = [b]
    doc["F"]["atoms"][0]["x"] = [atom_x]
    with pytest.raises(SchemaError, match="unknown key 'blocks'"):
        family_from_dict({**doc, "blocks": blocks})
    assert box_independence_check(family_from_dict(doc)) is box_like


def test_jump_exponent_is_the_exponent_of_a_unit_atom():
    # both terms read h(y) from measures.truncate, so they agree bit for bit,
    # past the unit ball too (at ±3.7 and ±7.3, x * (1 / |x|) is not ±1)
    u = np.array([-2.0, 0.0, 0.7, 3.0])
    for y in (0.3, -0.8, 2.5, -4.0, 3.7, -3.7, 7.3, -7.3):
        column = jump_exponent(u, [y])[0]
        ref = np.array([psi(scalar(atoms=((y, 1.0),)), v) for v in u])
        assert column.tobytes() == ref.tobytes()
