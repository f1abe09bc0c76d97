import numpy as np
import pytest

from levysot.cli import fixture_doc
from levysot.limits import (
    ExponentProfile,
    LimitStructure,
    TripletSequence,
    _unit_map,
    closedness_probe,
    default_u_grid,
    diffusion_creation_diagnostic,
    exponent_limit_profile,
    limit_triplet_identify,
    project_to_family,
)
from levysot.measures import DensityPiece
from levysot.serialize import family_from_dict, param_map_from_exprs, sequence_from_dict
from one_row import atoms, family, measure, psi, triplet


def shrinking_jump_sequence() -> TripletSequence:
    return sequence_from_dict(fixture_doc("shrinking_jump_sequence.json")["sequence"])


def _probe(fam, seq, use_u_map, param_map=None):
    """The closedness probe on the sequence's profile over the default grid
    and the limit identified from it."""
    profile = exponent_limit_profile(seq, default_u_grid())
    return closedness_probe(fam, seq, use_u_map, profile, limit_triplet_identify(profile),
                            param_map=param_map)


def test_schedule_validation():
    with pytest.raises(ValueError):
        TripletSequence.from_map(lambda n: None, (10, 10, 100))
    with pytest.raises(ValueError):
        TripletSequence.from_map(lambda n: None, (0, 10))


def test_condition_b_bound_along_schedule():
    assert np.isclose(shrinking_jump_sequence().condition_b_bound(), 1.0)


def test_profile_on_constant_sequence_is_exact():
    t = triplet(0.3, 1.2)
    seq = TripletSequence.from_map(lambda n: t, (10, 100, 1000))
    profile = exponent_limit_profile(seq, np.array([0.7, 1.9]))
    for u, limit, error in zip(profile.u, profile.limit, profile.error):
        assert limit == psi(t, u)
        assert error == 0.0


def test_diffusion_diagnostic_verdicts():
    created = diffusion_creation_diagnostic(shrinking_jump_sequence())
    assert created.verdict == "diffusion-created"
    assert abs(created.estimate - 1.0) < 1e-9

    cp = TripletSequence.from_map(
        lambda n: triplet(F=measure((0.5, 2.0))),
        (10, 100, 1000),
    )
    pure = diffusion_creation_diagnostic(cp)
    assert pure.verdict == "purely-discontinuous-limit"
    assert pure.estimate == 0.0
    with pytest.raises(ValueError):
        diffusion_creation_diagnostic(cp, delta_schedule=(0.1, 0.2))


def test_limit_identification_recovers_known_triplet():
    target = triplet(0.4, 0.9, measure((0.5, 1.5)))
    seq = TripletSequence.from_map(lambda n: target, (10, 100))
    profile = exponent_limit_profile(seq, default_u_grid())
    fitted, resid = limit_triplet_identify(profile, LimitStructure((0.5,)))
    assert resid < 1e-10
    assert np.isclose(fitted.b[0, 0], 0.4, atol=1e-8)
    assert np.isclose(fitted.c[0, 0, 0], 0.9, atol=1e-8)
    assert np.isclose(atoms(fitted.F)[0][1], 1.5, atol=1e-8)


def test_diffusion_diagnostic_extrapolates_a_decaying_profile_and_flags_the_band():
    # a unit density on [1e-4, 1]: the small-jump mass within delta is
    # (delta^3 - 1e-12) / 3, all positive and decaying like delta^3
    piece = DensityPiece(1e-4, 1.0, np.ones_like)
    dens = TripletSequence.from_map(
        lambda n: triplet(F=measure(pieces=(piece,))),
        (10, 100, 1000),
    )
    decaying = diffusion_creation_diagnostic(dens)
    assert all(v > 0.0 for _, v in decaying.profile)
    assert decaying.verdict == "purely-discontinuous-limit"
    assert decaying.estimate == 0.0

    # n atoms of size sqrt(a2 / n): mass a2 within every delta of the tail,
    # between TOL_D and ten times it
    doc = fixture_doc("shrinking_jump_sequence.json")["sequence"]
    doc["F"]["atoms"][0]["x"] = ["pow(0.005 / n, 0.5)"]
    band = diffusion_creation_diagnostic(sequence_from_dict(doc))
    assert band.verdict == "inconclusive"
    assert abs(band.estimate - 0.005) <= 1e-12


def test_limit_identification_bounds_a_negative_diffusion():
    # psi(u) = +0.25 u^2 asks for c = -0.5; the bounded fit holds c at 0 and
    # leaves the whole limit as residual
    u = default_u_grid()
    limit = (0.25 * u**2).astype(complex)
    profile = ExponentProfile((1,), u, limit[:, None], limit, np.zeros(u.size))
    fitted, resid = limit_triplet_identify(profile)
    assert 0.0 <= fitted.c[0, 0, 0] <= 1e-12
    assert fitted.F.atom_w.shape == (1, 0)
    assert abs(resid - 0.25 * np.max(u**2)) <= 1e-12


def test_limit_identification_underdetermined():
    profile = exponent_limit_profile(
        TripletSequence.from_map(lambda n: triplet(0.0, 1.0), (10, 100)),
        np.array([1.0]),
    )
    with pytest.raises(ValueError):
        limit_triplet_identify(profile, LimitStructure((0.5, 0.7, 0.9)))


def test_project_to_family_recovers_member():
    fam = family(((0.0, 4.0),), lambda p: triplet(0.0, p[0]))
    params, dist, _ = project_to_family(fam, triplet(0.0, 2.5))
    assert dist < 1e-8
    assert np.isclose(params[0], 2.5, atol=1e-6)


def test_unit_map_hits_the_box_ends_and_log_scales_wide_boxes():
    lows = np.array([0.0, 1e-4, 0.0, -1.0, 0.1])
    highs = np.array([1e6, 1.0, 6.0, 1.0, 0.3])
    to_box = _unit_map(lows, highs)
    assert np.array_equal(to_box(np.zeros((1, 5)))[0], lows)
    assert np.array_equal(to_box(np.ones((1, 5)))[0], highs)
    mid = to_box(np.full((1, 5), 0.5))[0]
    assert np.isclose(mid[0], np.sqrt(1e6 + 1) - 1)  # expm1(log1p(hi) / 2)
    assert np.isclose(mid[1], 1e-2)  # geometric
    assert np.allclose(mid[2:], [3.0, 0.0, 0.2])  # linear


def test_project_to_family_reaches_the_large_rate_member():
    # lambda = 1e5 sits at the far end of a box spanning six decades, where
    # only the features' weak dependence on y fixes the point in the
    # lambda * y^2 = 1 valley
    fam = family_from_dict(fixture_doc("pure_jump_family.json"))
    lam = 1e5
    member = fam.at([lam, 1.0 / np.sqrt(lam)])
    params, dist, entry = project_to_family(fam, member)
    assert dist <= 1e-8
    assert abs(params[0] - lam) <= 1e-6 * lam
    assert all(1 <= p["status"] <= 4 for p in entry["polish"])


def test_pinned_variance_projection_polishes_once():
    # on the c = 1 edge the atom's weight is 0, so y does nothing and the
    # best scan cells tie
    fam = family_from_dict(fixture_doc("pinned_variance_family.json"))
    report = _probe(
        fam, shrinking_jump_sequence(), use_u_map=True,
        param_map=param_map_from_exprs(["0", "1 / pow(n, 0.5)"]),
    )
    assert report.limit_in_set == "yes"
    assert len(report.projections) == 1
    assert len(report.projections[-1]["polish"]) == 1


def test_closedness_probe_inconclusive_outside_family():
    # scheduled triplets carry drift the family cannot produce
    fam = family(((0.0, 4.0),), lambda p: triplet(0.0, p[0]))
    seq = TripletSequence.from_map(lambda n: triplet(1.0, 1.0), (10, 100))
    report = _probe(fam, seq, use_u_map=False)
    assert report.limit_in_set == "inconclusive"


def test_closedness_probe_member_limit_is_yes():
    fam = family(((0.0, 4.0),), lambda p: triplet(0.0, p[0]))
    seq = TripletSequence.from_map(lambda n: triplet(0.0, 2.0 + 1.0 / n), (10, 100, 1000, 10000))
    report = _probe(fam, seq, use_u_map=False)
    assert report.limit_in_set == "yes"
    assert np.isclose(report.witness_params[0], 2.0, atol=1e-2)
