"""Correctness checks on the JSON reports the levysot CLI writes.

Each check takes the parsed report plus what the generated input implies
(a closed-form optimum, closed-form moments, an expected verdict) and
returns the list of reasons the op failed; an empty list means it passed.
The checks import nothing from levysot, so they judge the program from
outside.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

# acceptance criterion 7 (Poisson target): primal within a relative
# tolerance of the closed-form optimum, dual at least a share of it
PRIMAL_REL_TOL = 1.25e-2
DUAL_SHARE = 0.925
# terminal mean and variance must lie this many standard errors from the
# closed-form moments of the simulated triplet
SIMULATE_Z = 5.0
DIFFUSION_REL_TOL = 1e-6


def check_transport(report: Mapping[str, Any], optimum: float) -> list:
    reasons = []
    if report.get("weak_duality_ok") is not True:
        reasons.append("weak_duality_ok is not true")
    primal = float(report["primal_value"])
    if abs(primal - optimum) > PRIMAL_REL_TOL * abs(optimum):
        reasons.append(
            f"primal {primal!r} off the optimum {optimum!r} by more than "
            f"{PRIMAL_REL_TOL} relative"
        )
    dual = float(report["dual_value"])
    if dual < DUAL_SHARE * optimum:
        reasons.append(f"dual {dual!r} below {DUAL_SHARE} x optimum {optimum!r}")
    return reasons


def _piece_moment(piece: Mapping[str, Any], k: int) -> float:
    """Integral of x^k * density over the piece; densities are constants."""
    d = float(piece["density"])
    lo, hi = float(piece["lo"]), float(piece["hi"])
    return d * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)


def triplet_moments(triplet: Mapping[str, Any], horizon: float) -> dict:
    """Mean, variance and fourth cumulant of X_T for a 1-d triplet with atoms
    and constant-density pieces, under the unit-ball truncation."""
    F = triplet.get("F", {})
    atoms = [(float(a["x"][0]), float(a["w"])) for a in F.get("atoms", ())]
    pieces = F.get("pieces", ())
    big_mean = sum(w * x for x, w in atoms if abs(x) > 1.0)
    if any(float(p["hi"]) > 1.0 or float(p["lo"]) < -1.0 for p in pieces):
        raise ValueError("density pieces must lie inside the unit ball")
    m2 = sum(w * x * x for x, w in atoms) + sum(_piece_moment(p, 2) for p in pieces)
    m4 = sum(w * x**4 for x, w in atoms) + sum(_piece_moment(p, 4) for p in pieces)
    return {
        "mean": horizon * (float(triplet["b"][0]) + big_mean),
        "variance": horizon * (float(triplet["c"][0][0]) + m2),
        "kappa4": horizon * m4,
    }


def check_simulate(report: Mapping[str, Any], moments: Mapping[str, float], n_paths: int) -> list:
    terminal = report["terminal"]
    var = moments["variance"]
    se_mean = math.sqrt(var / n_paths)
    se_var = math.sqrt((moments["kappa4"] + 2.0 * var * var) / n_paths)
    reasons = []
    for key, se in (("mean", se_mean), ("variance", se_var)):
        got = float(terminal[key])
        if abs(got - moments[key]) > SIMULATE_Z * se:
            reasons.append(
                f"terminal {key} {got!r} is more than {SIMULATE_Z} standard errors "
                f"({se:.3g}) from {moments[key]!r}"
            )
    return reasons


def check_limits(report: Mapping[str, Any], scale: float, membership: str) -> list:
    """``membership`` is "no", "yes", or "not-yes" (anything but yes)."""
    reasons = []
    expected = scale * scale
    est = float(report["diffusion_increment"])
    if abs(est - expected) > DIFFUSION_REL_TOL * expected:
        reasons.append(f"diffusion estimate {est!r} is not a^2 = {expected!r}")
    if report.get("verdict") != "diffusion-created":
        reasons.append(f"verdict {report.get('verdict')!r}, expected 'diffusion-created'")
    got = report.get("closedness", {}).get("limit_in_set")
    ok = got != "yes" if membership == "not-yes" else got == membership
    if not ok:
        reasons.append(f"membership {got!r}, expected {membership!r}")
    return reasons
