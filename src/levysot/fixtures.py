"""Flagship example documents shared by the CLI, the fixture files and tests.

Three setups recur throughout: the scaled compensated Poisson sequence whose
small jumps create a Brownian limit, the rate/variance-trading family whose
closedness is restored by the modified-second-characteristic map, and two
one-dimensional transport instances (Gaussian target with quadratic diffusion
cost; compensated-Poisson target with rate-matching cost).
"""

from __future__ import annotations

from .montecarlo import poisson_head

POISSON_TARGET_RATE = 3.0
POISSON_JUMP = 0.5


def shrinking_jump_sequence_doc() -> dict:
    """n -> (0, 0, n * delta at 1/sqrt(n)): jumps shrink, intensity grows."""
    return {
        "b": ["0"],
        "c": [["0"]],
        "F": {"atoms": [{"x": ["1 / pow(n, 0.5)"], "w": "n"}]},
        "n_schedule": [10, 100, 1000, 10000, 100000],
    }


def pure_jump_family_doc() -> dict:
    """Pure-jump family: zero drift, zero diffusion, one atom in [-1, 1]."""
    return {
        "box": [[0.0, 1e6], [1e-4, 1.0]],
        "params": ["lam", "y"],
        "b": ["0"],
        "c": [["0"]],
        "F": {"atoms": [{"x": ["y"], "w": "lam"}]},
        "structural_tag": "product-box",
        "blocks": {"b": [], "c": [], "F": [0, 1]},
    }


def pinned_variance_family_doc() -> dict:
    """Diffusion/jump trade-off with c + second jump moment pinned to 1."""
    return {
        "box": [[0.0, 1.0], [1e-4, 1.0]],
        "params": ["c", "y"],
        "b": ["0"],
        "c": [["c"]],
        "F": {"atoms": [{"x": ["y"], "w": "(1 - c) / (y * y)"}]},
        "structural_tag": "general",
    }


def shrinking_jump_limit_doc() -> dict:
    """limit-analyze on the shrinking-jump sequence against the pure-jump
    family, matching member n by its rate and atom: the document of
    ``fixtures/shrinking_jump_sequence.json``."""
    return {
        "sequence": shrinking_jump_sequence_doc(),
        "family": pure_jump_family_doc(),
        "param_map": ["n", "1 / pow(n, 0.5)"],
    }


def pinned_variance_limit_doc() -> dict:
    """The same sequence against the pinned-variance family, compared
    through the modified second characteristic c + int h h^T dF."""
    return dict(shrinking_jump_limit_doc(), family=pinned_variance_family_doc(),
                param_map=["0", "1 / pow(n, 0.5)"], use_u_map=True)


def gaussian_instance_doc() -> dict:
    """Point mass to N(0, 1) through controlled diffusion, quadratic cost."""
    return {
        "mu0": {"kind": "point-mass", "location": 0.0},
        "mu1": {"kind": "gaussian", "mean": 0.0, "variance": 1.0},
        "family": {
            "box": [[0.0, 4.0]],
            "params": ["c"],
            "b": ["0"],
            "c": [["c"]],
            "F": {"atoms": []},
            "structural_tag": "product-box",
            "blocks": {"b": [], "c": [0], "F": []},
        },
        "cost": "c * c",
        "solver": {
            "dual": {"n_x": 240, "n_t": 100, "bound": 50.0},
            "mc": {"n_paths": 100000, "seed": 0},
        },
    }


def poisson_terminal_marginal() -> dict:
    """Law of jump * N - rate * jump at horizon 1, N Poisson(rate)."""
    ks, weights = poisson_head(POISSON_TARGET_RATE, 1e-14)
    weights = weights / weights.sum()
    points = POISSON_JUMP * ks - POISSON_JUMP * POISSON_TARGET_RATE
    return {
        "kind": "grid-density",
        "points": points.tolist(),
        "weights": weights.tolist(),
    }


def poisson_instance_doc() -> dict:
    """Compensated-Poisson target reached by modulating the jump rate."""
    return {
        "mu0": {"kind": "point-mass", "location": 0.0},
        "mu1": poisson_terminal_marginal(),
        "family": {
            "box": [[0.0, 6.0]],
            "params": ["lam"],
            "b": ["0"],
            "c": [["0"]],
            "F": {"atoms": [{"x": [str(POISSON_JUMP)], "w": "lam"}]},
            "structural_tag": "product-box",
            "blocks": {"b": [], "c": [], "F": [0]},
        },
        "cost": "(lam - 1) * (lam - 1)",
        "solver": {
            "dual": {
                "n_x": 240,
                "n_t": 100,
                "bound": 300.0,
                "smoothing": 0.3,
                "drift_stencil": "central",
            },
            "mc": {"n_paths": 100000, "seed": 0},
        },
    }


def trivial_instance_doc() -> dict:
    """Identical point marginals; staying put is free and optimal."""
    doc = gaussian_instance_doc()
    doc["mu1"] = {"kind": "point-mass", "location": 0.0}
    return doc
