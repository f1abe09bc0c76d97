"""The three workloads: seeded input generation, the op list, and per-op checks.

A run is a fixed list of units, each one op (three limit-analyze probes for
limits-closedness). Its length is the larger of the workload's minimum and
``seconds / nominal_unit_s``, so ``--seconds`` sets the amount of work and
both commits of a comparison run the same ops. The parameter that sets an
op's cost (Poisson rate, atom scale) takes the midpoints of
n equal strata of its range, one per unit, in an order the seed draws; the
seed also draws every --seed passed to the CLI and the simulated triplet's
weights. The midpoints are fixed because the HJB solve count is an erratic
function of the target (125 to 163 solves over rates in [2, 4], with no
order), so values drawn at random made a run's work, and with it the run
medians, depend on the seed far more than on the program. Generation
imports nothing from levysot; the program sees only the generated JSON files.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np
from scipy import stats

import checks

MC_PATHS = 10_000
SIM_PATHS = 100_000
SIM_STEPS = 5
REPORT_FILES = {
    "solve-transport": "duality_report.json",
    "simulate": "simulate_report.json",
    "limit-analyze": "limit_report.json",
}


@dataclass
class Op:
    command: str
    doc: dict
    cli_seed: int
    check: Callable[[dict], list]  # parsed report -> failure reasons
    params: Dict[str, Any] = field(default_factory=dict)
    input_path: str = ""
    out_dir: str = ""

    def argv(self) -> List[str]:
        return [
            self.command, "--input", self.input_path,
            "--out", self.out_dir, "--seed", str(self.cli_seed),
        ]

    def report_path(self) -> str:
        return os.path.join(self.out_dir, REPORT_FILES[self.command])


def _midpoints(rng: np.random.Generator, n: int, lo: float, hi: float) -> List[float]:
    return [lo + (hi - lo) * (int(i) + 0.5) / n for i in rng.permutation(n)]


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _fixture(root: str, name: str) -> dict:
    with open(os.path.join(root, "fixtures", name), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# generators: (rng, n, repo root) -> ops


def poisson_target(rate: float, jump: float = 0.5) -> dict:
    """Law of jump * (N - rate), N ~ Poisson(rate), built as in
    ``levysot.fixtures.poisson_terminal_marginal``."""
    kmax = int(stats.poisson.ppf(1.0 - 1e-14, rate)) + 1
    ks = np.arange(kmax + 1)
    weights = stats.poisson.pmf(ks, rate)
    weights = weights / weights.sum()
    return {
        "kind": "grid-density",
        "points": (jump * ks - jump * rate).tolist(),
        "weights": weights.tolist(),
    }


def gen_transport_jump(rng, n, root):
    base = _fixture(root, "poisson_instance.json")
    ops = []
    for rate in _midpoints(rng, n, 2.0, 4.0):
        doc = copy.deepcopy(base)
        doc["mu1"] = poisson_target(rate)
        doc["solver"]["mc"]["n_paths"] = MC_PATHS
        optimum = (rate - 1.0) ** 2
        ops.append(Op(
            "solve-transport", doc, _cli_seed(rng),
            lambda r, o=optimum: checks.check_transport(r, o),
            {"rate": rate, "optimum": optimum},
        ))
    return ops


def gen_simulate(rng, n, root):
    ops = []
    for _ in range(n):
        # drift, diffusion, one atom inside and one outside the unit ball, and
        # a density piece whose lowest quadrature nodes fall below the 1e-3
        # small-jump threshold (so the Gaussian substitution is exercised)
        triplet = {
            "b": [0.3],
            "c": [[0.5]],
            "F": {
                "atoms": [
                    {"x": [0.4], "w": float(rng.uniform(1.0, 3.0))},
                    {"x": [-1.5], "w": float(rng.uniform(0.2, 1.0))},
                ],
                "pieces": [
                    {"lo": 1e-4, "hi": 0.6, "density": repr(float(rng.uniform(1.0, 4.0)))}
                ],
            },
        }
        doc = {
            "triplet": triplet,
            "config": {"horizon": 1.0, "n_steps": SIM_STEPS, "n_paths": SIM_PATHS},
        }
        moments = checks.triplet_moments(triplet, 1.0)
        ops.append(Op(
            "simulate", doc, _cli_seed(rng),
            lambda r, m=moments: checks.check_simulate(r, m, SIM_PATHS),
            {"moments": moments},
        ))
    return ops


def _scaled_sequence(base: dict, scale: float) -> dict:
    seq = copy.deepcopy(base)
    seq["F"]["atoms"][0]["x"] = [f"{scale!r} / pow(n, 0.5)"]
    return seq


def gen_limits(rng, n, root):
    """n batches of three probes on the shrinking-jump sequence with atom
    scale a: pure-jump with param_map, pure-jump without it, and the
    pinned-variance family through the u-map at a = 1."""
    base = _fixture(root, "shrinking_jump_sequence.json")
    pinned = _fixture(root, "pinned_variance_family.json")
    ops = []
    for scale in _midpoints(rng, n, 0.5, 2.0):
        seq = _scaled_sequence(base["sequence"], scale)
        with_map = {
            "sequence": seq,
            "family": base["family"],
            "param_map": ["n", seq["F"]["atoms"][0]["x"][0]],
        }
        without_map = {"sequence": seq, "family": base["family"]}
        pinned_doc = {
            "sequence": _scaled_sequence(base["sequence"], 1.0),
            "family": pinned,
            "use_u_map": True,
            "param_map": ["0", "1.0 / pow(n, 0.5)"],
        }
        for doc, a, membership, probe in (
            (with_map, scale, "no", "pure-jump+param_map"),
            (without_map, scale, "not-yes", "pure-jump"),
            (pinned_doc, 1.0, "yes", "pinned-variance"),
        ):
            ops.append(Op(
                "limit-analyze", doc, _cli_seed(rng),
                lambda r, a=a, m=membership: checks.check_limits(r, a, m),
                {"scale": a, "probe": probe, "expect": membership},
            ))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable
    nominal_unit_s: float  # time of one unit on the reference machine
    min_units: int  # minimum units per run
    unit_ops: int = 1  # ops per unit: one generated batch of inputs

    def units(self, seconds: float) -> int:
        return max(self.min_units, int(round(seconds / self.nominal_unit_s)))


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("transport-jump", gen_transport_jump, 15.0, 3),
    Workload("simulate-jump-diffusion", gen_simulate, 14.0, 2),
    Workload("limits-closedness", gen_limits, 3.0, 6, unit_ops=3),
)}


def generate(workload: str, seed: int, seconds: float, root: str, run_dir: str) -> List[Op]:
    """Make the run's ops from the seed and write their inputs under run_dir."""
    wl = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    ops = wl.generate(rng, wl.units(seconds), root)
    for i, op in enumerate(ops):
        op.input_path = os.path.join(run_dir, "inputs", f"op{i:03d}.json")
        op.out_dir = os.path.join(run_dir, "out", f"op{i:03d}")
        os.makedirs(os.path.dirname(op.input_path), exist_ok=True)
        with open(op.input_path, "w", encoding="utf-8") as fh:
            json.dump(op.doc, fh, indent=1, sort_keys=True)
    return ops


def parse_inputs(ops: List[Op]) -> None:
    """Parse every generated input through levysot's serialize layer."""
    from levysot import serialize

    for op in ops:
        doc = serialize.load_json(op.input_path)
        if op.command == "solve-transport":
            serialize.instance_from_dict(doc)
        elif op.command == "simulate":
            serialize.triplet_from_dict(doc["triplet"])
        else:
            serialize.sequence_from_dict(doc["sequence"])
            serialize.family_from_dict(doc["family"])
            if "param_map" in doc:
                serialize.param_map_from_exprs(doc["param_map"])


def check_op(op: Op, rc: int) -> tuple:
    """Failure reasons and the op's exact record (report hash, counts)."""
    if rc != 0:
        return [f"exit code {rc}"], {"exit_code": rc}
    with open(op.report_path(), "rb") as fh:
        raw = fh.read()
    report = json.loads(raw)
    exact = {
        "exit_code": rc,
        "report_sha256": hashlib.sha256(raw).hexdigest(),
        "bytes_written": sum(
            os.path.getsize(os.path.join(op.out_dir, f)) for f in os.listdir(op.out_dir)
        ),
    }
    if op.command == "solve-transport":
        exact["hjb_solves"] = len(report["ascent_history"])
        # recorded, never gated: the KS distance is wrong against atomic laws
        exact["marginal_ks"] = report["mc_validation"]["terminal_ks"]
    if op.command == "simulate":
        exact["path_steps"] = SIM_PATHS * SIM_STEPS
    return op.check(report), exact
