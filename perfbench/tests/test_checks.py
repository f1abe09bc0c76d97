"""Tests of the benchmark itself: checkers, input generation and tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def transport_report(**overrides):
    report = {"weak_duality_ok": True, "primal_value": 3.995, "dual_value": 3.997}
    report.update(overrides)
    return report


def test_transport_check_accepts_a_good_report():
    assert checks.check_transport(transport_report(), 4.0) == []
    assert checks.check_transport(transport_report(dual_value=3.71), 4.0) == []


def test_transport_check_rejects_weak_duality_failure():
    reasons = checks.check_transport(transport_report(weak_duality_ok=False), 4.0)
    assert any("weak_duality_ok" in r for r in reasons)


@pytest.mark.parametrize("primal", [4.06, 3.94])
def test_transport_check_rejects_primal_off_the_optimum(primal):
    reasons = checks.check_transport(transport_report(primal_value=primal), 4.0)
    assert any("primal" in r for r in reasons)


def test_transport_check_rejects_a_loose_dual():
    reasons = checks.check_transport(transport_report(dual_value=3.69), 4.0)
    assert any("dual" in r for r in reasons)


def limit_report(membership, estimate=4.0):
    return {
        "diffusion_increment": estimate,
        "verdict": "diffusion-created",
        "closedness": {"limit_in_set": membership},
    }


@pytest.mark.parametrize("expect", ["no", "not-yes"])
def test_limits_check_rejects_yes_for_the_pure_jump_family(expect):
    reasons = checks.check_limits(limit_report("yes"), 2.0, expect)
    assert any("membership" in r for r in reasons)


def test_limits_check_accepts_expected_verdicts():
    assert checks.check_limits(limit_report("no"), 2.0, "no") == []
    assert checks.check_limits(limit_report("inconclusive"), 2.0, "not-yes") == []
    assert checks.check_limits(limit_report("yes", 1.0), 1.0, "yes") == []


def test_limits_check_rejects_a_wrong_diffusion_estimate():
    reasons = checks.check_limits(limit_report("no", 4.0 + 1e-4), 2.0, "no")
    assert any("diffusion estimate" in r for r in reasons)


def test_simulate_check_uses_closed_form_moments():
    triplet = {
        "b": [0.3], "c": [[0.5]],
        "F": {"atoms": [{"x": [0.4], "w": 2.0}, {"x": [-1.5], "w": 0.5}],
              "pieces": [{"lo": 1e-4, "hi": 0.6, "density": "3.0"}]},
    }
    m = checks.triplet_moments(triplet, 1.0)
    assert m["mean"] == pytest.approx(0.3 - 0.75)
    piece_m2 = 3.0 * (0.6**3 - 1e-12) / 3.0
    assert m["variance"] == pytest.approx(0.5 + 2.0 * 0.16 + 0.5 * 2.25 + piece_m2)
    n = 100_000
    good = {"terminal": {"mean": m["mean"], "variance": m["variance"]}}
    assert checks.check_simulate(good, m, n) == []
    se = math.sqrt(m["variance"] / n)
    bad = {"terminal": {"mean": m["mean"] + 6 * se, "variance": m["variance"]}}
    assert any("mean" in r for r in checks.check_simulate(bad, m, n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    def docs(seed, sub):
        out = os.path.join(ROOT, ".perfbench_runs", "tests", name, sub)
        ops = workloads.generate(name, seed, 10, ROOT, out)
        workloads.parse_inputs(ops)  # levysot accepts every generated input
        return [json.dumps(op.doc, sort_keys=True) + str(op.cli_seed) for op in ops]

    first = docs(5, "a")
    assert first == docs(5, "b")
    assert first != docs(6, "c")


def test_midpoints_cover_the_range_in_seeded_order():
    import numpy as np

    orders = [workloads._midpoints(np.random.default_rng(s), 4, 2.0, 4.0) for s in range(8)]
    assert all(sorted(o) == [2.25, 2.75, 3.25, 3.75] for o in orders)
    assert len({tuple(o) for o in orders}) > 1


def test_tracer_counts_and_restores():
    import tracing
    from levysot import fixtures, limits, triplets
    from levysot.serialize import family_from_dict

    original_at = triplets.ThetaFamily.__dict__["at"]
    original_project = limits.project_to_family
    fam = family_from_dict(fixtures.pure_jump_family_doc())
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        tracer.op_id = 0
        fam.at([1.0, 0.5])
        fam.at([2.0, 0.5])
    finally:
        restore()
    assert triplets.ThetaFamily.__dict__["at"] is original_at
    assert limits.project_to_family is original_project
    assert tracer.counters["triplets.family_at_calls"] == 2
    assert tracer.op_counters[0]["triplets.family_at_calls"] == 2
    fam.at([1.0, 0.5])
    assert tracer.counters["triplets.family_at_calls"] == 2


def test_self_time_excludes_children():
    import time

    import tracing

    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02), hot=True)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_s["outer"] < 0.5 * tracer.inclusive["outer"]
    assert tracer.inclusive["inner"] == pytest.approx(tracer.self_s["inner"])
    (span,) = tracer.spans
    assert span[1] == "outer" and span[4] is None
