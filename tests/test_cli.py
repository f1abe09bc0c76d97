import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levysot import cli, limits, serialize, transport
from levysot.cli import FIXTURES, OUTPUT_DIR_ENV, fixture_doc, main, write_csv
from levysot.limits import default_u_grid, exponent_limit_profile
from levysot.measures import MeasureStack
from levysot.montecarlo import BLOCK_PATHS, SimulationConfig, simulate_paths
from levysot.serialize import load_json, sequence_from_dict, triplet_from_dict
from levysot.transport import solve_hjb
from levysot.triplets import COND_J_FAIL_FACTOR, TOL_J, ThetaFamily, small_jump_second_moment


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run(*argv) -> int:
    return main(list(argv))


def test_check_theta_writes_report(tmp_path):
    out = str(tmp_path)
    code = run("check-theta", "--input", fixture("pure_jump_family.json"),
               "--out", out, "--seed", "5")
    assert code == 0
    doc = load_json(os.path.join(out, "check_theta.json"))
    assert doc["seed"] == 5
    assert doc["condition_b"]["finite"]
    assert doc["condition_j"]["verdict"] == "fails"
    assert doc["box_independence"] is True


def test_check_theta_pinned_variance_matches_expectations(tmp_path):
    out = str(tmp_path)
    assert run("check-theta", "--input", fixture("pinned_variance_family.json"),
               "--out", out) == 0
    doc = load_json(os.path.join(out, "check_theta.json"))
    assert doc["condition_j"]["verdict"] == "fails"
    assert doc["box_independence"] is False


def test_check_theta_condition_j_is_inconclusive_between_its_thresholds(tmp_path):
    # one atom at y = 0.005 of weight up to 200: at every default delta the
    # small-jump second moment reads 200 * 0.005^2 = 0.005, above TOL_J and
    # below COND_J_FAIL_FACTOR * TOL_J, so the family neither holds nor fails
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "box": [[0, 200], [0.005, 0.005]], "params": ["lam", "y"], "b": ["0"], "c": [["0"]],
        "F": {"atoms": [{"x": ["y"], "w": "lam"}]},
    }))
    assert run("check-theta", "--input", str(path), "--out", str(tmp_path)) == 0
    cond_j = load_json(os.path.join(tmp_path, "check_theta.json"))["condition_j"]
    assert cond_j["verdict"] == "inconclusive"
    assert [d for d, _ in cond_j["profile"]] == list(limits.DEFAULT_DELTA_SCHEDULE)
    assert all(TOL_J < m < COND_J_FAIL_FACTOR * TOL_J for _, m in cond_j["profile"])


@pytest.mark.parametrize("component, entry", [
    ("b", ["abs(y - 0.001) - (y - 0.001)"]),
    ("c", [["abs(lam - 1) - (lam - 1)"]]),
])
def test_check_theta_reads_a_dependence_across_blocks(tmp_path, component, entry):
    # the dependence sits in a thin slice of the box (y < 0.001 or lam < 1)
    doc = fixture_doc("pure_jump_family.json")
    doc[component] = entry
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert run("check-theta", "--input", str(path), "--out", str(tmp_path)) == 0
    assert load_json(os.path.join(tmp_path, "check_theta.json"))["box_independence"] is False


@pytest.mark.parametrize("key, value", [
    ("structural_tag", '"product-box"'),
    ("blocks", '{"b": [], "c": [], "F": [0, 1]}'),
])
def test_check_theta_rejects_a_family_key_it_does_not_read(tmp_path, capsys, key, value):
    # box-likeness is read from the expressions, so a declaration of it is
    # an unknown key, named with the keys a family document may set
    assert run("check-theta", "--input", fixture("pure_jump_family.json"),
               "--out", str(tmp_path), "--set", f"family.{key}={value}") == 1
    err = capsys.readouterr().err
    assert f"unknown key {key!r}" in err and "box, params, b, c, F" in err
    assert not os.path.exists(os.path.join(tmp_path, "check_theta.json"))


@pytest.mark.parametrize("name", ["t", "x"])
def test_a_parameter_named_like_a_cost_variable_is_a_validation_error(tmp_path, capsys, name):
    doc = fixture_doc("trivial_instance.json")
    doc["family"]["params"] = [name]
    doc["family"]["c"] = [[name]]
    doc["cost"] = f"{name} * {name}"
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert run("solve-transport", "--input", str(path), "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert f"family parameter {name!r}" in err and " at 0x" not in err


def test_limit_analyze_outputs(tmp_path):
    out = str(tmp_path)
    assert run("limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", out) == 0
    doc = load_json(os.path.join(out, "limit_report.json"))
    assert doc["verdict"] == "diffusion-created"
    assert abs(doc["diffusion_increment"] - 1.0) < 1e-6
    assert doc["closedness"]["limit_in_set"] == "no"
    with open(os.path.join(out, "exponent_profile.csv")) as fh:
        assert fh.readline().strip() == "u,n,re_psi,im_psi"
    with open(os.path.join(out, "small_jump_profile.csv")) as fh:
        assert fh.readline().strip() == "delta,n,small_jump_mass"


def test_limit_analyze_rejects_a_param_map_that_leaves_the_box(tmp_path, capsys):
    # lam = n leaves the pure-jump family's box [0, 1e6] at n = 1e7, so the
    # extended sequence is no member there: a validation error, not a verdict
    assert run("limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", str(tmp_path), "--set",
               "sequence.n_schedule=[10,100,1000,10000,100000,10000000]") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n = 10000000" in err
    assert "parameter 'lam' at 10000000.0, outside its bounds [0.0, 1000000.0]" in err
    assert not os.path.exists(os.path.join(str(tmp_path), "limit_report.json"))


def test_limit_analyze_evaluates_the_sequence_and_its_profile_once(tmp_path, monkeypatch):
    # the sequence's template is evaluated over the whole schedule once, and
    # the probe reads the profile the command computed
    counts = {"template": 0, "profile": 0}
    stack, profile = serialize.TripletTemplate.stack, limits.exponent_limit_profile

    def counting_stack(template, values):
        counts["template"] += template.variables == ("n",)
        return stack(template, values)

    def counting_profile(*args, **kwargs):
        counts["profile"] += 1
        return profile(*args, **kwargs)

    monkeypatch.setattr(serialize.TripletTemplate, "stack", counting_stack)
    monkeypatch.setattr(limits, "exponent_limit_profile", counting_profile)
    monkeypatch.setattr(cli, "exponent_limit_profile", counting_profile)
    assert run("limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", str(tmp_path)) == 0
    assert load_json(os.path.join(str(tmp_path), "limit_report.json"))["closedness"]
    assert counts == {"template": 1, "profile": 1}


def test_conditions_build_no_row_of_a_stack(tmp_path, monkeypatch):
    # check-theta and limit-analyze with a param_map read every condition
    # and distance from the stacks they hold, never from a rebuilt row
    calls = [0]
    row = MeasureStack.row

    def counting_row(stack, i):
        calls[0] += 1
        return row(stack, i)

    monkeypatch.setattr(MeasureStack, "row", counting_row)
    for name in ("pure_jump_family.json", "pinned_variance_family.json"):
        assert run("check-theta", "--input", fixture(name), "--out", str(tmp_path)) == 0
    assert run("limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", str(tmp_path)) == 0
    assert load_json(os.path.join(str(tmp_path), "limit_report.json"))["closedness"]
    assert calls[0] == 0


def test_check_theta_prices_its_family_once(tmp_path, monkeypatch):
    # condition B, condition J and the corner residuals read one stack of the
    # 4 corners and the 81 grid points
    rows = []
    stack = ThetaFamily.stack

    def counting_stack(fam, params):
        rows.append(len(params))
        return stack(fam, params)

    monkeypatch.setattr(ThetaFamily, "stack", counting_stack)
    assert run("check-theta", "--input", fixture("pure_jump_family.json"),
               "--out", str(tmp_path)) == 0
    assert rows == [85]


def test_limit_analyze_forms_each_small_jump_moment_once(tmp_path, monkeypatch):
    # the diagnostic and small_jump_profile.csv read one (delta, n) matrix
    calls = [0]
    integrate_ball = MeasureStack.integrate_ball

    def counting_integrate_ball(stack, g, radius):
        calls[0] += 1
        return integrate_ball(stack, g, radius)

    monkeypatch.setattr(MeasureStack, "integrate_ball", counting_integrate_ball)
    assert run("limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", str(tmp_path)) == 0
    assert calls[0] == len(limits.DEFAULT_DELTA_SCHEDULE)


def test_simulate_on_a_sequence_needs_a_target(tmp_path, capsys):
    assert run("simulate", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", str(tmp_path), "--set", "config.n_paths=10") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'target' triplet" in err


def test_simulate_on_a_sequence_with_density_pieces(tmp_path):
    # the paths are drawn under the schedule's last row, which keeps its
    # density pieces' quadrature
    assert run("simulate", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", str(tmp_path), "--set", 'target={"b":[0],"c":[[1]]}',
               "--set", 'sequence.F.pieces=[{"lo":0.2,"hi":1.0,"density":"1"}]',
               "--set", "config.n_paths=2000", "--seed", "0") == 0


def test_simulate_outputs(tmp_path):
    out = str(tmp_path)
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps({
        "triplet": {"b": [0.0], "c": [[1.0]]},
        "config": {"n_paths": 500, "n_steps": 2},
    }))
    assert run("simulate", "--input", str(doc), "--out", out, "--seed", "11") == 0
    rep = load_json(os.path.join(out, "simulate_report.json"))
    assert rep["seed"] == 11
    assert "ks" in rep["terminal"]
    with open(os.path.join(out, "paths.csv")) as fh:
        assert fh.readline().strip() == "path_id,t,value"
        assert sum(1 for _ in fh) == 500 * 3


def test_write_csv_streams_the_buffered_bytes(tmp_path):
    values = np.array([[0.0, 0.1 + 0.2, -1e-300], [np.pi, 1e20, -0.5]])
    times = np.array([0.0, 0.5, 1.0])
    header = ("path_id", "t", "value")
    # the buffered writer this one replaced: format each value, then write once
    buf = io.StringIO()
    ref = csv.writer(buf, lineterminator="\n")
    ref.writerow(header)
    for i in range(values.shape[0]):
        for k, t in enumerate(times):
            ref.writerow([i, repr(float(t)), repr(float(values[i, k]))])
    path = tmp_path / "paths.csv"
    write_csv(str(path), header, range(values.shape[0]), (values,), inner=times)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    assert os.listdir(tmp_path) == ["paths.csv"]

    # a cell that cannot be formatted, in the second block of rows: the
    # header and the first block are written before the write fails
    class Unformattable:
        def __repr__(self):
            raise RuntimeError("cell cannot be formatted")

    failing = np.zeros((cli.CSV_BLOCK_KEYS + 1, 3), dtype=object)
    failing[-1, -1] = Unformattable()
    with pytest.raises(RuntimeError):
        write_csv(str(path), header, range(cli.CSV_BLOCK_KEYS + 1), (failing,), inner=times)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    assert os.listdir(tmp_path) == ["paths.csv"]
    # value columns whose inner length disagrees with the inner keys
    with pytest.raises(ValueError):
        write_csv(str(path), header, range(2), (values,), inner=times[:2])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    assert os.listdir(tmp_path) == ["paths.csv"]


def _repr_cells(col) -> list:
    return list(map(repr, col.tolist()))


def test_cells_are_repr_on_random_bit_patterns():
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    # half with any exponent, subnormals included; half with a binary
    # exponent from -30 to 60, where the cells come from orjson
    exponents = rng.integers(1023 - 30, 1023 + 60, size=bits.size // 2, dtype=np.uint64)
    bits[::2] = (bits[::2] & ~np.uint64(0x7FF << 52)) | (exponents << np.uint64(52))
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert (np.abs(values) < np.finfo(float).tiny).sum() > 100
    assert ((np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)).sum() > 3 * 10**5
    assert cli._cells(values) == _repr_cells(values)


def test_cells_are_repr_at_the_layout_edges():
    edges = []
    for v in (1e-4, 1e-5, 1e15, 1e16, 1e22, 1e23):
        below = above = v
        for _ in range(3):
            below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
            edges += [below, above]
        edges.append(v)
    edges += [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max,
              np.finfo(float).tiny, 1.0, -3.0, 2.0**53, 123456789.0, 0.1 + 0.2]
    col = np.array(edges + [-v for v in edges])
    assert cli._cells(col) == _repr_cells(col)
    # a strided view, as write_csv passes, and an empty column
    assert cli._cells(col[::3]) == _repr_cells(col[::3])
    assert cli._cells(col[:0]) == []
    # a column of another dtype is repr throughout
    ints = np.array([0, -7, 2**40])
    assert cli._cells(ints) == ["0", "-7", "1099511627776"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_cells_are_repr_on_any_floats(values):
    col = np.array(values, dtype=np.float64)
    assert cli._cells(col) == _repr_cells(col)


def _row_writer_bytes(header, rows) -> bytes:
    """The row-at-a-time writer the grid writer replaced: csv.writer, with
    floats written by repr and numpy integers as Python ints."""

    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, np.integer):
            return int(v)
        return v

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def _read_bytes(out, name) -> bytes:
    with open(os.path.join(out, name), "rb") as fh:
        return fh.read()


def test_paths_csv_matches_the_row_writer(tmp_path):
    # two full sampling blocks of paths and a short third one, then a count
    # that is no multiple of the writer's block of rows, from x0 = -0.0
    assert 5000 % cli.CSV_BLOCK_KEYS and (2 * BLOCK_PATHS + 3) % cli.CSV_BLOCK_KEYS
    for n_paths in (2 * BLOCK_PATHS + 3, 5000):
        doc = {
            "triplet": {"b": [0.3], "c": [[0.5]], "F": {"atoms": [{"x": [0.4], "w": 2.0}]}},
            "x0": -0.0,
            "config": {"n_paths": n_paths, "n_steps": 2},
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / f"out{n_paths}")
        assert run("simulate", "--input", str(path), "--out", out, "--seed", "4") == 0
        cfg = SimulationConfig(**doc["config"], seed=4)
        bundle = simulate_paths(triplet_from_dict(doc["triplet"]), -0.0, cfg)
        times = bundle.time_grid.tolist()
        expected = _row_writer_bytes(("path_id", "t", "value"), (
            (i, t, v) for i, path in enumerate(bundle.values)
            for t, v in zip(times, path.tolist())
        ))
        written = _read_bytes(out, "paths.csv")
        assert written == expected
        assert b"\n0,0.0,-0.0\n" in written
        last_row = f"\n{n_paths - 1},1.0,{float(bundle.values[-1, -1])!r}\n"
        assert written.endswith(last_row.encode())


@pytest.mark.parametrize("weights, sha256", [
    ((2.0, 0.6), "f9cf7de45d90f5d55d9f00a161efb47010c0433f1a3b7c84989b4812e94a480a"),
    ((20.0, 10.0), "2491d7c6e846aeab471a2308d054b22ae81cbe5b96dc55124fba5969a4c2487f"),
    ((200.0, 150.0), "c61f1212e16616668dffad0adfc4d3d8f7bf656786b0165d8bda844cd34ae0ac"),
], ids=["mostly-0-to-2-jumps", "mostly-3-or-more-jumps", "multinomial"])
def test_sampled_paths_csv_bytes_are_pinned(tmp_path, weights, sha256):
    # the CI's benchmark-shaped triplet at seed 7: its 65 jump locations
    # expect 0.82 jumps a path-step, 6.3 with the heavier atoms (both drawn
    # location by location) and 70.3 with the heaviest (split
    # multinomially); the hashes are of the files numpy 2.4 writes, and a
    # change to how a path's jumps are summed or drawn changes them
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps({
        "triplet": {"b": [0.3], "c": [[0.5]],
                    "F": {"atoms": [{"x": [0.4], "w": weights[0]}, {"x": [-1.5], "w": weights[1]}],
                          "pieces": [{"lo": 1e-4, "hi": 0.6, "density": "2.5"}]}},
        "config": {"horizon": 1.0, "n_steps": 5, "n_paths": 20000},
    }))
    out = str(tmp_path / "out")
    assert run("simulate", "--input", str(doc), "--seed", "7", "--out", out) == 0
    assert hashlib.sha256(_read_bytes(out, "paths.csv")).hexdigest() == sha256


def test_limit_csvs_match_the_row_writer(tmp_path):
    # an integer entry in delta_schedule is written as an integer
    out = str(tmp_path)
    assert run("limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", out, "--set", "delta_schedule=[1, 0.5, 0.25]") == 0
    seq = sequence_from_dict(fixture_doc("shrinking_jump_sequence.json")["sequence"])
    profile = exponent_limit_profile(seq, default_u_grid())
    assert _read_bytes(out, "exponent_profile.csv") == _row_writer_bytes(
        ("u", "n", "re_psi", "im_psi"),
        ((u, n, v.real, v.imag) for u, values in zip(profile.u.tolist(), profile.values)
         for n, v in zip(profile.n_schedule, values.tolist())),
    )
    written = _read_bytes(out, "small_jump_profile.csv")
    assert written == _row_writer_bytes(
        ("delta", "n", "small_jump_mass"),
        ((d, n, small_jump_second_moment(seq.stack.row(i).F, d).item()) for d in [1, 0.5, 0.25]
         for i, n in enumerate(seq.n_schedule)),
    )
    assert written.splitlines()[1].startswith(b"1,10,")


def test_duality_report_carries_the_primal_evidence(tmp_path):
    overrides = ("solver.dual.n_x=60", "solver.dual.n_t=30", "solver.mc.n_paths=1000")
    assert run("solve-transport", "--input", fixture("gaussian_instance.json"), "--out",
               str(tmp_path), *(arg for o in overrides for arg in ("--set", o))) == 0
    evidence = load_json(os.path.join(str(tmp_path), "duality_report.json"))["primal_evidence"]
    assert evidence["fit_status"] in (1, 2, 3)  # lsq_linear converged
    assert evidence["schedule_status"] == 0  # SLSQP converged
    assert evidence["schedule_nit"] >= 1 and evidence["schedule_nfev"] >= 1


def test_duality_report_carries_the_dual_evidence(tmp_path):
    overrides = ("solver.dual.n_x=60", "solver.dual.n_t=30", "solver.mc.n_paths=1000")
    assert run("solve-transport", "--input", fixture("gaussian_instance.json"), "--out",
               str(tmp_path), *(arg for o in overrides for arg in ("--set", o))) == 0
    rep = load_json(os.path.join(str(tmp_path), "duality_report.json"))
    evidence = rep["dual_evidence"]
    assert set(evidence) == {"warm_start_rows", "polish", "potential_class"}
    assert evidence["warm_start_rows"] == 51
    polish = evidence["polish"]
    assert polish["status"] == 0  # L-BFGS-B converged
    assert polish["message"] and polish["nit"] >= 1 and polish["nfev"] >= 1
    assert rep["dual_converged"] is True
    assert evidence["potential_class"] == transport.POTENTIAL_CLASS
    # every priced potential is one ascent value; this polish meets no
    # potential again, so there are no revisits to subtract
    assert len(rep["ascent_history"]) == evidence["warm_start_rows"] + polish["nfev"]


def test_solve_transport_with_overrides(tmp_path):
    out = str(tmp_path)
    overrides = ("solver.dual.n_x=60", "solver.dual.n_t=30", "solver.mc.n_paths=1000")
    code = run(
        "solve-transport", "--input", fixture("trivial_instance.json"),
        "--out", out, "--seed", "0", *(arg for o in overrides for arg in ("--set", o)),
    )
    assert code == 0
    rep = load_json(os.path.join(out, "duality_report.json"))
    assert abs(rep["primal_value"]) < 1e-9
    assert abs(rep["dual_value"]) < 1e-6
    assert rep["dual_converged"] is True
    assert rep["dual_likely_infeasible"] is False
    assert rep["primal_likely_infeasible"] is False

    # each CSV is byte-identical to the row writer's on the same report
    doc = cli.apply_overrides(fixture_doc("trivial_instance.json"), overrides,
                              "solve-transport")
    inst, grid, _, report = cli.run_transport(doc, 0)
    k, n_params = report.control_schedule.shape
    assert _read_bytes(out, "schedule.csv") == _row_writer_bytes(
        ("t",) + tuple(f"theta_{i}" for i in range(n_params)),
        ((j / k, *report.control_schedule[j]) for j in range(k)),
    )
    assert _read_bytes(out, "dual_potential.csv") == _row_writer_bytes(
        ("x", "lambda1"), zip(report.dual_x_grid, report.dual_potential)
    )
    vg = solve_hjb(inst, report.dual_potential, grid)
    lo, hi = vg.report_slice
    assert _read_bytes(out, "value_surface.csv") == _row_writer_bytes(
        ("t", "x", "v"),
        ((t, vg.x_grid[i], vg.values[k, i]) for k, t in enumerate(vg.t_grid)
         for i in range(lo, hi)),
    )


def test_hjb_grid_defaults_to_the_fixture_grid(tmp_path):
    # an instance that sets no solver.dual.n_x or n_t solves on the grid
    # duality_report uses by default, which every fixture sets
    doc = fixture_doc("gaussian_instance.json")
    assert (doc["solver"]["dual"]["n_x"], doc["solver"]["dual"]["n_t"]) == (240, 100)
    del doc["solver"]["dual"]["n_x"], doc["solver"]["dual"]["n_t"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    for name, path in (("fixture", fixture("gaussian_instance.json")), ("bare", str(bare))):
        assert run("solve-transport", "--input", path, "--out", str(tmp_path / name)) == 0
    assert (_read_bytes(tmp_path / "bare", "duality_report.json")
            == _read_bytes(tmp_path / "fixture", "duality_report.json"))


@pytest.mark.parametrize("command, name, override", [
    ("solve-transport", "gaussian_instance.json", "mu1.variance=NaN"),
    ("solve-transport", "gaussian_instance.json", "mu1.variance=Infinity"),
    ("solve-transport", "gaussian_instance.json", "mu1.mean=NaN"),
    ("solve-transport", "gaussian_instance.json", "mu0.location=NaN"),
    ("simulate", "shrinking_jump_sequence.json", "config.horizon=NaN"),
])
def test_non_finite_marginal_or_horizon_is_a_validation_error(tmp_path, capsys, command, name,
                                                              override):
    # json.load reads NaN and Infinity; the marginal and the horizon refuse them
    sets = ("--set", override)
    if command == "simulate":
        sets += ("--set", 'target={"b":[0],"c":[[1]]}', "--set", "config.n_paths=10")
    assert run(command, "--input", fixture(name), "--out", str(tmp_path), *sets) == 1
    err = capsys.readouterr().err
    # one error line that names the offending field
    assert err.startswith("error: ") and override.split("=")[0].split(".")[-1] in err


# the README's limit-analyze command for the pinned-variance family, on
# fixtures/shrinking_jump_sequence.json
PINNED_SETS = (
    "family=" + _read_bytes(FIXTURES, "pinned_variance_family.json").decode(),
    "use_u_map=true",
    'param_map=["0", "1 / pow(n, 0.5)"]',
)


def test_pinned_variance_witness_writes_its_free_coordinate_as_null(tmp_path):
    # the identified limit has c = 1, where the atom's weight (1 - c) / y^2
    # is 0 for every y: the residual's Jacobian column in y is exactly 0 at
    # the witness, so y is free and written as null, and c stays a number
    args = ["limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
            "--out", str(tmp_path)]
    for override in PINNED_SETS:
        args += ["--set", override]
    assert run(*args) == 0
    closedness = load_json(os.path.join(tmp_path, "limit_report.json"))["closedness"]
    assert closedness["limit_in_set"] == "yes"
    assert closedness["witness_params"] == [1.0, None]


def test_reproduce_runs_every_flagship_fixture(tmp_path, capsys, monkeypatch):
    reports = []
    duality_report = cli.duality_report

    def recording(*args, **kwargs):
        reports.append(duality_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "duality_report", recording)
    out = str(tmp_path / "rep")
    assert run("reproduce", "--out", out) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all("  PASS  " in line for line in lines)
    rows = load_json(os.path.join(out, "reproduce_report.json"))["fixtures"]
    assert [r["fixture"] for r in rows] == [
        "shrinking-jump sequence", "pinned-variance family",
        "gaussian transport", "poisson transport",
    ]
    assert all(r["passed"] for r in rows)
    assert run("reproduce", "--out", out, "--set", "a=1") == 1

    # each row's directory holds exactly the files its command writes alone
    # on the row's document
    monkeypatch.setattr(cli, "duality_report", duality_report)
    for name, command, doc, *_ in cli._FLAGSHIPS:
        name = name.replace(" ", "-")
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc()))
        alone = str(tmp_path / "alone" / name)
        assert run(command, "--input", str(path), "--out", alone) == 0
        written = sorted(os.listdir(os.path.join(out, name)))
        assert written == sorted(os.listdir(alone))
        for f in written:
            assert _read_bytes(os.path.join(out, name), f) == _read_bytes(alone, f), (name, f)

    # a failing row makes the exit code 2: the same duality reports with a
    # primal value that misses both targets
    missed = iter([dataclasses.replace(r, primal_value=0.0) for r in reports])
    monkeypatch.setattr(cli, "duality_report", lambda *args, **kwargs: next(missed))
    assert run("reproduce", "--out", out) == 2
    rows = load_json(os.path.join(out, "reproduce_report.json"))["fixtures"]
    assert [r["passed"] for r in rows] == [True, True, False, False]
    assert rows[2]["detail"].startswith("primal 0.0000, ")


def test_reproduce_goes_only_through_the_command_handlers(tmp_path, capsys, monkeypatch):
    # each handler is a recorder that writes a canned report; reproduce reads
    # its rows from those reports and calls no pipeline function itself
    def forbidden(*args, **kwargs):
        raise AssertionError("reproduce called a pipeline function")

    for name in ("sequence_from_dict", "family_from_dict", "param_map_from_exprs",
                 "instance_from_dict", "exponent_limit_profile", "limit_triplet_identify",
                 "diffusion_creation_diagnostic", "closedness_probe", "run_transport",
                 "duality_report", "solve_hjb"):
        monkeypatch.setattr(cli, name, forbidden)
    canned = {
        "limit-analyze": ("limit_report.json", {
            "diffusion_increment": 1.0, "verdict": "diffusion-created",
            "closedness": {"limit_in_set": "no", "distance": None}}),
        "solve-transport": ("duality_report.json", {
            "primal_value": 1.0, "dual_value": 0.99, "gap": 0.01, "weak_duality_ok": True,
            "allowance": 0.04, "ascent_history": [0.5, 0.99]}),
    }
    out = str(tmp_path)
    calls = []

    def recorder(command):
        def handler(doc, sub, seed):
            calls.append((command, doc, os.path.relpath(sub, out), seed))
            name, report = canned[command]
            cli.write_json(os.path.join(sub, name), report)
            return cli.EXIT_OK
        return handler

    for command in list(cli._HANDLERS):
        monkeypatch.setitem(cli._HANDLERS, command, recorder(command))
    assert run("reproduce", "--out", out, "--seed", "4") == 2
    # each row's document is its fixture file, and the pinned-variance row's
    # is the README's command on the sequence file
    assert calls == [
        ("limit-analyze", fixture_doc("shrinking_jump_sequence.json"),
         "shrinking-jump-sequence", 4),
        ("limit-analyze", cli.apply_overrides(
            fixture_doc("shrinking_jump_sequence.json"), PINNED_SETS, "limit-analyze"),
         "pinned-variance-family", 4),
        ("solve-transport", fixture_doc("gaussian_instance.json"), "gaussian-transport", 4),
        ("solve-transport", fixture_doc("poisson_instance.json"), "poisson-transport", 4),
    ]
    assert capsys.readouterr().out.splitlines() == [
        "shrinking-jump sequence  PASS  diffusion estimate 1.00000000, membership no",
        "pinned-variance family   FAIL  membership no, distance none",
        "gaussian transport       PASS  primal 1.0000, dual 0.9900, gap 0.0100",
        "poisson transport        FAIL  primal 1.0000, dual 0.9900, gap 0.0100",
    ]
    assert load_json(os.path.join(out, "reproduce_report.json"))["seed"] == 4


def test_u_grid_is_a_list_or_absent(tmp_path, capsys):
    args = ("limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
            "--out", str(tmp_path))
    assert run(*args, "--set", 'u_grid={"extent": 1.0, "count": 6}') == 1
    assert "u_grid" in capsys.readouterr().err
    assert run(*args, "--set", "u_grid=[0.5, 1.0]") == 0
    with open(os.path.join(str(tmp_path), "exponent_profile.csv")) as fh:
        assert {row["u"] for row in csv.DictReader(fh)} == {"0.5", "1.0"}


@pytest.mark.parametrize("command", ["simulate", "limit-analyze"])
def test_an_empty_u_grid_is_a_validation_error(tmp_path, capsys, command):
    # an empty grid has no frequency to compare at, so no cf distance is 0
    sets = ("--set", "u_grid=[]")
    if command == "simulate":
        sets += ("--set", 'target={"b":[0],"c":[[1]]}', "--set", "config.n_paths=10")
    assert run(command, "--input", fixture("shrinking_jump_sequence.json"),
               "--out", str(tmp_path), *sets) == 1
    assert "u_grid must be a nonempty list" in capsys.readouterr().err


def test_check_theta_reports_an_unbounded_family(tmp_path):
    # an atom at 1e300 squares to inf: the family is unbounded, which the
    # report says with a null sup and finite false, not an error
    atoms = 'family.F.atoms=[{"x": ["1e300"], "w": "1e7"}]'
    assert run("check-theta", "--input", fixture("pure_jump_family.json"),
               "--out", str(tmp_path), "--set", atoms) == 0
    bound = load_json(os.path.join(tmp_path, "check_theta.json"))["condition_b"]
    assert bound["sup_estimate"] is None and bound["finite"] is False


def test_check_theta_overrides_reach_a_bare_family_document(tmp_path):
    # the bare family file is read as the document's family, so a family.*
    # override edits it: the rate's box edge 1e6 is the grid sup, 100 after
    for sets, sup in (((), 1e6), (("--set", "family.box=[[0.0, 100.0], [0.0001, 1.0]]"), 100.0)):
        out = str(tmp_path / str(sup))
        assert run("check-theta", "--input", fixture("pure_jump_family.json"),
                   "--out", out, *sets) == 0
        bound = load_json(os.path.join(out, "check_theta.json"))["condition_b"]
        assert bound["sup_estimate"] == sup


@pytest.mark.parametrize("command, doc, override", [
    ("simulate", {"triplet": {"b": [0], "c": [[1]]}, "config": {"n_paths": 10}}, "x0=true"),
    ("limit-analyze", fixture_doc("shrinking_jump_sequence.json"), 'use_u_map="no"'),
])
def test_document_values_of_the_wrong_type_are_validation_errors(tmp_path, capsys, command, doc,
                                                                 override):
    # x0 = true is not the number 1, nor "no" the boolean false
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(command, "--input", str(path), "--out", str(tmp_path), "--set", override) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and override.split("=")[0] in err


@pytest.mark.parametrize("value", ["2.7", '"9"', "true"])
def test_check_theta_resolution_must_be_an_integer(tmp_path, capsys, value):
    assert run("check-theta", "--input", fixture("pure_jump_family.json"),
               "--out", str(tmp_path), "--set", f"resolution={value}") == 1
    assert "resolution" in capsys.readouterr().err


_PLAIN_TRIPLET = {"triplet": {"b": [0], "c": [[1]]}, "config": {"n_paths": 10}}

_PLANAR_SEQUENCE = {"b": ["0", "0"], "c": [["0", "0"], ["0", "0"]],
                    "F": {"atoms": [{"x": ["1 / n", "1 / n"], "w": "n"}]},
                    "n_schedule": [10, 100, 1000]}


@pytest.mark.parametrize("command, name, sets, message", [
    ("solve-transport", "trivial_instance.json", ["solver.dual.drift_stencil=upwind"],
     "unknown drift stencil"),
    ("solve-transport", "trivial_instance.json",
     ['mu1={"kind": "grid-density", "points": [0, 1], "weights": [1, -0.5]}'],
     "weights must be nonnegative"),
    ("solve-transport", "trivial_instance.json",
     ['family.F.atoms=[{"x": ["1e300"], "w": "1e7"}]'],
     "family violates the boundedness condition"),
    ("limit-analyze", "shrinking_jump_sequence.json",
     ["sequence=" + json.dumps(_PLANAR_SEQUENCE), "param_map=null"],
     "frequency dimension mismatch"),
    ("simulate", "shrinking_jump_sequence.json",
     ["sequence=" + json.dumps({**_PLANAR_SEQUENCE, "F": {
         **_PLANAR_SEQUENCE["F"], "pieces": [{"lo": 0.2, "hi": 1.0, "density": "1"}]}}),
      'target={"b": [0, 0], "c": [[1, 0], [0, 1]]}'],
     "density pieces are supported only in dimension 1"),
    ("solve-transport", "trivial_instance.json", ['cost="c % 2"'], "operator Mod() not allowed"),
    ("solve-transport", "trivial_instance.json", ['cost="exp(x=c)"'],
     "keyword arguments not allowed"),
    ("solve-transport", "trivial_instance.json", ["cost=\"c * 'a'\""],
     "constant 'a' is not numeric"),
    ("solve-transport", "trivial_instance.json", ["foo"], "--set expects key=value"),
    ("solve-transport", "trivial_instance.json", ["family.b.x=1"],
     "cannot descend into 'b'"),
    ("solve-transport", None, [], "top-level JSON must be an object"),
    ("simulate", _PLAIN_TRIPLET, ["triplet.F=5"], "triplet.F must be an object"),
    ("simulate", _PLAIN_TRIPLET, ['triplet.F={"atom": [{"x": [0.5], "w": 3}]}'],
     "triplet.F: unknown key 'atom'; valid keys: atoms, pieces"),
    ("simulate", _PLAIN_TRIPLET, ["u_grid=5"], "u_grid must be a nonempty list"),
    ("solve-transport", "trivial_instance.json", ["family.F=5"], "family.F must be an object"),
    ("solve-transport", "trivial_instance.json", ["family.F.atoms=[5]"],
     "family.F atom must be an object"),
    ("solve-transport", "trivial_instance.json", ['family.F.atoms=[{"x": ["0.5"]}]'],
     "family.F atom: missing key 'w'"),
    ("check-theta", "pure_jump_family.json", ["family.F=5"], "family.F must be an object"),
    ("limit-analyze", "shrinking_jump_sequence.json", ["sequence.F=5"],
     "sequence.F must be an object"),
    ("limit-analyze", "shrinking_jump_sequence.json",
     ['sequence.F.pieces=[{"lo": 0.2, "hi": 1.0, "densty": "1"}]'],
     "sequence.F piece: unknown key 'densty'"),
    ("limit-analyze", "shrinking_jump_sequence.json", ["structure=5"],
     "structure must be an object"),
    ("limit-analyze", "shrinking_jump_sequence.json", ["structure=[]"],
     "structure must be an object"),
], ids=["drift-stencil", "negative-weight", "unbounded-family", "planar-limit",
        "planar-pieces", "mod", "keyword", "string-constant", "no-equals",
        "into-a-list", "top-level-array", "triplet-F", "misspelt-F-key", "unused-u-grid",
        "family-F", "atom-not-object", "atom-without-weight", "check-theta-F", "sequence-F",
        "misspelt-piece-key", "structure-number", "structure-list"])
def test_malformed_input_is_a_validation_error(tmp_path, capsys, command, name, sets, message):
    # name is a fixture, a document or None for a top-level array
    path = tmp_path / "doc.json"
    if name is None:
        path.write_text("[1, 2]")
    elif isinstance(name, dict):
        path.write_text(json.dumps(name))
    else:
        path = fixture(name)
    args = [command, "--input", str(path), "--out", str(tmp_path / "out")]
    for override in sets:
        args += ["--set", override]
    assert run(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_unbounded_family_is_one_error_line(tmp_path, capsys):
    # the atom at 1e300 squares to inf, which condition B reads as unbounded:
    # no overflow warning goes with the one error line
    assert run("solve-transport", "--input", fixture("trivial_instance.json"),
               "--set", 'family.F.atoms=[{"x": ["1e300"], "w": "1e7"}]',
               "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: family violates the boundedness condition\n"


def test_a_compact_family_with_an_atom_at_0_1_solves(tmp_path):
    # the Poisson fixture scaled by 0.2: a fixed atom at 0.1 has no
    # small-jump moment below 0.1, so condition J holds exactly, and the
    # target 0.1 (N - 3), N ~ Poisson(3), is reached at lam = 3 for cost 4
    doc = fixture_doc("poisson_instance.json")
    doc["family"]["F"]["atoms"][0]["x"] = ["0.1"]
    doc["mu1"]["points"] = ((np.arange(26) - 3) / 10).tolist()
    doc["solver"]["mc"]["n_paths"] = 10_000
    path = tmp_path / "atom-0.1.json"
    path.write_text(json.dumps(doc))
    assert run("solve-transport", "--input", str(path), "--out", str(tmp_path / "out")) == 0
    rep = load_json(os.path.join(tmp_path, "out", "duality_report.json"))
    assert abs(rep["primal_value"] - 4.0) <= 1e-9
    assert rep["primal_likely_infeasible"] is False


def test_an_unquoted_override_that_is_not_json_is_a_string():
    doc = cli.apply_overrides({}, ["cost=c*c"], "solve-transport")
    assert doc == {"cost": "c*c"}


def test_simulate_reports_the_cf_distance_to_a_plain_target(tmp_path):
    # sup over the grid of |mean of e^{iuX} - e^{-u^2/2}|, N(0, 1)'s cf
    out = str(tmp_path)
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps({
        "triplet": {"b": [0.3], "c": [[0.5]]},
        "target": {"b": [0.0], "c": [[1.0]]},
        "u_grid": [0.5, 1.0, 2.0],
        "config": {"n_paths": 400, "n_steps": 2},
    }))
    assert run("simulate", "--input", str(doc), "--out", out, "--seed", "2") == 0
    rows = np.loadtxt(os.path.join(out, "paths.csv"), delimiter=",", skiprows=1)
    terminal = rows[rows[:, 1] == 1.0, 2]
    assert terminal.size == 400
    u = np.array([0.5, 1.0, 2.0])
    expected = np.max(np.abs(np.exp(1j * np.outer(u, terminal)).mean(axis=1)
                             - np.exp(-0.5 * u**2)))
    rep = load_json(os.path.join(out, "simulate_report.json"))
    assert abs(rep["terminal"]["cf_distance_to_target"] - expected) <= 1e-12


def test_exit_code_validation_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("check-theta", "--input", str(bad), "--out", str(tmp_path)) == 1
    assert "line 1" in capsys.readouterr().err

    assert run("check-theta", "--input", fixture("pure_jump_family.json"),
               "--out", str(tmp_path), "--set", "bogus=1") == 1
    assert "valid keys" in capsys.readouterr().err
    assert run("check-theta", "--input", fixture("pure_jump_family.json"),
               "--out", str(tmp_path), "--set", "samples=8") == 1
    assert "'samples'" in capsys.readouterr().err

    assert run("check-theta", "--input", str(tmp_path / "missing.json"),
               "--out", str(tmp_path)) == 1


@pytest.mark.parametrize("atom, message", [
    ({"x": [0.5], "w": 0}, "error: atom weights must be positive"),
    ({"x": [0.5], "w": -1}, "error: atom weights must be positive"),
    ({"x": [0.0], "w": 1}, "error: no atom at 0 allowed"),
])
def test_a_plain_triplet_keeps_the_checks_a_family_relaxes(tmp_path, capsys, atom, message):
    # a family's template drops an atom of weight <= 0; a plain triplet's may not
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps({"triplet": {"b": [0], "c": [[1]], "F": {"atoms": [atom]}},
                               "config": {"n_paths": 10}}))
    assert run("simulate", "--input", str(doc), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("triplet, message", [
    ({"b": [0], "c": [[1]], "F": {"atoms": [{"x": [0.5, 1.0], "w": 1}]}},
     "error: triplet: atom location must have 1 entries"),
    ({"b": [0], "c": [[-1]]}, "error: c has an eigenvalue below -1e-10"),
    ({"b": [0, 0], "c": [[1, 0.5], [0, 1]]}, "error: c is not symmetric within 1e-12"),
    ({"b": [0], "c": [[1]], "F": {"atoms": [{"x": [2.0], "w": 1e9}]}},
     "error: ∫|x|^2∧1 dF = 1000000000.0 exceeds cap 100000000.0"),
])
def test_a_plain_triplet_names_its_bad_atom_or_diffusion(tmp_path, capsys, triplet, message):
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps({"triplet": triplet, "config": {"n_paths": 10}}))
    assert run("simulate", "--input", str(doc), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.strip() == message


def test_a_plain_target_takes_scalar_shorthand(tmp_path):
    assert run("simulate", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", str(tmp_path), "--set", 'target={"b":0,"c":1}',
               "--set", "config.n_paths=10") == 0


def test_exit_code_numerical_error(tmp_path):
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps({
        "triplet": {"b": [0.0], "c": [[0.0]],
                    "F": {"atoms": [{"x": [0.1], "w": 1e9}]}},
        "config": {"n_paths": 2},
    }))
    assert run("simulate", "--input", str(doc), "--out", str(tmp_path)) == 2


def test_simulate_overflow_is_a_numerical_failure(tmp_path, capsys):
    # the paths overflow to inf and NaN: exit 2 with no report, not exit 1
    # from the strict JSON writer
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps({
        "triplet": {"b": [1e308], "c": [[0.0]]},
        "config": {"n_paths": 10, "n_steps": 3, "horizon": 3.0},
    }))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("simulate", "--input", str(doc), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not (out / "simulate_report.json").exists()


@pytest.mark.parametrize("schedule", ["[]", "[0.5]", "[0.5, 0.25]", "[0.25, 0.5, 0.1]"])
def test_limit_analyze_rejects_a_bad_delta_schedule(tmp_path, capsys, schedule):
    # the rule check-theta applies: strictly decreasing, three entries or more
    for command, name in (("limit-analyze", "shrinking_jump_sequence.json"),
                          ("check-theta", "pure_jump_family.json")):
        assert run(command, "--input", fixture(name), "--out", str(tmp_path),
                   "--set", f"delta_schedule={schedule}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: delta_schedule must be strictly decreasing")


def test_idempotent_outputs(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert run("check-theta", "--input", fixture("pure_jump_family.json"),
                   "--out", out, "--seed", "2") == 0
    with open(os.path.join(a, "check_theta.json"), "rb") as fa, \
         open(os.path.join(b, "check_theta.json"), "rb") as fb:
        assert fa.read() == fb.read()


def test_env_var_default_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    assert run("check-theta", "--input", fixture("pure_jump_family.json")) == 0
    assert (target / "check_theta.json").exists()


def test_inputs_not_mutated(tmp_path):
    src = fixture("pure_jump_family.json")
    with open(src, "rb") as fh:
        before = fh.read()
    assert run("check-theta", "--input", src, "--out", str(tmp_path),
               "--set", "resolution=3") == 0
    with open(src, "rb") as fh:
        assert fh.read() == before


def test_division_by_zero_in_a_family_is_a_validation_error(tmp_path, capsys):
    # the projection's scan reaches y = 0.5, where the coefficient divides by 0
    doc = {
        "sequence": {"b": ["0"], "c": [["1 + 1 / n"]], "n_schedule": [10, 100, 1000]},
        "family": {
            "box": [[0.0, 1.0]],
            "params": ["y"],
            "b": ["0"],
            "c": [["abs(1 / (2 * y - 1))"]],
        },
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run("limit-analyze", "--input", str(path), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "abs(1 / (2 * y - 1))" in err[0]


def test_a_param_map_power_of_a_negative_number_is_a_validation_error(tmp_path, capsys):
    # at n = 10 the first entry is a square root of -990, which Python's
    # float power makes complex
    assert run("limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", str(tmp_path), "--set",
               'param_map=["pow(n - 1000, 0.5)", "1 / pow(n, 0.5)"]') == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "'pow(n - 1000, 0.5)'" in err[0]
    assert "power of a negative number is not real" in err[0]


def test_sequence_density_pieces_reach_the_outputs(tmp_path):
    # a constant density 2 on [0.1, 0.5] beside the shrinking atom
    doc = {
        "sequence": {
            "b": ["0"],
            "c": [["0"]],
            "F": {
                "atoms": [{"x": ["1 / pow(n, 0.5)"], "w": "n"}],
                "pieces": [{"lo": 0.1, "hi": 0.5, "density": "2 + 0 * x"}],
            },
            "n_schedule": [10, 100, 1000],
        },
        "delta_schedule": [0.5, 0.25, 0.05],
        "u_grid": [1.0],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path)
    assert run("limit-analyze", "--input", str(path), "--out", out) == 0
    with open(os.path.join(out, "small_jump_profile.csv")) as fh:
        rows = list(csv.DictReader(fh))
    piece_mass = 2.0 * (0.5**3 - 0.1**3) / 3.0  # ∫ x^2 2 dx over [0.1, 0.5]
    for r in rows:
        n, delta = int(r["n"]), float(r["delta"])
        atom = 1.0 if n ** -0.5 <= delta else 0.0  # n * (1 / sqrt(n))^2
        piece = 2.0 * (min(delta, 0.5) ** 3 - 0.1**3) / 3.0 if delta > 0.1 else 0.0
        assert float(r["small_jump_mass"]) == pytest.approx(atom + piece, rel=1e-12)
    assert any(float(r["small_jump_mass"]) == pytest.approx(1.0 + piece_mass) for r in rows)
    # the exponent at u = 1 carries the piece: ∫ (cos x - 1) 2 dx + i ∫ (sin x - x) 2 dx
    piece_psi = 2.0 * complex(
        (np.sin(0.5) - np.sin(0.1)) - 0.4, -(np.cos(0.5) - np.cos(0.1)) - (0.25 - 0.01) / 2
    )
    with open(os.path.join(out, "exponent_profile.csv")) as fh:
        for r in csv.DictReader(fh):
            n = int(r["n"])
            y = n ** -0.5
            atom_psi = n * complex(np.cos(y) - 1.0, np.sin(y) - y)
            psi = complex(float(r["re_psi"]), float(r["im_psi"]))
            assert psi == pytest.approx(atom_psi + piece_psi, rel=1e-9)


def test_limit_report_is_strict_json_when_nothing_is_projected(tmp_path):
    # an atom fixed at 0.5 with weight n has no limit: the identification
    # residual exceeds the cap, so the probe projects nothing
    out = str(tmp_path)
    assert run("limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", out, "--set", 'sequence.F.atoms=[{"x": ["0.5"], "w": "n"}]',
               "--set", 'param_map=["n", "0.5"]') == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    with open(os.path.join(out, "limit_report.json")) as fh:
        closedness = json.load(fh, parse_constant=reject)["closedness"]
    assert closedness["limit_in_set"] == "inconclusive"
    assert closedness["distance"] is None

    with pytest.raises(ValueError):
        cli.write_json(os.path.join(out, "bad.json"), {"x": float("nan")})
    assert sorted(os.listdir(out)) == [
        "exponent_profile.csv", "limit_report.json", "small_jump_profile.csv"
    ]


def test_limit_report_lists_each_projection(tmp_path):
    out = str(tmp_path)
    assert run("limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
               "--out", out, "--set", "param_map=null") == 0
    closedness = load_json(os.path.join(out, "limit_report.json"))["closedness"]
    # without a param_map both prechecks project the scheduled triplets, which
    # are members, and then the diffusion limit is projected: it is not one
    assert closedness["limit_in_set"] == "no"
    proj = closedness["projection"]
    assert len(proj) == 3
    for entry in proj:
        assert entry["scan_points"] == 17 * 17
        assert len(entry["polish"]) == 1
        for start in entry["polish"]:
            assert set(start) == {"status", "nit", "nfev"}
            assert 1 <= start["status"] <= 4
            # nfev counts rows: each Jacobian prices n + 1 = 3 of them
            assert start["nfev"] > 3 * start["nit"]


@pytest.mark.parametrize("sets", [(), ("param_map=null",), PINNED_SETS],
                         ids=["param_map", "no-param_map", "pinned-u-map"])
def test_each_projection_polishes_at_most_once(tmp_path, monkeypatch, sets):
    # the limits benchmark's three probe shapes: each projection logs at most
    # one polish, and the log lists every least-squares run there was
    calls = []
    least_squares = limits.least_squares

    def counting(*args, **kwargs):
        calls.append(1)
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(limits, "least_squares", counting)
    args = ["limit-analyze", "--input", fixture("shrinking_jump_sequence.json"),
            "--out", str(tmp_path)]
    for override in sets:
        args += ["--set", override]
    assert run(*args) == 0
    proj = load_json(os.path.join(tmp_path, "limit_report.json"))["closedness"]["projection"]
    assert all(len(entry["polish"]) <= 1 for entry in proj)
    assert len(calls) == sum(len(entry["polish"]) for entry in proj)


@pytest.mark.parametrize("override", [
    "solver.dual.n_X=10", "solver.primal.n_steps=3", "solver.mc.paths=5",
    "solver.dual.gtol=1e-3", "solver.dual.max_iterations=10",
])
def test_unknown_solver_keys_are_rejected(tmp_path, capsys, override):
    assert run("solve-transport", "--input", fixture("trivial_instance.json"),
               "--out", str(tmp_path), "--set", override) == 1
    err = capsys.readouterr().err
    assert repr(override.split("=")[0]) in err
    assert "valid keys: solver.dual.x_min" in err and "solver.mc.seed" in err


@pytest.mark.parametrize("override", [
    "solver.dual.n_x=0", "solver.dual.n_t=0", "solver.dual.x_max=-6", "solver.dual.n_x=-4",
    "solver.dual.pad=-6", "solver.dual.n_x=10.5",
])
def test_degenerate_hjb_grid_is_a_validation_error(tmp_path, capsys, override):
    assert run("solve-transport", "--input", fixture("trivial_instance.json"),
               "--out", str(tmp_path), "--set", override) == 1
    err = capsys.readouterr().err
    # one error line that names the offending grid field
    assert err.startswith("error: ") and override.split("=")[0].split(".")[-1] in err


@pytest.mark.parametrize("override", [
    "solver.dual.bound=0", "solver.dual.bound=-1", "solver.dual.smoothing=-0.3",
    # keys that are no ascent setting: whatever the value, an error that names them
    "solver.dual.gtol=-1", "solver.dual.max_iterations=-5", "solver.dual.max_iterations=2.5",
])
def test_bad_dual_ascent_setting_is_a_validation_error(tmp_path, capsys, override):
    assert run("solve-transport", "--input", fixture("trivial_instance.json"),
               "--out", str(tmp_path), "--set", override) == 1
    err = capsys.readouterr().err
    # one error line that names the offending ascent setting
    assert err.startswith("error: ") and override.split("=")[0].split(".")[-1] in err


@pytest.mark.parametrize("command, override", [
    ("simulate", 'config.horizon="abc"'), ("simulate", "config.n_steps=true"),
    ("simulate", "config.n_paths=true"), ("simulate", 'config.seed="3"'),
    ("solve-transport", 'solver.dual.x_max="abc"'), ("solve-transport", 'solver.dual.bound="abc"'),
    ("solve-transport", 'solver.mc.n_paths="abc"'), ("solve-transport", "solver.mc.seed=true"),
    ("solve-transport", "solver.dual.smoothing=true"),
    ("solve-transport", "solver.dual.n_t=true"),
])
def test_a_config_value_of_the_wrong_type_names_its_key(tmp_path, capsys, command, override):
    # a string, or a boolean where a number belongs, is a validation error
    # that names the key, not a comparison error nor a run on True as 1
    extra = ("--set", 'target={"b":[0],"c":[[1]]}', "--set", "config.n_paths=10")
    if command == "simulate":
        args = ("--input", fixture("shrinking_jump_sequence.json")) + extra
    else:
        args = ("--input", fixture("trivial_instance.json"))
    assert run(command, *args, "--out", str(tmp_path), "--set", override) == 1
    key = override.split("=")[0]
    assert capsys.readouterr().err.startswith(
        f"error: {key if key.startswith('solver.mc') else key.split('.')[-1]} = ")


def test_importing_the_cli_leaves_scipy_stats_out():
    # the normal and Poisson laws come from scipy.special, and every CLI
    # process is spared importing scipy.stats
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, levysot.cli; sys.exit('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
