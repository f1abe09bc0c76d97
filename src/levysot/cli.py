"""Command-line interface: config ingestion, orchestration, report emission.

Subcommands: check-theta, limit-analyze, simulate, solve-transport, and
reproduce, which runs each flagship document through the handler of its own
command into ``out/<fixture-name>/`` and checks the report that command wrote.
All structured output is JSON; tabular output is CSV.  Files are written
atomically (write to a temporary sibling, then rename) and echo the seed used,
so reruns with identical inputs are byte-identical.

Output contract: a CSV has one header line and ``\n`` line endings; integers
are written as they are and floats as Python's ``repr`` prints them, so
``float(cell)`` gives back the exact double.  A JSON report never contains
``NaN`` or ``Infinity``; a missing value is ``null``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import (
    Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TextIO,
)

import numpy as np
import orjson

from .exprs import ExpressionError
from .limits import (
    DEFAULT_DELTA_SCHEDULE,
    LimitStructure,
    closedness_probe,
    default_u_grid,
    diffusion_creation_diagnostic,
    exponent_limit_profile,
    limit_triplet_identify,
)
from .measures import QuadratureError
from .montecarlo import (
    JumpIntensityError,
    SimulationConfig,
    cf_distance,
    check_number,
    convergence_experiment,
    marginal_cdf,
    marginal_ks,
    simulate_paths,
)
from .serialize import (
    SchemaError,
    family_from_dict,
    instance_from_dict,
    load_json,
    param_map_from_exprs,
    sequence_from_dict,
    to_jsonable,
    triplet_from_dict,
    triplet_to_dict,
)
from .transport import (
    CFLError,
    DualAscentConfig,
    DualityReport,
    HJBGridConfig,
    StateDependentCostError,
    TransportInstance,
    duality_report,
    solve_hjb,
)
from .triplets import box_independence_check, family_checks

OUTPUT_DIR_ENV = "LEVYSOT_OUT"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# outer keys per block of CSV lines formatted and written at once
CSV_BLOCK_KEYS = 2048

_NUMERICAL_ERRORS = (
    CFLError,
    QuadratureError,
    JumpIntensityError,
    StateDependentCostError,
    FloatingPointError,
    np.linalg.LinAlgError,
)

# valid --set key prefixes per command; a key is accepted when it equals a
# listed path or extends one (nested documents)
_OVERRIDE_KEYS = {
    "check-theta": ("family", "delta_schedule", "resolution"),
    "limit-analyze": (
        "sequence",
        "u_grid",
        "delta_schedule",
        "structure",
        "family",
        "use_u_map",
        "param_map",
    ),
    "simulate": ("triplet", "x0", "config", "target", "u_grid", "sequence"),
    "solve-transport": ("mu0", "mu1", "family", "cost", "solver"),
}

_GRID_KEYS = ("x_min", "x_max", "n_x", "n_t", "pad", "drift_stencil")
_ASCENT_KEYS = ("bound", "smoothing")
# every key an instance document's solver block may set
_SOLVER_KEYS = tuple(
    [f"solver.dual.{k}" for k in _GRID_KEYS + _ASCENT_KEYS]
    + ["solver.mc.n_paths", "solver.mc.seed"]
)


class ValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# output helpers


@contextlib.contextmanager
def _atomic_open(path: str) -> Iterator[TextIO]:
    """Write to a temporary sibling, renamed over ``path`` once complete."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path: str, doc: Any) -> None:
    text = json.dumps(to_jsonable(doc), indent=2, sort_keys=True, allow_nan=False)
    with _atomic_open(path) as fh:
        fh.write(text + "\n")


def write_csv(
    path: str,
    header: Sequence[str],
    outer: Iterable[Any],
    columns: Sequence[Any],
    inner: Optional[Iterable[Any]] = None,
) -> None:
    """Write a grid as CSV: one line per outer key, or per (outer key, inner
    key) pair with the inner key varying fastest, then the value columns.

    Each of ``columns`` has shape (len(outer),) without inner keys and
    (len(outer), len(inner)) with them.  Each inner key is formatted once,
    into a row template that writes all lines of one outer key; the template
    is mapped over ``CSV_BLOCK_KEYS`` outer keys at a time.  Keys are written
    by ``repr``, and value cells as ``repr`` prints them (see ``_cells``).
    """
    outer = _scalars(outer)
    cells = [""] if inner is None else [f"{k!r}," for k in _scalars(inner)]
    width = len(cells)
    shape = (len(outer),) if inner is None else (len(outer), width)
    arrays = [np.asarray(c) for c in columns]
    for a in arrays:
        if a.shape != shape:
            raise ValueError(f"{path}: value column of shape {a.shape}, expected {shape}")
    arrays = [a.reshape(len(outer), width) for a in arrays]
    template = "".join(
        "{0}," + cell + ",".join(f"{{{1 + c * width + k}}}" for c in range(len(arrays)))
        + "\n"
        for k, cell in enumerate(cells)
    )
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(outer), CSV_BLOCK_KEYS):
            stop = start + CSV_BLOCK_KEYS
            args = [_cells(col) for a in arrays for col in a[start:stop].T]
            fh.write("".join(map(template.format, map(repr, outer[start:stop]), *args)))


def _cells(col: np.ndarray) -> list:
    """``repr`` of each entry of a 1-d column, as a list of strings.

    A float64 column is printed by orjson, whose shortest round-trip digits
    are ``repr``'s.  The layouts differ only for a nonzero magnitude outside
    [1e-4, 1e16), where ``repr`` turns to exponent notation, and for a
    non-finite value, which orjson writes as ``null``: those cells are taken
    from ``repr``.  A column of any other dtype is ``repr`` throughout.
    """
    if col.dtype != np.float64 or not col.size:
        return list(map(repr, col.tolist()))
    text = orjson.dumps(np.ascontiguousarray(col), option=orjson.OPT_SERIALIZE_NUMPY)
    cells = text.decode()[1:-1].split(",")
    mag = np.abs(col)
    for i in np.flatnonzero((col != 0) & ~((mag >= 1e-4) & (mag < 1e16))).tolist():
        cells[i] = repr(col.item(i))
    return cells


def _scalars(keys: Iterable[Any]) -> Sequence:
    """Keys as Python ints and floats, each keeping its own type; a range
    is passed through."""
    if isinstance(keys, range):
        return keys
    if isinstance(keys, np.ndarray):
        return keys.tolist()
    return [k.item() if isinstance(k, np.generic) else k for k in keys]


# ---------------------------------------------------------------------------
# overrides


def _parse_value(raw: str) -> Any:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(doc: dict, pairs: Sequence[str], command: str) -> dict:
    valid = _OVERRIDE_KEYS[command]
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        head = key.split(".", 1)[0]
        if head not in valid:
            raise ValidationError(
                f"unknown override key {key!r}; valid keys start with: "
                + ", ".join(sorted(valid))
            )
        target = doc
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ValidationError(f"cannot descend into {part!r} in {key!r}")
        target[parts[-1]] = _parse_value(raw)
    return doc


# ---------------------------------------------------------------------------
# commands


def cmd_check_theta(doc: dict, out: str, seed: Optional[int]) -> int:
    fam_doc = doc.get("family", doc)
    fam = family_from_dict(fam_doc)
    deltas = doc.get("delta_schedule", list(DEFAULT_DELTA_SCHEDULE))
    resolution = int(doc.get("resolution", 9))
    checks = family_checks(fam, deltas, resolution)
    bound, cond_j = checks.condition_b, checks.condition_j
    residuals = [
        {"params": p, "residual": r}
        for p, r in zip(fam.corners().tolist(), checks.corner_residuals.tolist())
    ]
    report = {
        "seed": seed,
        "condition_b": {
            "sup_estimate": bound.sup_estimate,
            "finite": bound.finite_flag,
            "resolution": resolution,
            "note": bound.note,
        },
        "condition_j": {
            "verdict": cond_j.verdict,
            "profile": [list(pair) for pair in cond_j.profile],
        },
        "box_independence": box_independence_check(fam),
        "martingale_residuals_at_corners": residuals,
    }
    write_json(os.path.join(out, "check_theta.json"), report)
    return EXIT_OK


def _u_grid_from_doc(doc: Any) -> np.ndarray:
    if doc is None:
        return default_u_grid()
    if not isinstance(doc, list):
        raise ValidationError("u_grid must be a list of frequencies")
    return np.asarray(doc, dtype=float)


def cmd_limit_analyze(doc: dict, out: str, seed: Optional[int]) -> int:
    seq = sequence_from_dict(doc.get("sequence", doc))
    u_grid = _u_grid_from_doc(doc.get("u_grid"))
    deltas = doc.get("delta_schedule", list(DEFAULT_DELTA_SCHEDULE))
    structure = LimitStructure(tuple(doc.get("structure", {}).get("atoms", ())))
    profile = exponent_limit_profile(seq, u_grid)
    diffusion = diffusion_creation_diagnostic(seq, deltas)
    identified = limit_triplet_identify(profile, structure)
    limit, fit_residual = identified
    report = {
        "seed": seed,
        "condition_b_bound": seq.condition_b_bound(),
        "diffusion_increment": diffusion.estimate,
        "verdict": diffusion.verdict,
        "identified_triplet": triplet_to_dict(limit),
        "fit_residual": fit_residual,
        "extrapolation_error": float(profile.error.max()),
    }
    if "family" in doc:
        fam = family_from_dict(doc["family"])
        pm_doc = doc.get("param_map")
        probe = closedness_probe(
            fam, seq, bool(doc.get("use_u_map", False)), profile, identified,
            param_map=param_map_from_exprs(pm_doc) if pm_doc else None,
        )
        report["closedness"] = {
            "limit_in_set": probe.limit_in_set,
            "distance": probe.distance,
            "witness_params": None
            if probe.witness_params is None
            else [None if math.isnan(v) else v for v in probe.witness_params.tolist()],
            "projection": list(probe.projections),
        }
    write_json(os.path.join(out, "limit_report.json"), report)
    write_csv(
        os.path.join(out, "exponent_profile.csv"),
        ("u", "n", "re_psi", "im_psi"),
        profile.u,
        (profile.values.real, profile.values.imag),
        inner=profile.n_schedule,
    )
    write_csv(
        os.path.join(out, "small_jump_profile.csv"),
        ("delta", "n", "small_jump_mass"),
        deltas,
        (diffusion.moments,),
        inner=seq.n_schedule,
    )
    return EXIT_OK


def cmd_simulate(doc: dict, out: str, seed: Optional[int]) -> int:
    cfg_doc = dict(doc.get("config", {}))
    if seed is not None:
        cfg_doc["seed"] = seed
    cfg = SimulationConfig(**cfg_doc)
    report: dict = {"seed": cfg.seed, "config": cfg_doc}
    if "sequence" in doc:
        seq = sequence_from_dict(doc["sequence"])
        if "target" not in doc:
            raise ValidationError("simulate on a sequence needs a 'target' triplet")
        target = triplet_from_dict(doc["target"])
        u_grid = _u_grid_from_doc(doc.get("u_grid"))
        conv = convergence_experiment(seq, target, cfg, u_grid)
        report["convergence"] = {
            "n_schedule": list(conv.n_schedule),
            "ks": list(conv.ks_distances),
            "cf_distance": list(conv.cf_distances),
        }
        bundle = simulate_paths(seq.stack.row(-1), 0.0, cfg)
    else:
        t = triplet_from_dict(doc.get("triplet", doc))
        x0 = float(doc.get("x0", 0.0))
        bundle = simulate_paths(t, x0, cfg)
        terminal = bundle.terminal
        report["terminal"] = {
            "mean": float(terminal.mean()),
            "variance": float(terminal.var(ddof=1)) if terminal.size > 1 else 0.0,
        }
        reference = marginal_cdf(t, cfg.horizon, x0)
        if reference is not None:
            report["terminal"]["ks"] = marginal_ks(terminal, reference)
        if "target" in doc:
            target = triplet_from_dict(doc["target"])
            u_grid = _u_grid_from_doc(doc.get("u_grid"))
            report["terminal"]["cf_distance_to_target"] = cf_distance(
                terminal, target, cfg.horizon, u_grid
            )
    write_json(os.path.join(out, "simulate_report.json"), report)
    write_csv(
        os.path.join(out, "paths.csv"),
        ("path_id", "t", "value"),
        range(bundle.values.shape[0]),
        (bundle.values,),
        inner=bundle.time_grid,
    )
    return EXIT_OK


class TransportRun(NamedTuple):
    inst: TransportInstance
    grid: HJBGridConfig  # the dual ascent's grid
    seed: int  # the Monte Carlo seed used
    report: DualityReport


def _check_solver_keys(key: str, doc: Any) -> None:
    """Raise on any leaf of the solver block that is not in _SOLVER_KEYS; an
    empty block on the way to valid keys is allowed."""
    if isinstance(doc, Mapping) and doc:
        for k, v in doc.items():
            _check_solver_keys(f"{key}.{k}", v)
    elif key not in _SOLVER_KEYS and not (
        doc == {} and any(v.startswith(key + ".") for v in _SOLVER_KEYS)
    ):
        raise ValidationError(
            f"unknown solver key {key!r}; valid keys: " + ", ".join(_SOLVER_KEYS)
        )


def run_transport(doc: Mapping[str, Any], seed: Optional[int] = None) -> TransportRun:
    """Validate a transport instance document and run its duality report.

    The document's optional ``solver`` block may set the keys in
    _SOLVER_KEYS, the ``dual`` configuration and ``mc.n_paths`` and
    ``mc.seed``, and no others; a given ``seed`` replaces ``mc.seed``.  This
    is the only reader of that block.
    """
    solver = doc.get("solver", {})
    _check_solver_keys("solver", solver)
    inst = instance_from_dict(doc)
    inst.validate()
    dual, mc_doc = solver.get("dual", {}), solver.get("mc", {})
    grid = HJBGridConfig(**{k: dual[k] for k in _GRID_KEYS if k in dual})
    dual_cfg = DualAscentConfig(grid=grid, **{k: dual[k] for k in _ASCENT_KEYS if k in dual})
    mc_paths = mc_doc.get("n_paths", 100_000)
    mc_seed = seed if seed is not None else mc_doc.get("seed", 0)
    check_number("solver.mc.n_paths", mc_paths, integer=True)
    check_number("solver.mc.seed", mc_seed, integer=True)
    report = duality_report(inst, dual_cfg=dual_cfg, mc_paths=mc_paths, mc_seed=mc_seed)
    return TransportRun(inst, grid, mc_seed, report)


def cmd_solve_transport(doc: dict, out: str, seed: Optional[int]) -> int:
    inst, grid, mc_seed, report = run_transport(doc, seed)
    doc_out = to_jsonable(report)
    doc_out["seed"] = mc_seed
    write_json(os.path.join(out, "duality_report.json"), doc_out)
    k, n_params = report.control_schedule.shape
    write_csv(
        os.path.join(out, "schedule.csv"),
        ("t",) + tuple(f"theta_{i}" for i in range(n_params)),
        np.arange(k) / k,
        report.control_schedule.T,
    )
    write_csv(
        os.path.join(out, "dual_potential.csv"),
        ("x", "lambda1"),
        report.dual_x_grid,
        (report.dual_potential,),
    )
    vg = solve_hjb(inst, report.dual_potential, grid)
    lo, hi = vg.report_slice
    write_csv(
        os.path.join(out, "value_surface.csv"),
        ("t", "x", "v"),
        vg.t_grid,
        (vg.values[:, lo:hi],),
        inner=vg.x_grid[lo:hi],
    )
    return EXIT_OK


def _membership(r: dict) -> str:
    return r["closedness"]["limit_in_set"]


def _transport_detail(r: dict) -> str:
    return f"primal {r['primal_value']:.4f}, dual {r['dual_value']:.4f}, gap {r['gap']:.4f}"


# the flagship documents: fixtures/ of the source checkout that holds this package
FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "fixtures")


def fixture_doc(name: str) -> dict:
    """The flagship document ``fixtures/<name>``."""
    return load_json(os.path.join(FIXTURES, name))


# each flagship row: its name, the command that reads its document, the
# document, the report file that command writes, and the pass criteria and
# detail line read from that report
_FLAGSHIPS = (
    # diffusion created, the limit triplet outside the pure-jump family: no witness
    # against closedness, as the sequence leaves the family's box past n = 1e6
    ("shrinking-jump sequence", "limit-analyze", lambda: fixture_doc("shrinking_jump_sequence.json"),
     "limit_report.json",
     lambda r: abs(r["diffusion_increment"] - 1.0) <= 1e-6
     and r["verdict"] == "diffusion-created" and _membership(r) == "no",
     lambda r: f"diffusion estimate {r['diffusion_increment']:.8f}, "
     f"membership {_membership(r)}"),
    # the modified limit stays inside the pinned-variance family
    ("pinned-variance family", "limit-analyze",
     lambda: dict(fixture_doc("shrinking_jump_sequence.json"),
                  family=fixture_doc("pinned_variance_family.json"),
                  use_u_map=True, param_map=["0", "1 / pow(n, 0.5)"]),
     "limit_report.json",
     lambda r: _membership(r) == "yes",
     lambda r: f"membership {_membership(r)}, distance " + (
         "none" if r["closedness"]["distance"] is None
         else f"{r['closedness']['distance']:.3g}")),
    # the duality gap closes
    ("gaussian transport", "solve-transport", lambda: fixture_doc("gaussian_instance.json"),
     "duality_report.json",
     lambda r: abs(r["primal_value"] - 1.0) <= 1e-3 and r["dual_value"] >= 0.95
     and r["gap"] <= 0.06,
     _transport_detail),
    # weak duality at every ascent step
    ("poisson transport", "solve-transport", lambda: fixture_doc("poisson_instance.json"),
     "duality_report.json",
     lambda r: abs(r["primal_value"] - 4.0) <= 0.05 and r["dual_value"] >= 3.7
     and r["weak_duality_ok"]
     and all(v <= r["primal_value"] + r["allowance"] for v in r["ascent_history"]),
     _transport_detail),
)


def cmd_reproduce(out: str, seed: Optional[int]) -> int:
    """Run each flagship document through its command into
    ``out/<fixture-name>/`` and check the report that command wrote."""
    rows: list[dict] = []
    for name, command, doc, report_file, passed, detail in _FLAGSHIPS:
        document = doc()  # read before its directory is made
        sub = os.path.join(out, name.replace(" ", "-"))
        os.makedirs(sub, exist_ok=True)
        _HANDLERS[command](document, sub, seed)
        report = load_json(os.path.join(sub, report_file))
        rows.append({"fixture": name, "passed": passed(report), "detail": detail(report)})

    width = max(len(r["fixture"]) for r in rows)
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{r['fixture']:<{width}}  {status}  {r['detail']}")
    write_json(os.path.join(out, "reproduce_report.json"), {"seed": seed, "fixtures": rows})
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_NUMERICAL


_HANDLERS: dict[str, Callable[[dict, str, Optional[int]], int]] = {
    "check-theta": cmd_check_theta,
    "limit-analyze": cmd_limit_analyze,
    "simulate": cmd_simulate,
    "solve-transport": cmd_solve_transport,
}


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levysot",
        description="Levy-triplet diagnostics and semimartingale transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="JSON input document")
        _common_args(p)
    _common_args(sub.add_parser("reproduce"))
    return parser


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUTPUT_DIR_ENV} or current dir)",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override an input-document entry (repeatable, dotted paths)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    try:
        os.makedirs(out, exist_ok=True)
        if args.command == "reproduce":
            if args.overrides:
                raise ValidationError("reproduce accepts no --set overrides")
            return cmd_reproduce(out, args.seed)
        doc = load_json(args.input)
        if not isinstance(doc, dict):
            raise SchemaError(f"{args.input}: top-level JSON must be an object")
        doc = apply_overrides(doc, args.overrides, args.command)
        return _HANDLERS[args.command](doc, out, args.seed)
    except (SchemaError, ExpressionError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
