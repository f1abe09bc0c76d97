"""levysot benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The client calls
``levysot.cli.main(argv)`` in-process for each op of the run, one after
another, with no threads of its own, and checks every report it writes.

--trace 0 prints the end-to-end metrics: set-up time (median of three fresh
processes that import levysot, generate the inputs and parse them), the
wall time of all timed ops, the median op time, peak resident memory, and
the share of ops that succeeded. --trace 1 runs the first unit untraced,
then every op with spans around the layers' public functions (see
tracing.py), and prints the per-layer metrics. The last line of standard
output is one JSON object; the full record (per-op times, exact counts,
report hashes, failures with their inputs, spans) goes to
.perfbench_runs/<workload>/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 3


def import_program():
    """Import levysot from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import levysot.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import levysot from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: levysot imported from {cli.__file__}, not {src}")
    return cli


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def set_up(args, run_dir: Path) -> list:
    """Everything before the first timed op: import, generate, parse."""
    import_program()
    ops = workloads.generate(args.workload, args.seed, args.seconds, str(ROOT), str(run_dir))
    workloads.parse_inputs(ops)
    return ops


def time_setup(args, run_dir: Path) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    cmd = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe", str(run_dir),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        rc = proc.wait()
    if line.strip() != "ready" or rc != 0:
        raise SystemExit(f"error: set-up probe failed (exit {rc})")
    return elapsed


def run_op(main, op) -> tuple:
    """(exit code, wall seconds); an exception counts as a failed op."""
    start = time.perf_counter()
    try:
        rc = main(op.argv())
    except Exception:  # a crashing op is reported, not fatal to the run
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - start


def run(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    run_dir = RUNS / args.workload / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = set_up(args, run_dir)
    main = sys.modules["levysot.cli"].main

    tracer = None
    if args.trace:
        untraced = sum(run_op(main, op)[1] for op in ops[: wl.unit_ops])
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        main = tracer.wrap("cli.main", main)
        tracer.op_id = "setup"
        workloads.parse_inputs(ops)

    records, failures, times = [], [], []
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = i
        rc, wall = run_op(main, op)
        times.append(wall)
        try:
            reasons, exact = workloads.check_op(op, rc)
        except (OSError, KeyError, ValueError) as exc:
            reasons, exact = [f"unreadable report: {exc!r}"], {"exit_code": rc}
        if tracer:
            exact.update(tracer.op_counters[i])
        records.append({
            "op": i, "command": op.command, "cli_seed": op.cli_seed,
            "params": op.params, "wall_s": wall, "failures": reasons, "exact": exact,
        })
        if reasons:
            failures.append({"op": i, "reasons": reasons,
                             "input": os.path.relpath(op.input_path, ROOT), "doc": op.doc})

    attempted, failed = len(ops), len(failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "ops": records, "failures": failures,
    }
    if tracer:
        restore()
        metrics = tracing.layer_metrics(tracer)
        metrics["bench.trace_overhead_ratio"] = (sum(times[: wl.unit_ops]) / untraced, "ratio")
        record["layers"] = tracer.table()
        record["spans"] = tracer.spans
    else:
        probes = [time_setup(args, RUNS / args.workload / f"probe{k}") for k in range(SETUP_PROBES)]
        record["setup_probes_s"] = probes
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "wall_s": (sum(times), "s"),
            "op_s_p50": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
        }
    record["metrics"] = metrics
    record_path = Path(args.record) if args.record else (
        RUNS / args.workload / f"record-seed{args.seed}-trace{args.trace}.json")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"error_rate {failed / attempted:.4g} ({failed}/{attempted})")
    for f in failures:
        print(f"FAILED op {f['op']} (input {f['input']}): {'; '.join(f['reasons'])}")
    if tracer:
        print(f"{'span':<24} {'calls':>8} {'inclusive_s':>12} {'self_s':>10}")
        for row in record["layers"]:
            print(f"{row['name']:<24} {row['calls']:>8} {row['inclusive_s']:>12.4f} "
                  f"{row['self_s']:>10.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="where to write the run record")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        set_up(args, Path(args.setup_probe))
        print("ready", flush=True)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
