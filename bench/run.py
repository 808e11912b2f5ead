"""Benchmark of the sirbif command-line tool.

Drives the CLI the way its users run it: one fresh ``python -m sirbif.cli``
child at a time (closed loop, one client, ``--jobs 1``), outputs written to a
scratch directory inside the checkout and checked after every pass.

    python3 bench/run.py --workload atlas-grid --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1

A run times ``SETUP_REPEATS`` fresh-process imports of ``sirbif.cli`` plus
``build_parser()`` (``setup_s``), then repeats the workload's command(s) for
as many passes as fit in ``--seconds``.  End-to-end metrics are medians over
those passes: ``wall_s`` (child start to exit), ``cpu_s`` (user + system CPU
of the children, from ``os.wait4``) and ``peak_rss_mb`` (the largest child's
peak RSS).  Children run with one BLAS thread: sirbif's linear algebra is
2x2, and idle BLAS threads spinning at start-up only add noise.

With ``--trace 1`` one more pass runs under ``tracer.py``, each command in
its own traced child, and the per-layer metrics are reported instead.  Its
overhead is measured against the untraced passes just before and after it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
every per-pass sample, the environment and the git state is written to
``--record`` (default ``.bench_runs/<workload>-seed<n>-trace<t>.json``).
Exit code 2, with no result printed, means the checkout holds no program
to measure.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
RECORDS = ROOT / ".bench_runs"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

import tracer
from workloads import WORKLOADS, het_table_p, load_reference

SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 60.0
SETUP_CODE = ("import time\n"
              "t0 = time.perf_counter()\n"
              "import sirbif.cli\n"
              "sirbif.cli.build_parser()\n"
              "print(repr(time.perf_counter() - t0))\n")

# ----------------------------------------------------------------------
# children


class Spawner:
    """Runs every child through ``spawner.py``, which stays small so that a
    child's peak RSS is its own (see there)."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, log: Path) -> dict:
        """Run one child to completion: its exit code, wall and CPU seconds
        and peak RSS."""
        request = {"argv": argv, "log": str(log), "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner exited")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        self.proc.stdout.close()


def _cli_argv(cmd, outdir: Path) -> list:
    return [*cmd.argv, "--jobs", "1", "--out", str(outdir / cmd.out)]


def run_pass(spawner: Spawner, commands: list, passdir: Path) -> dict:
    """One untraced pass: every command of the workload, one child each."""
    outdir, logs = passdir / "out", passdir / "logs"
    logs.mkdir(parents=True)
    children = [spawner.run([sys.executable, "-m", "sirbif.cli",
                             *_cli_argv(cmd, outdir)], logs / f"{k}.log")
                for k, cmd in enumerate(commands)]
    return {"exits": [c["code"] for c in children],
            "wall_s": sum(c["wall_s"] for c in children),
            "cpu_s": sum(c["cpu_s"] for c in children),
            "peak_rss_mb": max(c["maxrss_kb"] for c in children) / 1024.0}


def trace_pass(spawner: Spawner, commands: list, passdir: Path) -> dict:
    """One pass with every command in its own traced child: the summed wall
    time, the exit codes and the per-layer metrics of the spans and outputs
    (all but the tracing overhead)."""
    outdir, dirs, exits, wall = passdir / "out", [], [], 0.0
    for k, cmd in enumerate(commands):
        spans = passdir / f"spans-{k}"
        spans.mkdir(parents=True)
        child = spawner.run([sys.executable, str(BENCH / "tracer.py"),
                             str(spans), *_cli_argv(cmd, outdir)],
                            passdir / f"traced-{k}.log")
        exits.append(child["code"])
        wall += child["wall_s"]
        if (spans / "spans.json").is_file():
            dirs.append(spans)
    layers, details = tracer.layer_metrics(dirs, het_table_p)
    files = [f for f in outdir.rglob("*") if f.is_file()]
    layers["cli.bytes_written"] = sum(f.stat().st_size for f in files)
    layers["cli.artifacts"] = len(files)
    return {"wall_s": wall, "exits": exits, "layers": layers,
            "details": details}


def measure_setup(spawner: Spawner, scratch: Path) -> list:
    """Fresh-process import + parser build, ``SETUP_REPEATS`` times after one
    discarded run that fills the file and bytecode caches."""
    samples = []
    for k in range(SETUP_REPEATS + 1):
        log = scratch / f"setup-{k}.log"
        code = spawner.run([sys.executable, "-c", SETUP_CODE], log)["code"]
        text = log.read_text().strip()
        if code != 0:
            raise RuntimeError(f"set-up child exited with {code}: {text[-400:]}")
        samples.append(float(text.splitlines()[-1]))
    return samples[1:]


# ----------------------------------------------------------------------
# statistics and environment


def summary(samples: list) -> dict:
    """Median with quartiles and sample count."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "p25": q1, "p75": q3,
            "n": len(samples)}


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, check=True).stdout

    try:
        sha = git("rev-parse", "HEAD").strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"git": _git_state(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


# ----------------------------------------------------------------------
# one workload


def run_workload(spawner: Spawner, name: str, seed: int, seconds: float,
                 trace: bool, scratch: Path, reference: dict) -> dict:
    workload = WORKLOADS[name]
    commands = workload.commands(seed)
    record = {"workload": name, "seed": seed,
              "seconds": seconds, "trace": trace,
              "commands": [list(cmd.argv) for cmd in commands],
              "loadavg_start": os.getloadavg()}
    counter = itertools.count()

    def fresh() -> Path:
        return scratch / f"{name}-{next(counter)}"

    def checked(result: dict, passdir: Path) -> dict:
        tally = workload.check(seed, commands, passdir / "out",
                               result["exits"], reference)
        result.update(attempted=tally.attempted, failed=tally.failed,
                      notes=tally.notes)
        shutil.rmtree(passdir)
        return result

    record["setup_samples"] = measure_setup(spawner, scratch)

    # closed loop: start another pass only while it should end in time
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start + statistics.median(
            p["wall_s"] for p in passes) <= seconds):
        passdir = fresh()
        passes.append(checked(run_pass(spawner, commands, passdir), passdir))
    record["passes"] = passes

    e2e = {key: summary([p[key] for p in passes])
           for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    e2e["setup_s"] = summary(record["setup_samples"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    if trace:
        passdir = fresh()
        traced = checked(trace_pass(spawner, commands, passdir), passdir)
        # bracket the traced pass with the untraced passes next to it in
        # time, so that drift in machine speed does not pass for overhead
        passdir = fresh()
        after = checked(run_pass(spawner, commands, passdir), passdir)
        traced["bracket_wall_s"] = [passes[-1]["wall_s"], after["wall_s"]]
        layers = traced.pop("layers")
        layers["trace.overhead_s"] = (traced["wall_s"]
                                      - statistics.mean(traced["bracket_wall_s"]))
        attempted += traced["attempted"] + after["attempted"]
        failed += traced["failed"] + after["failed"]
        record["trace_details"] = traced.pop("details")
        record["traced_pass"] = traced
        record["per_layer"] = layers

    record["end_to_end"] = e2e
    record["attempted"] = attempted
    record["failed"] = failed
    record["fail_ratio"] = failed / attempted
    record["loadavg_end"] = os.getloadavg()
    return record


def _benchmark_units() -> dict:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def result_metrics(record: dict, trace: bool, units: dict) -> dict:
    if trace:
        return {key: {"value": value, "unit": units[key]}
                for key, value in record["per_layer"].items()}
    return {key: {"value": stats["median"], "unit": units[key]}
            for key, stats in record["end_to_end"].items()}


def print_summary(record: dict, units: dict) -> None:
    name = record["workload"]
    for key, stats in record["end_to_end"].items():
        print(f"{name:14s} {key:12s} {stats['median']:12.6g} {units[key]:5s}"
              f"  p25 {stats['p25']:.6g}  p75 {stats['p75']:.6g}  "
              f"n {stats['n']}")
    print(f"{name:14s} {'fail_ratio':12s} {record['fail_ratio']:12.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} operations)")
    passes = record["passes"] + [record.get("traced_pass", {"notes": []})]
    for note in {n for p in passes for n in p["notes"]}:
        print(f"{name:14s} failure: {note}")
    for key, value in record.get("per_layer", {}).items():
        print(f"{name:14s} {key:38s} {value:14.6g} {units[key]}")


# ----------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None,
                    help="run record path (default under .bench_runs/)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sirbif" / "cli.py").is_file():
        print(f"run.py: no sirbif sources under {SRC}", file=sys.stderr)
        return 2
    units = _benchmark_units()
    reference = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    SCRATCH.mkdir(exist_ok=True)
    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        with Spawner() as spawner:
            records = [run_workload(spawner, name, args.seed, args.seconds,
                                    trace, scratch, reference)
                       for name in names]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment()
    doc = dict(env, benchmark="sirbif", argv=sys.argv[1:], runs=records)
    record_path = Path(args.record) if args.record else (
        RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(doc, indent=1) + "\n")

    for record in records:
        print_summary(record, units)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = result_metrics(records[0], trace, units)
    else:
        metrics = {f"{r['workload']}.{key}": value for r in records
                   for key, value in result_metrics(r, trace, units).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
