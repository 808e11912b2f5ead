"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks that:

* the metric names a run prints match BENCHMARK.json exactly, with and
  without tracing;
* the output check passes the program's own seed-0 outputs and counts a
  corrupted copy as failed: one flipped atlas label, one ``p_het`` off by
  1e-5, one changed fan verdict;
* a child's peak RSS is its own, not the size of the process measuring it;
* the per-layer counts of two traced passes are identical;
* the zeros the workloads are chosen for hold: no integration on
  ``atlas-grid``; no region labels and no wall handoffs on ``het-locus``.

Exits 1 when any check fails.  Takes about a minute on two cores.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, load_reference

TIMED_UNITS = ("s", "ms", "us")
FAILURES: list = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def result_of(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), *args,
         "--record", str(run.SCRATCH / f"selftest-{os.getpid()}.json")],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names() -> None:
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = result_of("--workload", "het-locus", "--seed", "0",
                           "--seconds", "0", "--trace", trace)
        want = [(m["name"], m["unit"]) for m in spec[key]]
        got = [(k, v["unit"]) for k, v in result["metrics"].items()]
        expect(sorted(got) == sorted(want),
               f"--trace {trace} prints exactly the {key} metrics")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}
               and result["correct"] and result["failed"] == 0,
               f"--trace {trace} result keys and a clean check")


def _rewrite_csv_cell(path: Path, row_index: int, column: int, value: str):
    lines = path.read_text().splitlines()
    comments = sum(1 for ln in lines if ln.startswith("#"))
    k = comments + 1 + row_index                 # skip comments and header
    cells = next(csv.reader([lines[k]]))
    cells[column] = value
    lines[k] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_atlas(out: Path) -> None:
    path = out / "atlas" / "atlas_regions.csv"
    rows = list(csv.reader(ln for ln in path.read_text().splitlines()
                           if not ln.startswith("#")))[1:]
    k = next(i for i, row in enumerate(rows) if row[2] == "D")
    _rewrite_csv_cell(path, k, 2, "E")


def _corrupt_het(out: Path) -> None:
    path = out / "het" / "het_table.json"
    doc = json.loads(path.read_text())
    doc["rows"][5]["p_het"] += 1e-5
    path.write_text(json.dumps(doc))


def _corrupt_portraits(out: Path) -> None:
    path = out / "portraits" / "portrait_D.json"
    doc = json.loads(path.read_text())
    doc["fan"][0]["outcome"] = "E0" if doc["fan"][0]["outcome"] != "E0" else "E1"
    path.write_text(json.dumps(doc))


def test_output_check(spawner, scratch: Path, reference: dict) -> None:
    corrupt = {"atlas-grid": _corrupt_atlas, "het-locus": _corrupt_het,
               "portrait-fans": _corrupt_portraits}
    for name, workload in WORKLOADS.items():
        commands = workload.commands(0)
        passdir = scratch / name
        result = run.run_pass(spawner, commands, passdir)
        out = passdir / "out"
        clean = workload.check(0, commands, out, result["exits"], reference)
        expect(clean.failed == 0 and clean.attempted > 0,
               f"{name}: the program's own outputs pass "
               f"({clean.attempted} operations)")
        corrupt[name](out)
        bad = workload.check(0, commands, out, result["exits"], reference)
        expect(bad.failed == 1 and bad.attempted == clean.attempted,
               f"{name}: a corrupted copy counts one failed operation "
               f"(got {bad.failed}: {bad.notes[:1]})")
        lost = workload.check(0, commands, out, [3] * len(commands), reference)
        expect(lost.failed == lost.attempted == clean.attempted,
               f"{name}: a non-zero exit fails every operation")
        shutil.rmtree(passdir)


def test_peak_rss_is_the_childs(spawner, scratch: Path) -> None:
    ballast = b"\x01" * (128 << 20)            # resident, not just mapped
    passdir = scratch / "rss"
    rss = run.run_pass(spawner, WORKLOADS["het-locus"].commands(0),
                       passdir)["peak_rss_mb"]
    shutil.rmtree(passdir)
    del ballast
    expect(rss < 100.0, f"het-locus peak RSS {rss:.1f} MB ignores a 128 MB "
                        "benchmark process")


def test_traced_counts(spawner, scratch: Path) -> None:
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = {}
    for name, workload in WORKLOADS.items():
        commands = workload.commands(0)
        runs = []
        for k in range(2):
            passdir = scratch / f"{name}-trace-{k}"
            runs.append(run.trace_pass(spawner, commands, passdir)["layers"])
            shutil.rmtree(passdir)
        counts = [{key: value for key, value in r.items()
                   if units[key] not in TIMED_UNITS} for r in runs]
        expect(counts[0] == counts[1] and len(counts[0]) > 10,
               f"{name}: {len(counts[0])} per-layer counts repeat exactly")
        layers[name] = runs[0]
    expect(layers["atlas-grid"]["integrate.calls"] == 0,
           "atlas-grid: integrate.calls = 0")
    expect(layers["atlas-grid"]["atlas.classify_calls"] > 0,
           "atlas-grid: atlas.classify_calls > 0")
    expect(layers["het-locus"]["atlas.classify_calls"] == 0,
           "het-locus: atlas.classify_calls = 0")
    expect(layers["het-locus"]["integrate.wall_handoffs"] == 0,
           "het-locus: integrate.wall_handoffs = 0")
    expect(layers["portrait-fans"]["integrate.wall_handoffs"] > 0,
           "portrait-fans: integrate.wall_handoffs > 0")


def main() -> int:
    if not (run.SRC / "sirbif" / "cli.py").is_file():
        print(f"selftest.py: no sirbif sources under {run.SRC}", file=sys.stderr)
        return 2
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = run.SCRATCH / f"selftest-{os.getpid()}"
    scratch.mkdir()
    try:
        test_metric_names()
        with run.Spawner() as spawner:
            test_output_check(spawner, scratch, load_reference())
            test_peak_rss_is_the_childs(spawner, scratch)
            test_traced_counts(spawner, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        (run.SCRATCH / f"selftest-{os.getpid()}.json").unlink(missing_ok=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
