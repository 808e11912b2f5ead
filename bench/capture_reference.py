"""Capture the seed-0 reference outputs the benchmark checks against.

Runs each workload's canonical command once and stores what the checks
compare: the atlas grid labels and curve rows, the shot connection table,
and the portrait verdicts with the region-E cycle.

    python3 bench/capture_reference.py

Re-capture only when the program's intended output changes; the stored
file is what makes a wrong answer count as a failed operation.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import (PORTRAIT_REGIONS, REFERENCE_FILE, WORKLOADS,
                       data_rows, float_or_none)


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    passdir = run.SCRATCH / f"capture-{os.getpid()}"
    try:
        outs = {}
        with run.Spawner() as spawner:
            for name, workload in WORKLOADS.items():
                commands = workload.commands(0)
                result = run.run_pass(spawner, commands, passdir / name)
                if result["exits"] != [0]:
                    raise SystemExit(f"{name}: exit codes {result['exits']}")
                outs[name] = passdir / name / "out" / commands[0].out

        atlas = outs["atlas-grid"]
        labels = "".join("x" if row[2] == "boundary" else row[2]
                         for row in data_rows(atlas / "atlas_regions.csv"))
        curves = [[float_or_none(c) for c in row]
                  for row in data_rows(atlas / "atlas_curves.csv")]
        het_rows = json.loads((outs["het-locus"] / "het_table.json")
                              .read_text())["rows"]
        verdicts, cycle = {}, None
        for region in PORTRAIT_REGIONS:
            doc = json.loads((outs["portrait-fans"] / f"portrait_{region}.json")
                             .read_text())
            verdicts[region] = [entry["outcome"] for entry in doc["fan"]]
            if region == "E":
                cycle = {key: doc["cycle"][key] for key in ("period", "floquet")}
    finally:
        shutil.rmtree(passdir, ignore_errors=True)

    reference = {
        "atlas": {"labels": labels, "curves": curves},
        "het": [[repr(row["r0"]), row["p_het"]] for row in het_rows],
        "portraits": {"verdicts": verdicts, "cycle": cycle},
    }
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    REFERENCE_FILE.write_text(json.dumps(reference, separators=(",", ":"))
                              + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
