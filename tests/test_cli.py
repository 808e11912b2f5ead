"""Command-line interface: exit codes, artifact schemas, embedded config,
byte determinism, and config-file handling."""

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sirbif
from sirbif import REFERENCE_BASE, __version__, find_periodic_orbit
from sirbif.cli import main
from sirbif.cli_common import _write_json, csv_text
from sirbif.svgplot import Canvas
from conftest import time_cap

FORMAT_DOC = Path(__file__).resolve().parents[1] / "FORMAT.md"


def run(argv):
    return main(argv)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == f"# sirbif {__version__}"
    assert lines[1].startswith("# config ")
    config = json.loads(lines[1][len("# config "):])
    rows = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
    return config, rows[0], rows[1:]


def read_json(path):
    payload = json.loads(Path(path).read_text())
    assert "config" in payload
    return payload


def run_child(code, *argv):
    """Run ``python -c code argv...`` on this checkout of sirbif."""
    src = str(Path(sirbif.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)


# ---------------------------------------------------------------------------
# exit codes and help


def test_help_and_version_exit_zero(capsys):
    assert run(["--help"]) == 0
    assert "equilibria" in capsys.readouterr().out
    assert run(["--version"]) == 0
    assert __version__ in capsys.readouterr().out
    assert run(["equilibria", "--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    assert "COMMAND" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["equilibria", "--nope"]) == 2
    capsys.readouterr()


def test_validation_errors_exit_two(tmp_path, capsys):
    # p outside [0, 1]
    assert run(["equilibria", "--beta", "1.3", "--p", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "p must lie in [0, 1]" in err
    # neither --beta nor --r0
    assert run(["equilibria", "--p", "0.2"]) == 2
    capsys.readouterr()
    # no start: refused before the missing --r0 is
    assert run(["simulate", "--out", str(tmp_path)]) == 2
    assert ("sirbif: the following arguments are required: --S0, --I0\n"
            in capsys.readouterr().err)
    # out-of-range tolerance
    assert run(["simulate", "--r0", "2.6", "--p", "0.3", "--S0", "0.5",
                "--I0", "0.1", "--tol", "1e-2",
                "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    # a per-trajectory sample cap below one
    for cap in ("0", "-3"):
        assert run(["portraits", "--region", "A", "--max-samples", cap,
                    "--out", str(tmp_path)]) == 2
        assert "--max-samples must be at least 1" in capsys.readouterr().err
    # atlas windows outside 0 < r0-min < r0-max, 0 <= p-min < p-max <= 1
    for window in (["--r0-min", "0"], ["--r0-min", "-1"], ["--p-max", "1.5"],
                   ["--r0-max", "inf"]):
        assert run(["atlas", *window, "--out", str(tmp_path)]) == 2
        assert "atlas window" in capsys.readouterr().err
    # a base whose A^2 overflows, a window or point whose beta^2 underflows
    # or overflows, a window whose curves are not finite
    for command, message in (
            (["atlas", "--A", "1e300"], "--A 1e+300 is too large for --m 0.35"),
            (["dz", "--A", "1e160", "--format", "json"],
             "--A 1e+160 is too large for --m 0.35"),
            # A^2/(4m) is finite, but p_t's scale A^2/m is not
            (["dz", "--A", "1e154", "--mu", "2.0000001", "--format", "json"],
             "--A 1e+154 is too large for --m 0.35: the curves' scale A^2/m"),
            (["equilibria", "--A", "1e160", "--r0", "2.6", "--p", "0.3",
              "--format", "json"], "--A 1e+160 is too large for --m 0.35"),
            (["atlas", "--r0-min", "1e-300", "--r0-max", "1e-299"],
             "--r0-min 1e-300 puts beta = r0 (sigma+g)/A"),
            (["atlas", "--r0-max", "1e300"], "--r0-max 1e+300 puts beta"),
            (["atlas", "--r0-max", "1.5e154"],
             "--r0-max 1.5e+154 is out of range: the curve values bt1, bt2"),
            (["equilibria", "--beta", "1e300", "--p", "0.3", "--format",
              "json"], "--beta 1e+300 is out of range: beta^2 (sigma+g)"),
            (["equilibria", "--r0", "1e300", "--p", "0.3", "--format", "json"],
             "--r0 1e+300 puts beta = r0 (sigma+g)/A"),
            (["equilibria", "--r0", "1e-300", "--p", "0.3"],
             "--r0 1e-300 puts beta = r0 (sigma+g)/A"),
            (["equilibria", "--beta", "1e-158", "--p", "0.3"],
             "--beta 1e-158 is out of range"),
            (["portraits", "--beta", "1e-300", "--p", "0.3"],
             "--beta 1e-300 is out of range"),
            (["portraits", "--r0", "1e300", "--p", "0.3"],
             "--r0 1e+300 puts beta"),
            (["simulate", "--beta", "1e300", "--p", "0.3", "--S0", "0.5",
              "--I0", "0.1"], "--beta 1e+300 is out of range")):
        assert run([*command, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
    # a base or p that a builtin portrait pack would ignore
    for flags, message in ((["--region", "E", "--A", "0.5"], "--A 0.5"),
                           (["--region", "D", "--p", "0.9"], "--p 0.9")):
        assert run(["portraits", *flags, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{message} is ignored without --r0 or --beta" in err
        assert "the builtin region packs sit at the reference base" in err
        assert not list(tmp_path.iterdir())
    # a non-finite removed-class start
    for value in ("nan", "inf"):
        assert run(["simulate", "--r0", "2.6", "--p", "0.3", "--S0", "0.5",
                    "--I0", "0.1", "--r-init", value,
                    "--out", str(tmp_path)]) == 2
        assert "--r-init must be finite" in capsys.readouterr().err
    # non-finite abscissae
    for r0_list in ("2.6,inf", "nan"):
        assert run(["het-table", "--shoot", "--r0-list", r0_list,
                    "--out", str(tmp_path)]) == 2
        assert "--r0-list entries must be finite" in capsys.readouterr().err
    # an empty list is given, not absent
    assert run(["het-table", "--shoot", "--r0-list", "",
                "--out", str(tmp_path)]) == 2
    assert "--r0-list is empty" in capsys.readouterr().err
    assert run(["het-table", "--r0-list", "", "--out", str(tmp_path)]) == 2
    assert "--r0-list only makes sense with --shoot" in capsys.readouterr().err
    # every run is one process: --jobs is accepted only as 1
    for jobs in ("0", "-2"):
        assert run(["het-table", "--shoot", "--r0-list", "2.6",
                    "--jobs", jobs, "--out", str(tmp_path)]) == 2
        assert (f"argument --jobs: invalid choice: {jobs}"
                in capsys.readouterr().err)
    # a tolerance outside the integrator's range, or not a number
    for command in (["het-table", "--shoot", "--r0-list", "2.6", "--tol", "nan"],
                    ["cycle", "--tol", "-1"]):
        assert run([*command, "--out", str(tmp_path)]) == 2
        assert "--tol must lie in [1e-13, 0.001]" in capsys.readouterr().err
    # a tolerance where nothing integrates
    for command in (["atlas"], ["dz"], ["equilibria", "--r0", "2.6"]):
        assert run([*command, "--tol", "1e-8", "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
    for command in (["het-table"], ["het-fit"]):
        assert run([*command, "--tol", "1e-8", "--out", str(tmp_path)]) == 2
        assert "--tol only makes sense with --shoot" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,flag", [
    # (sigma+g)^2 overflows in I2's numerator
    (["equilibria", "--mu", "1e300", "--beta", "2.0000001", "--format",
      "json"], "--beta 2.0000001"),
    # and S2 = (sigma+g)/beta with it
    (["equilibria", "--beta", "1e-12", "--mu", "1e300", "--format", "json"],
     "--beta 1e-12"),
    # A (sigma+g) beta overflows
    (["equilibria", "--A", "1e154", "--m", "1e300", "--mu", "1e154",
      "--beta", "10", "--format", "json"], "--beta 10.0"),
    # beta*I2, an entry of E2's Jacobian, overflows and R0 with it
    (["equilibria", "--mu", "1e-300", "--d", "1e-300", "--g", "1e-300",
      "--beta", "1e154", "--p", "0.3", "--format", "json"], "--beta 1e+154"),
    # beta*I2 overflows alone
    (["equilibria", "--A", "1e-103", "--m", "1e-100", "--mu", "1e-300",
      "--d", "1e-300", "--g", "1e-300", "--beta", "1e110", "--p", "0.3",
      "--format", "json"], "--beta 1e+110"),
    # R0 = A beta/(sigma+g) overflows alone
    (["equilibria", "--A", "1e100", "--m", "1e-10", "--mu", "1e-300",
      "--d", "1e-300", "--g", "1e-300", "--beta", "1e10", "--format",
      "json"], "--beta 10000000000.0"),
    (["portraits", "--mu", "1e300", "--beta", "2", "--p", "0.3"],
     "--beta 2.0"),
    (["simulate", "--mu", "1e300", "--beta", "2", "--p", "0.3", "--S0", "0.5",
      "--I0", "0.1"], "--beta 2.0"),
], ids=["sigma-squared", "tiny-beta", "A-sigma-beta", "beta-I2-and-r0",
        "beta-I2", "r0", "portraits", "simulate"])
def test_overflowing_endemic_terms_are_refused(tmp_path, capsys, argv, flag):
    # beta^2 (sigma+g) is finite in each, but R0 or a term of E2's closed
    # form is not: the run would write NaN and Infinity or fail numerically
    assert run([*argv, "--out", str(tmp_path)]) == 2
    assert (f"sirbif: {flag} is out of range: beta^2 (sigma+g), R0 or a term "
            "of E2's closed form" in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_huge_beta_writes_finite_eigenvalues(tmp_path, capsys):
    # E1's tr^2 - 4 det overflows a factor of about 1.3 inside the beta bound
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    for k, flag in enumerate((["--beta", "1.2589e154"],
                              ["--r0", "1.9953e154"])):
        out = tmp_path / str(k)
        assert run(["equilibria", *flag, "--p", "0", "--format", "json",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads((out / "equilibria.json").read_text(),
                         parse_constant=refuse)
        e1 = doc["equilibria"][1]
        assert e1["id"] == "E1" and e1["eig"][1]["re"] > 1e154


def test_huge_beta_keeps_e1_a_saddle(capsys):
    # E1's eigenvalues at p = 0 are exactly -1.1 and beta*1.1 - 0.7: the
    # small one is not lost to the large one's rounding
    assert run(["equilibria", "--beta", "1e17", "--p", "0"]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("E1:")]
    assert "[saddle]" in line
    low, high = (float(v) for v in line.split("eigenvalues ")[1].split(", "))
    assert low == -1.1
    assert high == pytest.approx(1.1e17, rel=1e-15)


def test_numerical_failure_exits_three(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise RuntimeError("synthetic solver breakdown")

    monkeypatch.setattr(sirbif.connections, "find_periodic_orbit", explode)
    assert run(["cycle", "--out", str(tmp_path)]) == 3
    assert "synthetic solver breakdown" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# equilibria


def test_equilibria_stdout_only(capsys):
    assert run(["equilibria", "--beta", "1.3", "--p", "0"]) == 0
    out = capsys.readouterr().out
    assert "E2" in out and "sink-focus" in out


def test_equilibria_artifacts(tmp_path, capsys):
    assert run(["equilibria", "--beta", "1.3", "--p", "0",
                "--out", str(tmp_path), "--format", "csv",
                "--format", "json"]) == 0
    capsys.readouterr()
    config, header, rows = read_csv(tmp_path / "equilibria.csv")
    assert config["command"] == "equilibria"
    assert "out" not in config.get("settings", config)
    assert header == ["id", "S", "I", "eig1_re", "eig1_im", "eig2_re",
                      "eig2_im", "class"]
    ids = [r[0] for r in rows]
    assert ids == ["E0", "E1", "E2"]
    e2 = rows[2]
    assert float(e2[1]) == pytest.approx(0.5384615384615384, rel=1e-15)
    assert e2[7] == "sink-focus"
    payload = read_json(tmp_path / "equilibria.json")
    assert payload["r0"] == pytest.approx(1.1 * 1.3 / 0.7, rel=1e-12)
    assert [e["id"] for e in payload["equilibria"]] == ["E0", "E1", "E2"]
    assert not (tmp_path / "equilibria.svg").exists()


def test_equilibria_above_fold_reports_empty(capsys):
    assert run(["equilibria", "--r0", "2.6", "--p", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "no disease-free equilibria" in out


# ---------------------------------------------------------------------------
# dz and atlas


def test_dz_refuses_an_overflowing_beta(tmp_path, capsys):
    # beta at r0 = 2 is about 1.8e300: the Belyakov roots would overflow
    assert run(["dz", "--g", "1e300", "--out", str(tmp_path)]) == 2
    assert ("the double-zero point's r0 2.0 puts beta"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_dz_refuses_an_underflowing_saddle_node_value(tmp_path, capsys):
    # p_sn = A^2/(4m) is 0.0 here, and the concurrence deviations NaN
    assert run(["dz", "--A", "1e-300", "--g", "1e-12",
                "--out", str(tmp_path)]) == 2
    assert ("--A 1e-300 is too small for --m 0.35: the saddle-node value "
            "A^2/(4m) underflows" in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_dz_certificate_artifact(tmp_path, capsys):
    assert run(["dz", "--out", str(tmp_path), "--format", "json"]) == 0
    capsys.readouterr()
    payload = read_json(tmp_path / "dz.json")
    assert payload["ok"] is True
    jac = payload["jacobian"]
    assert abs(jac[0][0]) <= 1e-12 and abs(jac[1][0]) <= 1e-12
    assert jac[0][1] == pytest.approx(-0.7, abs=1e-12)
    assert max(payload["eig_moduli"]) <= 1e-10
    conc = payload["concurrence"]
    assert abs(conc["dev_t"]) <= 1e-12
    assert abs(conc["dev_h"]) <= 1e-12
    assert abs(conc["dev_bt2"]) <= 1e-9


def test_atlas_artifacts(tmp_path, capsys):
    assert run(["atlas", "--samples", "40", "--grid", "24",
                "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, header, rows = read_csv(tmp_path / "atlas_curves.csv")
    assert header == ["r0", "p_sn", "p_t", "p_h", "p_bt1", "p_bt2", "p_het"]
    assert len(rows) == 40
    r0s = [float(r[0]) for r in rows]
    assert r0s == sorted(r0s)
    for row in rows:
        if float(row[0]) < 2.0:
            assert row[3] == ""          # Hopf column empty left of the fold
        assert float(row[1]) == pytest.approx(0.8642857142857144, rel=1e-12)

    _, header, rows = read_csv(tmp_path / "atlas_regions.csv")
    assert header == ["r0", "p", "label"]
    assert len(rows) == 24 * 24
    labels = {r[2] for r in rows}
    assert labels <= {"A", "B", "C", "D", "E", "F", "G", "H", "boundary"}
    assert {"A", "D", "E"} <= labels

    payload = read_json(tmp_path / "atlas.json")
    assert payload["dz"]["r0"] == 2.0
    assert set(payload["curves"]) == {"sn", "t", "h", "bt1", "bt2", "het"}
    svg = (tmp_path / "atlas.svg").read_text()
    assert svg.startswith("<svg")
    assert "<desc>" in svg


def csv_file_text(config, columns, rows):
    """What a sirbif CSV holds: the two comment lines, then ``columns`` and
    ``rows`` as csv.writer writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    compact = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return f"# sirbif {__version__}\n# config {compact}\n" + buf.getvalue()


@pytest.mark.parametrize("args", [
    ["--grid", "200"],
    ["--grid", "2"],
    ["--r0-min", "0.5", "--r0-max", "1.5", "--grid", "3"],
    ["--A", "1.0", "--grid", "57"],
    # holds r0 = 1, where p = 0 lies on p_t(1) = 0
    ["--r0-min", "0.5", "--r0-max", "1.5", "--p-min", "0.05", "--grid", "41"],
], ids=["default", "grid-2", "corner", "A-1", "r0-1"])
def test_atlas_regions_bytes(tmp_path, capsys, args):
    # per point, byte for byte, so a lost final newline or a bad join at the
    # edge of a label run shows
    assert run(["atlas", *args, "--format", "csv", "--out",
                str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "atlas_regions.csv").read_text()
    config, _, _ = read_csv(tmp_path / "atlas_regions.csv")
    settings = config["settings"]
    r0_min, r0_max, p_min, p_max = settings["window"]
    n = settings["grid"]
    base = sirbif.BaseParams(**settings["base"])
    het = sirbif.fit_reference_curve()
    rows = []
    for i in range(n):
        r0 = r0_min + (r0_max - r0_min) * i / (n - 1)
        for j in range(n):
            p = p_min + (p_max - p_min) * j / (n - 1)
            try:
                label = sirbif.classify_region(r0, p, base, het=het).value
            except sirbif.RegionFlagError:
                label = "boundary"
            rows.append((repr(r0), repr(p), label))
    assert text == csv_file_text(config, ("r0", "p", "label"), rows)


def test_atlas_grid_memory_stays_small(tmp_path, capsys):
    # the grid is written one column at a time, never held whole
    argv = ["atlas", "--format", "csv", "--out", str(tmp_path)]
    assert run(argv) == 0          # warm the fitted curve and the imports
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 1.5e6


# ---------------------------------------------------------------------------
# portraits


def test_portrait_region_e_artifacts(tmp_path, capsys):
    assert run(["portraits", "--region", "E", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = read_json(tmp_path / "portrait_E.json")
    assert payload["region"] == "E"
    assert payload["cycle"] is not None
    assert payload["cycle"]["floquet"] > 1.0
    assert sum(payload["outcome_counts"].values()) == 20
    assert payload["outcome_counts"].get("E2", 0) >= 1
    _, header, rows = read_csv(tmp_path / "portrait_E_outcomes.csv")
    assert header == ["traj", "S0", "I0", "outcome", "detail", "t_end",
                      "S_end", "I_end"]
    assert len(rows) == 20
    assert all(len(r) == 8 for r in rows)
    # details such as "on the wall, I still decaying" hold a comma, so the
    # cell only survives the round trip if it is quoted
    assert [r[4] for r in rows] == [f["detail"] for f in payload["fan"]]
    assert any("," in r[4] for r in rows)
    outcomes = {r[3] for r in rows}
    assert outcomes <= {"E0", "E1", "E2", "boundary-axis", "undecided"}
    assert "E2" in outcomes
    _, header, rows = read_csv(tmp_path / "portrait_E.csv")
    assert header == ["traj", "t", "S", "I"]
    assert {r[0] for r in rows} == {str(k) for k in range(20)}
    assert (tmp_path / "portrait_E.svg").exists()


def test_portrait_custom_point_classifies(tmp_path, capsys):
    assert run(["portraits", "--r0", "1.5", "--p", "0.9",
                "--out", str(tmp_path), "--format", "json"]) == 0
    capsys.readouterr()
    payload = read_json(tmp_path / "portrait_A.json")
    assert payload["region"] == "A"
    assert payload["r0"] == pytest.approx(1.5)
    # everything dies out above the fold
    assert set(payload["outcome_counts"]) == {"boundary-axis"}


def test_portraits_unknown_region(capsys):
    assert run(["portraits", "--region", "Z"]) == 2
    assert "unknown region" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_artifacts_and_recovered_series(tmp_path, capsys):
    assert run(["simulate", "--beta", "1.3", "--p", "0.5", "--S0", "0.5",
                "--I0", "0", "--t-end", "40", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "S", "I", "R"]
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 40.0
    assert all(float(r[2]) == 0.0 for r in rows)   # I stays exactly zero
    payload = read_json(tmp_path / "trajectory.json")
    want = 1.0 - math.exp(-0.175 * 40.0)           # p*m/mu = 1 here
    assert payload["R"][-1] == pytest.approx(want, abs=1e-6)
    assert payload["terminal"]["kind"] == "time-horizon"


def test_simulate_far_start_draws_no_huge_coordinate(tmp_path, capsys):
    # a start outside the frame gets no marker and the path is clipped near
    # it, so every number is short: a start beyond the domain bound, and a
    # wall start that decays on the wall far above the frame
    for S0, I0 in (("1e150", "0.2"), ("0", "1e300")):
        assert run(["simulate", "--r0", "2.6", "--p", "0.3", "--S0", S0,
                    "--I0", I0, "--t-end", "5", "--format", "svg",
                    "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        # the embedded config echoes the inputs at full precision; skip it
        svg = re.sub(r"<desc>.*?</desc>", "",
                     (tmp_path / "trajectory.svg").read_text(), flags=re.S)
        numbers = re.findall(r"[-+]?[0-9][0-9.e+-]*", svg)
        longest = max(numbers, key=len, default="")
        assert numbers and len(longest) <= 10, (I0, longest)


def test_polyline_is_clipped_ten_canvas_sides_out():
    # a 100 x 100 canvas whose frame maps x in [0, 1] to pixels 56..84 and
    # y in [0, 1] to 56..16: the clipping square reaches ten canvas sides
    # beyond it, from -1000 to 1100. A path that leaves the square and comes
    # back is cut there into two lines; the points inside keep their own
    # coordinates.
    canvas = Canvas(100, 100, (0.0, 1.0), (0.0, 1.0))
    canvas.polyline([(0.0, 0.0), (1e6, 0.0), (1e6, 1.0), (0.0, 1.0)], "#000")
    canvas.polyline([(0.0, 0.0), (1.0, 1.0)], "#000")
    lines = re.findall(r'<polyline points="([^"]*)"', canvas.render())
    assert lines == ["56.00,56.00 1100.00,56.00", "1100.00,16.00 56.00,16.00",
                     "56.00,56.00 84.00,16.00"]


# ---------------------------------------------------------------------------
# heteroclinic table and fit


def test_het_table_embedded(tmp_path, capsys):
    assert run(["het-table", "--out", str(tmp_path),
                "--format", "csv"]) == 0
    capsys.readouterr()
    _, header, rows = read_csv(tmp_path / "het_table.csv")
    assert header == ["r0", "p_het", "splitting_residual",
                      "delta_vs_reference", "error"]
    assert len(rows) == 13
    assert [float(r[0]) for r in rows][0] == 2.0725
    assert all(r[2] == "" and r[3] == "" and r[4] == "" for r in rows)


def test_het_table_delta_only_at_reference_base(tmp_path, capsys):
    # the embedded table belongs to the reference base; at any other base
    # the comparison column stays empty
    for extra, has_delta in (([], True), (["--A", "1.3"], False)):
        assert run(["het-table", "--shoot", "--r0-list", "2.2,2.6", *extra,
                    "--out", str(tmp_path), "--format", "csv"]) == 0
        _, _, rows = read_csv(tmp_path / "het_table.csv")
        assert [r[4] for r in rows] == ["", ""]
        assert [r[3] != "" for r in rows] == [has_delta, has_delta]
    capsys.readouterr()


def test_het_table_refuses_r0_list_entries_without_a_connection(tmp_path,
                                                                capsys):
    # the connection needs r0 > 2: an entry at or below 2 is bad input,
    # named and refused before any row is shot
    for r0_list, entry in (("2.6,1.5", "1.5"), ("2", "2.0"), ("-1", "-1.0")):
        assert run(["het-table", "--shoot", "--r0-list", r0_list,
                    "--out", str(tmp_path)]) == 2
        assert (f"--r0-list entry {entry} is not above 2"
                in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_het_shoot_refuses_an_overflowing_beta(tmp_path, capsys):
    # at mu = 1e300 the abscissae's beta^2 (sigma+g) overflows, as for the
    # point commands; shot anyway, W^u(E1)'s series would be NaN
    for argv, message in (
            (["het-table", "--r0-list", "2.6"],
             "--r0-list entry 2.6 puts beta"),
            (["het-table"], "embedded r0 2.0725 puts beta"),
            (["het-fit"], "embedded r0 2.0725 puts beta")):
        with time_cap(10.0):
            assert run([*argv, "--shoot", "--mu", "1e300",
                        "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_het_table_r0_list_requires_shoot(capsys):
    assert run(["het-table", "--r0-list", "2.6"]) == 2
    assert "--shoot" in capsys.readouterr().err


def test_het_fit_artifact(tmp_path, capsys):
    assert run(["het-fit", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = read_json(tmp_path / "het_fit.json")
    fit = payload["fit"]
    assert fit["a"] == pytest.approx(4.495, abs=0.01)
    assert fit["b"] == pytest.approx(-2.313, abs=0.01)
    assert fit["c"] == pytest.approx(-0.039, abs=0.002)
    assert fit["corr"] >= 0.99999
    assert fit["n_points"] == 13
    _, header, rows = read_csv(tmp_path / "het_fit.csv")
    assert len(rows) == 1
    assert float(rows[0][header.index("a")]) == pytest.approx(fit["a"])


def test_het_fit_from_table_file(tmp_path, capsys):
    table = tmp_path / "points.csv"
    table.write_text("r0,p_het\n" + "\n".join(
        f"{r},{4.5 * r ** -2.3 - 0.04}" for r in
        (2.1, 2.4, 2.7, 3.0, 3.3, 3.6)) + "\n")
    out = tmp_path / "fitout"
    assert run(["het-fit", "--table", str(table), "--out", str(out),
                "--format", "json"]) == 0
    capsys.readouterr()
    fit = read_json(out / "het_fit.json")["fit"]
    assert fit["a"] == pytest.approx(4.5, abs=1e-6)
    assert fit["b"] == pytest.approx(-2.3, abs=1e-6)
    assert fit["n_points"] == 6


def test_het_fit_rejects_bad_table(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n3,4\n5,6\n")
    assert run(["het-fit", "--table", str(bad)]) == 2
    capsys.readouterr()
    # an empty path is given, not absent
    out = tmp_path / "fitout"
    assert run(["het-fit", "--table", "", "--out", str(out)]) == 2
    assert "--table is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell, message", [
    ("inf", "all x and y must be finite"),
    ("nan", "all x and y must be finite"),
    ("abc", "line 4: r0 = '2.7', p_het = 'abc' is not a pair of numbers"),
])
def test_het_fit_rejects_unusable_rows(tmp_path, capsys, cell, message):
    table = tmp_path / "points.csv"
    table.write_text("r0,p_het\n2.1,0.7\n2.4,0.55\n2.7," + cell
                     + "\n3.0,0.3\n3.3,0.25\n")
    out = tmp_path / "fitout"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["het-fit", "--table", str(table), "--out", str(out)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert str(table) in err and message in err
    assert not out.exists()


def test_het_fit_offset_lost_to_rounding(tmp_path):
    # min(y) - 0.01 rounds to min(y), so y - c is 0 at that row: a clean
    # validation error, with no warning or traceback on stderr
    table = tmp_path / "huge.csv"
    table.write_text("r0,p_het\n0.001,1e120\n0.002,1e108\n0.003,1e101\n"
                     "0.004,1e96\n0.005,1e92\n")
    proc = run_child("from sirbif.cli import main; raise SystemExit(main())",
                     "het-fit", "--table", str(table), "--format", "json",
                     "--out", str(tmp_path / "fitout"))
    assert proc.returncode == 2
    assert proc.stderr == (f"sirbif: {table}: y values too large to fit: "
                           "min(y) - 0.01 rounds to min(y) = 1e+92\n")


def test_het_fit_table_needs_four_rows(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("r0,p_het\n2.2,0.68\n2.6,0.45\n3.0,0.30\n")
    assert run(["het-fit", "--table", str(short)]) == 2
    err = capsys.readouterr().err
    assert str(short) in err and "at least 4" in err


# ---------------------------------------------------------------------------
# cycle


def test_cycle_artifact(tmp_path, capsys):
    assert run(["cycle", "--out", str(tmp_path), "--format", "json"]) == 0
    capsys.readouterr()
    payload = read_json(tmp_path / "cycle.json")
    assert payload["r0"] == 2.6
    assert payload["p"] == 0.48
    assert payload["floquet"] == pytest.approx(1.736, abs=5e-3)
    assert payload["period"] == pytest.approx(17.25, abs=0.01)
    assert payload["return_residual"] <= 1e-8


def test_cycle_csv_has_one_header(tmp_path, capsys):
    assert run(["cycle", "--out", str(tmp_path), "--format", "csv"]) == 0
    capsys.readouterr()
    _, header, rows = read_csv(tmp_path / "cycle.csv")
    assert header == ["t", "S", "I"]
    orbit = find_periodic_orbit(2.6, 0.48, REFERENCE_BASE, tol=1e-10)
    assert len(rows) == len(orbit.t)
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_csv_text_joins_its_chunks_exactly():
    rows = [(k, k / 7, None, "a, \"b\"") for k in range(1300)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    chunks = list(csv_text(iter(rows)))
    assert len(chunks) > 2
    assert "".join(chunks) == buf.getvalue()


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats() | st.sampled_from([-0.0, math.nan, math.inf,
                                                  -math.inf])
                 | st.text())
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(st.floats(), max_size=6)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=100)
@given(st.dictionaries(st.text(), _JSON_VALUES, max_size=5),
       st.dictionaries(st.text(), _JSON_VALUES, max_size=3))
def test_write_json_writes_the_indented_dumps(tmp_path_factory, payload,
                                              config):
    # nested and empty containers, -0.0, NaN, infinities, non-ASCII and
    # control characters: json.dumps's indented bytes
    path = tmp_path_factory.getbasetemp() / "doc.json"
    _write_json(path, config, payload)
    assert path.read_text() == json.dumps(dict(payload, config=config),
                                          sort_keys=True, indent=2) + "\n"


def test_csv_cells_as_csv_writer_writes_them(tmp_path, capsys):
    # a detail holding a comma is quoted; generator rows (cycle.csv) and list
    # rows (het_table.csv) give csv.writer's bytes
    assert run(["portraits", "--region", "H", "--format", "csv",
                "--out", str(tmp_path)]) == 0
    assert run(["cycle", "--format", "csv", "--out", str(tmp_path)]) == 0
    assert run(["het-table", "--format", "csv", "--out", str(tmp_path)]) == 0
    capsys.readouterr()

    path = tmp_path / "portrait_H_outcomes.csv"
    config, header, rows = read_csv(path)
    assert all(len(row) == 8 for row in rows)
    assert "on the wall, I still decaying" in {row[4] for row in rows}
    assert path.read_text() == csv_file_text(config, header, rows)

    config, header, _ = read_csv(tmp_path / "cycle.csv")
    orbit = find_periodic_orbit(2.6, 0.48, REFERENCE_BASE, tol=1e-10)
    assert (tmp_path / "cycle.csv").read_text() == csv_file_text(
        config, header, [(t, S, I) for t, (S, I) in zip(orbit.t, orbit.states)])

    config, header, _ = read_csv(tmp_path / "het_table.csv")
    assert (tmp_path / "het_table.csv").read_text() == csv_file_text(
        config, header,
        [(r0, p, None, None, "") for r0, p in sirbif.REFERENCE_HET_POINTS])


def test_cycle_outside_band_is_validation_error(capsys):
    assert run(["cycle", "--p", "0.70"]) == 2
    assert "cycle band" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--r0", "-1"],
    ["--r0", "0"],
    ["--r0", "1.5"],
    ["--p", "nan"],
    ["--het-p", "0.45"],     # the band is certified by the cycle itself
])
def test_cycle_input_errors_exit_two(tmp_path, capsys, args):
    assert run(["cycle", *args, "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cycle_certifies_band_without_het_p(tmp_path, capsys):
    # the model's connection at r0 = 3.0 is 0.29978, below the bundled
    # fit's 0.31493: just above it the cycle exists, just below it does not
    assert run(["cycle", "--r0", "3.0", "--p", "0.305", "--format", "json",
                "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = read_json(tmp_path / "cycle.json")
    assert payload["floquet"] > 1.0 and payload["return_residual"] <= 1e-9
    assert "het_p" not in payload["config"]["settings"]
    assert run(["cycle", "--r0", "3.0", "--p", "0.29",
                "--out", str(tmp_path / "below")]) == 3
    err = capsys.readouterr().err
    assert "misses its start by" in err and "Traceback" not in err
    assert not (tmp_path / "below").exists()


# ---------------------------------------------------------------------------
# config files, formats, determinism


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"r0": 1.5, "p": 0.9}))
    out = tmp_path / "out"
    assert run(["portraits", "--config", str(cfg), "--out", str(out),
                "--format", "json"]) == 0
    capsys.readouterr()
    payload = read_json(out / "portrait_A.json")
    assert payload["r0"] == pytest.approx(1.5)
    # explicit flags still win over the file
    out2 = tmp_path / "out2"
    assert run(["portraits", "--config", str(cfg), "--p", "0.2",
                "--out", str(out2), "--format", "json"]) == 0
    capsys.readouterr()
    assert (out2 / "portrait_D.json").exists()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"het-p": 0.45}))
    assert run(["atlas", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_value_of_wrong_type_names_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid": 2.5}))
    assert run(["atlas", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_file_is_read_as_flags(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.json"
    out = tmp_path / "out"
    # argparse converts and checks each value and names the flag
    cfg.write_text(json.dumps({"format": "xml"}))
    assert run(["atlas", "--config", str(cfg), "--out", str(out)]) == 2
    assert "argument --format: invalid choice: 'xml'" in capsys.readouterr().err
    # the value reaches the command's own checks
    cfg.write_text(json.dumps({"r0-min": -1}))
    assert run(["atlas", "--config", str(cfg), "--out", str(out)]) == 2
    assert "atlas window" in capsys.readouterr().err
    # what argparse cannot refuse, the file's reader does; no help is printed
    for data, message in (({"grid": [10, 20]},
                           "config key 'grid': [10, 20] is not a flag value"),
                          ({"help": True}, "unknown config key 'help'")):
        cfg.write_text(json.dumps(data))
        assert run(["atlas", "--config", str(cfg), "--out", str(out)]) == 2
        std = capsys.readouterr()
        assert message in std.err and std.out == ""
    assert not out.exists()
    # a value beginning with "--" stays a value
    monkeypatch.chdir(tmp_path)
    cfg.write_text(json.dumps({"out": "--x", "format": ["json"]}))
    assert run(["dz", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert [q.name for q in (tmp_path / "--x").iterdir()] == ["dz.json"]


def test_config_value_echoes_like_the_flag(tmp_path, capsys):
    args = ["--samples", "20", "--grid", "12"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"A": 1, "p-max": 1}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["atlas", *args, "--config", str(cfg), "--out", str(a)]) == 0
    assert run(["atlas", *args, "--A", "1", "--p-max", "1",
                "--out", str(b)]) == 0
    capsys.readouterr()
    names = sorted(q.name for q in a.iterdir())
    assert names == sorted(q.name for q in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    settings = read_json(a / "atlas.json")["config"]["settings"]
    assert settings["base"]["A"] == 1.0
    assert settings["window"][3] == 1.0
    assert isinstance(settings["window"][3], float)


def test_config_string_for_repeatable_flag(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"region": "het"}))
    out = tmp_path / "out"
    assert run(["portraits", "--config", str(cfg), "--out", str(out),
                "--format", "json"]) == 0
    assert "region het:" in capsys.readouterr().out
    assert [q.name for q in out.iterdir()] == ["portrait_het.json"]
    # the flag given on the command line replaces the file's list
    cfg.write_text(json.dumps({"format": ["csv"]}))
    out = tmp_path / "eq"
    assert run(["equilibria", "--r0", "2.6", "--p", "0.3", "--config",
                str(cfg), "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    assert [q.name for q in out.iterdir()] == ["equilibria.json"]


def test_config_echoes_tol_only_when_the_run_integrates(tmp_path, capsys):
    for k, (argv, integrates) in enumerate((
            (["dz"], False),
            (["equilibria", "--r0", "2.6", "--p", "0.3"], False),
            (["het-table"], False),
            (["het-table", "--shoot", "--r0-list", "2.6"], True),
            (["het-fit", "--shoot", "--tol", "1e-9"], True))):
        out = tmp_path / str(k)
        assert run([*argv, "--format", "json", "--out", str(out)]) == 0, argv
        [doc] = [read_json(path) for path in out.iterdir()]
        assert ("tol" in doc["config"]["settings"]) is integrates, argv
    capsys.readouterr()


def test_config_file_gives_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"r0": 2.6, "p": 0.3, "S0": 0.5, "I0": 0.1}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert run(["simulate", "--r0", "2.6", "--p", "0.3", "--S0", "0.5",
                "--I0", "0.1", "--out", str(b)]) == 0
    capsys.readouterr()
    names = sorted(q.name for q in a.iterdir())
    assert names == sorted(q.name for q in b.iterdir()) and len(names) == 3
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # an explicit flag still wins over the file's
    c = tmp_path / "c"
    assert run(["simulate", "--config", str(cfg), "--I0", "0.2",
                "--format", "json", "--out", str(c)]) == 0
    capsys.readouterr()
    assert read_json(c / "trajectory.json")["config"]["settings"]["x0"] == [
        0.5, 0.2]
    # given by neither, a required flag is refused before anything runs
    cfg.write_text(json.dumps({"r0": 2.6, "S0": 0.5}))
    assert run(["simulate", "--config", str(cfg),
                "--out", str(tmp_path / "d")]) == 2
    assert ("sirbif: the following arguments are required: "
            "--I0\n") in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_command_line_parsed_once_and_again_for_a_config(tmp_path, capsys,
                                                       monkeypatch):
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["dz", "--format", "json", "--out", str(a)]) == 0
    assert calls == ["sirbif"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": ["json"]}))
    calls.clear()
    assert run(["dz", "--config", str(cfg), "--out", str(b)]) == 0
    assert calls == ["sirbif", "sirbif"]
    capsys.readouterr()
    assert (a / "dz.json").read_bytes() == (b / "dz.json").read_bytes()


def test_config_file_must_be_json_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]")
    assert run(["equilibria", "--config", str(cfg), "--r0", "2"]) == 2
    capsys.readouterr()
    cfg.write_text("{not json")
    assert run(["equilibria", "--config", str(cfg), "--r0", "2"]) == 2
    capsys.readouterr()


def test_format_selection(tmp_path, capsys):
    assert run(["equilibria", "--r0", "2.6", "--p", "0.3",
                "--out", str(tmp_path), "--format", "json"]) == 0
    capsys.readouterr()
    assert (tmp_path / "equilibria.json").exists()
    assert not (tmp_path / "equilibria.csv").exists()


def test_byte_determinism_across_runs(tmp_path, capsys):
    args = ["--samples", "25", "--grid", "12"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["atlas", *args, "--out", str(a)]) == 0
    assert run(["atlas", *args, "--out", str(b)]) == 0
    capsys.readouterr()
    names = sorted(q.name for q in a.iterdir())
    assert names == sorted(q.name for q in b.iterdir())
    assert names == ["atlas.json", "atlas.svg", "atlas_curves.csv",
                     "atlas_regions.csv"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_control_flags_accepted(tmp_path, capsys):
    # no run has workers: --jobs is accepted only as 1, shot rows or not
    for shoot in ([], ["--shoot", "--r0-list", "2.6"]):
        assert run(["het-table", *shoot, "--jobs", "2",
                    "--out", str(tmp_path)]) == 2
        assert ("argument --jobs: invalid choice: 2"
                in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())
    assert run(["het-table", "--shoot", "--r0-list", "2.6", "--jobs", "1",
                "--out", str(tmp_path), "--format", "json"]) == 0
    capsys.readouterr()
    settings = read_json(tmp_path / "het_table.json")["config"]["settings"]
    assert "jobs" not in settings and "seed" not in settings
    # nothing in sirbif is random, so there is no seed to set
    assert run(["het-table", "--seed", "7", "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# schemas against FORMAT.md


def _documented(name):
    """The FORMAT.md entry of one artifact: the CSV header, or the set of
    top-level JSON keys named as `key` or `key {...}`."""
    doc = FORMAT_DOC.read_text()
    name = re.sub(r"^portrait_[^_.]+", "portrait_R", name)
    match = re.search(rf"^`{re.escape(name)}` — (.*?)(?:\n\n|\Z)", doc,
                      re.M | re.S)
    assert match, f"{name} is not documented in FORMAT.md"
    spans = re.findall(r"`([^`]+)`", match.group(1))
    if name.endswith(".csv"):
        return spans[0].split(",")
    keys = set()
    for span in spans:
        key = re.fullmatch(r"(\w+)(?::? \{.*\})?", span, re.S)
        if key:
            keys.add(key.group(1))
    return keys


def test_schema_sweep_matches_format_doc(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    for argv in (["atlas", "--grid", "12", "--samples", "20"],
                 ["portraits", "--region", "E"],
                 ["het-table", "--shoot", "--r0-list", "2.6"],
                 ["simulate", "--r0", "2.6", "--p", "0.3", "--S0", "0.9",
                  "--I0", "0.05", "--t-end", "50"],
                 ["cycle"], ["het-fit"], ["dz"],
                 ["equilibria", "--r0", "2.6", "--p", "0.3"]):
        assert run(argv + out) == 0, argv
    capsys.readouterr()
    files = sorted(tmp_path.iterdir())
    assert len(files) == 21
    for path in files:
        if path.suffix == ".csv":
            _, header, rows = read_csv(path)
            assert header == _documented(path.name), path.name
            assert header not in rows, f"{path.name}: repeated header"
        elif path.suffix == ".json":
            keys = set(read_json(path)) - {"config"}
            assert keys == _documented(path.name), path.name
        else:
            assert path.read_text().startswith("<svg"), path.name


# ---------------------------------------------------------------------------
# start-up: the runtime needs neither numpy, a process pool nor dataclasses

_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None      # any import of numpy now raises ImportError
from sirbif.cli import main
code = main()
if "concurrent.futures" in sys.modules:
    sys.exit("concurrent.futures was imported")
sys.exit(code)
"""


_WITHOUT_DATACLASSES = """
import sys
sys.modules["dataclasses"] = sys.modules["inspect"] = None   # imports raise
from sirbif.cli import main
sys.exit(main())
"""

every_subcommand = pytest.mark.parametrize("argv", [
    ["atlas", "--grid", "20", "--samples", "20"],
    ["portraits", "--region", "all"],
    ["cycle", "--r0", "2.6", "--p", "0.48"],
    ["simulate", "--r0", "2.6", "--p", "0.9", "--S0", "0.05", "--I0", "0.5",
     "--t-end", "400"],
    ["het-table", "--shoot", "--r0-list", "2.6"],
    ["het-fit"],
    ["dz"],
    ["equilibria", "--r0", "2.6", "--p", "0.3"],
], ids=lambda argv: argv[0])


@every_subcommand
def test_subcommand_runs_without_numpy(tmp_path, argv):
    proc = run_child(_WITHOUT_NUMPY, *argv, "--jobs", "1",
                     "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr


@every_subcommand
def test_subcommand_runs_without_dataclasses(tmp_path, argv):
    # the records generate no code, so neither module is needed at start-up
    proc = run_child(_WITHOUT_DATACLASSES, *argv, "--jobs", "1",
                     "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr


_SIRBIF_MODULES = """
import sys
import sirbif.cli
code = 0
if sys.argv[1:]:
    code = sirbif.cli.main()
else:
    sirbif.cli.build_parser()
print(*sorted(name for name in sys.modules if name.startswith("sirbif")))
sys.exit(code)
"""

_START_UP = ["sirbif", "sirbif.cli"]
_LAYERS = {"sirbif.equilibria", "sirbif.atlas", "sirbif.integrate",
           "sirbif.connections", "sirbif.svgplot"}
# the module that builds and runs each subcommand, and what they share
_COMMAND_MODULE = {
    "equilibria": "sirbif.cli_points", "dz": "sirbif.cli_points",
    "atlas": "sirbif.cli_atlas",
    "portraits": "sirbif.cli_phase", "simulate": "sirbif.cli_phase",
    "cycle": "sirbif.cli_phase",
    "het-table": "sirbif.cli_het", "het-fit": "sirbif.cli_het",
}
_COMMAND_MODULES = {*_COMMAND_MODULE.values(), "sirbif.cli_common"}


def loaded_modules(*argv, code=0):
    """The ``sirbif`` modules a fresh child holds after running ``argv``
    (after only building the parser, without ``argv``)."""
    proc = run_child(_SIRBIF_MODULES, *argv)
    assert proc.returncode == code, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_start_up_loads_only_the_dispatcher():
    loaded = loaded_modules()
    assert loaded == _START_UP
    assert _COMMAND_MODULES.isdisjoint(loaded)


@pytest.mark.parametrize("argv, code, command", [
    (["--version"], 0, None),
    (["--help"], 0, None),
    (["atlas", "--nope"], 2, "atlas"),
    (["cycle", "--tol", "-1"], 2, "cycle"),
], ids=["version", "help", "unknown-flag", "bad-tol"])
def test_version_and_flag_errors_load_no_layer(argv, code, command):
    # a flag error needs the flags of the subcommand it names, nothing else
    loaded = loaded_modules(*argv, code=code)
    assert _LAYERS.isdisjoint(loaded)
    expected = set() if command is None else {_COMMAND_MODULE[command],
                                              "sirbif.cli_common"}
    assert _COMMAND_MODULES.intersection(loaded) == expected
    if command is not None:
        expected.add("sirbif.model")       # cli_common's parameter defaults
    assert sorted(set(loaded) - expected) == _START_UP


@pytest.mark.parametrize("argv, present, absent", [
    (["equilibria", "--r0", "2.6", "--p", "0.3"], {"sirbif.equilibria"},
     {"sirbif.integrate", "sirbif.svgplot"}),
    (["dz"], {"sirbif.atlas"}, {"sirbif.integrate", "sirbif.svgplot"}),
    (["atlas", "--grid", "3", "--samples", "3"], {"sirbif.svgplot"},
     {"sirbif.integrate", "sirbif.connections"}),
    (["portraits", "--region", "H", "--format", "json"],
     {"sirbif.atlas", "sirbif.integrate"}, {"sirbif.connections"}),
    (["simulate", "--r0", "2.6", "--p", "0.3", "--S0", "0.5", "--I0", "0.1"],
     {"sirbif.integrate"}, {"sirbif.atlas", "sirbif.connections"}),
    (["cycle", "--format", "json"], {"sirbif.connections"}, set()),
    (["het-table", "--shoot", "--r0-list", "2.6"], {"sirbif.integrate"},
     {"sirbif.svgplot"}),
    (["het-fit"], {"sirbif.atlas"},
     {"sirbif.integrate", "sirbif.connections", "sirbif.svgplot"}),
], ids=["equilibria", "dz", "atlas", "portraits", "simulate", "cycle",
        "het-table", "het-fit"])
def test_subcommand_loads_only_its_layers(tmp_path, argv, present, absent):
    loaded = loaded_modules(*argv, "--out", str(tmp_path))
    assert present <= set(loaded)
    assert absent.isdisjoint(loaded)
    assert _COMMAND_MODULES.intersection(loaded) == {
        _COMMAND_MODULE[argv[0]], "sirbif.cli_common"}


def test_module_run_never_imports_the_dispatcher_again(tmp_path):
    # under -m the dispatcher is __main__: a command module that imported
    # sirbif.cli would compile and run it a second time
    src = str(Path(sirbif.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sirbif.cli", "atlas",
         "--grid", "3", "--samples", "3", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "sirbif.atlas" in imported
    assert "sirbif.cli" not in imported


_HELP_LINES = {
    "equilibria": "list equilibria, eigenvalues, and stability classes",
    "atlas": "emit bifurcation curves, region grid, and SVG diagram",
    "portraits": "phase-portrait evidence packs for the open regions",
    "simulate": "integrate one trajectory and reconstruct the removed class",
    "het-table": "heteroclinic connection table (embedded or freshly shot)",
    "het-fit": "power-law fit p_het(r0) = a*r0^b + c",
    "cycle": "locate the unstable periodic orbit around the endemic focus",
    "dz": "double-zero certificate and curve concurrence",
}


def test_help_lists_every_subcommand(capsys):
    assert run(["--help"]) == 0
    words = " ".join(capsys.readouterr().out.split())
    for name, line in _HELP_LINES.items():
        assert f" {name} {line} " in words, name
    for name in _HELP_LINES:
        assert run([name, "--help"]) == 0, name
        out = capsys.readouterr().out
        assert out.startswith(f"usage: sirbif {name} [-h] [--config FILE]")
        assert "base parameters:" in out


_PACKAGE_NAMESPACE = """
import sys
if sys.argv[1] == "connections":
    import sirbif.connections
else:
    import sirbif.cli
    if sirbif.cli.main(sys.argv[2:]) != 0:
        sys.exit("the portrait failed")
import sirbif
if sirbif.integrate is not sys.modules["sirbif.integrate"].integrate:
    sys.exit(f"sirbif.integrate is {sirbif.integrate!r}")
star = {}
exec("from sirbif import *", star)
del star["__builtins__"]
if sorted(star) != sorted(sirbif.__all__):
    sys.exit(f"the star import bound {sorted(star)}")
"""


@pytest.mark.parametrize("first", ["connections", "portrait"])
def test_package_namespace_after_any_first_import(tmp_path, first):
    # a layer imported first binds the submodule onto the package; the
    # package still gives the function under the name ``integrate``
    proc = run_child(_PACKAGE_NAMESPACE, first, "portraits", "--region", "H",
                     "--format", "json", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# fuzzing the command line in process

#: values for the rate and base flags, the extremes that overflow included
_RATES = ("0.3", "2.0000001", "3", "1e300", "1e-12", "1e154", "1e-300",
          "0", "nan")
_LEVELS = ("0", "0.3", "0.9", "1", "1.5")
#: each subcommand with the flags that keep it quick: small grids, short
#: horizons, one shot row
_QUICK = {
    "equilibria": [],
    "dz": [],
    "atlas": ["--grid", "3", "--samples", "3"],
    "simulate": ["--t-end", "2"],
    "portraits": ["--horizon", "2", "--max-samples", "8"],
    "het-table": ["--shoot", "--r0-list", "2.6"],
    "het-fit": [],
    "cycle": [],
}
_POINT = ("equilibria", "simulate", "portraits", "cycle")


def _flag(name, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(
        lambda value: [f"--{name}={value}"]))


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_QUICK)))
    argv = [command, *_QUICK[command]]
    for name in ("A", "m", "mu", "d", "g"):
        argv += draw(_flag(name, _RATES))
    if command in _POINT:
        rate = draw(st.sampled_from(("beta", "r0")))
        argv += [f"--{rate}={draw(st.sampled_from(_RATES))}"]
        argv += draw(_flag("p", _LEVELS))
    if command == "simulate":
        argv += [f"--S0={draw(st.sampled_from(('0.3', '2', '1e-12')))}",
                 f"--I0={draw(st.sampled_from(('0', '0.05', '1e300')))}"]
    if command == "atlas":
        argv += draw(_flag("r0-max", _RATES))
    return argv + ["--format", "json"]


def _strict(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=150, database=None)
@given(_command_lines())
# (sigma+g)^2 overflows in E2's I while beta^2 (sigma+g) does not
@example(["equilibria", "--mu=1e300", "--beta=2.0000001", "--format", "json"])
def test_fuzzed_command_lines_exit_cleanly(tmp_path_factory, argv):
    # every run ends with 0, 2 or 3 and no traceback; a run that succeeds
    # writes strict JSON, and a refused one writes nothing
    out = tmp_path_factory.mktemp("fuzz")
    with time_cap(10.0):
        code = run([*argv, "--out", str(out)])
    assert code in (0, 2, 3), argv
    written = sorted(out.iterdir())
    if code == 0:
        assert written, argv
        for path in written:
            json.loads(path.read_text(), parse_constant=_strict)
    if code == 2:
        assert not written, argv
