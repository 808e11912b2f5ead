"""Workloads of the sirbif benchmark: the CLI commands a seed generates and
the checks their outputs must pass.

Seed 0 gives the canonical command of each workload, and its outputs are
compared with reference outputs captured from the program
(``reference/seed0.json``, written by ``capture_reference.py``).  Any other
seed jitters the inputs inside the same parameter regions, and its outputs
are checked by properties that need no reference file.

An *operation* is one unit of checked output: a grid label or a curve row
(atlas), a table row (het), a fan verdict or a cycle (portraits).  A command
that exits non-zero, or leaves an expected file missing or unreadable, fails
every operation it owed.

The band placement below uses the model's closed-form curves and the
bundled connection table, copied here, so that the generated inputs never
change when the program does.
"""
from __future__ import annotations

import csv
import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "seed0.json"

# reference base: A=1.1, m=0.35, mu=d=0.175, g=0.35 (sigma + g = 0.7)
BASE_A, BASE_M, BASE_REMOVAL = 1.1, 0.35, 0.7

# bundled connection table (r0, p_het) of the reference base
HET_TABLE = (
    (2.0725, 0.793486), (2.2000, 0.686625), (2.2698, 0.636156),
    (2.4237, 0.541135), (2.6000, 0.453994), (2.6981, 0.413374),
    (2.8039, 0.374719), (2.9184, 0.338027), (3.0426, 0.303294),
    (3.1778, 0.270517), (3.3256, 0.239692), (3.4878, 0.210816),
    (3.6667, 0.183883),
)

ATLAS_WINDOW = (1.0, 4.0, 0.0, 1.0)
ATLAS_GRID = 200
ATLAS_SAMPLES = 400
ATLAS_LABELS = ("A", "B", "C", "D", "E", "F", "G", "H", "boundary")
CURVE_TOL = 1e-12          # relative, per curve cell
BOUNDARY_TOL = 1e-6        # p-distance the program treats as on a curve

HET_SPAN = (2.07, 3.67)
HET_P_TOL = 2e-6           # 2 * tol_p of the bisection
HET_RESIDUAL_MAX = 1e-6

PORTRAIT_REGIONS = ("A", "B", "C", "D", "E", "F", "G", "H", "het")
CYCLE_TOL = 1e-3           # absolute, period and Floquet multiplier


# ----------------------------------------------------------------------
# closed-form curves (benchmark's own copy, for input placement and checks)


def p_sn(A=BASE_A, m=BASE_M) -> float:
    return A * A / (4.0 * m)


def p_t(r0, A=BASE_A, m=BASE_M) -> float:
    return (A * A / m) * (r0 - 1.0) / (r0 * r0)


def p_h(r0, A=BASE_A, m=BASE_M) -> float:
    return A * A / (m * r0 * r0)


def p_bt2(r0, A=BASE_A, m=BASE_M, removal=BASE_REMOVAL) -> float:
    b = r0 * removal / A
    return (-2.0 * b + 1.0 + 2.0 * math.sqrt(b * (r0 + b - 2.0))) * A * A / (m * r0 * r0)


def het_table_p(r0: float) -> float:
    """Linear interpolation of the bundled connection table."""
    xs = [r for r, _ in HET_TABLE]
    k = min(max(bisect_left(xs, r0), 1), len(xs) - 1)
    (x0, y0), (x1, y1) = HET_TABLE[k - 1], HET_TABLE[k]
    return y0 + (y1 - y0) * (r0 - x0) / (x1 - x0)


def _num(value: float, digits: int = 6) -> str:
    return repr(round(value, digits))


# ----------------------------------------------------------------------
# shared plumbing


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``sirbif <argv> --jobs 1 --out <outdir>/<out>``."""
    argv: tuple
    out: str
    ops: int                   # operations this command's output carries
    band: str = ""             # portrait band a custom point was placed in


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(what)

    def lost(self, n: int, why: str) -> None:
        self.attempted += n
        self.failed += n
        if len(self.notes) < 8:
            self.notes.append(why)


def data_rows(path: Path) -> list:
    with path.open(newline="") as handle:
        rows = [row for row in csv.reader(handle)
                if row and not row[0].startswith("#")]
    return rows[1:]


def float_or_none(cell: str):
    return float(cell) if cell != "" else None


def _close(a, b, rel: float) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


# ----------------------------------------------------------------------
# atlas-grid


def atlas_window(seed: int) -> tuple:
    if seed == 0:
        return ATLAS_WINDOW
    rng = random.Random(seed)
    r0_min, r0_max, p_min, p_max = ATLAS_WINDOW
    dr = 0.05 * (r0_max - r0_min)
    dp = 0.05 * (p_max - p_min)
    return (round(r0_min + rng.uniform(-dr, dr), 6),
            round(r0_max + rng.uniform(-dr, dr), 6),
            round(p_min + rng.uniform(0.0, dp), 6),
            round(p_max - rng.uniform(0.0, dp), 6))


def atlas_commands(seed: int) -> list:
    ops = ATLAS_GRID * ATLAS_GRID + ATLAS_SAMPLES
    if seed == 0:
        return [Command(("atlas",), "atlas", ops)]
    r0_min, r0_max, p_min, p_max = atlas_window(seed)
    argv = ("atlas", "--r0-min", _num(r0_min), "--r0-max", _num(r0_max),
            "--p-min", _num(p_min), "--p-max", _num(p_max))
    return [Command(argv, "atlas", ops)]


def _axis(lo: float, hi: float, n: int, i: int) -> float:
    return lo + (hi - lo) * i / (n - 1)


def check_atlas(seed: int, commands: list, outdir: Path, exits: list,
                reference: dict | None) -> Tally:
    tally = Tally()
    cmd, code = commands[0], exits[0]
    base = outdir / cmd.out
    try:
        if code != 0:
            raise ValueError(f"exit {code}")
        regions = data_rows(base / "atlas_regions.csv")
        curves = data_rows(base / "atlas_curves.csv")
        for name in ("atlas.json", "atlas.svg"):
            if (base / name).stat().st_size == 0:
                raise ValueError(f"{name} is empty")
    except (OSError, ValueError) as exc:
        tally.lost(cmd.ops, f"atlas: {exc}")
        return tally

    r0_min, r0_max, p_min, p_max = atlas_window(seed)
    n = ATLAS_GRID
    want_labels = None
    if seed == 0:
        codes = reference["atlas"]["labels"]
        want_labels = ["boundary" if ch == "x" else ch for ch in codes]
    psn = p_sn()
    for k in range(n * n):
        i, j = divmod(k, n)
        if k >= len(regions):
            tally.op(False, f"atlas: grid row {k} missing")
            continue
        row = regions[k]
        try:
            r0, p, label = float(row[0]), float(row[1]), row[2]
        except (IndexError, ValueError):
            tally.op(False, f"atlas: grid row {k} unreadable")
            continue
        ok = (_close(r0, _axis(r0_min, r0_max, n, i), CURVE_TOL)
              and _close(p, _axis(p_min, p_max, n, j), CURVE_TOL))
        if want_labels is not None:
            ok = ok and label == want_labels[k]
        else:
            # A is exactly the side of the constant saddle-node line
            ok = ok and label in ATLAS_LABELS and (
                label == "boundary" or abs(p - psn) <= BOUNDARY_TOL
                or (label == "A") == (p > psn))
        tally.op(ok, f"atlas: grid row {k} = {row}")
    if len(regions) != n * n:
        tally.op(False, f"atlas: {len(regions)} grid rows, expected {n * n}")

    want_curves = reference["atlas"]["curves"] if seed == 0 else None
    for k in range(ATLAS_SAMPLES):
        if k >= len(curves):
            tally.op(False, f"atlas: curve row {k} missing")
            continue
        try:
            cells = [float_or_none(c) for c in curves[k]]
        except ValueError:
            tally.op(False, f"atlas: curve row {k} unreadable")
            continue
        if want_curves is not None:
            want = want_curves[k]
            ok = len(cells) == len(want) and all(
                _close(a, b, CURVE_TOL) for a, b in zip(cells, want))
        else:
            ok = (len(cells) == 7
                  and _close(cells[0], _axis(r0_min, r0_max, ATLAS_SAMPLES, k),
                             CURVE_TOL)
                  and _close(cells[1], psn, CURVE_TOL)
                  and all(c is None or math.isfinite(c) for c in cells))
        tally.op(ok, f"atlas: curve row {k} = {curves[k]}")
    return tally


# ----------------------------------------------------------------------
# het-locus


def het_abscissae(seed: int) -> tuple:
    if seed == 0:
        return tuple(r for r, _ in HET_TABLE)
    rng = random.Random(seed)
    lo, hi = HET_SPAN
    width = (hi - lo) / len(HET_TABLE)
    # one draw per stratum keeps the rows spread over the whole span
    return tuple(round(lo + width * (k + rng.random()), 4)
                 for k in range(len(HET_TABLE)))


def het_commands(seed: int) -> list:
    r0s = het_abscissae(seed)
    argv = ("het-table", "--shoot")
    if seed != 0:
        argv += ("--r0-list", ",".join(repr(r) for r in r0s))
    return [Command(argv, "het", len(r0s))]


def check_het(seed: int, commands: list, outdir: Path, exits: list,
              reference: dict | None) -> Tally:
    tally = Tally()
    cmd, code = commands[0], exits[0]
    try:
        if code != 0:
            raise ValueError(f"exit {code}")
        rows = json.loads((outdir / cmd.out / "het_table.json").read_text())["rows"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.lost(cmd.ops, f"het: {exc}")
        return tally

    r0s = het_abscissae(seed)
    want = dict(reference["het"]) if seed == 0 else None
    for k, r0 in enumerate(r0s):
        row = rows[k] if k < len(rows) else None
        ok = (isinstance(row, dict) and row.get("r0") == r0
              and not row.get("error") and row.get("p_het") is not None
              and row.get("splitting_residual") is not None
              and row["splitting_residual"] <= HET_RESIDUAL_MAX)
        if ok:
            p = row["p_het"]
            if want is not None:
                ok = abs(p - want[repr(r0)]) <= HET_P_TOL
            else:
                ok = 0.0 < p < p_t(r0)
        tally.op(ok, f"het: row {k} (r0 = {r0}) = {row}")
    if len(rows) != len(r0s):
        tally.op(False, f"het: {len(rows)} rows, expected {len(r0s)}")
    return tally


# ----------------------------------------------------------------------
# portrait-fans

# seeds per fan: 12 on the boundary, plus 8 around E2 when it is interior
_FAN_WITH_RING, _FAN_BOUNDARY_ONLY = 20, 12
_B_BASE = ("--A", "1.0", "--m", "0.35", "--mu", "0.25", "--d", "0.25",
           "--g", "0.5")
_B_BETA, _C_BETA = 1.3, 0.91


def portrait_points(seed: int) -> list:
    """(band, argv tail) for one custom point per builtin band, seed != 0.

    Reference-base bands sit on r0 in [2.5, 2.7] around the builtin 2.6;
    B and C keep the builtin packs' transmission rates.  Each point lies in
    the middle 30 % of its band, well clear of both bounding curves.
    """
    rng = random.Random(seed)

    def inside(lo: float, hi: float) -> float:
        return lo + rng.uniform(0.35, 0.65) * (hi - lo)

    points = []
    for band in PORTRAIT_REGIONS:
        r0 = round(rng.uniform(2.5, 2.7), 4)
        het = het_table_p(r0)
        if band == "B":
            r0b = 1.0 * _B_BETA / (0.25 + 0.25 + 0.5)
            p = inside(p_t(r0b, 1.0, 0.35), p_sn(1.0, 0.35))
            points.append((band, _B_BASE + ("--beta", repr(_B_BETA),
                                            "--p", _num(p))))
            continue
        if band == "C":
            r0c = BASE_A * _C_BETA / BASE_REMOVAL
            p = inside(p_bt2(r0c), p_t(r0c))
            points.append((band, ("--beta", repr(_C_BETA), "--p", _num(p))))
            continue
        p = {
            "A": lambda: inside(p_sn(), 1.0),
            "D": lambda: inside(0.0, het),
            "E": lambda: inside(het, p_h(r0)),
            "F": lambda: inside(p_h(r0), p_bt2(r0)),
            "G": lambda: inside(p_bt2(r0), p_t(r0)),
            "H": lambda: inside(p_t(r0), p_sn()),
            "het": lambda: het,
        }[band]()
        points.append((band, ("--r0", repr(r0), "--p", _num(p))))
    return points


def cycle_point(seed: int) -> tuple:
    rng = random.Random(seed ^ 0x5EED)
    r0 = round(rng.uniform(2.5, 2.7), 4)
    het = het_table_p(r0)
    p = het + rng.uniform(0.35, 0.65) * (p_h(r0) - het)
    return r0, round(p, 6)


def portrait_commands(seed: int) -> list:
    if seed == 0:
        ops = _FAN_WITH_RING * len(PORTRAIT_REGIONS) + 1
        return [Command(("portraits", "--region", "all"), "portraits", ops)]
    commands = []
    for band, tail in portrait_points(seed):
        ops = (_FAN_BOUNDARY_ONLY if band in ("A", "B", "H")
               else _FAN_WITH_RING) + (band == "E")
        commands.append(Command(("portraits",) + tail, f"portrait-{band}",
                                ops, band))
    r0, p = cycle_point(seed)
    commands.append(Command(("cycle", "--r0", repr(r0), "--p", repr(p)),
                            "cycle", 1))
    return commands


def _portrait_doc(base: Path, region: str | None = None) -> dict:
    if region is None:
        found = sorted(base.glob("portrait_*.json"))
        if len(found) != 1:
            raise ValueError(f"{len(found)} portrait JSON files in {base.name}")
        return json.loads(found[0].read_text())
    return json.loads((base / f"portrait_{region}.json").read_text())


def _check_canonical_portraits(base: Path, reference: dict,
                               tally: Tally) -> None:
    want = reference["portraits"]
    for region in PORTRAIT_REGIONS:
        try:
            doc = _portrait_doc(base, region)
            got = [entry["outcome"] for entry in doc["fan"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            tally.lost(len(want["verdicts"][region]), f"portraits {region}: {exc}")
            continue
        for k, outcome in enumerate(want["verdicts"][region]):
            ok = k < len(got) and got[k] == outcome
            tally.op(ok, f"portraits {region}: verdict {k} "
                         f"{got[k] if k < len(got) else None} != {outcome}")
        if len(got) != len(want["verdicts"][region]):
            tally.op(False, f"portraits {region}: {len(got)} verdicts")
        if region == "E":
            cyc = doc.get("cycle") or {}
            ok = all(isinstance(cyc.get(key), (int, float))
                     and abs(cyc[key] - want["cycle"][key]) <= CYCLE_TOL
                     for key in ("period", "floquet"))
            tally.op(ok, f"portraits E: cycle {cyc} vs {want['cycle']}")


def _check_custom_portrait(cmd, base: Path, tally: Tally) -> None:
    band = cmd.band
    try:
        doc = _portrait_doc(base)
        outcomes = [entry["outcome"] for entry in doc["fan"]]
        region = doc["region"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.lost(cmd.ops, f"portrait {band}: {exc}")
        return
    # the connection band sits on the D/E divide
    in_band = region in (("D", "E", "boundary") if band == "het" else (band,))
    n_fan = cmd.ops - (band == "E")
    for k in range(n_fan):
        got = outcomes[k] if k < len(outcomes) else None
        ok = in_band and got is not None and got != "undecided"
        tally.op(ok, f"portrait {band} (labelled {region}): verdict {k} = {got}")
    if len(outcomes) != n_fan:
        tally.op(False, f"portrait {band}: {len(outcomes)} verdicts, "
                        f"expected {n_fan}")
    if band == "E":
        cyc = doc.get("cycle") or {}
        floquet = cyc.get("floquet")
        tally.op(isinstance(floquet, (int, float)) and floquet > 1.0,
                 f"portrait E: cycle {cyc}")


def check_portraits(seed: int, commands: list, outdir: Path, exits: list,
                    reference: dict | None) -> Tally:
    tally = Tally()
    for cmd, code in zip(commands, exits):
        base = outdir / cmd.out
        if code != 0:
            tally.lost(cmd.ops, f"{' '.join(cmd.argv)}: exit {code}")
        elif seed == 0:
            _check_canonical_portraits(base, reference, tally)
        elif cmd.argv[0] == "cycle":
            try:
                floquet = json.loads((base / "cycle.json").read_text())["floquet"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                tally.lost(1, f"cycle: {exc}")
                continue
            tally.op(isinstance(floquet, (int, float)) and floquet > 1.0,
                     f"cycle: Floquet {floquet}")
        else:
            _check_custom_portrait(cmd, base, tally)
    return tally


# ----------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""
    commands: Callable
    check: Callable


WORKLOADS = {
    "atlas-grid": Workload(atlas_commands, check_atlas),
    "het-locus": Workload(het_commands, check_het),
    "portrait-fans": Workload(portrait_commands, check_portraits),
}
