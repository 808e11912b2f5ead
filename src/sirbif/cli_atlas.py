"""The ``atlas`` subcommand: the bifurcation curves, the region grid and
the atlas diagram over an (R0, p) window."""
from __future__ import annotations

import math
from itertools import groupby

from .cli_common import (
    check_beta,
    compact,
    config_for,
    csv_text,
    emit,
    new_subparser,
    resolve_base,
)
from .model import BaseParams

_CURVE_COLUMNS = ("sn", "t", "h", "bt1", "bt2", "het")


def add_parser(sub, name: str, help_line: str) -> None:
    ap = new_subparser(
        sub, name, help_line,
        "Sample the five bifurcation/transition curves and classify a "
        "(R0, p) grid. CSV schemas: atlas_curves.csv r0,p_sn,p_t,p_h,p_bt1,"
        "p_bt2,p_het (empty cell = outside domain); atlas_regions.csv "
        "r0,p,label.", integrates=False, point=False)
    ap.add_argument("--r0-min", type=float, default=1.0)
    ap.add_argument("--r0-max", type=float, default=4.0)
    ap.add_argument("--p-min", type=float, default=0.0)
    ap.add_argument("--p-max", type=float, default=1.0)
    ap.add_argument("--samples", type=int, default=400,
                    help="points per curve (default %(default)s)")
    ap.add_argument("--grid", type=int, default=200,
                    help="region grid resolution per axis (default %(default)s)")
    ap.set_defaults(func=cmd_atlas)


def _axis(lo: float, hi: float, n: int) -> list:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _region_label_anchors(base: BaseParams, het) -> list:
    """(label, r0, p) anchors for the open regions, computed from the curves
    so they stay inside their bands under any base."""
    from .atlas import p_bt2, p_h, p_sn, p_t

    def mid(lo, hi):
        return 0.5 * (lo + hi)

    return [
        ("A", 2.2, mid(p_sn(2.2, base), min(1.0, 1.12 * p_sn(2.2, base)))),
        ("B", 1.55, mid(p_t(1.55, base), p_sn(1.55, base))),
        ("C", 1.16, 0.45 * p_t(1.16, base)),
        ("D", 2.35, 0.5 * het(2.35)),
        ("E", 3.0, mid(het(3.0), p_h(3.0, base))),
        ("F", 2.8, mid(p_h(2.8, base), p_bt2(2.8, base))),
        ("G", 3.2, mid(p_bt2(3.2, base), p_t(3.2, base))),
        ("H", 3.0, mid(p_t(3.0, base), p_sn(3.0, base))),
    ]


def _atlas_svg(base: BaseParams, curves: dict, het, config: dict,
               window) -> Canvas:
    from .atlas import p_sn
    from .svgplot import PALETTE, Canvas

    r0_min, r0_max, p_min, p_max = window
    canvas = Canvas(720, 540, (r0_min, r0_max), (p_min, p_max),
                    title="(R0, p) bifurcation atlas", desc=compact(config))
    # no bt1: the second node-focus root is negative throughout the window
    names = {"sn": "saddle-node", "t": "transcritical", "h": "Hopf",
             "bt2": "node-focus", "het": "heteroclinic"}
    for key in names:
        dash = "6,3" if key in ("bt2", "het") else ""
        canvas.polyline(curves[key], PALETTE[key], width=1.8, dash=dash)
    dz_r0, dz_p = 2.0, p_sn(2.0, base)
    if r0_min <= dz_r0 <= r0_max and p_min <= dz_p <= p_max:
        canvas.marker(dz_r0, dz_p, "filled", PALETTE["axis"], size=5.0)
        canvas.text(dz_r0, dz_p, "DZ", dy=-9.0, bold=True)
    for label, r0a, pa in _region_label_anchors(base, het):
        if r0_min < r0a < r0_max and p_min < pa < p_max:
            canvas.text(r0a, pa, label, size=13, bold=True)
    ticks_r0 = [t for t in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
                if r0_min <= t <= r0_max]
    ticks_p = [t for t in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
               if p_min <= t <= p_max]
    canvas.axes("R0", "p", ticks_r0, ticks_p)
    canvas.legend([(name, PALETTE[k]) for k, name in names.items()])
    return canvas


def cmd_atlas(ns) -> int:
    from .atlas import (classify_column, curve_values_at, fit_reference_curve,
                        p_sn)

    base = resolve_base(ns)
    if not (0.0 < ns.r0_min < ns.r0_max < math.inf
            and 0.0 <= ns.p_min < ns.p_max <= 1.0):
        raise ValueError("atlas window must satisfy 0 < r0-min < r0-max "
                         "(finite) and 0 <= p-min < p-max <= 1")
    if ns.samples < 2 or ns.grid < 2:
        raise ValueError("--samples and --grid must be at least 2")
    ends = (("--r0-min", ns.r0_min), ("--r0-max", ns.r0_max))
    for flag, r0 in ends:
        check_beta(flag, r0, base)
    het = fit_reference_curve()
    config = config_for(ns, "atlas", {
        "base": base.to_dict(),
        "window": [ns.r0_min, ns.r0_max, ns.p_min, ns.p_max],
        "samples": ns.samples, "grid": ns.grid,
    })

    rows = [(r0, *map(curve_values_at(r0, base, het=het).get, _CURVE_COLUMNS))
            for r0 in _axis(ns.r0_min, ns.r0_max, ns.samples)]
    for (flag, r0), row in zip(ends, (rows[0], rows[-1])):
        bad = [name for name, value in zip(_CURVE_COLUMNS, row[1:])
               if value is not None and not math.isfinite(value)]
        if bad:
            raise ValueError(f"{flag} {r0!r} is out of range: the curve "
                             f"values {', '.join(bad)} there are not finite")

    def regions():
        # the rows csv.writer would write: a float as its repr, no cell
        # quoted; one join per run of equal labels, one chunk per column
        ps = _axis(ns.p_min, ns.p_max, ns.grid)
        p_txt = [repr(p) for p in ps]
        for r0 in _axis(ns.r0_min, ns.r0_max, ns.grid):
            head, j, runs = repr(r0) + ",", 0, []
            for label, run in groupby(classify_column(r0, ps, base, het=het)):
                k = j + len(list(run))
                tail = "," + label.value + "\n"
                runs.append(head + (tail + head).join(p_txt[j:k]) + tail)
                j = k
            yield "".join(runs)

    curves = {key: [[row[0], row[1 + idx]] for row in rows
                    if row[1 + idx] is not None]
              for idx, key in enumerate(_CURVE_COLUMNS)}
    emit(ns, config, [
        ("atlas_curves.csv", lambda: (("r0", "p_sn", "p_t", "p_h", "p_bt1",
                                       "p_bt2", "p_het"), csv_text(rows))),
        ("atlas_regions.csv", lambda: (("r0", "p", "label"), regions())),
        ("atlas.json", lambda: {"dz": {"r0": 2.0, "p": p_sn(2.0, base)},
                                "curves": curves}),
        ("atlas.svg", lambda: _atlas_svg(
            base, curves, het, config,
            (ns.r0_min, ns.r0_max, ns.p_min, ns.p_max))),
    ])
    return 0
