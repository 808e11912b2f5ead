"""Traced run of the sirbif CLI: spans around every public function.

Run as a script, this is the traced child.  It imports ``sirbif`` from the
checkout, wraps the public functions of each module (and the public
``Canvas`` methods) at every attribute a caller looks them up through, runs
one CLI command in-process with ``sirbif.cli.main``, writes the spans once,
at the end, and exits with the command's exit code:

    python3 bench/tracer.py SPANS_DIR atlas --out DIR

Each span holds its name, start, end and parent.  Counts come only from
public return values (``Trajectory.stats``, crossings named ``"wall"``,
``HetResult.iterations``, ``HetRow.error``, ``OmegaLimitResult.outcome``,
region labels, the rendered SVG) and are stored as span attributes.

Imported, it offers ``layer_metrics``, which turns the spans of one or more
traced children into the per-layer metrics the benchmark reports.
"""
from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import math
import re
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("model", "equilibria", "atlas", "integrate", "connections",
          "svgplot", "cli")
_COLUMNS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))
_POLYLINE = re.compile(r'<polyline points="([^"]*)"')


# ----------------------------------------------------------------------
# child side: wrapping and span recording


def _extract_integrate(traj):
    stats = traj.stats
    walls = sum(1 for c in traj.crossings if c.name == "wall")
    return [stats.steps_accepted, stats.steps_rejected, stats.field_evals, walls]


def _extract_table(rows):
    return [[row.r0, row.p_het, row.error] for row in rows]


def _extract_render(svg):
    return sum(len(m.split()) for m in _POLYLINE.findall(svg))


# span name -> extractor of the counts carried by the public return value
_EXTRACT = {
    "integrate.integrate": _extract_integrate,
    "integrate.omega_limit_estimate": lambda res: res.outcome,
    "connections.find_het_p": lambda res: res.iterations,
    "connections.build_het_table": _extract_table,
    "atlas.classify_region": lambda label: label.value,
    "svgplot.Canvas.render": _extract_render,
}


class Recorder:
    """Spans kept in memory as flat columns, written once by ``dump``."""

    def __init__(self):
        self.names: list = []
        self.cols = {key: array.array(code) for key, code in _COLUMNS}
        self.attrs: dict = {}
        self.stack: list = []

    def wrap(self, span: str, fn):
        name_id = len(self.names)
        self.names.append(span)
        extract = _EXTRACT.get(span)
        cols, stack, attrs = self.cols, self.stack, self.attrs
        c_name, c_parent = cols["name"], cols["parent"]
        c_start, c_end = cols["start"], cols["end"]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(c_name)
            c_name.append(name_id)
            c_parent.append(stack[-1] if stack else -1)
            c_end.append(0.0)
            stack.append(sid)
            c_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs[sid] = ["raised", type(exc).__name__]
                raise
            finally:
                c_end[sid] = clock()
                stack.pop()
            if extract is not None:
                attrs[sid] = extract(result)
            return result

        return traced

    def dump(self, directory: Path, extra: dict) -> None:
        for key, _ in _COLUMNS:
            with (directory / f"{key}.bin").open("wb") as handle:
                self.cols[key].tofile(handle)
        doc = dict(extra, names=self.names,
                   attrs={str(k): v for k, v in self.attrs.items()})
        (directory / "spans.json").write_text(json.dumps(doc))


def install(recorder: Recorder) -> int:
    """Wrap every public function of each layer module, and the public
    ``Canvas`` methods, wherever sirbif's namespaces refer to them."""
    package = importlib.import_module("sirbif")
    modules = {layer: importlib.import_module(f"sirbif.{layer}")
               for layer in LAYERS}
    namespaces = [package, *modules.values()]
    wrapped = 0
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            new = recorder.wrap(f"{layer}.{attr}", obj)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, new)
            wrapped += 1
    canvas = modules["svgplot"].Canvas
    for attr, obj in list(vars(canvas).items()):
        if not attr.startswith("_") and inspect.isfunction(obj):
            setattr(canvas, attr, recorder.wrap(f"svgplot.Canvas.{attr}", obj))
            wrapped += 1
    return wrapped


def _child(spans_dir: str, argv: list) -> int:
    recorder = Recorder()
    wrapped = install(recorder)
    cli = importlib.import_module("sirbif.cli")
    code = cli.main(argv)
    recorder.dump(Path(spans_dir), {"wrapped": wrapped})
    return code


# ----------------------------------------------------------------------
# parent side: per-layer metrics from the written spans


def _load(spans_dirs: list) -> dict:
    """Concatenate the spans of several traced children into one set of
    columns, with parent indices and name ids rebased."""
    name_ids: dict = {}
    merged = {"name": [], "parent": [], "start": [], "end": [], "attrs": {},
              "wrapped": 0}
    for spans_dir in spans_dirs:
        doc = json.loads((spans_dir / "spans.json").read_text())
        cols = {}
        for key, code in _COLUMNS:
            cols[key] = array.array(code, (spans_dir / f"{key}.bin").read_bytes())
        offset = len(merged["name"])
        remap = [name_ids.setdefault(nm, len(name_ids)) for nm in doc["names"]]
        merged["name"].extend(remap[i] for i in cols["name"])
        merged["parent"].extend(p + offset if p >= 0 else -1
                                for p in cols["parent"])
        merged["start"].extend(cols["start"])
        merged["end"].extend(cols["end"])
        merged["attrs"].update((int(k) + offset, v)
                               for k, v in doc["attrs"].items())
        merged["wrapped"] = doc["wrapped"]
    merged["names"] = list(name_ids)
    return merged


def tail(samples: list) -> dict:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = {"value": 0.0, "percentile": None, "n": n}
    for pct in (90.0, 99.0, 99.9):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            best = {"value": ordered[rank - 1], "percentile": pct, "n": n}
    return best


def _median(samples: list) -> float:
    return statistics.median(samples) if samples else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans_dirs: list, het_reference) -> tuple:
    """(metrics, details): per-layer values keyed by metric name, and the
    tail percentiles and sample counts behind them.

    ``het_reference`` maps r0 to the bundled table's p_het (interpolated),
    the base of ``connections.table_rel_dev_max``.
    """
    spans_all = _load(spans_dirs)
    names, attrs = spans_all["names"], spans_all["attrs"]
    name_col, parent_col = spans_all["name"], spans_all["parent"]
    start_col, end_col = spans_all["start"], spans_all["end"]
    n = len(name_col)

    layer_of = [nm.split(".", 1)[0] for nm in names]
    dur = [end_col[i] - start_col[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent_col[i] >= 0:
            child[parent_col[i]] += dur[i]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name: dict = {}
    for i in range(n):
        layer = layer_of[name_col[i]]
        self_s[layer] += dur[i] - child[i]
        calls[layer] += 1
        by_name.setdefault(names[name_col[i]], []).append(i)

    def spans(name):
        return by_name.get(name, [])

    def under(i, ancestor_name) -> bool:
        p = parent_col[i]
        while p >= 0:
            if names[name_col[p]] == ancestor_name:
                return True
            p = parent_col[p]
        return False

    classify = spans("atlas.classify_region")
    classify_us = [dur[i] * 1e6 for i in classify]
    boundary = sum(1 for i in classify
                   if attrs.get(i) == "boundary" or isinstance(attrs.get(i), list))

    integ = spans("integrate.integrate")
    stats = [attrs[i] for i in integ if isinstance(attrs.get(i), list)
             and len(attrs[i]) == 4]
    accepted = sum(s[0] for s in stats)
    rejected = sum(s[1] for s in stats)
    integ_ms = [dur[i] * 1e3 for i in integ]

    omega = spans("integrate.omega_limit_estimate")
    undecided = sum(1 for i in omega if attrs.get(i) == "undecided")

    rows = [row for i in spans("connections.build_het_table")
            if isinstance(attrs.get(i), list) and attrs[i][:1] != ["raised"]
            for row in attrs[i]]
    devs = [abs(p - het_reference(r0)) / het_reference(r0)
            for r0, p, error in rows if not error]
    het_rows = spans("connections.find_het_p")
    orbit = spans("connections.find_periodic_orbit")

    t_integ = tail(integ_ms)
    t_classify = tail(classify_us)
    metrics = {
        "model.params_calls": len(spans("model.reduced_to_params")),
        "model.self_s": self_s["model"],
        "equilibria.calls": calls["equilibria"],
        "equilibria.self_s": self_s["equilibria"],
        "equilibria.us_per_call": _ratio(self_s["equilibria"] * 1e6,
                                         calls["equilibria"]),
        "atlas.classify_calls": len(classify),
        "atlas.classify_us_p50": _median(classify_us),
        "atlas.classify_us_tail": t_classify["value"],
        "atlas.boundary_ratio": _ratio(boundary, len(classify)),
        "atlas.self_s": self_s["atlas"],
        "integrate.calls": len(integ),
        "integrate.steps_accepted": accepted,
        "integrate.steps_rejected": rejected,
        "integrate.reject_ratio": _ratio(rejected, accepted + rejected),
        "integrate.field_evals": sum(s[2] for s in stats),
        "integrate.us_per_step": _ratio(sum(integ_ms) * 1e3,
                                        accepted + rejected),
        "integrate.call_ms_p50": _median(integ_ms),
        "integrate.call_ms_tail": t_integ["value"],
        "integrate.self_s": self_s["integrate"],
        "integrate.wall_handoffs": sum(s[3] for s in stats),
        "integrate.omega_calls": len(omega),
        "integrate.omega_undecided_ratio": _ratio(undecided, len(omega)),
        "connections.splitting_calls": len(spans("connections.splitting")),
        "connections.splitting_per_row": _ratio(
            len(spans("connections.splitting")), len(rows)),
        "connections.bisect_iterations": sum(
            attrs[i] for i in het_rows if isinstance(attrs.get(i), int)),
        "connections.row_s_p50": _median([dur[i] for i in het_rows]),
        "connections.rows_failed": sum(1 for _, _, error in rows if error),
        "connections.self_s": self_s["connections"],
        "connections.return_map_integrations": sum(
            1 for i in integ if under(i, "connections.find_periodic_orbit")),
        "connections.orbit_s": sum(dur[i] for i in orbit),
        "connections.table_rel_dev_max": max(devs, default=0.0),
        "svgplot.self_s": self_s["svgplot"],
        "svgplot.points_drawn": sum(attrs[i] for i in
                                    spans("svgplot.Canvas.render")
                                    if isinstance(attrs.get(i), int)),
        "cli.self_s": self_s["cli"],
    }
    details = {
        "atlas.classify_us_tail": t_classify,
        "integrate.call_ms_tail": t_integ,
        "spans": n,
        "wrapped_functions": spans_all["wrapped"],
    }
    return metrics, details


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
