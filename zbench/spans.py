"""Per-layer tracing from outside the program.

Tracer.install replaces public functions of the zline modules by timing
wrappers.  Each function object is replaced under every name that holds it
in any loaded zline module, so the aliases one module imports from another
(zline.scan.z_oracle, zline.quad.zeta_right, zline.scan.h_series_grid,
zline.cli.f_integral, ...) are traced as well.  Spans stay in memory until
the run ends; a layer's self time is its spans' time minus that of their
child spans.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


# (module, function, layer, counter) with counter(args, kwargs, result)
# returning {count name: amount}.  Functions a layer calls internally under
# the same layer name (z_oracle -> z_oracle_info, h_series -> h_r_series_info,
# zeta_right -> _zeta_em_core) count one call, at the outermost span.
HOOKS = (
    ("zline._angles", "reduce_mod_2pi", "angles.reduce",
     lambda a, k, r: {"elems": _size(a[0])}),
    ("zline.special", "zeta_right", "special.zeta", None),
    ("zline.special", "zeta_em", "special.zeta", None),
    ("zline.special", "_zeta_em_core", "special.zeta",
     lambda a, k, r: {"elems": _size(a[0]) * int(a[1])}),
    ("zline.special", "z_oracle", "special.oracle", None),
    ("zline.special", "z_oracle_info", "special.oracle", None),
    ("zline.phase", "h_exact", "phase.h_exact",
     lambda a, k, r: {"elems": _size(a[0])}),
    ("zline.quad", "f_on_line", "quad.f_on_line",
     lambda a, k, r: {"elems": _size(a[0])}),
    ("zline.quad", "f_integral", "quad.f_integral", None),
    ("zline.quad", "f_integral_grid", "quad.f_grid",
     lambda a, k, r: {"pts": _size(a[0])}),
    ("zline.series", "h_r_series_info", "series.h_r",
     lambda a, k, r: {"terms": int(r[1])}),
    ("zline.series", "h_r_series", "series.h_r", None),
    ("zline.series", "h_series", "series.h_r", None),
    ("zline.series", "h_series_info", "series.h_r", None),
    ("zline.series", "h_series_grid", "series.h_grid",
     lambda a, k, r: {"pts": _size(a[0])}),
    ("zline.scan", "_track_values", "scan.track",
     lambda a, k, r: {"pts": _size(a[0])}),
    ("zline.scan", "_arg_h_track", "scan.arg_h_track", None),
    ("zline.scan", "count_zeros", "scan.count_zeros", None),
    ("zline.scan", "xray_grid", "scan.xray",
     lambda a, k, r: {"pts": int(a[4]) * int(a[5])}),
    ("zline.cli", "main", "cli", None),
)

class Tracer:
    """Spans of the traced layers, kept in memory.

    A span is [layer, start, end, parent index, round, counts].
    """

    def __init__(self):
        self.spans: list = []
        self.round = -1
        self.retries: dict = {}
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, layer: str, fn, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [layer, clock(), 0.0, parent, self.round, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every hooked function under all of its names in zline."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "zline" or name.startswith("zline.")]
        for mod_name, attr, layer, counter in HOOKS:
            home = sys.modules.get(mod_name)
            fn = getattr(home, attr, None)
            if fn is None:
                continue  # the layer is gone; its metrics read 0
            wrapper = self._wrap(layer, fn, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patches):
            setattr(mod, name, fn)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.retries.clear()

    def round_metrics(self, rnd: int) -> dict:
        """Every per-layer metric for one round."""
        self_time: dict = {}
        calls: dict = {}
        counts: dict = {}
        child_layers: dict = {}
        for s in self.spans:
            if s[4] != rnd:
                continue
            layer = s[0]
            dur = s[2] - s[1]
            self_time[layer] = self_time.get(layer, 0.0) + dur
            parent = self.spans[s[3]] if s[3] >= 0 else None
            if parent is not None:
                self_time[parent[0]] = self_time.get(parent[0], 0.0) - dur
                key = (parent[0], layer)
                child_layers[key] = child_layers.get(key, 0) + 1
            if parent is None or parent[0] != layer:
                calls[layer] = calls.get(layer, 0) + 1
            for name, amount in (s[5] or {}).items():
                key = f"{layer}_{name}"
                counts[key] = counts.get(key, 0) + amount

        def st(layer):
            return max(self_time.get(layer, 0.0), 0.0)

        out = {
            "angles.reduce_calls": calls.get("angles.reduce", 0),
            "angles.reduce_elems": counts.get("angles.reduce_elems", 0),
            "angles.reduce_s": st("angles.reduce"),
            "special.zeta_calls": calls.get("special.zeta", 0),
            "special.zeta_elems": counts.get("special.zeta_elems", 0),
            "special.zeta_s": st("special.zeta"),
            "special.oracle_calls": calls.get("special.oracle", 0),
            "special.oracle_s": st("special.oracle"),
            "phase.h_exact_elems": counts.get("phase.h_exact_elems", 0),
            "phase.h_exact_s": st("phase.h_exact"),
            "quad.f_on_line_elems": counts.get("quad.f_on_line_elems", 0),
            "quad.f_on_line_s": st("quad.f_on_line"),
            "quad.f_integral_calls": calls.get("quad.f_integral", 0),
            "quad.f_integral_s": st("quad.f_integral"),
            "quad.f_grid_pts": counts.get("quad.f_grid_pts", 0),
            "quad.f_grid_s": st("quad.f_grid"),
            "series.h_r_calls": calls.get("series.h_r", 0),
            "series.h_r_terms": counts.get("series.h_r_terms", 0),
            "series.h_r_s": st("series.h_r"),
            "series.h_grid_pts": counts.get("series.h_grid_pts", 0),
            "series.h_grid_s": st("series.h_grid"),
            "scan.track_pts": counts.get("scan.track_pts", 0),
            # every h_series_grid call inside _arg_h_track after its first
            "scan.refine_rounds": (child_layers.get(("scan.arg_h_track", "series.h_grid"), 0)
                                   - calls.get("scan.arg_h_track", 0)),
            "scan.oracle_evals": child_layers.get(("scan.count_zeros", "special.oracle"), 0),
            "scan.count_zeros_s": st("scan.count_zeros"),
            "cli.scan_retries": self.retries.get(rnd, 0),
            "scan.xray_pts": counts.get("scan.xray_pts", 0),
            "scan.xray_s": st("scan.xray"),
            "cli.commands": calls.get("cli", 0),
            "cli.self_s": st("cli"),
        }
        return out

    def summary(self, rounds: list) -> dict:
        """The median per round of every metric, over the rounds given;
        names ending in _s are self times, the others counts."""
        per_round = [self.round_metrics(r) for r in rounds]
        out = {}
        for name in per_round[0]:
            value = statistics.median(m[name] for m in per_round)
            if name.endswith("_s"):
                out[name] = {"value": value, "unit": "s"}
            else:
                out[name] = {"value": int(value) if value == int(value) else value,
                             "unit": "count"}
        return out

    def write(self, path: Path) -> None:
        """Write the spans, one JSON list per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s, separators=(",", ":")) + "\n")
