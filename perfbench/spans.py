"""Span recording around bhmirror's public entry points, from outside.

`install()` replaces each function listed in `LAYERS` by a timing wrapper
in every `bhmirror` module namespace that holds it, including the names
bound by `from ... import`.  Each thread keeps its own stack of open
spans, so a span's parent is the innermost open span of the same thread.
Spans stay in memory until `Recorder.dump` writes them out.

`summarize()` turns the span files of one or more processes into the
per-layer metrics: calls, self time (span time minus the time of its
child spans), and the exact counters that `_measures` attaches to spans.

This module only observes; the program's source is not changed.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

LAYERS = {
    "poly": ("parse_polynomial", "exponent_inverse", "restrict"),
    "symmetry": ("pairing", "aut_group", "enumerate_group",
                 "admissible_setup", "dual_group"),
    "milnor": ("equivariant_hilbert", "sector_algebra"),
    "statespace": ("build_state_space", "unprojected_state_space"),
    "mirror": ("build_mirror_pair", "verify_pair_duality", "verify_lg_mirror",
               "verify_krawitz", "verify_order2_exchange"),
    "geometry": ("sector_grid", "fit_k3_pattern"),
    # _check_case is the per-case span of `verify`; it gives the thread overlap.
    "cli": ("main", "cmd_verify", "_check_case"),
}


class Recorder:
    """Spans of one process: (id, parent id, name, t0, t1, attrs)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fixed_sets: dict[tuple, int] = {}
        self._lock = threading.Lock()

    def fixed_set_id(self, restricted) -> int:
        key = (restricted.parent.exponents, tuple(restricted.fixed_vars))
        with self._lock:
            return self._fixed_sets.setdefault(key, len(self._fixed_sets))

    def wrap(self, name: str, fn, measure):
        local = self._local
        ids = self._ids
        spans = self.spans

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attrs = measure(args, result) if measure and result is not None else None
                spans.append((sid, parent, name, t0, t1, attrs))

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))


def _measures(recorder: Recorder) -> dict:
    """Exact counters attached to a span, computed from arguments and result."""

    def hilbert(args, series):
        terms = sum(len(keys) for keys in series.coefficients.values())
        return [terms, recorder.fixed_set_id(args[0])]

    return {
        "symmetry.enumerate_group": lambda args, group: group.order,
        "milnor.equivariant_hilbert": hilbert,
        "statespace.build_state_space":
            lambda args, table: [len(table.entries), len(table.setup.labels)],
        "mirror.verify_pair_duality": lambda args, rep: rep.cells_checked,
        "mirror.verify_lg_mirror": lambda args, rep: rep.cells_checked,
        "mirror.verify_krawitz": lambda args, rep: rep.cells_checked,
        "mirror.verify_order2_exchange": lambda args, rep: rep.cells_checked,
    }


def install() -> Recorder:
    """Import every bhmirror module and wrap the functions in LAYERS."""
    import bhmirror.cli  # noqa: F401  (imports every other module)

    recorder = Recorder()
    measures = _measures(recorder)
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "bhmirror" or n.startswith("bhmirror."))]
    for short, names in LAYERS.items():
        home = sys.modules[f"bhmirror.{short}"]
        for fname in names:
            original = getattr(home, fname)
            span = f"{short}.{fname}"
            traced = recorder.wrap(span, original, measures.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
    return recorder


# ---------------------------------------------------------------------------
# aggregation (runs in run.py, the parent process)
# ---------------------------------------------------------------------------

def layer_metric_names() -> list[str]:
    """Every per-layer metric `summarize` reports, in a fixed order."""
    names = []
    for short, fnames in LAYERS.items():
        for fname in fnames:
            # cmd_verify waits on its pool threads, whose spans are not its
            # children, so it is reported as thread overlap only.
            if fname in ("cmd_verify", "_check_case"):
                continue
            names += [f"{short}.{fname}.calls", f"{short}.{fname}.self_s"]
    names += [
        "symmetry.enumerate_group.elements",
        "milnor.equivariant_hilbert.series_terms",
        "milnor.equivariant_hilbert.distinct_fixed_sets",
        "milnor.equivariant_hilbert.useful_ratio",
        "statespace.build_state_space.entries",
        "statespace.build_state_space.sectors",
        "mirror.verify_pair_duality.cells",
        "mirror.verify_lg_mirror.cells",
        "mirror.verify_krawitz.cells",
        "mirror.verify_order2_exchange.cells",
        "cli.cmd_verify.thread_overlap",
    ]
    return names


def summarize(span_sets: list[list]) -> dict[str, float]:
    """Per-layer metrics summed over the span sets of several processes.

    Self time subtracts the durations of child spans.  Children are always
    on their parent's thread, so they never overlap one another.
    """
    out = dict.fromkeys(layer_metric_names(), 0)
    case_s = verify_s = 0.0
    for spans in span_sets:
        child_s: dict[int, float] = {}
        for _, parent, _, t0, t1, _ in spans:
            if parent:
                child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
        fixed_sets = set()
        for sid, _, name, t0, t1, attrs in spans:
            if name == "cli._check_case":
                case_s += t1 - t0
                continue
            if name == "cli.cmd_verify":
                verify_s += t1 - t0
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - child_s.get(sid, 0.0)
            if attrs is None:
                continue
            if name == "symmetry.enumerate_group":
                out["symmetry.enumerate_group.elements"] += attrs
            elif name == "milnor.equivariant_hilbert":
                out["milnor.equivariant_hilbert.series_terms"] += attrs[0]
                fixed_sets.add(attrs[1])
            elif name == "statespace.build_state_space":
                out["statespace.build_state_space.entries"] += attrs[0]
                out["statespace.build_state_space.sectors"] += attrs[1]
            elif name.startswith("mirror.verify_"):
                out[f"{name}.cells"] += attrs
        out["milnor.equivariant_hilbert.distinct_fixed_sets"] += len(fixed_sets)
    calls = out["milnor.equivariant_hilbert.calls"]
    if calls:
        out["milnor.equivariant_hilbert.useful_ratio"] = (
            out["milnor.equivariant_hilbert.distinct_fixed_sets"] / calls)
    if verify_s:
        out["cli.cmd_verify.thread_overlap"] = case_s / verify_s
    return out
