"""Per-layer tracing, installed from outside the program.

`Tracer.install` replaces, in each `wep4` module, the names that module looks
up in another layer (for example `wep4.mesh.surface_jet` or
`wep4.cli.sample_grid`), the `verify.check_*` suites, `fixtures.fixture_eval`
and the method `LaurentPoly.__call__` with wrappers that time each call and
count its work.  `Tracer.uninstall` puts the
originals back, so traced and untraced passes alternate in one process.

A span's self time is its duration minus the durations of the wrapped calls
inside it.  Calls made once per vertex or per point (marked hot) add to the
totals but are not kept as single spans; every other span is kept in memory
and written out by `write` when the run ends.  Self times include the
bookkeeping of the wrapped calls beneath them; the run reports the whole
cost of tracing as `trace.overhead_pct`.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from time import perf_counter

import numpy as np

from checks import SUITES

BUILD = ("family_triple", "family_phi", "family_curve")
FRAMES = ("normal_frame", "frame_scalars", "closed_form_normals", "perp_vectors")

# metric name -> unit; "/op" metrics are per operation of the traced passes
LAYER_METRICS = {
    "import.numpy_s": "s",
    "import.wep4_s": "s",
    "cli.self_s": "s/op",
    "henneberg.build_calls": "count/op",
    "henneberg.build_s": "s/op",
    "laurent.scalar_evals": "count/op",
    "laurent.array_evals": "count/op",
    "laurent.array_points": "count/op",
    "laurent.eval_s": "s/op",
    "weierstrass.conformal_factor_calls": "count/op",
    "weierstrass.energy_points": "count/op",
    "geometry.surface_jet_calls": "count/op",
    "geometry.surface_jet_s": "s/op",
    "geometry.curvature_points": "count/op",
    "geometry.curvature_s": "s/op",
    "geometry.frame_s": "s/op",
    "mesh.sample_grid_self_s": "s/op",
    "mesh.vertices": "count/op",
    "mesh.flagged_vertices": "count/op",
    "mesh.empty_curvature": "count/op",
    "mesh.project_s": "s/op",
    "mesh.export_s": "s/op",
    "mesh.export_bytes": "B/op",
    "fixtures.report_self_s": "s/op",
    "fixtures.fixture_evals": "count/op",
    **{f"verify.{s}_s": "s/op" for s in SUITES},
    "verify.suites_run": "count/op",
    "verify.suites_skipped": "count/op",
    "trace.overhead_pct": "%",
}


def _laurent_points(counts, args) -> None:
    w = args[1]
    if isinstance(w, np.ndarray):
        counts["laurent.array_evals"] += 1
        counts["laurent.array_points"] += w.size
    else:
        counts["laurent.scalar_evals"] += 1


def _energy_points(counts, args) -> None:
    counts["weierstrass.energy_points"] += np.size(args[1])


def _curvature_points(counts, args) -> None:
    counts["geometry.curvature_points"] += np.size(args[1])


def _grid_counts(counts, args, result) -> None:
    counts["mesh.vertices"] += len(result.vertices)
    counts["mesh.flagged_vertices"] += sum(not v.regular for v in result.vertices)
    counts["mesh.empty_curvature"] += sum(v.curvature is None for v in result.vertices)


def _export_bytes(counts, args, result) -> None:
    counts["mesh.export_bytes"] += os.path.getsize(args[2])


def _suite_counts(counts, args, result) -> None:
    counts["verify.suites_run"] += sum(not r.skipped for r in result)
    counts["verify.suites_skipped"] += sum(r.skipped for r in result)


class Tracer:
    """Span totals, counters and kept spans of one traced run."""

    def __init__(self):
        self.total = Counter()   # name -> inclusive seconds
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()  # work counters, by metric name
        self.spans: list[tuple] = []  # (op, id, parent, name, start, dur, self)
        self._stack: list[list] = []  # [child seconds, span id]
        self._after_op: list[tuple] = []
        self._patched: list[tuple] = []
        self.op = 0
        self.t0 = perf_counter()

    def wrap(self, fn, name: str, hot: bool = False, count=None, inspect=None):
        stack, total, self_time, calls = self._stack, self.total, self.self_time, self.calls
        counts, spans, after_op = self.counts, self.spans, self._after_op

        def traced(*args, **kwargs):
            if count is not None:
                count(counts, args)
            parent = stack[-1][1] if stack else -1
            span_id = parent if hot else len(spans)
            if not hot:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                total[name] += dur
                self_time[name] += dur - frame[0]
                calls[name] += 1
                if not hot:
                    spans[span_id] = (self.op, span_id, parent, name, start, dur, dur - frame[0])
            if inspect is not None:
                after_op.append((inspect, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, **kw) -> None:
        # A name the program no longer has is skipped: its metrics read 0.
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **kw))

    def install(self) -> None:
        """Wrap the cross-layer names each `wep4` module looks up."""
        from wep4 import cli, fixtures, geometry, laurent, mesh, verify

        for attr, name, kw in (
            ("sample_grid", "mesh.sample_grid", {"inspect": _grid_counts}),
            ("project", "mesh.project", {}),
            ("export", "mesh.export", {"inspect": _export_bytes}),
            ("fidelity_report", "fixtures.fidelity_report", {}),
            ("run_verify", "verify.run_verify", {"inspect": _suite_counts}),
            ("immersion_point", "geometry.immersion_point", {}),
        ):
            self._patch(cli, attr, name, **kw)
        for module in (cli, mesh, fixtures, verify):
            for attr in BUILD:
                self._patch(module, attr, "henneberg.build")
        for module in (mesh, fixtures, verify):
            self._patch(module, "surface_jet", "geometry.surface_jet", hot=True)
        self._patch(mesh, "gauss_curvature_batch", "geometry.curvature",
                    count=_curvature_points)
        self._patch(fixtures, "immersion_point", "geometry.immersion_point", hot=True)
        self._patch(fixtures, "fixture_eval", "fixtures.fixture_eval", hot=True)
        for suite in SUITES:
            self._patch(verify, f"check_{suite}", f"verify.{suite}")
        for attr in FRAMES:
            self._patch(verify, attr, "geometry.frame", hot=True)
        for module in (geometry, verify):
            self._patch(module, "conformal_factor", "weierstrass.conformal_factor", hot=True)
        self._patch(geometry, "conformal_energy", "weierstrass.energy", count=_energy_points)
        self._patch(laurent.LaurentPoly, "__call__", "laurent.eval", hot=True,
                    count=_laurent_points)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def end_op(self) -> None:
        """Read the results kept for counting, outside every timed span."""
        for inspect, args, result in self._after_op:
            inspect(self.counts, args, result)
        self._after_op.clear()
        self.op += 1

    def metrics(self, ops: int, imports: dict, overhead_pct: float) -> dict:
        """Every per-layer metric; totals are divided by the traced operations."""
        t, s, c, n = self.total, self.self_time, self.calls, self.counts
        totals = {
            "cli.self_s": s["cli.main"],
            "henneberg.build_calls": c["henneberg.build"],
            "henneberg.build_s": t["henneberg.build"],
            "laurent.scalar_evals": n["laurent.scalar_evals"],
            "laurent.array_evals": n["laurent.array_evals"],
            "laurent.array_points": n["laurent.array_points"],
            "laurent.eval_s": t["laurent.eval"],
            "weierstrass.conformal_factor_calls": c["weierstrass.conformal_factor"],
            "weierstrass.energy_points": n["weierstrass.energy_points"],
            "geometry.surface_jet_calls": c["geometry.surface_jet"],
            "geometry.surface_jet_s": t["geometry.surface_jet"],
            "geometry.curvature_points": n["geometry.curvature_points"],
            "geometry.curvature_s": t["geometry.curvature"],
            "geometry.frame_s": t["geometry.frame"],
            "mesh.sample_grid_self_s": s["mesh.sample_grid"],
            "mesh.vertices": n["mesh.vertices"],
            "mesh.flagged_vertices": n["mesh.flagged_vertices"],
            "mesh.empty_curvature": n["mesh.empty_curvature"],
            "mesh.project_s": t["mesh.project"],
            "mesh.export_s": t["mesh.export"],
            "mesh.export_bytes": n["mesh.export_bytes"],
            "fixtures.report_self_s": s["fixtures.fidelity_report"],
            "fixtures.fixture_evals": c["fixtures.fixture_eval"],
            **{f"verify.{x}_s": t[f"verify.{x}"] for x in SUITES},
            "verify.suites_run": n["verify.suites_run"],
            "verify.suites_skipped": n["verify.suites_skipped"],
        }
        values = {**imports, **{k: v / ops for k, v in totals.items()},
                  "trace.overhead_pct": overhead_pct}
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def write(self, path) -> None:
        """Kept spans as JSON lines, then one line of totals per span name."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, dur, self_s in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_s": start - self.t0, "dur_s": dur,
                                     "self_s": self_s}) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({"total": name, "calls": self.calls[name],
                                     "dur_s": self.total[name],
                                     "self_s": self.self_time[name]}) + "\n")
