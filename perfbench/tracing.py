"""Spans around the public functions of each layer, kept in memory.

`Tracer.install` replaces each function at the name its callers look up
(a module attribute, or `BoundaryTriple.scaled`) with a wrapper that
records a span: name, start, end, parent span and the query it belongs to.
Nothing under `src/` is edited; `uninstall` puts the originals back.
"""

import json
import time

from hivecomb import _kernels, cli, hive, lift
from hivecomb.weights import BoundaryTriple

# (owner, attribute, span name, note taken from (args, result))
TARGETS = (
    (_kernels, "count_assignments", "kernels.count", lambda a, out: int(out)),
    (_kernels, "vertex_scan", "kernels.vertex_scan",
     lambda a, out: (len(a[4]), out >= 0)),
    (hive, "boundary_from_weights", "hive.boundary", None),
    (hive, "count_lattice_hives", "hive.count", None),
    (hive, "exists_lattice_hive", "hive.exists", None),
    (hive, "enumerate_lattice_hives", "hive.enumerate", None),
    (hive, "decompose_tensor_product", "hive.decompose",
     lambda a, out: len(out)),
    (lift, "maximize", "simplex.solve", None),
    (lift, "lp_maximize", "lift.lp", None),
    (lift, "largest_lift", "lift.largest", lambda a, out: out.retries),
    (lift, "find_nonintegral_vertex", "lift.hunt", None),
    (lift, "diagram", "diagram", None),
    (lift, "elide", "reconstruct.elide", None),
    (lift, "hive_to_honeycomb", "hive.to_honeycomb", None),
    (lift, "boundary_from_weights", "hive.boundary", None),
    (BoundaryTriple, "scaled", "weights.scaled", None),
    (cli, "lift_report_to_json", "cli.output", None),
    (cli, "hive_to_json", "cli.output", None),
)

NAME, START, END, PARENT, QUERY, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.scales = []  # per query: raw time -> time at reference speed
        self.saved = []

    def wrap(self, name, fn, note):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    len(self.scales), None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, note in TARGETS:
            fn = owner.__dict__[attr]
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, note))

    def uninstall(self):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s[NAME], s[START], s[END], s[PARENT],
                                     s[QUERY], self.scales[s[QUERY]]])
                         + "\n")

    def layer_metrics(self):
        """Per-layer counts, and busy and self times at the reference speed,
        from the recorded spans."""
        spans = self.spans
        dur = [(s[END] - s[START]) * self.scales[s[QUERY]] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += dur[i]

        def nested(i):
            p = spans[i][PARENT]
            while p >= 0:
                if spans[p][NAME] == spans[i][NAME]:
                    return True
                p = spans[p][PARENT]
            return False

        calls, busy, self_s = {}, {}, {}
        for i, s in enumerate(spans):
            n = s[NAME]
            calls[n] = calls.get(n, 0) + 1
            self_s[n] = self_s.get(n, 0.0) + dur[i] - child_time[i]
            if not nested(i):
                busy[n] = busy.get(n, 0.0) + dur[i]

        def note_sum(name, pick=lambda v: v):
            return sum(pick(s[NOTE]) for s in spans
                       if s[NAME] == name and s[NOTE] is not None)

        # the first solve under each lift.lp span is the optimum, the rest
        # are uniqueness probes
        solves_under_lp = {}
        decompose_inner = 0
        for s in spans:
            if s[PARENT] < 0:
                continue
            parent = spans[s[PARENT]][NAME]
            if s[NAME] == "simplex.solve" and parent == "lift.lp":
                solves_under_lp[s[PARENT]] = solves_under_lp.get(
                    s[PARENT], 0) + 1
            elif s[NAME] == "hive.count" and parent == "hive.decompose":
                decompose_inner += 1
        scans = calls.get("kernels.vertex_scan", 0)
        solves = calls.get("simplex.solve", 0)

        return {
            "kernels.count.calls": calls.get("kernels.count", 0),
            "kernels.count.busy_s": busy.get("kernels.count", 0.0),
            "kernels.count.hives": note_sum("kernels.count"),
            "kernels.vertex_scan.calls": scans,
            "kernels.vertex_scan.busy_s": busy.get("kernels.vertex_scan",
                                                   0.0),
            "kernels.vertex_scan.subsets": note_sum("kernels.vertex_scan",
                                                    lambda v: v[0]),
            "kernels.vertex_scan.hit_ratio":
                note_sum("kernels.vertex_scan", lambda v: int(v[1]))
                / scans if scans else 0.0,
            "hive.boundary.calls": calls.get("hive.boundary", 0),
            "hive.boundary.busy_s": busy.get("hive.boundary", 0.0),
            "hive.exists.self_s": self_s.get("hive.exists", 0.0),
            "hive.count.self_s": self_s.get("hive.count", 0.0),
            "hive.enumerate.busy_s": busy.get("hive.enumerate", 0.0),
            "hive.decompose.self_s": self_s.get("hive.decompose", 0.0),
            "hive.decompose.inner_counts": decompose_inner,
            "hive.decompose.useful_ratio":
                note_sum("hive.decompose") / decompose_inner
                if decompose_inner else 0.0,
            "hive.to_honeycomb.busy_s": busy.get("hive.to_honeycomb", 0.0),
            "weights.scaled.busy_s": busy.get("weights.scaled", 0.0),
            "simplex.solves": solves,
            "simplex.busy_s": busy.get("simplex.solve", 0.0),
            "simplex.probe_solves": sum(k - 1
                                        for k in solves_under_lp.values()),
            "simplex.useful_ratio":
                calls.get("lift.lp", 0) / solves if solves else 0.0,
            "lift.lp.calls": calls.get("lift.lp", 0),
            "lift.lp.self_s": self_s.get("lift.lp", 0.0),
            "lift.largest.self_s": self_s.get("lift.largest", 0.0),
            "lift.retries": note_sum("lift.largest"),
            "lift.hunt.self_s": self_s.get("lift.hunt", 0.0),
            "diagram.calls": calls.get("diagram", 0),
            "diagram.busy_s": busy.get("diagram", 0.0),
            "reconstruct.elide.busy_s": busy.get("reconstruct.elide", 0.0),
            "cli.output.busy_s": busy.get("cli.output", 0.0),
            "trace.spans": len(spans),
        }
