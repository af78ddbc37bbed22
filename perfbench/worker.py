"""One workload in one fresh process: set-up, the timed closed loop, checks.

Started by run.py, never by hand.  Prints one JSON object on stdout.  With
--setup-only it stops after the set-up, so run.py can sample set-up time
in several fresh processes.
"""

import argparse
import array
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time

MIN_QUERIES = 100

#: The speed probe's time on the reference host, a 2-vCPU VM, without and
#: with its memory part.  The host's speed drifts by up to 2x over seconds
#: (a fixed pure-Python loop took 127 to 252 ms there), so every timing is
#: scaled by the reference time / (probe time next to it): what it would
#: have taken at the reference speed.  The probe runs no hivecomb code.
PROBE_REFERENCE_S = {False: 0.002, True: 0.003}
#: Timed work between two probes.
PROBE_EVERY_S = 0.05
_probe_arrays = []


def probe(memory):
    """Best of two timings of a fixed mix of Fraction, numpy and dict work,
    plus, with `memory`, an 8 MB array copy."""
    from fractions import Fraction

    import numpy as np

    if memory and not _probe_arrays:
        _probe_arrays.extend((np.ones(1 << 20, np.int64),
                              np.empty(1 << 20, np.int64)))
    gc.disable()
    try:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            acc = Fraction(0)
            for i in range(1, 150):
                acc += Fraction(i, i + 1) * Fraction(2, 3)
            a = np.arange(4096, dtype=np.int64)
            for _ in range(15):
                a = (a * 3 + 1) % 1000003
            d = {}
            for i in range(1500):
                d[(i, i + 1)] = (i, -i)
            if memory:
                np.copyto(_probe_arrays[1], _probe_arrays[0])
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


class Speed:
    """The host's speed, probed off the clock after every PROBE_EVERY_S of
    timed work.  scale() is the factor that converts a timing taken now to
    the reference speed."""

    def __init__(self, memory):
        self.memory = memory
        self.since = math.inf
        self.probes = []

    def scale(self):
        if self.since >= PROBE_EVERY_S:
            self.probes.append(probe(self.memory))
            self.since = 0.0
        return PROBE_REFERENCE_S[self.memory] / self.probes[-1]

    def ran(self, seconds):
        self.since += seconds


class Outcomes:
    """Each query's latency and class: correct, wrong (a wrong value
    returned without raising) or raised.  Answers are checked block by
    block, off the clock, and then dropped, so memory stays bounded."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.tally = {"correct": 0, "wrong": 0, "raised": 0}
        # a failed query counts as slower than any other; flat arrays keep the
        # footprint out of peak_rss_mb
        self.latencies = array.array("d")
        self.raw_latencies = array.array("d")
        self.unchecked = 0
        self.reasons = {}
        self.check_s = 0.0

    def add(self, records):
        from workloads import check

        t0 = time.perf_counter()
        for q, out, err, dt, scale in records:
            if err is not None:
                status, why = "raised", type(err).__name__
            else:
                why, verified = check(self.oracle, q, out)
                status = "correct" if why is None else "wrong"
                self.unchecked += not verified
            self.tally[status] += 1
            self.latencies.append(dt * scale if status == "correct"
                                  else math.inf)
            self.raw_latencies.append(dt)
            if status != "correct":
                self.reasons[why] = self.reasons.get(why, 0) + 1
        self.oracle.trim()
        self.check_s += time.perf_counter() - t0


def play(block, speed, tracer=None):
    """Run one block, one query after the other, probing the host's speed
    between queries.  Returns the records (query, answer, exception,
    latency, scale) and the block's time at the reference speed."""
    from workloads import run

    records = []
    for q in block:
        before = speed.scale()
        t0 = time.perf_counter()
        try:
            out, err = run(q), None
        except Exception as ex:  # a raised query is a result to classify
            out, err = None, ex
        dt = time.perf_counter() - t0
        speed.ran(dt)
        # a long query is scaled by the mean of the probes on either side
        scale = (before + speed.scale()) / 2
        if tracer is not None:
            tracer.scales.append(scale)
        records.append((q, out, err, dt, scale))
    return records, sum(r[3] * r[4] for r in records)


def closed_loop(blocks, seconds, speed, outcomes, keep):
    """Run whole blocks until `seconds` have been timed and at least
    MIN_QUERIES answered.  Returns the first `keep` blocks, the rate of
    every block and the wall time of each, both at the reference speed,
    and the raw time of the whole timed phase."""
    kept, rates, walls, raw = [], [], [], 0.0
    for block in blocks:
        records, wall = play(block, speed)
        outcomes.add(records)
        if len(kept) < keep:
            kept.append(block)
        rates.append(len(block) / wall)
        walls.append(wall)
        raw += sum(r[3] for r in records)
        if raw >= seconds and len(outcomes.latencies) >= MIN_QUERIES:
            break
    return kept, rates, walls, raw


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def end_to_end(rates, walls, outcomes):
    """Metrics at the reference speed.  Every block holds the same mix, so
    throughput is the median of the per-block rates."""
    lat = sorted(outcomes.latencies)
    attempted = len(lat)

    def ms(p):
        v = percentile(lat, p)
        return (v if v != math.inf else sum(walls)) * 1e3

    return {
        "throughput_qps": statistics.median(rates),
        "latency_p50_ms": ms(0.5),
        "latency_p90_ms": ms(0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "correct_rate": outcomes.tally["correct"] / attempted,
        "no_silent_wrong_rate": 1 - outcomes.tally["wrong"] / attempted,
    }


def traced_replay(blocks, speed, outcomes, spans_path):
    """Replay each block untraced and with spans around every layer.

    Returns the per-layer metrics and the tracing overhead, all at the
    reference speed.
    """
    import tracing

    tracer = tracing.Tracer()
    plain_wall = traced_wall = 0.0
    for i, block in enumerate(blocks):
        for traced in (i % 2, 1 - i % 2):  # alternate which goes first
            if traced:
                tracer.install()
            try:
                records, wall = play(block, speed, tracer if traced else None)
            finally:
                tracer.uninstall()
            if traced:
                traced_wall += wall
            else:
                plain_wall += wall
            outcomes.add(records)
    if spans_path:
        tracer.write(spans_path)
    layers = tracer.layer_metrics()
    layers.update({"trace.wall_s": traced_wall,
                   "trace.untraced_wall_s": plain_wall,
                   "trace.overhead_s": traced_wall - plain_wall})
    return layers


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import hivecomb.cli
    import_s = time.perf_counter() - t0
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(hivecomb.__file__).startswith(src + os.sep):
        sys.exit(f"hivecomb imported from {hivecomb.__file__}, not {src}")

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    t1 = time.perf_counter()
    for q in wl.warmup:
        workloads.run(q)
    warmup_s = time.perf_counter() - t1
    setup_raw = time.monotonic() - args.spawned_at
    memory = wl.memory_probe
    scale = PROBE_REFERENCE_S[memory] / min(probe(memory) for _ in range(3))
    setup = {"setup_s": setup_raw * scale, "setup_raw_s": setup_raw,
             "import_s": import_s, "warmup_s": warmup_s}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return

    import numpy
    import reference
    from hivecomb import _kernels

    outcomes = Outcomes(reference.Oracle())
    speed = Speed(memory)
    rng = random.Random(f"{args.workload}:{args.seed}")
    kept, rates, walls, timed_raw = closed_loop(
        wl.blocks(rng, outcomes.oracle), args.seconds, speed, outcomes,
        keep=wl.traced_blocks if args.trace else 0)
    samples = len(outcomes.latencies)
    lat = sorted(outcomes.raw_latencies)
    raw = {"timed_s": timed_raw, "latency_p50_ms": percentile(lat, 0.5) * 1e3,
           "latency_p90_ms": percentile(lat, 0.9) * 1e3,
           "probe_median_ms": statistics.median(speed.probes) * 1e3}
    if args.trace:
        metrics = traced_replay(kept, speed, outcomes, args.spans)
        metrics.update({"setup.import_s": import_s,
                        "setup.warmup_s": warmup_s,
                        "check_s": outcomes.check_s,
                        "check.unchecked_misses": outcomes.unchecked})
    else:
        metrics = end_to_end(rates, walls, outcomes)
    edge = Outcomes(outcomes.oracle)
    if wl.edge is not None:
        edge_rng = random.Random(f"{args.workload}:{args.seed}:edge")
        edge.add(play(wl.edge(edge_rng, outcomes.oracle), speed)[0])
    failed = outcomes.tally["wrong"] + outcomes.tally["raised"]
    print(json.dumps({
        "setup": setup,
        "env": {"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "have_numba": _kernels.HAVE_NUMBA},
        "samples": samples, "raw": raw, "tally": outcomes.tally,
        "attempted": len(outcomes.latencies),
        "failed": failed, "correct": failed == 0,
        "unchecked": outcomes.unchecked, "errors": outcomes.reasons,
        "edge": {"tally": edge.tally, "errors": edge.reasons},
        "metrics": metrics}))


if __name__ == "__main__":
    main()
