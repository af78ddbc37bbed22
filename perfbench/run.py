"""hivecomb benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload lr_count --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports hivecomb from its
`src/`.  The workload runs in a fresh process whose BLAS/OpenMP thread
variables are set to 1; two more fresh processes sample set-up time only.
With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 the queries are replayed with spans
around every layer and the object holds the per-layer metrics, while the
spans go to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lr_count", "feasibility", "lift", "vertex_hunt")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Set-up samples per run, each in a fresh process: at least the first
#: number, and more up to the second while they have taken under
#: SETUP_BUDGET_S in all, so that the cheap set-ups get more samples.
SETUP_SAMPLES = (5, 11)
SETUP_BUDGET_S = 4.0
#: Every worker must be done this long after start; the limit is 180 s.
DEADLINE_S = 170
UNITS = {"setup_s": "s", "throughput_qps": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "peak_rss_mb": "MB", "correct_rate": "ratio",
         "no_silent_wrong_rate": "ratio"}


def unit(name):
    """End-to-end units by name; per-layer ones by suffix."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def worker(args, *extra, deadline):
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        sys.exit(f"worker still running {DEADLINE_S} s after start")
    if proc.returncode != 0:
        sys.exit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "hivecomb")):
        sys.exit(f"no hivecomb sources under {ROOT}/src")
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir,
                             f"spans-{args.workload}-seed{args.seed}.jsonl")
        res = worker(args, "--spans", spans, deadline=deadline)
        metrics = res["metrics"]
    else:
        fewest, most = SETUP_SAMPLES
        setups, start = [], time.monotonic()
        while len(setups) < fewest - 1 or (
                len(setups) < most - 1
                and time.monotonic() - start < SETUP_BUDGET_S):
            setups.append(worker(args, "--setup-only",
                                 deadline=deadline)["setup"])
        res = worker(args, deadline=deadline)
        setups.append(res["setup"])
        metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                   **res["metrics"]}

    attempted = res["attempted"]
    print(f"workload {args.workload}, seed {args.seed}: one closed-loop "
          f"client, {res['samples']} timed queries")
    print("env", json.dumps(res["env"], sort_keys=True))
    if not args.trace:
        print(f"setup_s is the median of {len(setups)} fresh set-ups")
    print("setup", json.dumps(res["setup"], sort_keys=True))
    print("raw", json.dumps(res["raw"], sort_keys=True))
    print("answers", json.dumps(res["tally"]),
          f"fail_rate {res['failed'] / attempted:.6f}",
          f"wrong_answer_rate {res['tally']['wrong'] / attempted:.6f}",
          f"unchecked {res['unchecked']}")
    for why, k in sorted(res["errors"].items()):
        print(f"  {k} x {why}")
    if sum(res["edge"]["tally"].values()):
        print("twisted edge, untimed and not in attempted/failed",
              json.dumps(res["edge"]["tally"]))
        for why, k in sorted(res["edge"]["errors"].items()):
            print(f"  {k} x {why}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": res["correct"], "attempted": attempted,
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
