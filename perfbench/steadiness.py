#!/usr/bin/env python3
"""Steadiness and determinism checks for the perfbench benchmark.

Run from the checkout root:

    python3 perfbench/steadiness.py spread [--seed0 1000]
        [--out perfbench/steadiness.json]
    python3 perfbench/steadiness.py determinism

`spread` runs each workload of BENCHMARK.json RUNS times, with the seeds
--seed0, --seed0 + 1, ..., and reports for every end-to-end metric, set-up
time included, the median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound from BENCHMARK.json. With --out it
writes the record (host, run length, per-metric spread, and which metrics
are wall-clock and which exact) as JSON.

`determinism` runs each workload twice untraced and twice traced with
DETERMINISM_SEED and checks that every exact metric (EXACT below) is
byte-identical.

Both exit non-zero when a run fails its correctness checks, a spread
exceeds its bound, or an exact metric differs between runs.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
DETERMINISM_SEED = 7

# Metrics that are functions of the seed alone: counts, ratios of counts
# and virtual-time values. Everything else is wall-clock (or, like peak
# RSS and page faults, depends on the allocator and the OS).
EXACT_END_TO_END = {
    "relay": {"honest_delivery_ratio"},
    "mesh": {"honest_delivery_ratio", "latency_ms_p50", "latency_ms_tail"},
}
EXACT_PER_LAYER_PREFIXES = ("pipeline.accepted", "pipeline.precheck_duplicates",
                            "pipeline.spam_detected", "pipeline.bad_proof",
                            "pipeline.batch_aggregated", "pipeline.batch_fallbacks",
                            "pipeline.log_entries", "gossip.", "node.slash_commits",
                            "propagation.", "mesh.", "zksnark.constraints",
                            "allocs_per_op", "alloc_bytes_per_op",
                            "zksnark.allocs_per_proof", "zksnark.alloc_bytes_per_proof")


def exact(workload, name, trace):
    if trace:
        return name.startswith(EXACT_PER_LAYER_PREFIXES)
    return name in EXACT_END_TO_END.get(workload, set())


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "1" if trace else "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if p.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {p.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def workloads(bench):
    return [w["name"] for w in bench["workloads"]]


def spread(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"host": host(), "run_seconds": bench["run_seconds"],
              "runs": RUNS, "seed0": args.seed0, "workloads": {}}
    ok = True
    for w in workloads(bench):
        values = {}
        for i in range(RUNS):
            for k, v in run(bench, w, args.seed0 + i, False).items():
                values.setdefault(k, []).append(v)
            print(f"{w} seed {args.seed0 + i} done", flush=True)
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            share = (q[2] - q[0]) / med if med else 0.0
            rows[name] = {"median": med, "iqr_share": round(share, 4),
                          "bound": bounds[name],
                          "clock": "exact" if exact(w, name, False) else "wall",
                          "values": vs}
            flag = "" if share <= bounds[name] / 3 else "  (above bound/3)"
            if share > bounds[name]:
                ok = False
                flag = "  OVER BOUND"
            print(f"  {w:8s} {name:24s} median {med:12.6g}  iqr/median "
                  f"{share:.4f}  bound {bounds[name]}{flag}")
        record["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return ok


def determinism(bench):
    ok = True
    for w in workloads(bench):
        for trace in (False, True):
            a = run(bench, w, DETERMINISM_SEED, trace)
            b = run(bench, w, DETERMINISM_SEED, trace)
            names = [n for n in a if exact(w, n, trace)]
            diff = [n for n in names if a[n] != b[n]]
            ok = ok and not diff
            print(f"{w} trace={int(trace)}: {len(names)} exact metrics, "
                  f"{'differ: ' + ', '.join(diff) if diff else 'identical'}")
    return ok


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["spread", "determinism"])
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--out")
    args = ap.parse_args()
    ok = spread(args, bench) if args.mode == "spread" else determinism(bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
