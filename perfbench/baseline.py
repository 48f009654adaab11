#!/usr/bin/env python3
"""Repeat the crw benchmark over seeds and report each metric's spread.

    python3 perfbench/baseline.py --runs 10 [--workload sweep-cold ...]
                                  [--seconds N] [--record]

Runs perfbench/run.py once per (workload, seed), seeds 1..--runs, with
tracing off, then prints for every end-to-end metric its median, its
quartile spread (Q3 - Q1 over the median, from
statistics.quantiles(n=4)) and whether that spread is within a third of
the metric's bound in BENCHMARK.json. One traced run per workload, at
the default seed, adds the per-layer numbers the ROADMAP items are
judged on. With --record the summary is appended to
perfbench/history/baselines.json, stamped with the git sha, the host and
a digest of the benchmark's own files, and each median is compared with
the last recorded set of the same sha and digest: the two sets agree
when no median is worse than the other's by more than the metric's
bound. The exit code is 0 only when every spread is
within a third of its bound and the sets agree.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "history", "baselines.json")

sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py, for its git stamp)


def bench_digest():
    """sha256 over BENCHMARK.json and perfbench/ minus its history and
    build products: sets with the same digest ran the same benchmark."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "BENCHMARK.json")]
    for top, dirs, files in os.walk(HERE):
        dirs[:] = sorted(d for d in dirs
                         if d != "history" and not d.startswith("_"))
        paths += [os.path.join(top, f) for f in sorted(files)
                  if not f.endswith(".pyc")]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    stamp = p.stdout.splitlines()[0]
    return result, stamp


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def compare(manifest, before, after):
    """Print how far each median of @after moved from @before; True when
    none is worse by more than its metric's bound."""
    agree = True
    print("against the previous set of the same sha and benchmark:")
    for workload, row in after["workloads"].items():
        old = before["workloads"].get(workload)
        if old is None:
            continue
        for m in manifest["end_to_end"]:
            was = old["end_to_end"][m["name"]]["median"]
            now = row["end_to_end"][m["name"]]["median"]
            worse = (now - was if m["better"] == "lower" else was - now)
            share = worse / was if was else 0.0
            ok = share <= m["bound"]
            agree = agree and ok
            print(f"  {workload:<13} {m['name']:<14} {was:<10.5g} -> "
                  f"{now:<10.5g} worse by {share:+.3f}"
                  f"{'' if ok else '  OUTSIDE bound'}")
    return agree


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    names = [w["name"] for w in manifest["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    summary = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workload or names:
        values = {m["name"]: [] for m in manifest["end_to_end"]}
        failed = 0
        for seed in range(1, args.runs + 1):
            result, stamp = run_once(workload, seed, args.seconds, 0)
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        row = {"failed": failed, "end_to_end": {}}
        print(f"{workload}: {args.runs} runs, {failed} failed checks")
        for m in manifest["end_to_end"]:
            med, sp = spread(values[m["name"]])
            ok = sp <= m["bound"] / 3
            steady = steady and ok
            row["end_to_end"][m["name"]] = {
                "median": med, "spread": sp, "bound": m["bound"],
                "values": values[m["name"]]}
            print(f"  {m['name']:<14} median {med:<12.6g} spread "
                  f"{sp:6.3f}  bound {m['bound']:.2f}"
                  f"{'' if ok else '  ABOVE bound/3'}")
        traced, _ = run_once(workload, 1, args.seconds, 1)
        row["per_layer"] = {k: v["value"]
                            for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = row
        summary["stamp"] = stamp
    summary["sha"] = run.git_sha()
    summary["bench_digest"] = bench_digest()

    layers = {w: r["per_layer"] for w, r in summary["workloads"].items()}
    if "warm-all" in layers:
        warm = summary["workloads"]["warm-all"]["end_to_end"]["wall_s"]
        share = layers["warm-all"]["report.microtrace_s"] / warm["median"]
        summary["microtrace_share_of_warm_all"] = share
        print(f"report.microtrace_s / warm-all wall_s = {share:.3f}")
    if "sweep-cold" in layers:
        for key in ("pool.parallel_eff", "replay.batch_fallback"):
            summary[f"sweep-cold {key}"] = layers["sweep-cold"][key]
            print(f"sweep-cold {key} = {layers['sweep-cold'][key]:.4g}")
    if args.record:
        history = []
        if os.path.exists(HISTORY):
            with open(HISTORY) as f:
                history = json.load(f)
        earlier = [h for h in history if h.get("sha") == summary["sha"]
                   and h.get("bench_digest") == summary["bench_digest"]]
        if earlier:
            agree = compare(manifest, earlier[-1], summary)
            summary["agrees_with_previous_set"] = agree
            steady = steady and agree
        history.append(summary)
        os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
        with open(HISTORY, "w") as f:
            json.dump(history, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"appended to {HISTORY}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
