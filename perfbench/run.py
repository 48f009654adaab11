#!/usr/bin/env python3
"""The crw benchmark: one named workload at one seed, end to end.

    python3 perfbench/run.py --workload sweep-cold --seed 7 --seconds 15 --trace 0

Run from the root of a crw checkout. The first call builds the
`crw-perf` driver (perfbench/CMakeLists.txt) from the checkout's own
sources into perfbench/_build/. Each workload is a closed loop with one
client: one pass (a `crw-perf` process) at a time until --seconds have
passed. A pass is one `crw-bench all`-shaped sweep, or one ISA pass.
Each pass runs in a fresh process because the bench executor memoizes
its traces and results process-wide. The pass also checks its own
outputs:

  * exhibit return codes and [FAIL] self-checks;
  * every paper-exhibit CSV and the report stdout against
    perfbench/golden.json;
  * the deterministic --metrics-out sections at the default seed;
  * the seeded synthetic points against the legacy replay loop, and,
    on traced passes, every re-driven replay unit and store round trip
    against the sweep's own results.

With --trace 0 the last stdout line holds the end-to-end metrics
(medians over the run's passes). With --trace 1 the run alternates
untraced and traced passes and prints the per-layer metrics, the
per-layer self-time table and obs.trace_overhead_s; the spans go to
perfbench/_out/ as a Perfetto-loadable trace.

Other entry points:
    --record-golden    re-record perfbench/golden.json from this tree
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "_build")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "_out")
BIN = os.path.join(BUILD, "crw-perf")
GOLDEN = os.path.join(HERE, "golden.json")
LAYERS = os.path.join(HERE, "layers.json")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1
MAX_JOBS = 4
PASS_TIMEOUT_S = 60   # one pass; a healthy one takes under 15 s
LOOP_CAP_S = 100     # stop starting passes after this long

WORKLOADS = {
    # mode: how crw-perf treats the stores; jobs: sweep workers;
    # passes: the fewest passes one run takes, whatever --seconds says
    # (sized to fit BENCHMARK.json's run_seconds on a 4-cpu host).
    "sweep-cold": {"mode": "cold", "jobs": MAX_JOBS, "passes": 5},
    "sweep-serial": {"mode": "serial", "jobs": 1, "passes": 3},
    "warm-all": {"mode": "warm", "jobs": MAX_JOBS, "passes": 5},
    "isa-kernel": {"mode": "isa", "jobs": 1, "passes": 5},
}

class BenchError(Exception):
    """A failure that must end the run without printing a result."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def note(message):
    print(message, file=sys.stderr, flush=True)


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# --------------------------------------------------------------------
# build and host stamp

def build():
    for rel in ("src/CMakeLists.txt", "bench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"crw sources missing: no {rel} under {ROOT}"
                             " (run from the root of a crw checkout)", 2)
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode:
                raise BenchError(f"cmake configure failed; see {log_path}")
        cmd = ["cmake", "--build", BUILD, "-j", str(MAX_JOBS)]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                          stdin=subprocess.DEVNULL).returncode:
            raise BenchError(f"build failed; see {log_path}")


def git_sha():
    if os.environ.get("CRW_GIT_SHA"):
        return os.environ["CRW_GIT_SHA"]
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree; never stamp an outer repo
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def host_stamp():
    p = subprocess.run([BIN, "info"], capture_output=True, text=True,
                       timeout=30)
    if p.returncode:
        raise BenchError(f"crw-perf info failed: {p.stderr.strip()}")
    fp = json.loads(p.stdout)
    if fp.get("sanitizer") != "no":
        raise BenchError("refusing to report timings from a sanitizer "
                         "build", 3)
    fp["nproc"] = len(os.sched_getaffinity(0))
    return fp


# --------------------------------------------------------------------
# passes and checks

def run_pass(cwd, args):
    """Run one crw-perf pass in @cwd; returns its JSON record."""
    result = os.path.join(cwd, "perf_result.json")
    if os.path.exists(result):
        os.remove(result)
    try:
        p = subprocess.run([BIN] + args + ["--result", result], cwd=cwd,
                           stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True,
                           timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"crw-perf {' '.join(args)} timed out")
    for line in p.stderr.splitlines():
        if line.startswith("crw-perf") or "error" in line:
            note(line)
    if p.returncode:
        raise BenchError(f"crw-perf {' '.join(args)} exited "
                         f"{p.returncode}: {p.stderr.strip()[-1500:]}")
    with open(result) as f:
        return json.load(f)


class Checks:
    def __init__(self, golden, simd_tier):
        self.golden = golden
        self.simd_tier = simd_tier
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            note(f"check failed: {what}")

    def pass_record(self, rec):
        self.attempted += int(rec["checks_attempted"])
        self.failed += int(rec["checks_failed"])

    def exhibit_outputs(self, work):
        """CSVs and report stdout of a sweep pass vs the golden digests."""
        out = os.path.join(work, "bench_out")
        csvs = sorted(n for n in os.listdir(out) if n.endswith(".csv"))
        want = self.golden["csv"]
        self.expect(csvs == sorted(want),
                    f"CSV set differs: {sorted(set(csvs) ^ set(want))}")
        for name in sorted(want):
            path = os.path.join(out, name)
            self.expect(os.path.isfile(path) and
                        sha256_file(path) == want[name],
                        f"{name} differs from the golden digest")
        stdout = os.path.join(work, "perf_stdout.txt")
        self.expect(os.path.isfile(stdout) and
                    sha256_file(stdout) == self.golden["stdout"],
                    "report stdout differs from the golden digest")

    def metrics_sections(self, path, mode):
        """Deterministic --metrics-out sections (default seed only)."""
        want = self.golden["metrics"].get(self.simd_tier, {}).get(mode)
        if want is None:
            note(f"no golden metrics digest for {mode} on a "
                 f"{self.simd_tier} host; that check is skipped")
            return
        self.expect(os.path.isfile(path) and metrics_digest(path) == want,
                    f"--metrics-out sections differ from golden ({mode})")


def metrics_digest(path):
    """sha256 of a --metrics-out file minus its host-dependent parts:
    the "host" section and the jobs / git_rev / bench manifest lines."""
    with open(path) as f:
        doc = json.load(f)
    doc.pop("host", None)
    for key in ("jobs", "git_rev", "bench"):
        doc.get("manifest", {}).pop(key, None)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def busy_extremes(path):
    """(max, min) of the host.worker_busy_s samples in a metrics file."""
    if not os.path.isfile(path):
        return (0.0, 0.0)
    with open(path) as f:
        s = json.load(f).get("host", {}).get("host.worker_busy_s")
    return (s["max"], s["min"]) if s else (0.0, 0.0)


# --------------------------------------------------------------------
# workloads

def sweep_args(spec, seed):
    return ["sweep", "--mode", spec["mode"], "--seed", str(seed),
            "--jobs", str(spec["jobs"])]


def prepare(spec, seed, work):
    """Set-up outside the measured loop: what each mode starts from."""
    if spec["mode"] == "serial":
        run_pass(work, ["sweep", "--mode", "cold", "--seed", str(seed),
                        "--prepare"])
    elif spec["mode"] == "warm":
        run_pass(work, ["sweep", "--mode", "cold", "--seed", str(seed),
                        "--jobs", str(MAX_JOBS)])


def clear_outputs(work, mode):
    """Remove what a sweep pass writes, so every digest check reads a
    file this pass wrote: a cold pass starts from no bench_out at all,
    the others keep its stores and traces but lose the CSVs."""
    out = os.path.join(work, "bench_out")
    if mode == "cold":
        shutil.rmtree(out, ignore_errors=True)
    elif os.path.isdir(out):
        for name in os.listdir(out):
            if name.endswith(".csv"):
                os.remove(os.path.join(out, name))
    for name in ("perf_stdout.txt", "perf_metrics.json"):
        if os.path.exists(os.path.join(work, name)):
            os.remove(os.path.join(work, name))


def one_pass(spec, seed, work, index, traced, run_id, checks):
    mode = spec["mode"]
    if mode == "isa":
        args = ["isa", "--seed", str(seed)]
    else:
        args = sweep_args(spec, seed)
        clear_outputs(work, mode)
        if index == 0:
            args.append("--oracle")
    metrics_path = os.path.join(work, "perf_metrics.json")
    if traced:
        args += ["--traced", "--spans", f"spans-{index}.json",
                 "--run-id", run_id, "--pid", str(index)]
        if mode != "isa":
            args += ["--metrics-out", metrics_path]
    # Flush the previous pass's writes (a cold pass writes ~100 MB of
    # flat arenas) so their writeback does not land inside this pass.
    os.sync()
    rec = run_pass(work, args)
    checks.pass_record(rec)
    if mode != "isa":
        checks.exhibit_outputs(work)
        if traced:
            rec["pool.worker_busy_max_s"], rec["pool.worker_busy_min_s"] = \
                busy_extremes(metrics_path)
            if seed == DEFAULT_SEED:
                checks.metrics_sections(metrics_path, mode)
    if traced:
        rec["_spans"] = os.path.join(work, f"spans-{index}.json")
        rec["_pid"] = index
    return rec


def run_workload(name, seed, seconds, traced, checks, run_id):
    """The closed loop. Returns (untraced records, traced records)."""
    spec = WORKLOADS[name]
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if spec["mode"] != "isa":
        prepare(spec, seed, work)

    plain, spanned = [], []
    start = time.monotonic()
    index = 0
    while True:
        want_trace = traced and index % 2 == 1
        rec = one_pass(spec, seed, work, index, want_trace, run_id, checks)
        (spanned if want_trace else plain).append(rec)
        index += 1
        elapsed = time.monotonic() - start
        if traced:
            enough = len(plain) >= 2 and len(spanned) >= 2
        else:
            enough = len(plain) >= spec["passes"]
        # Start no pass that would end past --seconds.
        if enough and elapsed + elapsed / index > seconds:
            break
        if elapsed >= LOOP_CAP_S:
            if not enough:
                raise BenchError(f"{name}: passes too slow to finish")
            break

    # The untraced loop never writes --metrics-out (it changes what the
    # harness publishes); at the default seed one extra, untimed pass
    # does, so the deterministic sections are still checked.
    if not traced and seed == DEFAULT_SEED and spec["mode"] != "isa":
        clear_outputs(work, spec["mode"])
        path = os.path.join(work, "perf_metrics.json")
        checks.pass_record(run_pass(
            work, sweep_args(spec, seed) + ["--metrics-out", path]))
        checks.metrics_sections(path, spec["mode"])
    return plain, spanned


# --------------------------------------------------------------------
# metrics

def median_of(records, key):
    return statistics.median(float(r.get(key, 0.0)) for r in records)


def end_to_end(records):
    return {
        "wall_s": median_of(records, "wall_s"),
        "setup_s": median_of(records, "setup_s"),
        "cpu_s": median_of(records, "cpu_s"),
        "peak_rss_mb": median_of(records, "peak_rss_mb"),
        "points_per_s": statistics.median(
            r["points"] / r["wall_s"] for r in records),
    }


def per_layer(name, plain, spanned, checks):
    jobs = WORKLOADS[name]["jobs"]
    for r in spanned:
        r["report.total_s"] = sum(v for k, v in r.items()
                                  if k.startswith("report."))
        execute = r.get("pool.execute_s", 0.0)
        busy = r.get("replay.busy_s", 0.0)
        r["pool.parallel_eff"] = (busy / (jobs * execute)
                                  if execute and busy else 0.0)
        r["pool.critical_path_share"] = (
            r.get("replay.unit_max_s", 0.0) / execute
            if execute and busy else 0.0)
    values = {}
    for layer in load_json(LAYERS)["layers"]:
        for metric in layer["metrics"]:
            values[metric] = median_of(spanned, metric)
    values["obs.trace_overhead_s"] = (median_of(spanned, "wall_s") -
                                      median_of(plain, "wall_s"))
    values["fail_ratio"] = checks.failed / max(checks.attempted, 1)
    return values


def load_json(path):
    with open(path) as f:
        return json.load(f)


# --------------------------------------------------------------------
# traced-run reporting

def merge_spans(records, path):
    """Concatenate every traced pass's spans into one Perfetto file;
    returns the span list (name, dur_us, span id, parent id, pid)."""
    events, spans = [], []
    for r in records:
        doc = load_json(r["_spans"])
        for e in doc["traceEvents"]:
            events.append(e)
            spans.append((e["name"], e["dur"], e["args"]["span"],
                          e["args"]["parent"], e["pid"]))
        os.remove(r["_spans"])
        events.append({"name": "process_name", "ph": "M", "pid": r["_pid"],
                       "args": {"name": f"crw-perf pass {r['_pid']}"}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return spans


def self_times(spans, passes):
    """Per span name: (count, total s, self s), averaged per pass.
    Self time is a span's duration minus that of its direct children."""
    child_us = {}
    for name, dur, sid, parent, pid in spans:
        if parent >= 0:
            child_us[(pid, parent)] = child_us.get((pid, parent), 0) + dur
    table = {}
    for name, dur, sid, parent, pid in spans:
        count, total, own = table.get(name, (0, 0.0, 0.0))
        table[name] = (count + 1, total + dur,
                       own + dur - child_us.get((pid, sid), 0))
    return {k: (c / passes, t * 1e-6 / passes, s * 1e-6 / passes)
            for k, (c, t, s) in table.items()}


def print_traced_report(name, values, table):
    print(f"per-layer self time, mean per traced pass ({name}):")
    print(f"  {'span':<22} {'calls':>8} {'total s':>10} {'self s':>10}")
    for span, (calls, total, own) in sorted(table.items(),
                                            key=lambda kv: -kv[1][2]):
        print(f"  {span:<22} {calls:>8.1f} {total:>10.4f} {own:>10.4f}")
    print(f"obs.trace_overhead_s = {values['obs.trace_overhead_s']:.4f}")
    print("per-layer metrics (median over traced passes):")
    for layer in load_json(LAYERS)["layers"]:
        quiet = name in layer["not_on"]
        print(f"  [{layer['layer']}] moves: {layer['moves']}"
              + ("  (should not move on this workload)" if quiet else ""))
        for metric in layer["metrics"]:
            print(f"    {metric:<28} {values[metric]:.6g}")


# --------------------------------------------------------------------
# golden digests

def record_golden():
    """Re-record golden.json from this tree at the default seed."""
    fp = host_stamp()
    work = os.path.join(WORK, "golden")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    golden = load_json(GOLDEN) if os.path.exists(GOLDEN) else {}
    tier = golden.setdefault("metrics", {}).setdefault(fp["simd_tier"], {})
    path = os.path.join(work, "perf_metrics.json")
    for name in ("sweep-cold", "sweep-serial", "warm-all"):
        spec = WORKLOADS[name]
        rec = run_pass(work, sweep_args(spec, DEFAULT_SEED) +
                       ["--metrics-out", path])
        if rec["checks_failed"]:
            raise BenchError(f"{name}: self-checks failed; not recording")
        tier[spec["mode"]] = metrics_digest(path)
    out = os.path.join(work, "bench_out")
    golden["csv"] = {n: sha256_file(os.path.join(out, n))
                     for n in sorted(os.listdir(out)) if n.endswith(".csv")}
    golden["stdout"] = sha256_file(os.path.join(work, "perf_stdout.txt"))
    golden["recorded_at"] = git_sha()
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    note(f"golden digests written to {GOLDEN}")


# --------------------------------------------------------------------

def main():
    manifest = load_json(MANIFEST)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int,
                    default=manifest["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if not args.record_golden and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    if args.record_golden:
        record_golden()
        return
    fp = host_stamp()
    checks = Checks(load_json(GOLDEN), fp["simd_tier"])
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{int(time.time())}"
    plain, spanned = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), checks, run_id)

    stamp = {"sha": git_sha(), "host": fp, "seed": args.seed,
             "workload": args.workload, "trace": args.trace,
             "seconds": args.seconds, "passes": len(plain) + len(spanned),
             "time": datetime.datetime.now(datetime.timezone.utc)
             .isoformat(timespec="seconds")}
    print(f"crw benchmark {args.workload} seed {args.seed}: "
          f"{stamp['passes']} passes; sha {stamp['sha'][:12]}, "
          f"{fp['nproc']} cpus, {fp['simd_tier']}, {fp['compiler']}, "
          f"{fp['build_type']}")
    if args.trace:
        values = per_layer(args.workload, plain, spanned, checks)
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-s{args.seed}.json")
        table = self_times(merge_spans(spanned, trace_path), len(spanned))
        print_traced_report(args.workload, values, table)
        print(f"spans written to {trace_path}")
        listed = manifest["per_layer"]
    else:
        values = end_to_end(plain)
        listed = manifest["end_to_end"]
        for key, label in (("isa_mips", "isa_mips"),
                           ("table2_band_misses", "table2_band_misses")):
            if args.workload == "isa-kernel":
                print(f"  {label} = {median_of(plain, key):.6g}")
        for m in listed:
            print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    fail_ratio = checks.failed / max(checks.attempted, 1)
    print(f"  fail_ratio = {fail_ratio:.6g} "
          f"({checks.failed} of {checks.attempted} checks failed)")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    with open(os.path.join(OUT, "history.jsonl"), "a") as f:
        f.write(json.dumps(dict(stamp, **result), sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        note(f"run.py: {e}")
        sys.exit(e.code)
    except KeyboardInterrupt:
        sys.exit(130)
