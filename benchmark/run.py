#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end metrics, a traced run.

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the library,
asmcap_search, asmcap_testgen and the in-process driver asmcap_benchdrv
into .bench_build/ (benchmark/CMakeLists.txt); inputs are generated once
per (workload, seed) into .bench_work/ and never timed.

--trace 0 repeats the workload until --seconds have been measured, a
fresh process per repetition, and reports the end-to-end metrics as
medians. --trace 1 replays the workload once untraced and once traced
in-process (plus, for the CLI workloads, one real CLI run) and reports the
per-layer metrics. Either way every repetition is checked: its decision
digest must agree with the other repetitions, with every earlier run of
the same (workload, seed), and with benchmark/expected.json for the
default seed. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. benchmark/README.md maps
each metric to its layer and workload.
"""

import argparse
import hashlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
DEFAULT_SEED = 1
WIDTH = 256
WORKERS = 2
# A child still running this long after the benchmark started is killed
# and the run fails, so a hung program cannot outlive the run's limit.
CHILD_DEADLINE_S = 170.0

# asmcap_testgen sizes of the CLI workloads ("tiny" is the smoke-test
# scale); the in-process sizes live in driver.cpp.
CLI_SIZES = {
    "cli_ref32k": {"full": (8, 4000, 20000), "tiny": (2, 64, 200)},
    "cli_reads16k": {"full": (8, 1000, 16000), "tiny": (2, 32, 400)},
}
# The workloads BENCHMARK.json lists. cli_ref32k, the ROADMAP north-star
# run, stays runnable by name but is not among them: one repetition takes
# 25-45 s on a 4-core host, and one per run left its reads_per_s spread
# above the largest bound a metric may have (README.md).
WORKLOADS = ["cli_reads16k", "live_churn", "paper_circuit"]
ALL_WORKLOADS = WORKLOADS + ["cli_ref32k"]
# Each --trace 0 run makes at least this many repetitions. The host's
# speed dips for seconds at a time; a median over several short
# repetitions passes over a dip that a single long one would absorb.
MIN_REPETITIONS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "reads_per_s": "reads/s",
    "peak_rss_mb": "MB",
    "origin_recall": "ratio",
    "model_energy_nj_per_read": "nJ",
}
PER_LAYER = {
    "genome.ref_parse_s": "s",
    "genome.reads_parse_s": "s",
    "ingest.build_s": "s",
    "ingest.segments_per_s": "segments/s",
    "ingest.epochs_published": "count",
    "ingest.half_ratio": "ratio",
    "ingest.setup_share": "ratio",
    "db.active_banks": "count",
    "db.rss_mb_build": "MB",
    "db.bytes_per_segment": "B",
    "db.compact_ms": "ms",
    "sketch.banks_probed": "count",
    "sketch.banks_pruned": "count",
    "sketch.prune_rate": "ratio",
    "plan.ed_star_passes_per_read": "passes/read",
    "plan.hd_passes_per_read": "passes/read",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.exec_ms_p50": "ms",
    "service.exec_ms_p99": "ms",
    "service.merge_ms_p50": "ms",
    "service.peak_in_flight": "count",
    "service.worker_busy_share": "ratio",
    "kernel.ed_star_ns_per_row": "ns",
    "kernel.hamming_ns_per_row": "ns",
    "kernel.sweep_share": "ratio",
    "backend.functional.exec_ms_per_read": "ms",
    "backend.circuit.exec_ms_per_read": "ms",
    "cli.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "layer.bench.self_s": "s",
    "layer.genome.self_s": "s",
    "layer.ingest.self_s": "s",
    "layer.db.self_s": "s",
    "layer.service.self_s": "s",
    "f1": "ratio",
    "read_latency_ms_p50": "ms",
    "read_latency_ms_p99": "ms",
    "append_ms_p50": "ms",
    "remove_ms_p50": "ms",
    "remove_ms_p90": "ms",
    "model_latency_ns_per_read": "ns",
    "failed_share": "ratio",
}
LAYERS = ["bench", "genome", "ingest", "db", "service"]

# Reset once the build is done: the first run in a checkout also builds.
START = time.monotonic()


class BenchError(Exception):
    """The benchmark could not produce a result (build or harness fault)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build --

def build():
    """Configures once, then (re)builds the measured binaries."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "asmcap_search", "asmcap_testgen", "asmcap_benchdrv"],
                   stdout=sys.stderr, check=True)


def tool(name):
    """Path of a built binary; the repository's own land under asmcap/."""
    subdir = "" if name == "asmcap_benchdrv" else "asmcap"
    return os.path.join(BUILD, subdir, name)


# --------------------------------------------------------------- inputs --

def write_half_reference(directory):
    """ref_half.fa: the first half of ref.fa's records (ingest.half_ratio)."""
    path = os.path.join(directory, "ref.fa")
    with open(path) as f:
        keep = max(1, sum(line.startswith(">") for line in f) // 2)
    with open(path) as f, \
            open(os.path.join(directory, "ref_half.fa"), "w") as out:
        for line in f:
            keep -= line.startswith(">")
            if keep < 0:
                break
            out.write(line)


def inputs(workload, seed, scale):
    """Generates the inputs of (workload, seed) once; returns their dir."""
    directory = os.path.join(WORK, f"{workload}-{scale}-s{seed}")
    if os.path.exists(os.path.join(directory, "inputs.done")):
        return directory
    os.makedirs(directory, exist_ok=True)
    if workload in CLI_SIZES:
        records, tiles, reads = CLI_SIZES[workload][scale]
        subprocess.run(
            [tool("asmcap_testgen"), os.path.join(directory, "ref.fa"),
             os.path.join(directory, "reads.fq"), "--width", str(WIDTH),
             "--records", str(records), "--tiles", str(tiles),
             "--reads", str(reads), "--seed", str(seed)],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
        # One read, for the set-up-only CLI repetitions.
        with open(os.path.join(directory, "reads.fq")) as f:
            first = [next(f) for _ in range(4)]
        with open(os.path.join(directory, "reads_setup.fq"), "w") as f:
            f.writelines(first)
    else:
        command = [tool("asmcap_benchdrv"), "gen", workload, directory,
                   str(seed)]
        if scale == "tiny":
            command.append("--tiny")
        subprocess.run(command, stdout=sys.stderr, check=True)
    write_half_reference(directory)
    open(os.path.join(directory, "inputs.done"), "w").close()
    return directory


def read_files(workload, directory):
    names = ["reads_a.fq", "reads_b.fq"] if workload == "paper_circuit" \
        else ["reads.fq"]
    return [os.path.join(directory, name) for name in names]


def origins(workload, directory):
    """(read id, generator-recorded origin label "refN:offset"), in file
    order, which is the order of the rows."""
    for path in read_files(workload, directory):
        with open(path) as f:
            for i, line in enumerate(f):
                if i % 4 == 0:
                    yield tuple(line[1:].split())


# ------------------------------------------------------------ processes --

RSS_MARKER = "asmcap_benchdrv: child maxrss_kb "


def timed(command, ready_marker=None):
    """Runs one fresh process; returns (setup_s, wall_s, rss_mb, stdout).

    setup_s runs from spawn until the first stderr line containing
    ready_marker (0 without a marker), wall_s until the process has
    exited, and rss_mb is its ru_maxrss, taken by `asmcap_benchdrv spawn`.
    """
    start = time.monotonic()
    child = subprocess.Popen([tool("asmcap_benchdrv"), "spawn"] + command,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
    remaining = CHILD_DEADLINE_S - (start - START)
    killer = threading.Timer(max(remaining, 1.0), child.kill)
    killer.start()
    setup = None if ready_marker else 0.0
    rss = None
    errors = []
    try:
        for line in child.stderr:
            if setup is None and ready_marker in line:
                setup = time.monotonic() - start
            if line.startswith(RSS_MARKER):
                rss = int(line[len(RSS_MARKER):]) / 1024.0
            errors.append(line)
        out = child.stdout.read()
        child.wait()
        wall = time.monotonic() - start
    finally:
        killer.cancel()
        if child.returncode is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or setup is None or rss is None:
        raise BenchError(f"{command[0]} exited {child.returncode}: "
                         + "".join(errors[-5:]))
    return setup, wall, rss, out


CLI_READY = "segments of width"
DRV_READY = "asmcap_benchdrv: ready"


def cli_command(directory, reads="reads.fq", output="cli.tsv"):
    return [tool("asmcap_search"),
            "--reference", os.path.join(directory, "ref.fa"),
            "--reads", os.path.join(directory, reads),
            "--workers", str(WORKERS),
            "--output", os.path.join(directory, output)]


def drv_command(mode, workload, directory, scale, *flags):
    command = [tool("asmcap_benchdrv"), mode, workload, directory]
    if scale == "tiny":
        command.append("--tiny")
    return command + list(flags)


def counters_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ checking --

def id_set(text):
    return set() if text.strip() == "-" else {int(x) for x in text.split(",")}


def check_rows(workload, directory, rows_file):
    """Digest, per-read outcome and recomputed quality of one rows file,
    streamed in step with the reads (and, on paper_circuit, with the exact
    edit-distance ground truth for F1)."""
    cli = workload in CLI_SIZES
    digest = hashlib.sha256()
    reads = ok = recalled = expected = tp = fp = fn = 0
    energy = latency = 0.0
    truth_path = os.path.join(directory, "truth.txt")
    with open(os.path.join(directory, rows_file)) as rows, \
            open(truth_path if workload == "paper_circuit" else os.devnull) \
            as truth:
        next(rows)  # header
        for line, read in itertools.zip_longest(
                rows, origins(workload, directory)):
            expected += read is not None
            reads += line is not None
            if line is None or read is None:
                continue
            name, origin = read
            cols = line.rstrip("\n").split("\t")
            digest.update(("\t".join(cols[:4]) + "\n").encode())
            ok_row = cols[1] == "ok" and cols[0] == name
            ok += ok_row
            if ok_row:
                latency += float(cols[4])
                energy += float(cols[5])
                labels = cols[3] if cli else cols[6]
                recalled += origin in labels.split(",")
            if workload == "paper_circuit":
                got = id_set(cols[3]) if ok_row else set()
                true = id_set(next(truth))
                tp += len(got & true)
                fp += len(got - true)
                fn += len(true - got)
    result = {
        "digest": digest.hexdigest()[:16],
        "reads": reads,
        "ok": ok,
        "expected_reads": expected,
        "origin_recall": recalled / max(reads, 1),
        "energy_j": energy,
        "latency_s": latency,
    }
    if workload == "paper_circuit":
        result["f1"] = 2 * tp / max(2 * tp + fp + fn, 1)
    return result


def expected_digest(workload, scale):
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        return json.load(f).get(scale, {}).get(workload)


class Checker:
    """Collects correctness failures; one is enough to fail the run."""

    def __init__(self, workload, seed, scale, directory):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.directory = directory
        self.problems = []
        self.seen = None

    def rows(self, result, label):
        quality = {k: result[k] for k in ("digest", "origin_recall", "f1")
                   if k in result}
        if result["reads"] != result["expected_reads"]:
            self.problems.append(f"{label}: {result['reads']} rows for "
                                 f"{result['expected_reads']} reads")
        if self.seen is None:
            self.seen = quality
            self._against_record(quality, label)
        elif quality != self.seen:
            self.problems.append(f"{label}: {quality} != {self.seen}")

    def _against_record(self, quality, label):
        if self.seed == DEFAULT_SEED:
            want = expected_digest(self.workload, self.scale)
            if want is not None and want != quality["digest"]:
                self.problems.append(
                    f"{label}: digest {quality['digest']} != recorded "
                    f"{want} for the default seed")
        # Every run of this (workload, seed) in this checkout, untraced or
        # traced, must reproduce the first one's decisions.
        path = os.path.join(self.directory, "decisions.json")
        if os.path.exists(path):
            with open(path) as f:
                first = json.load(f)
            if first != quality:
                self.problems.append(f"{label}: {quality} != earlier run "
                                     f"{first}")
        else:
            with open(path, "w") as f:
                json.dump(quality, f)

    def trace(self, path):
        problems = trace_problems(path)
        self.problems.extend(f"trace: {p}" for p in problems)


def trace_problems(path):
    """Well-formedness of a trace: ids, parents, nesting, one run id."""
    with open(path) as f:
        trace = json.load(f)
    spans = trace.get("spans", [])
    problems = [] if spans and trace.get("run") else ["empty trace"]
    by_id = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if span["id"] in by_id:
            problems.append(f"duplicate span id {span['id']}")
        if span["end"] < span["start"]:
            problems.append(f"span {span['id']} ends before it starts")
        if span["parent"] and parent is None:
            problems.append(f"span {span['id']} has unknown parent")
        if parent and not (parent["start"] <= span["start"]
                           and span["end"] <= parent["end"]):
            problems.append(f"span {span['id']} outside its parent")
        by_id[span["id"]] = span
    return problems


def self_times(path):
    """Self time per layer: span duration minus its children's."""
    with open(path) as f:
        spans = json.load(f)["spans"]
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for span in spans:
        if span["parent"]:
            own[span["parent"]] -= span["end"] - span["start"]
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = span["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own[span["id"]]
    return totals


# ------------------------------------------------------------ workloads --

def one_repetition(workload, directory, scale):
    """One fresh-process repetition with tracing off."""
    if workload in CLI_SIZES:
        setup, wall, rss, _ = timed(cli_command(directory), CLI_READY)
        counters = {}
        rows_file = "cli.tsv"
    else:
        setup, wall, rss, out = timed(
            drv_command("run", workload, directory, scale), DRV_READY)
        counters = counters_of(out)
        rows_file = "rows.tsv"
    return {"setup": setup, "wall": wall, "rss": rss, "counters": counters,
            "rows": check_rows(workload, directory, rows_file)}


def setup_only(workload, directory, scale):
    if workload in CLI_SIZES:
        command = cli_command(directory, "reads_setup.fq", "setup.tsv")
        return timed(command, CLI_READY)[0]
    return timed(drv_command("run", workload, directory, scale,
                             "--setup-only"), DRV_READY)[0]


def tally(reps):
    attempted = failed = 0
    for rep in reps:
        rows, counters = rep["rows"], rep["counters"]
        attempted += rows["reads"] + int(counters.get("mutations", 0))
        failed += rows["reads"] - rows["ok"]
        failed += int(counters.get("mutations_failed", 0))
    return attempted, failed


def measure(workload, directory, scale, seconds, checker):
    """--trace 0: repetitions until `seconds` are measured (at least
    MIN_REPETITIONS); medians."""
    reps, setups = [], []
    began = time.monotonic()
    while True:
        rep = one_repetition(workload, directory, scale)
        checker.rows(rep["rows"], f"repetition {len(reps) + 1}")
        reps.append(rep)
        setups.append(rep["setup"])
        elapsed = time.monotonic() - began
        if len(reps) >= MIN_REPETITIONS and elapsed + rep["wall"] > seconds:
            break
    # Up to five set-up samples, in at most a quarter of the run length
    # more: set-up is one sample per repetition, and a short one is noisy.
    spent = 0.0
    while len(setups) < 5 and \
            spent + statistics.median(setups) <= 0.25 * seconds:
        start = time.monotonic()
        setups.append(setup_only(workload, directory, scale))
        spent += time.monotonic() - start
    rows = reps[0]["rows"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall"] for r in reps),
        "reads_per_s": statistics.median(
            r["rows"]["ok"] / (r["wall"] - r["setup"]) for r in reps),
        "peak_rss_mb": statistics.median(r["rss"] for r in reps),
        "origin_recall": rows["origin_recall"],
        "model_energy_nj_per_read":
            rows["energy_j"] / max(rows["reads"], 1) * 1e9,
    }
    log(f"{workload}: {len(reps)} repetitions, {len(setups)} set-up "
        f"samples")
    return metrics, reps


def traced(workload, directory, scale, checker):
    """--trace 1: untraced and traced replays, probes, per-layer metrics."""
    reps = []
    cli_wall = None
    if workload in CLI_SIZES:
        rep = one_repetition(workload, directory, scale)
        checker.rows(rep["rows"], "cli run")
        cli_wall = rep["wall"]
        reps.append(rep)
    plain = timed(drv_command("run", workload, directory, scale), DRV_READY)
    checker.rows(check_rows(workload, directory, "rows.tsv"),
                 "untraced replay")
    setup_t, wall_t, _, out = timed(
        drv_command("run", workload, directory, scale, "--trace"), DRV_READY)
    rows = check_rows(workload, directory, "rows.traced.tsv")
    checker.rows(rows, "traced replay")
    trace_path = os.path.join(directory, "trace.json")
    checker.trace(trace_path)
    c = counters_of(out)
    reps.append({"rows": rows, "counters": c})
    p = counters_of(timed(drv_command("probe", workload, directory,
                                      scale))[3])

    reads = max(c["reads"], 1)
    queries = max(c["plan.queries"], 1)
    probed, pruned = c["sketch.banks_probed"], c["sketch.banks_pruned"]
    build_s = c["ingest.ingest_s"] - p["genome.ref_parse_s"]
    functional = workload != "paper_circuit"
    # Rows one pass sweeps: every live segment, scaled by the share of
    # banks the sketch let through.
    rows_per_pass = c["ingest.segments"] * (
        probed / (probed + pruned) if probed + pruned else 1.0)
    sweep_ns = rows_per_pass * (
        c["plan.ed_star_passes"] * p["kernel.ed_star_ns_per_row"]
        + c["plan.hd_passes"] * p["kernel.hamming_ns_per_row"])
    attempted, failed = tally(reps)
    metrics = {
        "genome.ref_parse_s": p["genome.ref_parse_s"],
        "genome.reads_parse_s": p["genome.reads_parse_s"],
        "ingest.build_s": build_s,
        "ingest.segments_per_s":
            c["ingest.segments"] / c["ingest.ingest_s"],
        "ingest.epochs_published": c["ingest.epochs_published"],
        "ingest.half_ratio": c["ingest.ingest_s"] / p["ingest.half_ingest_s"],
        "ingest.setup_share": build_s / setup_t,
        "db.active_banks": c["db.active_banks"],
        "db.rss_mb_build": c["db.rss_mb_build"],
        "db.bytes_per_segment": c["db.bytes_per_segment"],
        "db.compact_ms": c.get("db.compact_ms", 0.0),
        "sketch.banks_probed": probed,
        "sketch.banks_pruned": pruned,
        "sketch.prune_rate": pruned / (probed + pruned)
        if probed + pruned else 0.0,
        "plan.ed_star_passes_per_read": c["plan.ed_star_passes"] / queries,
        "plan.hd_passes_per_read": c["plan.hd_passes"] / queries,
        "kernel.ed_star_ns_per_row": p["kernel.ed_star_ns_per_row"],
        "kernel.hamming_ns_per_row": p["kernel.hamming_ns_per_row"],
        "kernel.sweep_share":
            sweep_ns / (c["service.busy_s"] * 1e9) if functional else 0.0,
        "backend.functional.exec_ms_per_read":
            c["backend.exec_ms_per_read"] if functional
            else p["backend.functional.exec_ms_per_read"],
        "backend.circuit.exec_ms_per_read":
            0.0 if functional else c["backend.exec_ms_per_read"],
        "cli.overhead_s": cli_wall - plain[1] if cli_wall else 0.0,
        "trace.overhead_share": (wall_t - plain[1]) / plain[1],
        "f1": rows.get("f1", 0.0),
        "model_latency_ns_per_read": c["model.latency_s"] / reads * 1e9,
        "failed_share": failed / max(attempted, 1),
    }
    for name in PER_LAYER:
        if name.startswith("service.") or name in (
                "read_latency_ms_p50", "read_latency_ms_p99",
                "append_ms_p50", "remove_ms_p50", "remove_ms_p90"):
            metrics[name] = c.get(name, 0.0)
    for layer, seconds in self_times(trace_path).items():
        metrics[f"layer.{layer}.self_s"] = seconds
    return metrics, reps


def write_report(workload, seed, trace, metrics, reps, digest):
    """The run as an asmcap-bench-v1 report (tools/bench_trend.py folds
    these), written through the library's write_bench_json."""
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    path = os.path.join(WORK, "reports",
                        f"{workload}-s{seed}{'-trace' if trace else ''}.json")
    lines = [f"bench repo_bench_{workload}", f"digest {digest}",
             f"workload seed {seed}", f"workload repetitions {len(reps)}",
             f"workload workers {WORKERS}", f"workload width {WIDTH}"]
    if "wall_s" in metrics:
        lines.append(f"timing end-to-end {metrics['wall_s']!r} "
                     f"{metrics['reads_per_s']!r}")
    lines += [f"metric {k} {v!r}" for k, v in metrics.items()]
    subprocess.run([tool("asmcap_benchdrv"), "report", path],
                   input="\n".join(lines) + "\n", text=True,
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (smoke test)")
    args = parser.parse_args()
    # Terminated, still stop the running child (timed() kills it on exit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    global START
    try:
        build()
        START = time.monotonic()
        directory = inputs(args.workload, args.seed, args.scale)
        checker = Checker(args.workload, args.seed, args.scale, directory)
        if args.trace:
            metrics, reps = traced(args.workload, directory, args.scale,
                                   checker)
            units = PER_LAYER
        else:
            metrics, reps = measure(args.workload, directory, args.scale,
                                    args.seconds, checker)
            units = END_TO_END
        attempted, failed = tally(reps)
        write_report(args.workload, args.seed, args.trace, metrics, reps,
                     checker.seen["digest"])
    except (BenchError, OSError, subprocess.CalledProcessError,
            KeyError, ValueError) as err:
        log(f"run.py: no result: {err}")
        return 1
    for problem in checker.problems:
        log(f"run.py: CHECK FAILED: {problem}")
    for name, unit in units.items():
        log(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
