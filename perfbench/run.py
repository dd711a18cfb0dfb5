#!/usr/bin/env python3
"""rdns-privacy benchmark: one command for the pipeline and serve workloads.

    python3 perfbench/run.py --workload pipeline|serve_sweep|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
repository's libraries, `rdns_tool` and the benchmark's own `perfbench`
program in Release under .bench_build/. Progress goes to stderr; the last
line on stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics. See perfbench/README.md.
"""

import argparse
import datetime
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
PERFBENCH = BUILD / "perfbench"
RDNS_TOOL = BUILD / "rdns_tool"

WORKLOADS = ("pipeline", "serve_sweep", "serve_mix")

# Serve runs set the server up this many times; each instance then serves
# an equal share of the measured seconds, closed loop.
SERVER_SPAWNS = 5


def declared_metrics():
    """Metric names and units, as BENCHMARK.json at the root declares them."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    # The thread pool sizes itself from the machine; faults and log level
    # stay at their defaults whatever the caller's shell exports.
    for var in ("RDNS_THREADS", "RDNS_FAULTS", "RDNS_LOG_LEVEL"):
        env.pop(var, None)
    return env


class BenchError(Exception):
    pass


def build():
    for needed in ("src/CMakeLists.txt", "tools/rdns_tool.cpp", "CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"missing {needed}: run from a checkout of the repository")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench", "rdns_tool"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def cpu_layout():
    """Server on one core, the generator's two threads on two others, its
    CPU sampler (asleep between window boundaries) on a spare fourth."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 3:
        return cpus[0], (cpus[1], cpus[2], cpus[3] if len(cpus) >= 4 else -1)
    return None, (-1, -1, -1)


class LineReader:
    """Line reads from a child's pipe with a deadline."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buf = b""

    def readline(self, timeout):
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("timed out waiting for a child process")
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 65536)
                if not chunk:
                    raise BenchError("child process closed its output")
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------- pipeline --

def pipeline_window(seed):
    """The pipeline sweeps the world `rdns_tool sweep` sweeps by default
    (seed 42, 24 orgs, scale 0.4) over 36 days. World composition, and with
    it the simulation cost, swings by 2x between world seeds, so the
    workload seed moves the 36-day window by 0-6 days instead: each seed
    sweeps different days at comparable cost. Seeds that are multiples of 7
    reproduce the tool's default window exactly."""
    first = datetime.date(2021, 1, 2) + datetime.timedelta(days=seed % 7)
    return first.isoformat(), (first + datetime.timedelta(days=35)).isoformat()


def run_pipeline(args):
    work = WORK / "pipeline"
    first, last = pipeline_window(args.seed)
    proc = subprocess.run(
        [str(PERFBENCH), "pipeline", "--seed", "42", "--from", first, "--to", last,
         "--seconds", str(args.seconds), "--work", str(work), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, env=child_env(), timeout=170, check=False)
    if proc.returncode != 0:
        raise BenchError(f"perfbench pipeline exited {proc.returncode}")
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if not res["correct"]:
        log(f"pipeline: INCORRECT: {res['why']}")
    named = {
        "setup_s": median(res["setup_cpu_s"]),
        "setup_wall_s": median(res["setup_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "work_cpu_s": median(res["sweep_cpu_s"]) + median(res["analyze_cpu_s"]),
        "sweep_cpu_s": median(res["sweep_cpu_s"]),
        "analyze_cpu_s": median(res["analyze_cpu_s"]),
        "sweep_s": median(res["sweep_s"]),
        "analyze_s": median(res["analyze_s"]),
    }
    log(f"pipeline: {res['iterations']:.0f} iterations, {res['sweeps']:.0f} sweeps, "
        f"{res['rows']:.0f} rows, identified {res['identified']:.0f} "
        f"({res['identified_true']:.0f} carry-over), pool {res['threads']:.0f} threads")
    attempted = int(res["iterations"])
    failed = 0 if res["correct"] else 1
    layers = dict(res.get("layers") or {})
    note = (f"medians of {len(res['sweep_s'])} sweeps, {len(res['analyze_s'])} analyses and "
            f"{len(res['setup_s'])} world builds")
    return res["correct"], attempted, failed, named, layers, note


# ---------------------------------------------------------------- serve --

SUMMARY = {
    "answered": re.compile(r"\(([\d,]+) answered"),
    "shed": re.compile(r"\((?:[\d,]+) rrl, ([\d,]+) shed\)"),
    "cache_hits": re.compile(r"cache: ([\d,]+) hits"),
    "cache_misses": re.compile(r"([\d,]+) misses"),
}


def parse_summary(text):
    out = {}
    for key, pattern in SUMMARY.items():
        m = pattern.search(text)
        if m is None:
            raise BenchError(f"server summary lacks {key}: {text!r}")
        out[key] = int(m.group(1).replace(",", ""))
    return out


def vm_hwm_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM for the server")


def task_cpu_s(pid):
    """CPU seconds of every live thread of `pid`, from schedstat."""
    task_dir = Path(f"/proc/{pid}/task")
    return sum(int((task / "schedstat").read_text().split()[0])
               for task in task_dir.iterdir()) / 1e9


def spawn_server(seed, server_cpu, err_path):
    pin = (lambda: os.sched_setaffinity(0, {server_cpu})) if server_cpu is not None else None
    t0 = time.monotonic()
    err = open(err_path, "ab")
    proc = subprocess.Popen(
        [str(RDNS_TOOL), "serve", "--threads", "1", "--port", "0", "--seed", str(seed)],
        stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL, env=child_env(),
        preexec_fn=pin)
    err.close()
    reader = LineReader(proc.stdout)
    banner = reader.readline(timeout=120)
    setup = time.monotonic() - t0
    setup_cpu = task_cpu_s(proc.pid)
    m = re.match(r"serving on [\d.]+:(\d+)", banner)
    if m is None:
        proc.kill()
        proc.wait()
        raise BenchError(f"unexpected serve banner: {banner!r}")
    return proc, reader, int(m.group(1)), setup, setup_cpu


def stop_server(proc, reader):
    proc.send_signal(signal.SIGTERM)
    try:
        rest, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("server did not stop on SIGTERM")
    return (reader.buf + (rest or b"")).decode(), proc.returncode


def run_serve(args):
    server_cpu, gen_cpus = cpu_layout()
    per_spawn = args.seconds / SERVER_SPAWNS
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    err_path = work / "serve.stderr"
    err_path.write_bytes(b"")
    loadgen = subprocess.Popen(
        [str(PERFBENCH), "loadgen", "--workload", args.workload, "--seed", str(args.seed),
         "--cpus", ",".join(str(c) for c in gen_cpus), "--closed-s", str(per_spawn)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=sys.stderr, env=child_env())
    lg = LineReader(loadgen.stdout)
    servers = []
    try:
        if lg.readline(timeout=150) != "ready":
            raise BenchError("load generator did not get ready")
        setups, setup_cpus, hwm, totals, exit_codes = [], [], [], {}, []
        for _ in range(SERVER_SPAWNS):
            proc, reader, port, setup, setup_cpu = spawn_server(args.seed, server_cpu, err_path)
            servers.append(proc)
            setups.append(setup)
            setup_cpus.append(setup_cpu)
            loadgen.stdin.write(f"slice {port} {proc.pid}\n".encode())
            loadgen.stdin.flush()
            done = lg.readline(timeout=60 + per_spawn)
            if not done.startswith("slice-done"):
                raise BenchError(f"load generator: {done!r}")
            log(f"{args.workload}: setup {setup:.3f}s (cpu {setup_cpu:.3f}s) "
                f"{done[len('slice-done '):]}")
            hwm.append(vm_hwm_kb(proc.pid))
            text, code = stop_server(proc, reader)
            exit_codes.append(code)
            for key, value in parse_summary(text).items():
                totals[key] = totals.get(key, 0) + value
        loadgen.stdin.write(b"finish\n")
        loadgen.stdin.flush()
        res = json.loads(lg.readline(timeout=60))
        loadgen.wait(timeout=30)
    finally:
        for proc in servers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if loadgen.poll() is None:
            loadgen.kill()
            loadgen.wait()

    correct = res["correct"] and all(code == 0 for code in exit_codes)
    if not correct:
        log(f"{args.workload}: INCORRECT: {res['why'] or 'server exit codes ' + str(exit_codes)}")
    named = {
        "setup_s": median(setup_cpus),
        "setup_wall_s": median(setups),
        "peak_rss_mb": median(hwm) / 1024.0,
        # Server CPU-seconds per million queries: its CPU microseconds per query.
        "work_cpu_s": res["cpu_us_per_query"],
        "max_qps": res["max_qps"],
        "qps_per_core": res["qps_per_core"],
        "closed_p50_us": res["closed_p50_us"],
        "closed_p99_us": res["closed_p99_us"],
    }
    note = (f"medians of {len(res['window_cpu_us'])} 250 ms windows and "
            f"{SERVER_SPAWNS} server set-ups; {res['closed_samples']:.0f} latency samples, "
            f"p99 reported at p{res['closed_p99_reported_pct']:.3f}, highest supported "
            f"p{res['closed_tail_pct']:.4f} = {res['closed_tail_us']:.1f} us")
    log(f"{args.workload}: run validity: steal {res['steal_pct']:.2f}%, server socket drops "
        f"{res['server_sock_drops']:.0f}, worker wake-ups {res['worker_wakeups_per_kq']:.1f} "
        f"per 1000 queries, shed {totals['shed']}, lost {res['closed_lost']:.0f}, late "
        f"replies {res['closed_late']:.0f}, at most {res['max_outstanding']:.0f} in flight")
    layers = {
        "serve.cpu_us_per_query": res["cpu_us_per_query"],
        "serve.worker_wakeups_per_kq": res["worker_wakeups_per_kq"],
        "serve.answered": totals["answered"],
        "serve.shed": totals["shed"],
        "serve.cache_hits": totals["cache_hits"],
        "serve.cache_misses": totals["cache_misses"],
        "net.server_sock_drops": res["server_sock_drops"],
        "host.steal_pct": res["steal_pct"],
    }
    if args.trace:
        layers.update(serve_trace(args, server_cpu, res["cpu_us_per_query"]))
    return correct, int(res["attempted"]), int(res["failed"]), named, layers, note


def serve_trace(args, server_cpu, cpu_us_per_query):
    """In-process replay of the workload's datagrams with each serve stage
    timed, on the server's core; reconciled against the measured server CPU
    per query."""
    pin = (lambda: os.sched_setaffinity(0, {server_cpu})) if server_cpu is not None else None
    proc = subprocess.run(
        [str(PERFBENCH), "serve-trace", "--workload", args.workload, "--seed", str(args.seed)],
        stdout=subprocess.PIPE, stderr=sys.stderr, env=child_env(), preexec_fn=pin,
        timeout=120, check=True)
    layers = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    staged_us = layers["staged_ns_per_query"] / 1e3
    layers["serve.unattributed_pct"] = (
        100.0 * (1.0 - staged_us / cpu_us_per_query) if cpu_us_per_query > 0 else 0.0)
    log(f"{args.workload}: traced stages {staged_us:.3f}us per query of "
        f"{cpu_us_per_query:.3f}us server CPU per query")
    return layers


# ------------------------------------------------------------ self-test --

# Small world for the drift guard: seconds to run, and it identifies networks.
DRIFT = ["--seed", "7", "--orgs", "6", "--scale", "0.3", "--from", "2021-01-02",
         "--to", "2021-01-15"]


def self_test():
    """The benchmark's own checks (perfbench selftest), then the drift guard:
    the in-process pipeline must write the CSV and report `rdns_tool sweep`
    and `rdns_tool analyze` write, and the traced day loop the CSV of
    SweepDriver::run."""
    failures = 0
    if subprocess.run([str(PERFBENCH), "selftest"], stdout=sys.stderr, stderr=sys.stderr,
                      timeout=170, check=False).returncode != 0:
        failures += 1
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    proc = subprocess.run(
        [str(PERFBENCH), "pipeline", *DRIFT, "--seconds", "0.001", "--setups", "1",
         "--trace", "1", "--keep", "1", "--work", str(work)],
        stdout=subprocess.PIPE, stderr=sys.stderr, env=child_env(), timeout=170, check=True)
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    tool_csv, tool_md = work / "tool.csv", work / "tool.md"
    subprocess.run([str(RDNS_TOOL), "sweep", *DRIFT, str(tool_csv)], stdout=sys.stderr,
                   env=child_env(), timeout=170, check=True)
    subprocess.run([str(RDNS_TOOL), "analyze", "--report", str(tool_md), str(tool_csv)],
                   stdout=sys.stderr, env=child_env(), timeout=170, check=True)
    checks = [
        ("drift guard: in-process CSV == rdns_tool sweep CSV",
         (work / "sweep.csv").read_bytes() == tool_csv.read_bytes()),
        ("drift guard: in-process report == rdns_tool analyze report",
         (work / "report.md").read_bytes() == tool_md.read_bytes()),
        ("drift guard: traced day loop CSV == SweepDriver::run CSV",
         res["traced_ok"] and
         (work / "traced.csv").read_bytes() == (work / "sweep.csv").read_bytes()),
        ("drift guard: the small world identifies carry-over networks only",
         res["identified"] > 0 and res["identified"] == res["identified_true"]),
    ]
    for what, ok in checks:
        log(f"{'ok  ' if ok else 'FAIL'} {what}")
        failures += 0 if ok else 1
    shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if failures == 0 else f"self-test FAILED ({failures})")
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------- main --

def end_to_end_values(named):
    """The gated metrics, from a workload's own figures; see README.md."""
    return {name: named[name] for name in ("setup_s", "peak_rss_mb", "work_cpu_s")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    # Exit through the finally blocks that stop the servers and the load
    # generator, whoever ends the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        WORK.mkdir(parents=True, exist_ok=True)
        if args.self_test:
            return self_test()
        end_to_end, per_layer = declared_metrics()
        runner = run_pipeline if args.workload == "pipeline" else run_serve
        correct, attempted, failed, named, layers, note = runner(args)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"benchmark failed: {e}")
        return 1

    units = {**per_layer, **end_to_end}
    for name, value in named.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} ({note})")
    if args.trace:
        # A workload reports 0 for a layer it bypasses.
        layers.update(named)
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        e2e = end_to_end_values(named)
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end.items()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
