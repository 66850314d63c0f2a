#!/usr/bin/env python3
"""End-to-end benchmark of the sweep CLIs, the worker fleet and the store queries.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 40 --trace 0

It builds ronsim, ronreport and the benchmark's Go tool into .bench_build/,
runs the named workload through the shipped CLIs for about --seconds seconds,
checks every output, and prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 a separate traced
in-process run (perfbench/tool) gives the per-layer metrics. The line before
it is the run's metadata. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
RONSIM = os.path.join(BIN, "ronsim")
RONREPORT = os.path.join(BIN, "ronreport")
TOOL = os.path.join(BIN, "perfbench-tool")

# Every run must finish within this many seconds (first build excepted).
RUN_LIMIT_S = 170
# ronreport -store invocations per run; enough for a p95 with ten
# samples beyond it.
MIN_QUERIES = 200
# Extra launches after each repetition that time only set-up (process
# start to the ready line), so set-up time is a median over many samples.
SETUP_LAUNCHES = 2

# The three workloads. "args" are ronsim -sweep flags; the seed is
# appended. "fleet" runs a coordinator and two worker processes over
# loopback instead of one sweep process. "group_by" and "metric" shape
# the -group-by query; "drill" is the -query selecting the bounded cell
# subset a -drill restores. bigworld has no drill: restoring one of its
# 80 MB snapshots takes longer than a whole run of the other queries.
WORKLOADS = {
    "paper-sweep": {
        "args": ["-dataset", "ron2003", "-workload", "-hysteresis", "0,0.25",
                 "-replicas", "8", "-days", "0.125", "-parallel", "2"],
        "fleet": False, "group_by": "hysteresis", "metric": "t5.loss.totlp",
        "drill": "kind=cell,group=ron2003",
    },
    "bigworld": {
        "args": ["-dataset", "ronnarrow", "-nodes", "512", "-policy", "landmark",
                 "-replicas", "4", "-days", "0.002", "-parallel", "2"],
        "fleet": False, "group_by": "replica", "metric": "t5.loss.totlp",
        "drill": None,
    },
    "fleet-query": {
        "args": ["-dataset", "ronnarrow", "-workload", "-scenario", "0,outage",
                 "-replicas", "256", "-days", "0.002"],
        "fleet": True, "group_by": "scenario", "metric": "wl.mp.losspct",
        "drill": "kind=cell,name=*-r1?",
    },
}

# Tables ronreport -render re-renders, by the merged/ file they must equal.
RENDERS = [("overview", "table5.txt"), ("table6", "table6.txt"),
           ("workload", "workload.txt"), ("resilience", "resilience.txt")]


class Failure(Exception):
    """An operation or output check that failed."""


class Procs:
    """Tracks child processes so a watchdog can stop them all."""

    def __init__(self):
        self.lock = threading.Lock()
        self.live = set()
        self.expired = False

    def start(self, args, **kw):
        with self.lock:
            if self.expired:
                raise Failure("run time limit reached")
            p = subprocess.Popen(args, env=RUN_ENV, cwd=ROOT, **kw)
            self.live.add(p)
        return p

    def wait(self, p):
        """Waits for p and returns (exit code, peak RSS in MB)."""
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        with self.lock:
            self.live.discard(p)
        return p.returncode, ru.ru_maxrss / 1024.0

    def stop(self, p):
        """Interrupts p unless it has exited; waits for it either way.
        Returns (exited on its own, exit code, peak RSS in MB)."""
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid == 0:
            p.send_signal(signal.SIGINT)
            code, rss = self.wait(p)
            return False, code, rss
        p.returncode = os.waitstatus_to_exitcode(status)
        with self.lock:
            self.live.discard(p)
        return True, p.returncode, ru.ru_maxrss / 1024.0

    def kill_all(self):
        """Kills every live process and refuses to start new ones."""
        with self.lock:
            self.expired = True
            for p in self.live:
                try:
                    p.kill()
                except OSError:
                    pass

    def reap(self):
        """Kills every live process and waits until each has ended."""
        self.kill_all()
        with self.lock:
            live = list(self.live)
        for p in live:
            try:
                self.wait(p)
            except ChildProcessError:
                pass


PROCS = Procs()
RUN_ENV = {}


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    """Confines the go command's caches and temp files to .bench_build."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    return env


def build():
    for need in ("go.mod", "cmd/ronsim", "cmd/ronreport", "perfbench/go.mod"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail_setup(f"{need} not found: run from the root of a source checkout")
    env = go_env()
    for d in ("gocache", "gopath", "tmp", "config", "bin"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    steps = [
        (["go", "build", "-o", BIN + os.sep, "./cmd/ronsim", "./cmd/ronreport"], ROOT),
        (["go", "build", "-o", TOOL, "./tool"], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=850)
        if r.returncode != 0:
            fail_setup("build failed: " + " ".join(cmd) + "\n" + r.stderr)
    RUN_ENV.clear()
    RUN_ENV.update(env)
    RUN_ENV.pop("GOMAXPROCS", None)


def digest_tree(root):
    """sha256 of every file under root, by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_until(stream, pattern, limit=200):
    """Reads lines until one contains pattern; returns (lines read, time)."""
    lines = []
    for _ in range(limit):
        line = stream.readline()
        if not line:
            break
        lines.append(line.decode(errors="replace"))
        if pattern in lines[-1]:
            return "".join(lines), time.monotonic()
    raise Failure(f"never printed {pattern!r}")


class Run:
    """One benchmark run: repetitions, checks and samples."""

    def __init__(self, name, seed, seconds):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.work = os.path.join(BUILD, "runs", f"{name}-s{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup = []
        self.rates = []
        self.totals = []
        self.rss = []
        self.queries = []
        self.digests = None
        self.counts = None
        self.groups = []

    # --- bookkeeping ---

    def op(self, n=1):
        self.attempted += n

    def fail(self, what, n=1):
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(what)

    def check(self, ok, what):
        self.op()
        if not ok:
            self.fail(what)
        return ok

    # --- the workload through the CLIs ---

    def sweep_args(self, out):
        return [RONSIM, "-sweep", *self.w["args"], "-seed", str(self.seed), "-out", out]

    def launch(self, out, log):
        """Starts the sweep process (the coordinator, for a fleet) and
        reads its output up to the ready line. Returns (process, set-up
        seconds, cells, launch time, coordinator address or None)."""
        args = self.sweep_args(out)
        ready_line = "=== sweep:"
        if self.w["fleet"]:
            args[2:2] = ["-serve", "127.0.0.1:0"]
            ready_line = "listening on"
        t0 = time.monotonic()
        p = PROCS.start(args, stdout=subprocess.PIPE, stderr=log)
        text, ready = read_until(p.stdout, ready_line)
        cells = int(re.search(r"=== sweep: (\d+) cells", text).group(1))
        addr = None
        if self.w["fleet"]:
            addr = text.rsplit("listening on", 1)[1].split()[0]
        return p, ready - t0, cells, t0, addr

    def setup_only(self):
        """Launches the workload, times it to its ready line, and stops it."""
        out = os.path.join(self.work, "setup")
        with open(os.path.join(self.work, "setup.log"), "ab") as log:
            p, setup, _, _, _ = self.launch(out, log)
            p.kill()
            PROCS.wait(p)
        shutil.rmtree(out, ignore_errors=True)
        self.setup.append(setup)

    def rep(self, out):
        """One full repetition: run, then check every output."""
        log_path = out + ".log"
        with open(log_path, "wb") as log:
            coord, setup, cells, t0, addr = self.launch(out, log)
            procs = [coord]
            if addr:
                # Two workers join the coordinator over loopback.
                for i in range(2):
                    procs.append(PROCS.start([RONSIM, "-sweep", "-worker", "http://" + addr,
                                              "-workername", f"w{i}"],
                                             stdout=subprocess.DEVNULL, stderr=log))
            coord.stdout.read()
            code, rss = PROCS.wait(coord)
            total = time.monotonic() - t0
            codes, peak = [code], rss
            for p in procs[1:]:
                # A worker that asks for work after the coordinator shut
                # down retries for up to a minute before it gives up;
                # the sweep is complete by then, so stop it. A worker
                # that already exited must have exited cleanly.
                exited, c, r = PROCS.stop(p)
                if exited:
                    codes.append(c)
                peak = max(peak, r)
        self.op(cells)
        if self.w["fleet"]:
            self.op(cells)  # uploads
        if any(codes) or cells == 0:
            self.fail(f"exit codes {codes}", cells * (2 if self.w["fleet"] else 1))
            return None
        self.setup.append(setup)
        self.rates.append(cells / total)
        self.totals.append(total)
        self.rss.append(peak)
        self.check_outputs(out, cells)
        return cells

    def check_outputs(self, out, cells):
        r = subprocess.run([TOOL, "check", "-out", out], env=RUN_ENV, capture_output=True, text=True)
        if not self.check(r.returncode == 0, "tool check: " + r.stderr.strip()):
            return
        rep = json.loads(r.stdout)
        self.groups = rep["groups"]
        self.check(rep["cells_expected"] == cells and rep["snapshots_ok"] == cells and not rep["errors"],
                   f"snapshots: {rep['snapshots_ok']}/{cells} parse; {rep['errors'][:3]}")
        self.check(rep["counts"]["store_rows"] == cells + len(rep["groups"]),
                   f"store rows {rep['counts']['store_rows']} != cells {cells} + groups {len(rep['groups'])}")
        self.check_counts(rep["counts"], "CLI run")
        digests = digest_tree(os.path.join(out, "merged"))
        if self.digests is None:
            self.digests = digests
            ref = self.reference()
            if ref and "digests" in ref:
                self.check(ref["digests"] == digests, "merged/ differs from an earlier run of this seed")
            else:
                self.save_reference(digests=digests)
        else:
            self.check(digests == self.digests, "merged/ differs between repetitions of one seed")
        for g in self.groups:
            ds = g["dataset"].lower()
            for kind, fname in RENDERS:
                path = os.path.join(out, "merged", g["name"], f"{ds}-{fname}")
                if not os.path.exists(path):
                    continue
                got = self.query(out, ["-query", f"kind=group,name={g['name']}", "-render", kind])
                with open(path, "rb") as fh:
                    want = fh.read()
                self.check(got == want, f"ronreport -render {kind} of {g['name']} != merged file")

    # --- exact counters and the per-seed reference ---

    def ref_path(self):
        """The reference of this workload, seed and build."""
        key = hashlib.sha256(json.dumps(self.w).encode())
        for b in (RONSIM, RONREPORT):
            with open(b, "rb") as fh:
                key.update(fh.read())
        d = os.path.join(BUILD, "reference")
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, f"{self.name}-s{self.seed}-{key.hexdigest()[:16]}.json")

    def reference(self):
        try:
            with open(self.ref_path()) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def save_reference(self, **kv):
        ref = self.reference() or {}
        ref.update(kv)
        tmp = self.ref_path() + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(ref, fh)
        os.replace(tmp, self.ref_path())

    def check_counts(self, counts, what):
        """Work counters must repeat exactly for a seed."""
        if self.counts is None:
            ref = self.reference()
            if ref and "counts" in ref:
                self.counts = ref["counts"]
            else:
                self.counts = counts
                self.save_reference(counts=counts)
        self.check(counts == self.counts, f"{what}: work counters {counts} != {self.counts}")

    # --- queries ---

    def query(self, out, args):
        """One timed ronreport -store invocation; returns its stdout."""
        self.op()
        t0 = time.monotonic()
        p = PROCS.start([RONREPORT, "-store", out, *args], stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE)
        stdout, stderr = p.communicate()
        dt = time.monotonic() - t0
        with PROCS.lock:
            PROCS.live.discard(p)
        if p.returncode != 0:
            self.fail(f"ronreport {' '.join(args)}: {stderr.decode(errors='replace').strip()}")
            return None
        self.queries.append(dt * 1000)
        return stdout

    def query_mix(self, out):
        """The fixed query mix: inventory, group-by with a quantile, a
        render of one group, and a bounded drill-down."""
        g = self.rng.choice(self.groups)["name"]
        kind = self.rng.choice(["overview", "table6"])
        mix = [
            ["-query", "kind=group"],
            ["-query", "kind=cell", "-group-by", self.w["group_by"], "-metrics",
             self.w["metric"], "-quantile", "0.9"],
            ["-query", f"kind=group,name={g}", "-render", kind],
        ]
        if self.w["drill"]:
            mix.append(["-query", self.w["drill"], "-drill", "win20:loss"])
        for args in mix:
            self.query(out, args)

    # --- the run ---

    def measure(self):
        """Repeats the workload until --seconds is nearly used up. After
        each repetition, queries over its output fill a fifth of the
        repetition's time and two set-up launches follow, so every
        metric samples the whole run rather than one stretch of it."""
        os.makedirs(self.work, exist_ok=True)
        start = time.monotonic()
        elapsed = lambda: time.monotonic() - start
        k = 0
        while True:
            # Start every repetition with no dirty pages left by the
            # previous one, so earlier writeback does not slow it.
            os.sync()
            out = os.path.join(self.work, f"rep{k}")
            t0 = time.monotonic()
            if self.rep(out) is None:
                break
            took = time.monotonic() - t0
            k += 1
            last = k >= 3 and elapsed() + 1.25 * took > self.seconds
            queries_until = time.monotonic() + 0.2 * took
            while True:
                self.query_mix(out)
                if time.monotonic() > queries_until and (not last or len(self.queries) >= MIN_QUERIES):
                    break
            for _ in range(SETUP_LAUNCHES):
                self.setup_only()
            shutil.rmtree(out, ignore_errors=True)
            if last:
                break
        shutil.rmtree(self.work, ignore_errors=True)

    def traced(self):
        """One checked CLI repetition beside the traced in-process run."""
        os.makedirs(self.work, exist_ok=True)
        out = os.path.join(self.work, "cli")
        self.rep(out)
        tout = os.path.join(self.work, "traced")
        spans = os.path.join(BUILD, "spans", f"{self.name}-s{self.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        args = [TOOL, "trace", "-out", tout, "-spans", spans]
        if self.w["fleet"]:
            args.append("-fleet")
        args += [*self.w["args"], "-seed", str(self.seed)]
        p = PROCS.start(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stdout, stderr = p.communicate()
        with PROCS.lock:
            PROCS.live.discard(p)
        self.op()
        if p.returncode != 0:
            self.fail("traced run: " + stderr.decode(errors="replace").strip())
            shutil.rmtree(self.work, ignore_errors=True)
            return None
        rep = json.loads(stdout)
        self.check_counts(rep["counts"], "traced run")
        self.check(digest_tree(os.path.join(tout, "merged")) == self.digests,
                   "traced run's merged/ differs from the CLI's")
        self.save_reference(traced_total_s=rep["total_s"])
        shutil.rmtree(self.work, ignore_errors=True)
        return rep


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fs_type(path):
    """Filesystem type of the mount holding path (tmpfs means RAM)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def metadata(run, traced_total):
    go = subprocess.run(["go", "version"], env=RUN_ENV, capture_output=True, text=True).stdout.strip()
    ref = run.reference() or {}
    return {
        "workload": run.name, "seed": run.seed, "seconds": run.seconds,
        "nproc": os.cpu_count(),
        # GOMAXPROCS is unset for the programs, so Go uses every CPU the
        # process may run on.
        "gomaxprocs": len(os.sched_getaffinity(0)),
        "go": go, "cpu": cpu_model(),
        "output_fs": fs_type(os.path.realpath(BUILD)),
        "network": "loopback only (127.0.0.1)",
        "repetitions": len(run.rates), "queries": len(run.queries),
        "rep_cells_per_s": [round(r, 3) for r in run.rates],
        "setup_samples": len(run.setup),
        "untraced_total_s": statistics.median(run.totals) if run.totals else None,
        "traced_total_s": traced_total if traced_total is not None else ref.get("traced_total_s"),
        "errors": run.errors,
    }


def quantile(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, int(q * (len(s) - 1) + 0.5))]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    bench = spec()
    run = Run(a.workload, a.seed, a.seconds)
    watchdog = threading.Timer(RUN_LIMIT_S, PROCS.kill_all)
    watchdog.daemon = True
    watchdog.start()
    metrics = {}
    traced_total = None
    want = bench["per_layer"] if a.trace else bench["end_to_end"]
    try:
        if a.trace:
            rep = run.traced()
            if rep:
                traced_total = rep["total_s"]
                metrics = rep["metrics"]
        else:
            run.measure()
    except Exception as e:  # any error is a failed operation, reported below
        run.fail(f"{type(e).__name__}: {e}")
    finally:
        watchdog.cancel()
        PROCS.reap()
        shutil.rmtree(run.work, ignore_errors=True)
    if not a.trace:
        samples = {
            "setup_s": (run.setup, statistics.median),
            "cells_per_s": (run.rates, statistics.median),
            "peak_rss_mb": (run.rss, statistics.median),
            "query_p50_ms": (run.queries, statistics.median),
            "query_p95_ms": (run.queries, lambda v: quantile(v, 0.95)),
        }
        for name, (values, stat) in samples.items():
            if values:
                metrics[name] = {"value": stat(values)}
        if run.rates:
            metrics["ok_frac"] = {"value": 1 - run.failed / max(1, run.attempted)}
    out = {}
    for m in want:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
        else:
            run.fail(f"metric {m['name']} not measured")
            run.op()
    print(json.dumps({"meta": metadata(run, traced_total)}))
    print(json.dumps({"correct": run.failed == 0, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
