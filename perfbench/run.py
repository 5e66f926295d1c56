#!/usr/bin/env python3
"""The repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. Builds `repro` and the in-process tracer
(`perfbench/tracer`) in the release profile, then drives one workload
(`paper`, `model_sweep`, `serve`, `dispatch`) for `--seconds` seconds.

* `--trace 0` drives the shipped binaries with tracing off and reports
  the end-to-end metrics.
* `--trace 1` runs the workload's traced pass in-process (the tracer
  calls the same public functions `repro` calls, under the same flight
  recorder, with a span around every call into a layer) plus one
  untraced pass for the tracing overhead, and reports the per-layer
  metrics.

A human-readable report, including the workload-specific metrics that
are not gated and the environment, goes to stderr. The last stdout line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Every op's output is checked; a mismatch counts as a failed op.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = json.loads((BENCH / "golden.json").read_text())

WORKLOADS = ("paper", "model_sweep", "serve", "dispatch")
# The seed under which model_sweep runs the specs' built-in seeds and
# checks the CSV digests recorded at the defining commit.
DEFAULT_SEED = 0
SETUP_REPEATS = 15

# model_sweep: cold `repro sweep --full` of both kernels under both layouts.
SWEEPS = [(s, l) for s in ("figure4-family", "npair-scaling") for l in ("v1", "v2")]
# serve: the seeded op mix (share of each op kind) and ops per pass.
SERVE_MIX = (("cold", 0.4), ("warm", 0.3), ("results", 0.15), ("rows", 0.15))
SERVE_PASS_OPS = 60
# Cold streams checked against an in-process run, per run.
SERVE_CHECKED = 300
SERVE_CLIENTS = 2
# The cold spec: a small two-pair grid, so HTTP, queue and cache dominate.
SERVE_SPEC = """name = "serve-small"
rmaxes = [20.0]
ds = [5.0, 10.0, 20.0, 40.0, 80.0, 160.0]
sigmas = [8.0]
alphas = [3.0]
d_threshes = [55.0]
caps = ["shannon"]
topologies = ["two-pair"]
policies = ["multiplexing", "concurrency", "carrier-sense", "optimal", "optimal-upper-bound"]
samples = 2000
seed = {seed}
"""
# dispatch: a small plan, so fixed per-run costs dominate.
DISPATCH_SAMPLES = 200
DISPATCH_K = 2
DISPATCH_RSS_PASSES = 5


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log(f"perfbench: {msg}")
    sys.exit(2)


# ---------------------------------------------------------------- build


def build():
    """Build `repro` and the tracer in the release profile; return their
    paths. Build time is never part of any metric."""
    if not (ROOT / "Cargo.toml").exists() or not (ROOT / "crates" / "bench").is_dir():
        fail_setup(f"no repository sources under {ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "wcs-bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(BENCH / "tracer" / "Cargo.toml")],
    ):
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if p.returncode != 0:
            fail_setup(f"build failed: {' '.join(cmd)}")
    return target / "release" / "repro", target / "release" / "perfbench-trace"


def environment(seed):
    """What every result is recorded beside."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": rustc,
        "profile": "release",
        "seed": seed,
    }


# ---------------------------------------------------------------- processes


class Proc:
    """One finished child: stdout bytes, stderr text, exit code, wall
    seconds and, when measured, the high-water RSS (MB) of the child and
    everything it waited for."""

    def __init__(self, out, err, code, wall, rss_mb):
        self.out, self.err, self.code, self.wall, self.rss_mb = out, err, code, wall, rss_mb


# `perfbench-trace maxrss`, set once built. The RSS that `wait4` reports
# for a child of this script would include the script's own, so children
# whose RSS is measured are started through this small launcher.
LAUNCHER = None


def run_proc(argv, cwd, env=None, on_line=None, rss=False):
    """Run a child to completion. `on_line(line, t)` sees each stdout
    line as it arrives, stamped with `time.perf_counter()`. With `rss`
    the child runs under the launcher and its high-water RSS is kept."""
    if rss:
        argv = [LAUNCHER, "maxrss", "--"] + list(argv)
    with tempfile.TemporaryFile() as errf:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=env,
                             stdout=subprocess.PIPE, stderr=errf, stdin=subprocess.DEVNULL)
        if on_line is None:
            out = p.stdout.read()
        else:
            chunks = []
            for line in p.stdout:
                on_line(line, time.perf_counter())
                chunks.append(line)
            out = b"".join(chunks)
        p.stdout.close()
        p.wait()
        wall = time.perf_counter() - t0
        errf.seek(0)
        err = errf.read().decode("utf-8", "replace")
    rss_mb = None
    if rss:
        m = re.search(r"perfbench-maxrss-kb (\d+)\s*$", err)
        rss_mb = int(m.group(1)) / 1024.0 if m else None
    return Proc(out, err, p.returncode, wall, rss_mb)


def sha(data):
    return hashlib.sha256(data).hexdigest()


class Workdir:
    """A fresh scratch directory inside the checkout, removed at exit."""

    def __init__(self, name):
        base = ROOT / ".bench_work"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))

    def fresh(self, name):
        d = self.path / name
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        return d

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def timed_setup(fn, untimed=None):
    """Run a setup closure SETUP_REPEATS times, each after `untimed()`
    (tearing down the previous one, outside the clock); return (median
    seconds, every time, the last result)."""
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        if untimed is not None:
            untimed()
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return stats.median(times), times, result


def passes_until(seconds, one_pass):
    """Run whole passes until `seconds` have been spent (at least one).
    Returns the list of pass results."""
    results = []
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < seconds:
        results.append(one_pass(len(results)))
    return results


def spec_with(text, **keys):
    """Replace top-level `key = value` lines of a spec file."""
    for key, value in keys.items():
        text, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        if n != 1:
            raise ValueError(f"spec has no single '{key}' line")
    return text


# ---------------------------------------------------------------- workloads


class Result:
    """What one workload run produced."""

    def __init__(self):
        self.ops = stats.OpCounter()
        self.setup_s = None
        self.setup_all = []
        self.pass_walls = []
        self.pass_rates = []  # work per second of each pass
        self.work_mark = 0.0
        self.work = 0.0  # work units completed (experiments, samples, jobs, plan runs)
        self.work_unit = ""
        self.rss_peaks = []  # high-water RSS (MB) of each pass's processes
        self.extra = {}  # workload-specific metrics: name -> (value, unit, note)
        self.latencies = {}  # op class -> [seconds]

    def end_pass(self, wall):
        self.pass_walls.append(wall)
        self.pass_rates.append((self.work - self.work_mark) / wall)
        self.work_mark = self.work

    def lat(self, cls, seconds):
        self.latencies.setdefault(cls, []).append(seconds)

    def add_latency_metrics(self, cls, prefix=None):
        xs = self.latencies.get(cls, [])
        prefix = prefix or cls
        if not xs:
            return
        self.extra[f"{prefix}_p50_ms"] = (1e3 * stats.median(xs), "ms", f"n={len(xs)}")
        t = stats.tail(xs)
        if t is not None:
            v, pct, n = t
            self.extra[f"{prefix}_tail_ms"] = (1e3 * v, "ms", f"p{pct:.1f}, n={n}")
        else:
            self.extra[f"{prefix}_tail_ms"] = (float("nan"), "ms", f"n={len(xs)}: too few samples")

    def e2e(self):
        return {
            "setup_s": (self.setup_s, "s"),
            "wall_s": (stats.median(self.pass_walls), "s"),
            "work_per_s": (stats.median(self.pass_rates), "1/s"),
            "peak_rss_mb": (stats.median(self.rss_peaks), "MB"),
        }


def paper_sections(out):
    """Split `repro all` stdout into (name, section bytes) pairs."""
    names = re.findall(rb"(?m)^==================== (\S+) ====================$", out)
    parts = re.split(rb"(?m)^(?===================== \S+ ====================$)", out)
    parts = [p for p in parts if p]
    return [(n.decode(), p) for n, p in zip(names, parts)]


def run_paper(repro, seed, seconds, wd):
    res = Result()
    res.work_unit = "experiments"
    golden = GOLDEN["paper"]
    expected = [name for name, _ in golden["sections"]]

    def setup():
        d = wd.fresh("paper")
        # The op list comes from the binary itself (`repro help` lists
        # the experiments `repro all` runs, and exits 2).
        p = run_proc([repro, "help"], cwd=d)
        listed = re.search(r"(?m)^experiments: (.*)$", p.err)
        if p.code != 2 or listed is None or listed.group(1).split() != expected:
            fail_setup("repro help does not list the expected experiments")
        return d

    res.setup_s, res.setup_all, d = timed_setup(setup)
    env = dict(os.environ, WCS_CACHE_DIR=str(d / "cache"))

    def one_pass(_):
        stamps = []
        t0 = time.perf_counter()

        def on_line(line, t):
            if line.startswith(b"==================== "):
                stamps.append(t)

        p = run_proc([repro, "all"], cwd=d, env=env, on_line=on_line, rss=True)
        res.rss_peaks.append(p.rss_mb or 0.0)
        sections = paper_sections(p.out) if p.code == 0 else []
        got = dict(sections)
        prev = t0
        for i, (name, digest) in enumerate(golden["sections"]):
            ok = name in got and sha(got[name]) == digest
            res.ops.record(ok, f"paper: section {name} differs")
            if i < len(stamps):
                res.lat("experiment", stamps[i] - prev)
                prev = stamps[i]
        whole = p.code == 0 and sha(p.out) == golden["sha256"]
        if not whole and res.ops.failed == 0:
            res.ops.record(False, "paper: output digest differs")
        res.work += len(sections)
        res.end_pass(p.wall)

    passes_until(seconds, one_pass)
    res.add_latency_metrics("experiment")
    return res


def model_specs(repro, seed, d):
    """Write the seeded --full spec files; return {scenario: path}."""
    out = {}
    for scen in ("figure4-family", "npair-scaling"):
        p = run_proc([repro, "--full", "spec", scen], cwd=d)
        if p.code != 0:
            fail_setup(f"repro spec {scen} failed")
        text = p.out.decode()
        if seed != DEFAULT_SEED:
            text = spec_with(text, seed=seed)
        path = d / f"{scen}.toml"
        path.write_text(text)
        out[scen] = path
    return out


def spec_samples(path):
    return int(re.search(r"(?m)^samples = (\d+)$", path.read_text()).group(1))


def run_model_sweep(repro, tracer, seed, seconds, wd):
    res = Result()
    res.work_unit = "samples"
    golden = GOLDEN["model_sweep"]

    def setup():
        d = wd.fresh("model")
        return d, model_specs(repro, seed, d)

    res.setup_s, res.setup_all, (d, specs) = timed_setup(setup)
    last_cache = {}

    def one_pass(i):
        t0 = time.perf_counter()
        peak = 0.0
        for scen, layout in SWEEPS:
            cache = d / f"cache-{i}-{scen}-{layout}"
            env = dict(os.environ, WCS_CACHE_DIR=str(cache))
            p = run_proc([repro, "sweep", "--spec", specs[scen], "--stream-layout", layout, "--csv"],
                         cwd=d, env=env, rss=True)
            res.lat(f"{scen}.{layout}", p.wall)
            peak = max(peak, p.rss_mb or 0.0)
            m = re.search(r"\[sweep .*: (\d+) tasks, \d+ threads, cache miss", p.err)
            ok = p.code == 0 and m is not None
            if ok and seed == DEFAULT_SEED:
                ok = sha(p.out) == golden[f"{scen}.{layout}"]
            res.ops.record(ok, f"model_sweep: {scen} {layout} failed or differs (code {p.code})")
            if m:
                res.work += int(m.group(1)) * spec_samples(specs[scen])
            if i > 0:
                shutil.rmtree(last_cache[(scen, layout)], ignore_errors=True)
            last_cache[(scen, layout)] = cache
            (d / f"{scen}.{layout}.csv").write_bytes(p.out)
        res.end_pass(time.perf_counter() - t0)
        res.rss_peaks.append(peak)

    passes_until(seconds, one_pass)
    # A 1-thread in-process rerun of a seeded sample of each sweep's
    # tasks must reproduce their rows (checked outside the timed window).
    for scen, layout in SWEEPS:
        p = run_proc([tracer, "check-tasks", "--spec", specs[scen], "--layout", layout,
                      "--cache-dir", last_cache[(scen, layout)], "--csv", d / f"{scen}.{layout}.csv",
                      "--seed", seed, "--sample", 6], cwd=d)
        if p.code != 0:
            res.ops.fail(f"model_sweep: rerun check {scen} {layout}: {p.err.strip()[-200:]}")
    res.extra["samples_per_s"] = (stats.median(res.pass_rates), "1/s", "median over passes")
    for scen, layout in SWEEPS:
        res.add_latency_metrics(f"{scen}.{layout}", prefix=f"sweep.{scen}.{layout}")
    return res


# ---------------------------------------------------------------- serve


def http_call(port, method, path, body=None):
    c = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        c.request(method, path, body=body)
        r = c.getresponse()
        return r.status, r.read()
    finally:
        c.close()


def sse_csv(data):
    """Reassemble an SSE row feed into the CSV `repro sweep --csv` prints."""
    lines = [ln[6:] for ln in data.decode().split("\n") if ln.startswith("data: ")]
    if not lines:
        return None
    return "".join(ln + "\n" for ln in lines[:-1])


class Daemon:
    """A `repro serve` child on a loopback port."""

    def __init__(self, repro, cwd, cache):
        env = dict(os.environ, WCS_CACHE_DIR=str(cache))
        self.proc = subprocess.Popen([str(repro), "serve", "--addr", "127.0.0.1:0"], cwd=cwd, env=env,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL)
        self.port = None
        for raw in self.proc.stderr:
            m = re.search(rb"listening on 127\.0\.0\.1:(\d+)", raw)
            if m:
                self.port = int(m.group(1))
                break
        # Keep draining stderr so the daemon never blocks on a full pipe.
        self.drain = threading.Thread(target=lambda: [None for _ in self.proc.stderr], daemon=True)
        self.drain.start()
        if self.port is None:
            self.stop()
            fail_setup("repro serve did not report its port")
        deadline = time.perf_counter() + 30
        while True:
            try:
                if http_call(self.port, "GET", "/v1/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                fail_setup("repro serve never answered /v1/healthz")
            time.sleep(0.001)

    def status_kb(self, key):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self.drain.join()
        self.proc.stderr.close()


class ServeClient:
    """The closed-loop op mix against one daemon. Each op is one of
    cold submit, warm resubmit, results page or rows page."""

    def __init__(self, port, seed, res):
        self.port = port
        self.res = res
        self.rng = random.Random(seed)
        self.lock = threading.Lock()
        self.next_seed = (seed * 1_000_003) % (1 << 40) + 1
        self.done = []  # (seed, hash) of finished cold jobs
        self.csv = {}  # seed -> reassembled CSV
        self.jobs = 0

    def next_op(self):
        with self.lock:
            r = self.rng.random()
            kind = "cold"
            for k, share in SERVE_MIX:
                if r < share:
                    kind = k
                    break
                r -= share
            if kind != "cold" and not self.done:
                kind = "cold"
            if kind == "cold":
                arg = self.next_seed
                self.next_seed += 1
            else:
                arg = self.done[self.rng.randrange(len(self.done))]
            return kind, arg

    def submit(self, spec_seed, want_deduped):
        status, body = http_call(self.port, "POST", "/v1/jobs", SERVE_SPEC.format(seed=spec_seed).encode())
        if status not in (200, 202):
            return None, f"POST answered {status}"
        reply = json.loads(body)
        if reply["deduped"] != want_deduped:
            return None, f"deduped={reply['deduped']} for a {'warm' if want_deduped else 'cold'} submit"
        status, feed = http_call(self.port, "GET", f"/v1/jobs/{reply['id']}/rows")
        if status != 200:
            return None, f"rows feed answered {status}"
        return (reply["job"]["hash"], sse_csv(feed)), ""

    def op(self):
        kind, arg = self.next_op()
        t0 = time.perf_counter()
        ok, why = True, ""
        if kind == "cold":
            got, why = self.submit(arg, False)
            ok = got is not None and got[1] is not None
            if ok:
                with self.lock:
                    self.csv[arg] = got[1]
                    self.done.append((arg, got[0]))
        elif kind == "warm":
            got, why = self.submit(arg[0], True)
            ok = got is not None and got[1] == self.csv[arg[0]]
            why = why or "warm replay differs from the cold stream"
        elif kind == "results":
            status, body = http_call(self.port, "GET", "/v1/results?kind=model&limit=20")
            ok = status == 200 and len(json.loads(body).get("entries", [])) >= 1
            why = f"results page answered {status}"
        else:
            status, body = http_call(self.port, "GET", f"/v1/results/rows?hash={arg[1]}&seed={arg[0]}&limit=10")
            ok = status == 200 and len(json.loads(body).get("rows", [])) == 10
            why = f"rows page answered {status}"
        dt = time.perf_counter() - t0
        with self.lock:
            self.res.ops.record(ok, f"serve {kind}: {why}")
            if ok:
                self.res.lat(kind, dt)
                self.jobs += 1

    def run_pass(self, n_ops):
        """Run n_ops ops over SERVE_CLIENTS closed-loop clients."""
        left = [n_ops]
        lock = threading.Lock()
        errors = []

        def client():
            try:
                while True:
                    with lock:
                        if left[0] == 0:
                            return
                        left[0] -= 1
                    self.op()
            except Exception as e:  # a crashed client is a failed op, never a hang
                errors.append(repr(e))

        threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for e in errors:
            self.res.ops.record(False, f"serve client crashed: {e}")


def run_serve(repro, tracer, seed, seconds, wd):
    res = Result()
    res.work_unit = "jobs"
    daemons = []

    def teardown():
        if daemons:
            daemons.pop().stop()

    def setup():
        d = wd.fresh("serve")
        daemons.append(Daemon(repro, d, d / "cache"))
        return d

    try:
        res.setup_s, res.setup_all, d = timed_setup(setup, teardown)
        daemon = daemons[0]
        client = ServeClient(daemon.port, seed, res)
        rss0 = daemon.status_kb("VmRSS")

        def one_pass(i):
            t0 = time.perf_counter()
            client.run_pass(SERVE_PASS_OPS)
            res.work = client.jobs
            res.end_pass(time.perf_counter() - t0)
            if i == 0:
                # Peak RSS after a fixed amount of work, so a faster
                # daemon is not charged for the extra jobs it admits.
                res.rss_peaks.append(daemon.status_kb("VmHWM") / 1024.0)

        passes_until(seconds, one_pass)
        jobs_done = len(client.done) + len(res.latencies.get("warm", []))
        growth = (daemon.status_kb("VmRSS") - rss0) / max(1, jobs_done)
    finally:
        for dm in daemons:
            dm.stop()
    # Cold streams must equal an in-process run of their spec (a seeded
    # sample; warm replays were already held to their cold stream).
    seeds = sorted(client.csv)
    seeds = sorted(random.Random(seed).sample(seeds, min(len(seeds), SERVE_CHECKED)))
    seeds_file = d / "seeds.txt"
    seeds_file.write_text("".join(f"{s}\n" for s in seeds))
    (d / "template.toml").write_text(SERVE_SPEC)
    refs = d / "refs"
    p = run_proc([tracer, "reference", "--template", d / "template.toml", "--seeds", seeds_file,
                  "--out", refs], cwd=d)
    if p.code != 0:
        res.ops.fail(f"serve: reference run failed: {p.err.strip()[-200:]}")
    for s in seeds:
        ref = refs / f"{s}.csv"
        if not (ref.exists() and ref.read_text() == client.csv[s]):
            res.ops.fail(f"serve: stream for seed {s} differs")
    res.add_latency_metrics("cold")
    res.add_latency_metrics("warm")
    res.add_latency_metrics("results")
    res.add_latency_metrics("rows")
    res.extra["jobs_per_s"] = (stats.median(res.pass_rates), "1/s", "median over passes")
    res.extra["daemon_rss_growth_kb_per_job"] = (growth, "kB", "")
    return res


# ---------------------------------------------------------------- dispatch


def dispatch_spec(repro, seed, d):
    p = run_proc([repro, "spec", "npair-placements"], cwd=d)
    if p.code != 0:
        fail_setup("repro spec npair-placements failed")
    path = d / "plan.toml"
    path.write_text(spec_with(p.out.decode(), seed=seed, samples=DISPATCH_SAMPLES))
    return path


def run_dispatch(repro, tracer, seed, seconds, wd):
    res = Result()
    res.work_unit = "plan runs"

    def setup():
        d = wd.fresh("dispatch")
        return d, dispatch_spec(repro, seed, d)

    res.setup_s, res.setup_all, (d, spec) = timed_setup(setup)
    outputs = []

    def one_pass(i):
        t0 = time.perf_counter()
        for verb in ("shard", "dispatch"):
            p = run_proc([repro, verb, "run", "--spec", spec, "-k", DISPATCH_K, "--csv", "--no-cache"],
                         cwd=d, env=dict(os.environ, WCS_CACHE_DIR=str(d / "cache")))
            res.lat(f"{verb}_run", p.wall)
            outputs.append((verb, p.code, p.out))
            res.work += 1
        res.end_pass(time.perf_counter() - t0)

    passes_until(seconds, one_pass)
    # Peak RSS from a few more passes, outside the timed ones: the
    # launcher would add to these short runs' latency.
    for _ in range(DISPATCH_RSS_PASSES):
        peak = 0.0
        for verb in ("shard", "dispatch"):
            p = run_proc([repro, verb, "run", "--spec", spec, "-k", DISPATCH_K, "--csv", "--no-cache"],
                         cwd=d, env=dict(os.environ, WCS_CACHE_DIR=str(d / "cache")), rss=True)
            outputs.append((verb, p.code, p.out))
            peak = max(peak, p.rss_mb or 0.0)
        res.rss_peaks.append(peak)
    ref = run_proc([repro, "sweep", "--spec", spec, "--no-cache", "--csv", "--threads", "1"], cwd=d,
                   env=dict(os.environ, WCS_CACHE_DIR=str(d / "cache")))
    for verb, code, out in outputs:
        res.ops.record(ref.code == 0 and code == 0 and out == ref.out,
                       f"dispatch: {verb} run differs from the single-process sweep")
    res.add_latency_metrics("shard_run")
    res.add_latency_metrics("dispatch_run")
    return res


# ---------------------------------------------------------------- traced run


def traced(workload, repro, tracer, seed, wd):
    """The traced pass: the tracer runs the workload in-process and
    writes its spans and counters once, at the end."""
    d = wd.fresh("trace")
    out = d / "trace.json"
    args = [tracer, "trace", workload, "--seed", seed, "--repro", repro, "--dir", d, "--out", out]
    if workload == "model_sweep":
        args += ["--specs", ",".join(str(p) for p in model_specs(repro, seed, d).values())]
    if workload == "serve":
        (d / "template.toml").write_text(SERVE_SPEC)
        args += ["--template", d / "template.toml", "--ops", SERVE_PASS_OPS, "--clients", SERVE_CLIENTS,
                 "--mix", ",".join(str(share) for _, share in SERVE_MIX)]
    if workload == "dispatch":
        args += ["--spec", dispatch_spec(repro, seed, d), "--k", DISPATCH_K]
    p = run_proc(args, cwd=d)
    if p.code != 0 or not out.exists():
        return None, p.err
    trace = json.loads(out.read_text())
    if workload == "paper":
        # The traced pass must print exactly what `repro all` prints.
        printed = d / "paper.out"
        trace["checks"].append({"ok": printed.exists() and sha(printed.read_bytes()) == GOLDEN["paper"]["sha256"],
                                "what": "traced pass output equals the golden `repro all` digest"})
    return trace, p.err


def layer_metrics(trace, untraced_wall):
    """Per-layer metrics from the tracer's spans and counters."""
    spans = trace["spans"]
    c = trace["counters"]
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append((s["end"] - s["start"]) / 1e9)

    def total(name):
        return sum(by.get(name, []))

    def count(name):
        return len(by.get(name, []))

    def mean_ms(name):
        xs = by.get(name, [])
        return 1e3 * sum(xs) / len(xs) if xs else 0.0

    m = {}
    for name, _ in GOLDEN["paper"]["sections"]:
        m[f"experiment.{name}.s"] = (total(f"experiment.{name}"), "s")
    m["sim.testbed.calls"] = (count("sim.testbed"), "count")
    m["sim.testbed.s"] = (total("sim.testbed"), "s")
    m["sim.plan.s"] = (total("sim.plan"), "s")
    m["sim.pair.calls"] = (count("sim.pair"), "count")
    m["sim.pair.busy_s"] = (total("sim.pair"), "s")
    m["sim.serial_s"] = (total("sim.serial"), "s")
    m["sim.runs"] = (count("sim.run_for"), "count")
    m["sim.run_for.s"] = (total("sim.run_for"), "s")
    frames = c.get("sim.data_frames", 0) + c.get("sim.ctrl_frames", 0)
    m["sim.data_frames"] = (c.get("sim.data_frames", 0), "count")
    m["sim.ctrl_frames"] = (c.get("sim.ctrl_frames", 0), "count")
    m["sim.ns_per_frame"] = (1e9 * total("sim.run_for") / frames if frames else 0.0, "ns")
    sent = c.get("sim.data_frames", 0)
    m["sim.delivery_ratio"] = (c.get("sim.delivered", 0) / sent if sent else 0.0, "ratio")
    cap = c.get("engine.thread_ns", 0)
    m["engine.utilization"] = (c.get("engine.busy_ns", 0) / cap if cap else 0.0, "ratio")
    for topo in ["twopair"] + [f"npair-n{n}" for n in (2, 4, 8, 16)]:
        for layout in ("v1", "v2"):
            key = f"kernel.{topo}.{layout}"
            samples = c.get(f"{key}.samples", 0)
            m[f"{key}.ns_per_sample"] = (1e9 * total(key) / samples if samples else 0.0, "ns")
    m["spec.parse.us"] = (1e3 * mean_ms("spec.parse"), "us")
    m["cache.store.ms"] = (mean_ms("cache.store"), "ms")
    stores = count("cache.store")
    m["cache.store.bytes"] = (c.get("cache.store.bytes", 0) / stores if stores else 0.0, "bytes")
    m["cache.load.ms"] = (mean_ms("cache.load"), "ms")
    m["index.query.ms"] = (mean_ms("index.query"), "ms")
    m["index.rows_page.ms"] = (mean_ms("index.rows_page"), "ms")
    m["report.csv.ms"] = (mean_ms("report.csv"), "ms")
    m["serve.post.ms"] = (mean_ms("serve.post"), "ms")
    m["serve.rows.ms"] = (mean_ms("serve.rows"), "ms")
    m["serve.results.ms"] = (mean_ms("serve.results"), "ms")
    jobs = c.get("serve.jobs", 0)
    m["serve.queue_wait.ms"] = (c.get("serve.queue_wait_ns", 0) / 1e6 / jobs if jobs else 0.0, "ms")
    m["serve.exec.ms"] = (c.get("serve.exec_ns", 0) / 1e6 / jobs if jobs else 0.0, "ms")
    subs = c.get("serve.submissions", 0)
    m["serve.dedupe_ratio"] = (c.get("serve.deduped", 0) / subs if subs else 0.0, "ratio")
    m["serve.refused"] = (c.get("serve.refused", 0), "count")
    m["serve.rss_per_job_kb"] = (c.get("serve.rss_growth_kb", 0) / jobs if jobs else 0.0, "kB")
    m["shard.plan.ms"] = (mean_ms("shard.plan"), "ms")
    m["shard.worker.ms"] = (mean_ms("shard.worker"), "ms")
    m["shard.merge.ms"] = (mean_ms("shard.merge"), "ms")
    shard_runs = by.get("shard.run", [])
    dispatch_runs = by.get("dispatch.run", [])
    slack = 1e3 * (stats.median(dispatch_runs) - stats.median(shard_runs)) if shard_runs and dispatch_runs else 0.0
    m["dispatch.slack.ms"] = (slack, "ms")
    passes = by.get("pass", [])
    traced_wall = stats.median(passes) if passes else 0.0
    m["trace.overhead"] = (traced_wall / untraced_wall if untraced_wall else 0.0, "ratio")
    return m


def consistency(workload, trace, metrics):
    """The layer-sum checks: flag any parent whose children sum to more
    than its own time or explain less than half of it."""
    spans = trace["spans"]
    flags = []
    checks = []
    if workload == "paper":
        exp = sum(s["end"] - s["start"] for s in spans if s["name"].startswith("experiment."))
        checks.append(("experiment.* vs pass wall", sum(s["end"] - s["start"] for s in spans if s["name"] == "pass"), exp))
        checks.append(("sim.run_for.s vs sim.pair.busy_s", metrics["sim.pair.busy_s"][0], metrics["sim.run_for.s"][0]))
    if workload == "serve":
        checks.append(("serve.exec.ms + serve.queue_wait.ms vs cold_p50_ms", trace["counters"].get("serve.cold_p50_ns", 0) / 1e6,
                       metrics["serve.exec.ms"][0] + metrics["serve.queue_wait.ms"][0]))
    for name, parent, children in checks:
        why = stats.layer_check(parent, children)
        log(f"  layer check {name}: parent {parent:.6g}, children {children:.6g} -> {why or 'ok'}")
        if why:
            flags.append(f"{name}: {why}")
    return flags


# ---------------------------------------------------------------- main

RUNNERS = {
    "paper": lambda repro, tracer, seed, secs, wd: run_paper(repro, seed, secs, wd),
    "model_sweep": run_model_sweep,
    "serve": run_serve,
    "dispatch": run_dispatch,
}


def report_run(workload, res, env):
    log(f"== {workload} (seed {env['seed']}) ==")
    log(f"  env: {json.dumps(env)}")
    for name, (value, unit) in res.e2e().items():
        note = f"  ({res.work_unit} per second)" if name == "work_per_s" else ""
        log(f"  {name:<28} {value:>14.6g} {unit}{note}")
    log(f"  {'error_rate':<28} {stats.error_rate(res.ops.failed, res.ops.attempted):>14.6g} ratio"
        f"  ({res.ops.failed} of {res.ops.attempted} ops)")
    for name, (value, unit, note) in res.extra.items():
        log(f"  {name:<28} {value:>14.6g} {unit}  {note}")
    log(f"  setup repeats (s): {', '.join(f'{t:.4f}' for t in res.setup_all)}; passes: {len(res.pass_walls)}")
    if len(res.pass_walls) >= 2:
        q1, _, q3 = stats.quartiles(res.pass_walls)
        log(f"  pass wall quartiles (s): {q1:.6g} .. {q3:.6g}; spread {stats.spread(res.pass_walls):.4f}")
    for why in res.ops.reasons:
        log(f"  FAILED: {why}")


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def run_workload(workload, repro, tracer, seed, seconds, trace, env):
    wd = Workdir(workload)
    try:
        steal0, total0 = cpu_ticks()
        res = RUNNERS[workload](repro, tracer, seed, seconds, wd)
        steal1, total1 = cpu_ticks()
        # CPU time the hypervisor gave to other guests while this run
        # measured: a shared host makes every time here noisier.
        env = dict(env, steal_share=round((steal1 - steal0) / max(1, total1 - total0), 4))
        report_run(workload, res, env)
        if not trace:
            metrics = res.e2e()
            return res.ops, metrics
        tr, err = traced(workload, repro, tracer, seed, wd)
        ops = res.ops
        if tr is None:
            ops.record(False, f"{workload}: traced pass failed: {err.strip()[-300:]}")
            log(err)
            return ops, None
        for ok in tr["checks"]:
            ops.record(ok["ok"], f"{workload} traced check: {ok['what']}")
        # The traced serve pass is the first pass on a fresh daemon; later
        # untraced passes read a larger index, so compare with the first.
        untraced = res.pass_walls[0] if workload == "serve" else stats.median(res.pass_walls)
        metrics = layer_metrics(tr, untraced)
        log(f"== {workload} traced pass ==")
        for name, (value, unit) in metrics.items():
            log(f"  {name:<34} {value:>14.6g} {unit}")
        log("  self time by span name (s):")
        selfs = {}
        for span, self_ns in zip(tr["spans"], stats.self_times(tr["spans"])):
            selfs[span["name"]] = selfs.get(span["name"], 0) + self_ns / 1e9
        for name, s in sorted(selfs.items(), key=lambda kv: -kv[1])[:12]:
            log(f"    {name:<32} {s:>12.6g}")
        flags = consistency(workload, tr, metrics)
        for f in flags:
            log(f"  FLAG: {f}")
        return ops, metrics
    finally:
        wd.close()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")
    global LAUNCHER
    repro, tracer = build()
    LAUNCHER = tracer
    env = environment(a.seed)
    names = WORKLOADS if a.workload == "all" else (a.workload,)
    total = stats.OpCounter()
    metrics_out = {}
    for name in names:
        ops, metrics = run_workload(name, repro, tracer, a.seed, a.seconds, a.trace, env)
        total.merge(ops)
        for key, (value, unit) in (metrics or {}).items():
            full = key if len(names) == 1 else f"{name}.{key}"
            metrics_out[full] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics_out,
    }))


if __name__ == "__main__":
    main()
