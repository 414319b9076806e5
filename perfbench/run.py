"""The repository benchmark: three workloads, timed end to end and by layer.

    python3 perfbench/run.py --workload fig9-cold --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 42

Run it from the repository root.  Each repetition drives the program
through its user-facing surface with fresh caches:

* ``fig9-cold``  -- ``repro bench`` over the default Fig. 9 grid
  (8 matrices x 5 versions, Broadwell, Lanczos) in a fresh interpreter
  with an empty result cache and prep store.
* ``chaos-epyc`` -- ``repro prep build`` (set-up), then ``repro chaos``
  with a core-loss plan on the 128-core EPYC for Queen4147 and inline1,
  both in one fresh interpreter.
* ``served-mix`` -- ``repro cluster --shards 2 --jobs 0`` booted fresh,
  then 600 single-cell requests from 2 closed-loop keep-alive clients.

The run repeats until ``--seconds`` have passed and reports medians
over repetitions.  Times are host times scaled to a reference CPU
speed, measured by ``probe.py`` alongside every repetition: the shared
container's CPU speed drifts by up to a third over minutes, and the
scaling keeps that drift out of comparisons between commits.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics: on the sweeps, spans recorded around public
functions (``tracing.py``) in alternate repetitions; on ``served-mix``,
before/after differences of the router's ``/metrics``.  Every output
is checked against ``reference.json`` (regenerate with
``make_reference.py``) and, where cells overlap, the frozen
engine-equivalence fixture; a mismatch fails its operation.  The last
line of stdout is one JSON object.

All scratch files live under ``perfbench/.work`` and are removed at
exit; the last traced repetition's spans are kept in ``perfbench/out``.
"""

import argparse
import glob
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spec  # noqa: E402

WORKLOADS = ("fig9-cold", "chaos-epyc", "served-mix")
CHILD = os.path.join(spec.HERE, "child.py")
PROBE = os.path.join(spec.HERE, "probe.py")
WORK = os.path.join(spec.HERE, ".work")
OUT = os.path.join(spec.HERE, "out")

#: Simulator layers: span name (see tracing.py) -> per-layer metric.
SIM_LAYERS = (
    ("cli", "cli.self_s"), ("bench.runner", "bench.runner.self_s"),
    ("bench.cache.get", "bench.cache.get_s"),
    ("bench.cache.put", "bench.cache.put_s"),
    ("bench.prep.get", "bench.prep.get_s"),
    ("bench.prep.put", "bench.prep.put_s"),
    ("matrices.census", "matrices.census_s"),
    ("solvers.trace", "solvers.trace_s"), ("graph.build", "graph.build_s"),
    ("graph.freeze", "graph.freeze_s"),
    ("sim.cost_prepare", "sim.cost_prepare_s"),
    ("sim.sched_prepare", "sim.sched_prepare_s"),
    ("sim.engine_healthy", "sim.engine_healthy_s"),
    ("sim.engine_faulted", "sim.engine_faulted_s"),
    ("sim.bsp", "sim.bsp_s"), ("sim.summary", "sim.summary_s"),
)
with open(os.path.join(spec.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _BENCHMARK = json.load(_f)
END_TO_END = tuple((m["name"], m["unit"]) for m in _BENCHMARK["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _BENCHMARK["per_layer"])
#: Fewest repetitions per run, and the tail percentile those leave at
#: least ten samples beyond (fig9: 3 x 40 cells, chaos: 7 x 8 rows,
#: served: 3 x 600 requests).
MIN_REPS = {"fig9-cold": 3, "chaos-epyc": 7, "served-mix": 3}
TAIL_PCT = {"fig9-cold": 90, "chaos-epyc": 80, "served-mix": 99}
#: Never start a repetition that could end past this many seconds.
RUN_CAP_S = 150.0
MIN_COVERAGE = 0.9
#: Seconds one probe.py loop takes at the reference CPU speed (its
#: median on the two-vCPU KVM container, Xeon Sapphire Rapids, Python
#: 3.11, where the baseline was measured).  Reported times are host
#: times scaled by NOMINAL_PROBE_S / (mean probe loop during the
#: repetition), i.e. host seconds at the reference CPU speed.
NOMINAL_PROBE_S = 0.0040
TIME_UNITS = ("s", "ms", "us")
#: Per-layer metrics measured on served-mix; the rest on the sweeps.
SERVE_METRICS = {name for name, _ in PER_LAYER
                 if name.startswith("serve.")} | {"hit_p50_ms",
                                                   "miss_p50_ms"}


# ----------------------------------------------------------------------
def percentile(values, p):
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Rep:
    """What one repetition measured and checked."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed = 0
        self.problems = []
        self.wall_s = self.setup_s = self.peak_rss_mb = None
        self.latencies_ms = []
        self.hit_ms = []          # served-mix: source=cache responses
        self.miss_ms = []         # served-mix: source=computed responses
        self.layers = {}
        self.traced = False
        self.coverage = None
        self.spans = None
        self.window = None        # (start, end) on the monotonic clock
        self.speed = None         # probe loop seconds during the window

    def rescale(self, units):
        """Scale every time this repetition measured to reference speed."""
        k = NOMINAL_PROBE_S / self.speed
        if self.wall_s is not None:
            self.wall_s *= k
            self.setup_s *= k
        for values in (self.latencies_ms, self.hit_ms, self.miss_ms):
            values[:] = [v * k for v in values]
        for name in self.layers:
            if units.get(name) in TIME_UNITS:
                self.layers[name] *= k

    def fail(self, n, why):
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


class Context:
    """Scratch directories and the references for one run."""

    def __init__(self, seed):
        self.seed = seed
        self.reference = spec.load_reference()
        self.fixture = spec.fixture_cells()
        os.makedirs(WORK, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK)
        self.reps = 0

    def new_work(self):
        """A fresh directory for one repetition (caches, temp files)."""
        self.reps += 1
        work = os.path.join(self.root, f"rep{self.reps}")
        os.makedirs(os.path.join(work, "tmp"))
        return work

    def env(self, work):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        src = os.path.join(spec.ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["REPRO_CACHE_DIR"] = os.path.join(work, "cache")
        env["TMPDIR"] = os.path.join(work, "tmp")
        return env

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    def check_summary(self, rep, matrix, version, seed, summary):
        """Compare one summary with its reference digest and the fixture."""
        label = spec.cell_label(matrix, version, seed)
        want = self.reference["cells"].get(label)
        if want is None or spec.digest(summary) != want:
            rep.fail(1, f"{label}: summary differs from reference")
            return False
        bad = spec.fixture_mismatch(
            self.fixture, "broadwell", matrix, version, spec.FIG9_ITERATIONS,
            spec.fig9_block_count(version), seed, summary)
        if bad:
            rep.fail(1, f"{label}: differs from frozen fixture in {bad}")
            return False
        return True


def run_child(ctx, work, commands, trace):
    """One fresh interpreter running ``commands``; (result, spawn time)."""
    spec_path = os.path.join(work, "child-spec.json")
    out_path = os.path.join(work, "child-out.json")
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump({"commands": commands, "trace": trace, "out": out_path}, f)
    log_path = os.path.join(work, "child.log")
    spawn = time.monotonic()
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, CHILD, spec_path],
                                  env=ctx.env(work), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=120)
        except subprocess.TimeoutExpired:
            return None, spawn, "child timed out"
    if proc.returncode != 0 or not os.path.exists(out_path):
        with open(log_path, encoding="utf-8", errors="replace") as f:
            tail = f.read()[-800:]
        return None, spawn, f"child exited {proc.returncode}: {tail}"
    with open(out_path, encoding="utf-8") as f:
        return json.load(f), spawn, None


def absorb_trace(rep, result):
    """Per-layer numbers of one traced sweep repetition."""
    trace = result["trace"]
    rep.traced = True
    present = set(trace["present"])
    for layer, metric in SIM_LAYERS:
        if layer in present:
            rep.layers[metric] = trace["self_s"].get(layer, 0.0)
    prep = trace["prep_stats"]
    if prep is not None:
        rep.layers["bench.prep.hits"] = prep["hits"]
        rep.layers["bench.prep.misses"] = prep["misses"]
    if {"sim.engine_healthy", "sim.bsp"} <= present:
        simulated = trace["tasks_simulated"]
        rep.layers["sim.tasks_simulated"] = simulated
        rep.layers["sim.tasks_replayed"] = trace["tasks_replayed"]
        busy = sum(trace["self_s"].get(k, 0.0) for k in (
            "sim.engine_healthy", "sim.engine_faulted", "sim.bsp"))
        rep.layers["sim.host_us_per_task"] = (
            busy / simulated * 1e6 if simulated else 0.0)
    # cli and the runner are the catch-alls: their self time is what
    # no named layer accounts for.
    named = sum(v for k, v in trace["self_s"].items()
                if k not in ("cli", "bench.runner"))
    rep.coverage = named / rep.wall_s
    if rep.coverage < MIN_COVERAGE:
        rep.fail(1, f"layer self times cover {rep.coverage:.1%} of the "
                    f"traced wall time (want >= {MIN_COVERAGE:.0%})")
    rep.spans = trace["spans"]


# ----------------------------------------------------------------------
N_FIG9 = len(spec.FIG9_MATRICES) * len(spec.FIG9_VERSIONS)


def fig9_rep(ctx, trace):
    """The Fig. 9 sweep, cold; per-cell latency from cache-entry mtimes."""
    rep = Rep(N_FIG9)
    work = ctx.new_work()
    result, spawn, err = run_child(ctx, work, [spec.FIG9_ARGV], trace)
    if err or result["commands"][0]["rc"] != 0:
        rep.fail(N_FIG9, err or f"repro bench exited "
                              f"{result['commands'][0]['rc']}")
        return rep
    rep.setup_s = result["ready"] - spawn
    rep.wall_s = result["done"] - result["ready"]
    rep.peak_rss_mb = result["maxrss_kb"] / 1024.0
    entries = []
    for path in glob.glob(os.path.join(work, "cache", "??", "*.json")):
        with open(path, encoding="utf-8") as f:
            entry = json.load(f)
        entries.append((os.stat(path).st_mtime_ns, entry))
    entries.sort(key=lambda e: e[0])
    seen = set()
    for _, entry in entries:
        c = entry["config"]
        if c["machine"] == "broadwell" and c["solver"] == "lanczos":
            if ctx.check_summary(rep, c["matrix"], c["version"], c["seed"],
                                 entry["summary"]):
                seen.add((c["matrix"], c["version"]))
    missing = N_FIG9 - len(seen) - rep.failed
    if missing > 0:
        rep.fail(missing, f"{missing} cells missing from the result cache")
    previous = result["ready_wall"] * 1e9
    for mtime_ns, _ in entries:
        rep.latencies_ms.append((mtime_ns - previous) / 1e6)
        previous = mtime_ns
    if trace:
        absorb_trace(rep, result)
    return rep


N_CHAOS = len(spec.CHAOS_MATRICES) * len(spec.CHAOS_VERSIONS)


def chaos_rep(ctx, trace):
    """Prep prebuilt in set-up, then ``repro chaos`` on both matrices."""
    rep = Rep(N_CHAOS)
    work = ctx.new_work()
    fault_seed = ctx.seed % spec.CHAOS_SEEDS
    start = time.monotonic()
    prep = subprocess.run([sys.executable, "-m", "repro", *spec.PREP_ARGV],
                          env=ctx.env(work), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    prep_s = time.monotonic() - start
    if prep.returncode != 0:
        rep.fail(N_CHAOS, f"repro prep build exited {prep.returncode}: "
                          f"{prep.stderr.decode()[-400:]}")
        return rep
    reports = {m: os.path.join(work, f"chaos-{m}.json")
               for m in spec.CHAOS_MATRICES}
    commands = [spec.chaos_argv(m, fault_seed, reports[m])
                for m in spec.CHAOS_MATRICES]
    result, spawn, err = run_child(ctx, work, commands, trace)
    if err:
        rep.fail(N_CHAOS, err)
        return rep
    rep.setup_s = prep_s + (result["ready"] - spawn)
    rep.wall_s = result["done"] - result["ready"]
    rep.peak_rss_mb = result["maxrss_kb"] / 1024.0
    for matrix, command in zip(spec.CHAOS_MATRICES, result["commands"]):
        if command["rc"] != 0:
            rep.fail(len(spec.CHAOS_VERSIONS),
                     f"repro chaos {matrix} exited {command['rc']}")
            continue
        with open(reports[matrix], encoding="utf-8") as f:
            versions = json.load(f)["versions"]
        for version in spec.CHAOS_VERSIONS:
            got = versions.get(version)
            want = ctx.reference["chaos"].get(
                f"{fault_seed}/{matrix}/{version}")
            if got is None or spec.digest(got) != want:
                rep.fail(1, f"chaos {fault_seed}/{matrix}/{version}: "
                            f"totals differ from reference")
        previous = command["start"]
        for stamp, line in command["lines"]:
            if line.split(" ", 1)[0] in spec.CHAOS_VERSIONS:
                rep.latencies_ms.append((stamp - previous) * 1e3)
                previous = stamp
    if trace:
        absorb_trace(rep, result)
    return rep


# ----------------------------------------------------------------------
def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"null")
    finally:
        conn.close()


def child_pids(pid):
    pids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path, encoding="ascii") as f:
                pids.extend(int(p) for p in f.read().split())
        except OSError:
            pass
    return pids


def peak_rss_mb(pid):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def alive(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return f.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


def served_load(port, stream, keys):
    """Closed loop: two threads, one keep-alive connection each.

    Returns the load's wall time and one (key index, latency ms, status,
    body or error) record per request.  Responses are checked after the
    load, so neither client thread holds the interpreter lock for a
    check while the other is being timed.
    """
    lock = threading.Lock()
    cursor = iter(stream)
    records = []

    def claim():
        with lock:
            return next(cursor, None)

    def client():
        conn = None
        while True:
            index = claim()
            if index is None:
                break
            body = json.dumps(spec.request_doc(*keys[index]))
            start = time.perf_counter()
            try:
                if conn is None:
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=30)
                conn.request("POST", "/v1/cell", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                data = resp.read()
                status = resp.status
            except (OSError, http.client.HTTPException) as e:
                if conn is not None:
                    conn.close()
                conn = None
                status, data = None, f"{type(e).__name__}: {e}"
            records.append((index, (time.perf_counter() - start) * 1e3,
                            status, data))
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(2)]
    start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.monotonic() - start, records


def check_responses(ctx, rep, records, keys):
    """Fail every non-200, transport error or mismatched summary.

    A failed request counts as lasting the whole load phase, so a
    refusal is never mistaken for a fast answer.
    """
    for index, elapsed, status, data in records:
        if status is None:
            rep.fail(1, f"transport error: {data}")
        elif status != 200:
            rep.fail(1, f"HTTP {status}: {data[:200]!r}")
        else:
            payload = json.loads(data)
            if ctx.check_summary(rep, *keys[index], payload.get("summary")):
                rep.latencies_ms.append(elapsed)
                source = payload.get("source")
                if source == "cache":
                    rep.hit_ms.append(elapsed)
                elif source == "computed":
                    rep.miss_ms.append(elapsed)
                continue
        rep.latencies_ms.append(rep.wall_s * 1e3)


def served_rep(ctx, trace):
    """Boot a fresh 2-shard cluster, drive the request stream, drain it."""
    work = ctx.new_work()
    keys = spec.served_keys()
    # Each repetition draws its own stream, so a run's medians average
    # over several streams rather than resting on one.
    rng = random.Random(f"{ctx.seed}/{ctx.reps}")
    stream = [rng.randrange(len(keys)) for _ in range(spec.SERVED_REQUESTS)]
    rep = Rep(len(stream) + 1)    # + 1: the drain at the end
    log_path = os.path.join(work, "cluster.log")
    cmd = [sys.executable, "-m", "repro", "cluster", "--shards", "2",
           "--jobs", "0", "--port", "0",
           "--cluster-dir", os.path.join(work, "cluster")]
    spawn = time.monotonic()
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, env=ctx.env(work), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
    shards, records, before, after = [], [], None, None
    try:
        port = None
        while port is None and time.monotonic() - spawn < 60:
            with open(log_path, encoding="utf-8", errors="replace") as f:
                m = re.search(r"routing on http://[^:]+:(\d+)", f.read())
            if m:
                port = int(m.group(1))
            elif proc.poll() is not None:
                break
            else:
                time.sleep(0.01)
        while port is not None and time.monotonic() - spawn < 60:
            try:
                status, health = http_get(port, "/healthz")
                if status == 200 and len(health["shards_up"]) == 2:
                    break
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.01)
        else:
            rep.fail(rep.attempted, "cluster did not come up")
            return rep
        rep.setup_s = time.monotonic() - spawn
        shards = child_pids(proc.pid)
        before = http_get(port, "/metrics")[1] if trace else None
        rep.wall_s, records = served_load(port, stream, keys)
        after = http_get(port, "/metrics")[1] if trace else None
        rep.peak_rss_mb = sum(peak_rss_mb(p) for p in [proc.pid] + shards)
    except (OSError, ValueError, http.client.HTTPException) as e:
        rep.fail(1, f"cluster /metrics unreadable: {type(e).__name__}: {e}")
    finally:
        drained = stop_cluster(proc, shards)
    if not drained:
        rep.fail(1, "cluster did not drain cleanly")
    check_responses(ctx, rep, records, keys)
    if trace and before and after:
        rep.traced = True
        serve_layers(rep, before, after, len(set(stream)))
    return rep


def stop_cluster(proc, shards):
    """SIGTERM the router; True when it and every shard exited cleanly."""
    clean = True
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        clean = proc.wait(timeout=60) == 0
    except subprocess.TimeoutExpired:
        clean = False
    deadline = time.monotonic() + 10
    while any(alive(p) for p in shards) and time.monotonic() < deadline:
        time.sleep(0.05)
    leftovers = [p for p in shards if alive(p)]
    if leftovers or proc.poll() is None:
        clean = False
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        for p in leftovers:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        proc.wait(timeout=30)
    return clean


def _window_delta(before, after):
    """(count, total seconds) added to a latency window."""
    def totals(w):
        return w["count"], (w["mean_s"] or 0.0) * w["count"]
    c0, t0 = totals(before)
    c1, t1 = totals(after)
    return c1 - c0, t1 - t0


def serve_layers(rep, before, after, distinct_keys):
    """Per-layer request numbers from two router ``/metrics`` snapshots."""
    L = rep.layers
    n_req, t_req = _window_delta(before["latency"]["request"],
                                 after["latency"]["request"])
    n_up, t_up = _window_delta(before["latency"]["upstream"],
                               after["latency"]["upstream"])
    L["serve.router.self_ms_mean"] = (t_req - t_up) / max(1, n_req) * 1e3
    L["serve.router.upstream_ms_mean"] = t_up / max(1, n_up) * 1e3
    L["serve.router.retries"] = after["retries"] - before["retries"]
    L["serve.router.failovers"] = after["failovers"] - before["failovers"]
    sources = {}
    n_shard = t_shard = n_comp = t_comp = computations = high_water = 0
    for name, snap in after["shards"].items():
        m1 = snap.get("metrics")
        m0 = before["shards"].get(name, {}).get("metrics")
        if not m1 or not m0:
            rep.fail(1, f"no /metrics from shard {name}")
            continue
        for source, count in m1["requests"].items():
            sources[source] = (sources.get(source, 0) + count
                               - m0["requests"].get(source, 0))
        n, t = _window_delta(m0["latency"]["request"],
                             m1["latency"]["request"])
        n_shard, t_shard = n_shard + n, t_shard + t
        n, t = _window_delta(m0["latency"]["compute"],
                             m1["latency"]["compute"])
        n_comp, t_comp = n_comp + n, t_comp + t
        computations += m1["computations"] - m0["computations"]
        high_water = max(high_water, m1["queue_high_water"])
    L["serve.service.self_ms_mean"] = ((t_shard - t_comp)
                                       / max(1, n_shard) * 1e3)
    L["serve.pool.compute_ms_mean"] = t_comp / max(1, n_comp) * 1e3
    L["serve.service.cache_hits"] = sources.get("cache", 0)
    L["serve.service.coalesced"] = sources.get("coalesced", 0)
    L["serve.service.computed"] = sources.get("computed", 0)
    L["serve.service.rejected"] = sum(
        v for k, v in sources.items() if k.startswith("rejected"))
    served = (L["serve.service.cache_hits"] + L["serve.service.coalesced"]
              + L["serve.service.computed"])
    L["serve.service.hit_share"] = (
        (L["serve.service.cache_hits"] + L["serve.service.coalesced"])
        / max(1, served))
    L["serve.service.extra_computations"] = computations - distinct_keys
    L["serve.service.queue_high_water"] = high_water
    L["hit_p50_ms"] = statistics.median(rep.hit_ms) if rep.hit_ms else 0.0
    L["miss_p50_ms"] = statistics.median(rep.miss_ms) if rep.miss_ms else 0.0


REP_FUNCS = {"fig9-cold": fig9_rep, "chaos-epyc": chaos_rep,
             "served-mix": served_rep}


# ----------------------------------------------------------------------
def run_workload(workload, seed, seconds, trace, log):
    """Repeat one workload for ``seconds``; (result dict, human lines)."""
    ctx = Context(seed)
    reps = []
    start = time.monotonic()
    durations = []
    # Traced sweep runs alternate untraced and traced repetitions, so
    # the tracing overhead is measured in the same run; scraping
    # /metrics costs the served path nothing, so there every
    # repetition is traced.
    alternate = trace and workload != "served-mix"
    min_reps = 4 if alternate else MIN_REPS[workload]
    probe = subprocess.Popen([sys.executable, PROBE], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE)
    try:
        while True:
            elapsed = time.monotonic() - start
            expected = statistics.median(durations) if durations else 0.0
            if len(reps) >= min_reps and (
                    elapsed + expected > seconds
                    or elapsed + max(durations) > RUN_CAP_S):
                break
            traced = trace and (not alternate or len(reps) % 2 == 1)
            t0 = time.monotonic()
            rep = REP_FUNCS[workload](ctx, traced)
            rep.window = (t0, time.monotonic())
            durations.append(rep.window[1] - t0)
            reps.append(rep)
    finally:
        ctx.close()
        samples = json.loads(probe.communicate(timeout=30)[0])
    units = dict(END_TO_END + PER_LAYER)
    for i, rep in enumerate(reps, 1):
        inside = [dt for t, dt in samples
                  if rep.window[0] <= t <= rep.window[1]]
        rep.speed = statistics.mean(inside or [dt for _, dt in samples])
        log(f"  rep {i}{' traced' if rep.traced else ''}: host wall "
            f"{rep.wall_s} s, setup {rep.setup_s} s, probe "
            f"{rep.speed * 1e3:.3f} ms, failed {rep.failed}/{rep.attempted}"
            + (f" ({rep.problems[0]})" if rep.problems else ""))
        rep.rescale(units)
    return summarize(workload, reps, trace)


def summarize(workload, reps, trace):
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    plain = [r for r in reps if not r.traced and r.wall_s is not None]
    traced = [r for r in reps if r.traced and r.wall_s is not None]
    measured = plain or traced
    lines = [f"{workload}: {len(reps)} repetitions, {attempted} operations "
             f"attempted, {failed} failed "
             f"(failed_share {failed / max(1, attempted):.4f})"]
    for r in reps:
        for problem in r.problems[:3]:
            lines.append(f"  check failed: {problem}")
    metrics = {}
    if not measured:
        return {"correct": False, "attempted": max(1, attempted),
                "failed": max(1, failed), "metrics": metrics}, lines

    def med(values):
        return statistics.median(values)

    latencies = [x for r in measured for x in r.latencies_ms]
    tail_pct = TAIL_PCT[workload]
    beyond = len(latencies) - math.ceil(tail_pct / 100 * len(latencies))
    e2e = {
        "wall_s": med([r.wall_s for r in measured]),
        "setup_s": med([r.setup_s for r in measured]),
        "peak_rss_mb": med([r.peak_rss_mb for r in measured]),
        "req_per_s": med([max(0, len(r.latencies_ms) - r.failed) / r.wall_s
                          for r in measured]),
        "req_p50_ms": med(latencies),
        "req_tail_ms": percentile(latencies, tail_pct),
    }
    lines.append(f"  req_tail_ms is p{tail_pct} of {len(latencies)} "
                 f"operations ({beyond} beyond it)")
    if workload == "served-mix":
        for name, attr in (("hit_p50_ms", "hit_ms"),
                           ("miss_p50_ms", "miss_ms")):
            pooled = [x for r in measured for x in getattr(r, attr)]
            if pooled:
                lines.append(f"  {name:34s} {med(pooled):12.4f} ms "
                             f"({len(pooled)} requests)")
    if not trace:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        layer_values = {}
        on_path = SERVE_METRICS if workload == "served-mix" else (
            {name for name, _ in PER_LAYER} - SERVE_METRICS)
        for name, _ in PER_LAYER:
            values = [r.layers[name] for r in traced if name in r.layers]
            if values:
                layer_values[name] = med(values)
            elif name not in on_path:
                layer_values[name] = 0.0     # layer not on this path
        if workload != "served-mix" and plain and traced:
            layer_values["tracing_overhead_s"] = (
                med([r.wall_s for r in traced])
                - med([r.wall_s for r in plain]))
            coverage = med([r.coverage for r in traced])
            lines.append(f"  named layers' self times cover {coverage:.1%} "
                         f"of the traced wall_s")
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit in PER_LAYER if name in layer_values}
        if traced and traced[-1].spans is not None:
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, f"{workload}.spans.json"), "w",
                      encoding="utf-8") as f:
                json.dump(traced[-1].spans, f)
    shown = dict(e2e, **{k: v["value"] for k, v in metrics.items()})
    units = dict(END_TO_END + PER_LAYER)
    host_wall = med([r.wall_s * r.speed / NOMINAL_PROBE_S for r in measured])
    lines.append(f"  times below are at the reference CPU speed; host "
                 f"wall_s median {host_wall:.4f} s")
    for name, value in shown.items():
        lines.append(f"  {name:34s} {value:12.4f} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(spec.ROOT, "src", "repro", "cli.py")):
        print(f"no repro sources under {spec.ROOT}/src: run from the "
              "repository root of a full checkout", file=sys.stderr)
        return 2

    def log(line):
        print(line, file=sys.stderr, flush=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        log(f"{workload}: seed {args.seed}, {args.seconds:g} s, "
            f"trace {args.trace}")
        result, lines = run_workload(workload, args.seed, args.seconds,
                                     bool(args.trace), log)
        results[workload] = result
        print("\n".join(lines), flush=True)
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
