"""Cluster router suite: placement, failover, exactly-once, rollups.

The router's contract, each clause pinned against live in-process
shards (real TCP, real concurrency — :class:`BackgroundService` shards
behind a :class:`BackgroundRouter`):

* **placement** — every cell lands on the shard the consistent-hash
  ring names for its result-cache content hash, so a test-side replica
  of the ring predicts routing exactly;
* **exactly-once, cluster-wide** — duplicate-heavy concurrent load
  through the router computes each distinct cell once across *all*
  shards, proven from the shards' own audit JSONL, not the metrics;
* **failover** — a dead home shard costs one bounded retry and lands
  the request on the ring successor, idempotently;
* **backpressure relay** — a shard's 429 is relayed verbatim, never
  failed over (spilling would split the key's coalescing domain);
* **membership** — a shard restarting on a new port keeps its name and
  therefore every placement; the rollup ``/metrics`` sums shard
  counters so the load harness's invariants hold unchanged.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time

import pytest

from repro.bench.cache import ResultCache, placement_key
from repro.serve import (
    BackgroundRouter,
    BackgroundService,
    HashRing,
    Router,
    RouterConfig,
    ServeConfig,
    ServiceClient,
    normalize_cell,
)
from repro.serve.load import run_load
from repro.serve.router import parse_members
from repro.trace.sink import read_jsonl

CELLS = [
    {"machine": "broadwell", "matrix": "inline1", "solver": "lanczos",
     "version": v, "block_count": bc, "iterations": 1}
    for v in ("libcsr", "libcsb", "deepsparse", "hpx", "regent")
    for bc in (16, 32)
]


def _key(doc: dict) -> str:
    return placement_key(normalize_cell(doc).config())


def _shard_config(tmp_path, name: str, **kw) -> ServeConfig:
    root = tmp_path / name
    root.mkdir(parents=True, exist_ok=True)
    kw.setdefault("port", 0)
    kw.setdefault("jobs", 0)
    kw.setdefault("cache", ResultCache(root=str(root / "cache"),
                                       enabled=True))
    kw.setdefault("audit_path", str(root / "audit.jsonl"))
    return ServeConfig(**kw)


class _Cluster:
    """N in-process shards + router, with the ring the router uses."""

    def __init__(self, tmp_path, n: int = 3, **router_kw):
        self.shards = {}
        for i in range(n):
            name = f"shard-{i}"
            self.shards[name] = BackgroundService(
                _shard_config(tmp_path, name)).start()
        members = {name: ("127.0.0.1", bg.port)
                   for name, bg in self.shards.items()}
        router_kw.setdefault("probe_interval", 0.2)
        self.background = BackgroundRouter(
            RouterConfig(port=0, members=members, **router_kw)).start()
        self.ring = HashRing()
        for name in self.shards:
            self.ring.add(name)

    @property
    def port(self) -> int:
        return self.background.port

    def stop(self) -> None:
        self.background.stop()
        for bg in self.shards.values():
            bg.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


# ----------------------------------------------------------------------
# parse_members (unit)
# ----------------------------------------------------------------------
def test_parse_members_accepts_specs_and_dicts():
    assert parse_members(["127.0.0.1:9001", "10.0.0.5:9002"]) == {
        "127.0.0.1:9001": ("127.0.0.1", 9001),
        "10.0.0.5:9002": ("10.0.0.5", 9002),
    }
    named = {"shard-0": ("127.0.0.1", 9001)}
    assert parse_members(named) == named
    for bad in ("no-port", "host:", ":", "host:abc"):
        with pytest.raises(ValueError):
            parse_members([bad])


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def test_cells_route_to_the_ring_predicted_shard(tmp_path):
    """The cross-process half of exactly-once: a test-side ring built
    from nothing but the shard *names* predicts every placement the
    live router makes."""
    with _Cluster(tmp_path, n=3) as cluster:
        with ServiceClient(port=cluster.port) as c:
            for doc in CELLS:
                p = c.submit_cell(**doc)
                assert p["status"] == 200
                assert p["shard"] == cluster.ring.node_for(_key(doc))
                assert p["key"] == _key(doc)


def test_duplicates_hit_the_home_shards_cache(tmp_path):
    with _Cluster(tmp_path, n=3) as cluster:
        with ServiceClient(port=cluster.port) as c:
            first = c.submit_cell(**CELLS[0])
            again = c.submit_cell(**CELLS[0])
    assert first["source"] == "computed"
    assert again["source"] == "cache"
    assert first["shard"] == again["shard"]
    assert first["summary"] == again["summary"]


def test_sweep_fans_out_and_rolls_up(tmp_path):
    with _Cluster(tmp_path, n=3) as cluster:
        with ServiceClient(port=cluster.port) as c:
            sw = c.submit_sweep(
                matrices=["inline1"],
                versions=["libcsr", "libcsb", "deepsparse",
                          "hpx", "regent"],
                iterations=1)
            m = c.metrics()
    assert sw["n_cells"] == 5 and sw["worst_status"] == 200
    for entry in sw["cells"]:
        assert entry["status"] == 200 and "shard" in entry
    used = {e["shard"] for e in sw["cells"]}
    assert len(used) > 1          # a sweep genuinely spans shards
    # Rollup view: cluster computations equal the distinct cells, and
    # the per-shard forward counters cover every used shard.
    assert m["computations"] == 5
    assert m["cluster"]["shards_reporting"] == 3
    assert used <= set(m["forwards"])
    assert m["relayed"].get("computed") == 5
    assert set(m["router"]["members"]) == set(cluster.shards)


# ----------------------------------------------------------------------
# exactly-once, cluster-wide (from the shards' audit logs)
# ----------------------------------------------------------------------
def test_cluster_wide_exactly_once_under_duplicate_load(tmp_path):
    """≥50% duplicate traffic from 32 concurrent clients through the
    router: each distinct cell is computed exactly once *across the
    cluster*, proven from the shards' audit JSONL (the ground truth a
    metrics bug could not fake), and every computation happened on the
    ring-placed shard."""
    with _Cluster(tmp_path, n=3) as cluster:
        report = run_load(cluster.port, n_requests=64,
                          dup_fraction=0.5, threads=32)
        ring = cluster.ring
    assert report["ok"], report["errors"]
    assert report["n_distinct_keys"] > 1

    computed = {}   # key -> [shard names that computed it]
    for name, bg in cluster.shards.items():
        audit = bg.config.audit_path
        assert os.path.exists(audit), f"{name} audit not published"
        for ev in read_jsonl(audit):
            assert ev.path == "/v1/cell"
            if ev.source == "computed":
                computed.setdefault(ev.key, []).append(name)
    assert len(computed) == report["n_distinct_keys"]
    dupes = {k: v for k, v in computed.items() if len(v) > 1}
    assert not dupes, f"computed more than once: {dupes}"
    misplaced = {k: v for k, v in computed.items()
                 if v[0] != ring.node_for(k)}
    assert not misplaced, f"computed off-placement: {misplaced}"


# ----------------------------------------------------------------------
# failover and upstream retry (Router object level — no probe races)
# ----------------------------------------------------------------------
def _dead_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def test_failover_to_ring_successor_when_home_shard_is_dead(tmp_path):
    """The home shard is unreachable: the router must mark it down,
    count a failover, and serve the request from the ring successor —
    same response a healthy cluster would have produced."""
    live = BackgroundService(_shard_config(tmp_path, "live")).start()
    dead_port = _dead_port()

    async def go():
        router = Router(RouterConfig(members={
            "shard-live": ("127.0.0.1", live.port),
            "shard-dead": ("127.0.0.1", dead_port),
        }))
        # Find a cell whose home is the dead shard.
        doc = None
        for cand in CELLS:
            if router.ring.node_for(_key(cand)) == "shard-dead":
                doc = cand
                break
        assert doc is not None, "no cell landed on shard-dead"
        status, payload, source, key = await router.route_cell(doc)
        return router, status, payload, source, key

    try:
        router, status, payload, source, key = asyncio.run(go())
    finally:
        live.stop()
    assert (status, source) == (200, "routed")
    assert payload["shard"] == "shard-live"
    assert payload["source"] == "computed"
    assert router.metrics.failovers == 1
    assert router.metrics.marked_down == 1
    assert "shard-dead" not in router.ring    # left the ring


def test_probe_eviction_needs_consecutive_misses():
    """One slow /healthz must not evict a busy-but-healthy shard — a
    spurious eviction fails its live keys over to the successor and
    computes them twice, breaking cluster-wide exactly-once.  Only a
    full run of ``probe_fails_down`` consecutive misses takes the
    shard out; a single ok resets the run and a down shard needs just
    one ok to rejoin."""
    router = Router(RouterConfig(
        members={"shard-0": ("127.0.0.1", 1),
                 "shard-1": ("127.0.0.1", 2)},
        probe_fails_down=3))
    shard = router._shards["shard-0"]

    router._note_probe(shard, False)
    router._note_probe(shard, False)
    assert shard.up and "shard-0" in router.ring
    router._note_probe(shard, True)       # run broken: counter resets
    router._note_probe(shard, False)
    router._note_probe(shard, False)
    assert shard.up, "an interrupted run of misses must not evict"
    router._note_probe(shard, False)      # third consecutive miss
    assert not shard.up and "shard-0" not in router.ring
    assert router.metrics.marked_down == 1
    router._note_probe(shard, True)       # one ok rejoins immediately
    assert shard.up and "shard-0" in router.ring
    assert router.metrics.marked_up == 1


def test_probe_loop_ends_on_drain_flag_without_cancellation():
    """Drain must not rely on cancelling the prober alone: on Python
    3.11 ``asyncio.wait_for`` can swallow a cancel that races a
    finished probe, and a loop that never looked at the drain flag
    then probed forever and hung shutdown."""
    async def go():
        router = Router(RouterConfig(
            members={"shard-x": ("127.0.0.1", _dead_port())},
            probe_interval=0.01, probe_timeout=0.5))
        prober = asyncio.create_task(router._probe_loop())
        await asyncio.sleep(0.05)
        router._draining = True
        await asyncio.wait_for(prober, 5)

    asyncio.run(go())


def test_all_candidates_dead_yields_503_no_shard():
    async def go():
        router = Router(RouterConfig(members={
            "shard-a": ("127.0.0.1", _dead_port()),
            "shard-b": ("127.0.0.1", _dead_port()),
        }))
        return await router.route_cell(dict(CELLS[0])), router

    (status, payload, source, key), router = asyncio.run(go())
    assert status == 503 and source == "no_shard"
    assert payload["error"] == "no shard available"
    assert payload["key"] == _key(CELLS[0])
    assert len(router.ring) == 0


class _ScriptedShard(threading.Thread):
    """A raw socket 'shard' serving scripted JSON responses.

    Serves one response per connection then closes it, so every pooled
    keep-alive reuse deterministically hits a stale socket — the
    router's single fresh-connection retry path.
    """

    def __init__(self, body: dict, status: int = 200):
        super().__init__(daemon=True)
        self.body = json.dumps(body).encode()
        self.status = status
        self.hits = 0
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._shutdown = threading.Event()

    def run(self):
        self._sock.settimeout(0.2)
        reason = {200: "OK", 429: "Too Many Requests"}.get(
            self.status, "X")
        while not self._shutdown.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                continue
            self.hits += 1
            try:
                conn.settimeout(5)
                buf = b""
                while b"\r\n\r\n" not in buf:
                    buf += conn.recv(4096)
                head, rest = buf.split(b"\r\n\r\n", 1)
                want = 0
                for line in head.lower().split(b"\r\n"):
                    if line.startswith(b"content-length:"):
                        want = int(line.split(b":", 1)[1])
                while len(rest) < want:
                    rest += conn.recv(4096)
                conn.sendall(
                    b"HTTP/1.1 %d %s\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n"
                    b"Connection: keep-alive\r\n\r\n"
                    % (self.status, reason.encode(), len(self.body))
                    + self.body)
            finally:
                conn.close()

    def stop(self):
        self._shutdown.set()
        self.join(timeout=5)
        self._sock.close()


def test_router_retries_stale_pooled_connection_once():
    """Request 1 pools the upstream connection; the shard closes it.
    Request 2 must retry on a fresh connection (metrics.retries == 1)
    instead of failing the shard over."""
    shard = _ScriptedShard({"source": "cache", "key": "k",
                            "summary": {"x": 1}})
    shard.start()

    async def go():
        router = Router(RouterConfig(members={
            "shard-0": ("127.0.0.1", shard.port)}))
        r1 = await router.route_cell(dict(CELLS[0]))
        r2 = await router.route_cell(dict(CELLS[0]))
        return router, r1, r2

    try:
        router, r1, r2 = asyncio.run(go())
    finally:
        shard.stop()
    assert r1[0] == 200 and r2[0] == 200
    assert router.metrics.retries == 1
    assert router.metrics.failovers == 0
    assert router.metrics.marked_down == 0
    assert shard.hits == 2


def test_shard_429_is_relayed_verbatim_never_failed_over():
    """Backpressure is not a failure: spilling a busy shard's key to a
    successor would split its coalescing domain, so the 429 (and its
    Retry-After payload) must reach the client untouched."""
    busy = _ScriptedShard({"error": "queue full", "retry_after_s": 2.5},
                          status=429)
    idle = _ScriptedShard({"source": "computed", "summary": {}})
    busy.start()
    idle.start()

    async def go():
        router = Router(RouterConfig(members={
            "shard-busy": ("127.0.0.1", busy.port),
            "shard-idle": ("127.0.0.1", idle.port),
        }))
        doc = next(d for d in CELLS
                   if router.ring.node_for(_key(d)) == "shard-busy")
        return router, await router.route_cell(doc)

    try:
        router, (status, payload, source, key) = asyncio.run(go())
    finally:
        busy.stop()
        idle.stop()
    assert status == 429
    assert payload["error"] == "queue full"
    assert payload["retry_after_s"] == 2.5
    assert payload["shard"] == "shard-busy"
    assert router.metrics.failovers == 0
    assert idle.hits == 0


# ----------------------------------------------------------------------
# membership
# ----------------------------------------------------------------------
def test_restarted_shard_keeps_its_placements(tmp_path):
    """A shard restart (same name, new port) must not move a single
    key: the re-pointed member serves the same cells from the same
    cache directory."""
    with _Cluster(tmp_path, n=2) as cluster:
        with ServiceClient(port=cluster.port) as c:
            doc = next(d for d in CELLS
                       if cluster.ring.node_for(_key(d)) == "shard-0")
            first = c.submit_cell(**doc)
            assert first["shard"] == "shard-0"

            # "Restart": a fresh daemon, same name, same cache dir,
            # new ephemeral port.
            old = cluster.shards.pop("shard-0")
            old.stop()
            cache = ResultCache(
                root=str(tmp_path / "shard-0" / "cache"), enabled=True)
            fresh = BackgroundService(
                ServeConfig(port=0, jobs=0, cache=cache)).start()
            cluster.shards["shard-0"] = fresh
            cluster.background.router.update_members_threadsafe({
                name: ("127.0.0.1", bg.port)
                for name, bg in cluster.shards.items()})
            time.sleep(0.1)   # let the loop apply the update

            again = c.submit_cell(**doc)
    assert again["shard"] == "shard-0"
    assert again["source"] == "cache"         # same cache domain
    assert again["summary"] == first["summary"]


def test_healthz_reports_membership(tmp_path):
    with _Cluster(tmp_path, n=2) as cluster:
        with ServiceClient(port=cluster.port) as c:
            h = c.healthz()
            assert h["status"] == "ok" and h["role"] == "router"
            assert h["shards_up"] == ["shard-0", "shard-1"]
            assert h["shards_down"] == []

            cluster.shards["shard-1"].stop()
            deadline = time.time() + 10
            while time.time() < deadline:
                h = c.healthz()
                if h["shards_down"] == ["shard-1"]:
                    break
                time.sleep(0.05)
    assert h["shards_down"] == ["shard-1"]    # probes noticed
    assert h["status"] == "ok"                # degraded only when empty


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_cluster_argument_validation(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["cluster"]) == 2
    assert "need --shards" in capsys.readouterr().err
    assert cli_main(["cluster", "--shards", "2",
                     "--member", "x:1"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_submit_cluster_flag_defaults_router_port(tmp_path, capsys):
    from repro.cli import main as cli_main

    with _Cluster(tmp_path, n=2) as cluster:
        rc = cli_main(["submit", "--cluster", "--port",
                       str(cluster.port), "--matrix", "inline1",
                       "--version", "libcsr", "--iterations", "1",
                       "--json"])
        out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["shard"] in ("shard-0", "shard-1")
    assert payload["source"] == "computed"
