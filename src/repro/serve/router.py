"""The cluster router (``repro cluster``): one front door, N shards.

A single ``repro serve`` daemon is a single point of failure and a
single coalescing domain.  The router turns N of them into one
cluster while *keeping* the daemon's exactly-once guarantee:

* **Placement = identity.**  Every ``POST /v1/cell`` body is
  normalized with the daemon's own :func:`normalize_cell`, keyed with
  :func:`repro.bench.cache.placement_key` (the result cache's content
  hash), and placed on a consistent-hash ring
  (:class:`~repro.serve.ring.HashRing`) keyed by shard *name*.  All
  duplicates of a cell land on one shard, whose single-flight table
  and result cache make the computation exactly-once cluster-wide.
* **Failover is idempotent by construction.**  If the home shard dies
  mid-request (connection refused/reset, truncated response) or
  refuses while draining, the router retries a stale pooled
  connection once, then walks the ring successors
  (``preference(key)[1:]``, bounded by ``max_failover``).  A replayed
  request can only recompute the same content-addressed result, so
  retrying is always safe.
* **Membership is health-probe-driven.**  A background prober GETs
  every member's ``/healthz``; a shard that fails ``probe_fails_down``
  *consecutive* probes (or a single forward — ground truth) leaves
  the ring, a shard that answers ``ok`` (re)joins.  The hysteresis
  keeps one slow probe from evicting a busy-but-healthy shard, whose
  failed-over keys would be computed twice.
  Join/leave *rebalances minimally*: the ring moves only the
  affected shard's keys (pinned by the ring property suite).
* **One rollup view.**  ``/healthz`` reports per-shard liveness;
  ``/metrics`` aggregates shard snapshots plus the router's own
  routed/retried/failed-over counters and end-to-end p50/p99.

The router deliberately does **not** spill on backpressure: a shard's
429 is relayed to the client verbatim.  Spilling a busy shard's key
onto a successor would split the key's coalescing domain and break
the exactly-once property the placement scheme exists to provide.

Shard *names* (stable) rather than endpoints (ephemeral ports) key
the ring, so a shard restarted by the supervisor keeps its placements.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.cache import placement_key
from repro.serve.http import (
    HttpError,
    Request,
    read_response,
    request_bytes,
)
from repro.serve.metrics import RouterMetrics
from repro.serve.ring import DEFAULT_VNODES, HashRing
from repro.serve.service import (
    BackgroundService,
    JsonDaemonBase,
    cell_to_doc,
    install_signal_handlers,
    normalize_cell,
    sweep_cells_from_doc,
)
from repro.sim.cost import COST_MODEL_VERSION

__all__ = [
    "BackgroundRouter",
    "DEFAULT_ROUTER_PORT",
    "Router",
    "RouterConfig",
    "UpstreamError",
    "parse_members",
    "router_main",
]

#: Default router port — one above the daemon's 8477 so a laptop can
#: run both side by side.
DEFAULT_ROUTER_PORT = 8478


class UpstreamError(RuntimeError):
    """A shard could not be reached or answered garbage."""


def parse_members(specs) -> Dict[str, Tuple[str, int]]:
    """``["host:port", ...]`` or ``{name: (host, port)}`` -> members.

    List entries are named by their endpoint string — good enough for
    static membership; the supervisor passes stable ``shard-N`` names
    instead so placements survive restarts.
    """
    if isinstance(specs, dict):
        return {name: (host, int(port))
                for name, (host, port) in specs.items()}
    members: Dict[str, Tuple[str, int]] = {}
    for spec in specs:
        host, sep, port = str(spec).rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(f"member must be host:port, got {spec!r}")
        members[f"{host}:{port}"] = (host or "127.0.0.1", int(port))
    return members


@dataclass
class RouterConfig:
    """Everything ``repro cluster`` can be told from the command line."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_ROUTER_PORT   # 0 = ephemeral (announced)
    members: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    vnodes: int = DEFAULT_VNODES
    probe_interval: float = 1.0       # seconds between health sweeps
    probe_timeout: float = 2.0
    probe_fails_down: int = 3         # consecutive misses before eviction
    max_failover: int = 2             # ring successors tried after home
    upstream_timeout: Optional[float] = 600.0  # per-forward budget
    per_shard_inflight: int = 32      # concurrent forwards per shard
    pool_size: int = 4                # idle keep-alive conns per shard
    max_sweep_cells: int = 1024
    audit_path: Optional[str] = None


class _Shard:
    """Router-side state for one member."""

    def __init__(self, name: str, host: str, port: int,
                 inflight: int, pool_size: int):
        self.name = name
        self.host = host
        self.port = port
        self.up = True            # optimistic; probes correct quickly
        self.probe_misses = 0     # consecutive failed probes
        self.sem = asyncio.Semaphore(inflight)
        self.pool_size = pool_size
        self.pool: List[tuple] = []   # idle (reader, writer) pairs

    def take_conn(self):
        return self.pool.pop() if self.pool else None

    def give_conn(self, conn) -> None:
        if len(self.pool) < self.pool_size:
            self.pool.append(conn)
        else:
            _close_conn(conn)

    def drop_pool(self) -> None:
        while self.pool:
            _close_conn(self.pool.pop())


def _close_conn(conn) -> None:
    _, writer = conn
    try:
        writer.close()
    except Exception:
        pass


class Router(JsonDaemonBase):
    """The routing daemon; protocol-compatible with the service for
    :class:`BackgroundService`-style embedding (``start`` / ``port`` /
    ``serve_until_stopped`` / ``drain``)."""

    def __init__(self, config: Optional[RouterConfig] = None):
        self.config = config or RouterConfig()
        self.metrics = RouterMetrics()
        self.ring = HashRing(self.config.vnodes)
        self._init_daemon()
        self._shards: Dict[str, _Shard] = {}
        self._prober: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        for name, (host, port) in self.config.members.items():
            self._add_shard(name, host, port)

    # -- membership ----------------------------------------------------
    def _add_shard(self, name: str, host: str, port: int) -> None:
        self._shards[name] = _Shard(
            name, host, port,
            inflight=self.config.per_shard_inflight,
            pool_size=self.config.pool_size)
        self.ring.add(name)

    def set_members(self, members: Dict[str, Tuple[str, int]]) -> None:
        """Replace the membership table (supervisor join/leave path).

        A shard whose endpoint changed (restart on a new port) keeps
        its name — and therefore its ring placements — but loses its
        pooled connections and rejoins optimistically for the prober
        to confirm.
        """
        for name in list(self._shards):
            if name not in members:
                shard = self._shards.pop(name)
                shard.drop_pool()
                self.ring.remove(name)
        for name, (host, port) in members.items():
            shard = self._shards.get(name)
            if shard is None:
                self._add_shard(name, host, port)
            elif (shard.host, shard.port) != (host, port):
                shard.drop_pool()
                shard.host, shard.port = host, port
                self._mark_up(shard)

    def update_members_threadsafe(self, members) -> None:
        """Membership update from another thread (the supervisor)."""
        if self._loop is None or self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(
            self.set_members, parse_members(members))

    def _mark_down(self, shard: _Shard) -> None:
        shard.drop_pool()
        if shard.up:
            shard.up = False
            self.ring.remove(shard.name)
            self.metrics.marked_down += 1

    def _mark_up(self, shard: _Shard) -> None:
        shard.probe_misses = 0
        if not shard.up:
            shard.up = True
            self.ring.add(shard.name)
            self.metrics.marked_up += 1

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._prober = asyncio.create_task(self._probe_loop())
        await self._start_server()

    async def drain(self) -> None:
        """Graceful shutdown: answer in-flight routes, refuse the rest."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        while self._active_requests:
            await asyncio.sleep(0.01)
        if self._prober is not None:
            self._prober.cancel()
            try:
                await self._prober
            except asyncio.CancelledError:
                pass
        for shard in self._shards.values():
            shard.drop_pool()
        if self._audit is not None:
            self._audit.close()
        await self._close_server()
        self._stopped.set()

    # -- upstream transport --------------------------------------------
    async def _forward_once(self, shard: _Shard, wire: bytes,
                            conn=None) -> Tuple[int, dict, tuple]:
        if conn is None:
            conn = await asyncio.open_connection(shard.host, shard.port)
        reader, writer = conn
        writer.write(wire)
        await writer.drain()
        status, payload = await read_response(reader)
        return status, payload, conn

    async def _forward(self, shard: _Shard, wire: bytes
                       ) -> Tuple[int, dict]:
        """One forward with the bounded-retry contract.

        A failure on a *pooled* (possibly stale keep-alive) connection
        is retried exactly once on a fresh connection; a failure on a
        fresh connection means the shard is genuinely unreachable and
        surfaces as :class:`UpstreamError` for the failover path.
        """
        timeout = self.config.upstream_timeout
        pooled = shard.take_conn()
        for conn in (pooled, None):
            fresh = conn is None
            try:
                status, payload, conn = await asyncio.wait_for(
                    self._forward_once(shard, wire, conn), timeout)
            except (OSError, HttpError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as e:
                if conn is not None:
                    _close_conn(conn)
                if fresh:
                    raise UpstreamError(
                        f"{shard.name} ({shard.host}:{shard.port}): "
                        f"{type(e).__name__}: {e}") from e
                self.metrics.retries += 1
                continue
            shard.give_conn(conn)
            return status, payload
        raise UpstreamError(f"{shard.name}: unreachable")  # pragma: no cover

    # -- routing -------------------------------------------------------
    async def route_cell(self, doc: dict) -> tuple:
        """-> (status, payload, source, key) for one cell.

        Does *not* count itself into ``metrics.requests`` — the
        caller does (a sweep is one request, not ``n_cells``) — but
        does count forwards, retries, failovers, and relayed sources.
        """
        try:
            cell = normalize_cell(doc)
        except HttpError as e:
            return e.status, {"error": e.detail}, "invalid", None
        config = cell.config()
        key = placement_key(config)
        if self._draining:
            return 503, {"error": "draining", "key": key}, \
                "rejected_draining", key
        # Forward the *normalized* config so the shard derives the
        # exact same cache key the ring placement used.
        fwd = {k: v for k, v in config.items() if v is not None}
        wire = request_bytes("POST", "/v1/cell", fwd)

        candidates = self.ring.preference(
            key, limit=1 + max(0, self.config.max_failover))
        tried: List[str] = []
        for i, name in enumerate(candidates):
            shard = self._shards.get(name)
            if shard is None or not shard.up:
                continue  # membership changed under us
            if i > 0:
                self.metrics.failovers += 1
            tried.append(name)
            t0 = time.perf_counter()
            async with shard.sem:
                try:
                    status, payload = await self._forward(shard, wire)
                except UpstreamError:
                    self._mark_down(shard)
                    continue
            self.metrics.count_forward(name,
                                       time.perf_counter() - t0)
            if status == 503 and payload.get("error") == "draining":
                # Graceful shard drain: it refuses new work but is
                # still alive.  Treat as a leave — the prober will
                # re-add it if it comes back.
                self._mark_down(shard)
                continue
            payload.setdefault("key", key)
            payload["shard"] = name
            self.metrics.count_relayed(payload.get("source"))
            return status, payload, "routed", key
        return 503, {"error": "no shard available", "key": key,
                     "tried": tried}, "no_shard", key

    async def _route(self, req: Request) -> tuple:
        """-> (status, payload, source, key, n_cells)."""
        if req.path == "/healthz":
            return 200, self._healthz_payload(), None, None, 0
        if req.path == "/metrics":
            return 200, await self.metrics_payload(), None, None, 0
        if req.path == "/v1/cell":
            if req.method != "POST":
                raise HttpError(405, "POST required")
            t0 = time.perf_counter()
            status, payload, source, key = await self.route_cell(
                req.json())
            self.metrics.count_request(source,
                                       time.perf_counter() - t0)
            return status, payload, source, key, 1
        if req.path == "/v1/sweep":
            if req.method != "POST":
                raise HttpError(405, "POST required")
            return await self._route_sweep(req.json())
        raise HttpError(404, f"no route for {req.path}")

    async def _route_sweep(self, doc: dict) -> tuple:
        t0 = time.perf_counter()
        cells = sweep_cells_from_doc(doc, self.config.max_sweep_cells)
        # Each cell routes to *its own* home shard concurrently; the
        # per-shard in-flight semaphore keeps any single shard's
        # backlog from tripping 429 under a wide sweep.
        results = await asyncio.gather(*[
            self.route_cell(cell_to_doc(c)) for c in cells
        ])
        entries = []
        worst = 200
        for (status, payload, _source, _key), cell in zip(results,
                                                          cells):
            entries.append({"cell": cell.label(), "status": status,
                            **payload})
            worst = max(worst, status)
        self.metrics.count_request("sweep", time.perf_counter() - t0)
        return 200, {"n_cells": len(entries),
                     "worst_status": worst,
                     "cells": entries}, "sweep", None, len(entries)

    # -- health probing ------------------------------------------------
    async def _probe_loop(self) -> None:
        # Drain also cancels this task, but on Python 3.11
        # ``asyncio.wait_for`` can swallow a cancellation that lands
        # just as the probe completes; the loop would then probe
        # forever and hang drain.  The flag ends it either way.
        wire = request_bytes("GET", "/healthz")
        while not self._draining:
            for shard in list(self._shards.values()):
                if self._draining:
                    break
                try:
                    status, payload = await asyncio.wait_for(
                        self._probe_once(shard, wire),
                        self.config.probe_timeout)
                    ok = status == 200 and payload.get("status") == "ok"
                except (OSError, HttpError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError):
                    ok = False
                self._note_probe(shard, ok)
            await asyncio.sleep(self.config.probe_interval)

    def _note_probe(self, shard: _Shard, ok: bool) -> None:
        """Apply one probe verdict to membership.

        Hysteresis: one slow ``/healthz`` (a busy shard under CPU
        contention) must not evict a member that is actively serving —
        a spurious eviction fails live keys over and double-computes
        them.  Only ``probe_fails_down`` *consecutive* misses (or a
        forward error, which is ground truth) take a shard out of the
        ring; a single ``ok`` brings it straight back.
        """
        if ok:
            self._mark_up(shard)
            return
        shard.probe_misses += 1
        if (not shard.up
                or shard.probe_misses >= self.config.probe_fails_down):
            self._mark_down(shard)

    async def _probe_once(self, shard: _Shard, wire: bytes) -> tuple:
        conn = await asyncio.open_connection(shard.host, shard.port)
        try:
            status, payload, conn = await self._forward_once(
                shard, wire, conn)
            return status, payload
        finally:
            _close_conn(conn)

    # -- observability -------------------------------------------------
    def _healthz_payload(self) -> dict:
        up = [s.name for s in self._shards.values() if s.up]
        down = [s.name for s in self._shards.values() if not s.up]
        status = "draining" if self._draining else (
            "ok" if up else "degraded")
        return {
            "status": status,
            "role": "router",
            "uptime_s": time.time() - self.metrics.started_at,
            "shards_up": sorted(up),
            "shards_down": sorted(down),
            "ring_nodes": len(self.ring),
        }

    async def shard_snapshots(self) -> Dict[str, dict]:
        """Fetch every live shard's ``/metrics`` (errors per shard)."""
        wire = request_bytes("GET", "/metrics")

        async def one(shard: _Shard):
            try:
                status, payload = await asyncio.wait_for(
                    self._probe_once(shard, wire),
                    self.config.probe_timeout)
                if status != 200:
                    return {"up": shard.up,
                            "error": f"HTTP {status}"}
                return {"up": shard.up, "metrics": payload}
            except (OSError, HttpError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as e:
                return {"up": shard.up,
                        "error": f"{type(e).__name__}: {e}"}

        shards = list(self._shards.values())
        snaps = await asyncio.gather(*[one(s) for s in shards])
        return {s.name: snap for s, snap in zip(shards, snaps)}

    async def metrics_payload(self) -> dict:
        """The aggregated cluster view (fetches shard metrics inline).

        Top level mirrors the daemon's ``/metrics`` vocabulary where a
        rollup makes sense (``computations`` is the cluster-wide sum,
        which the exactly-once tests pin), with the full per-shard
        snapshots and the router's own counters nested beside it.
        """
        shards = await self.shard_snapshots()
        cluster = {
            "computations": 0,
            "requests_total": 0,
            "worker_restarts": 0,
            "shards_reporting": 0,
        }
        for snap in shards.values():
            m = snap.get("metrics")
            if not m:
                continue
            cluster["shards_reporting"] += 1
            cluster["computations"] += m.get("computations", 0)
            cluster["requests_total"] += m.get("requests_total", 0)
            cluster["worker_restarts"] += m.get("worker_restarts", 0)
        snap = self.metrics.snapshot()
        snap["computations"] = cluster["computations"]
        snap["router"] = {
            "members": {
                name: {"host": s.host, "port": s.port, "up": s.up}
                for name, s in self._shards.items()
            },
            "ring_nodes": len(self.ring),
            "vnodes": self.config.vnodes,
            "max_failover": self.config.max_failover,
        }
        snap["shards"] = shards
        snap["cluster"] = cluster
        snap["draining"] = self._draining
        snap["cost_model_version"] = COST_MODEL_VERSION
        return snap


class BackgroundRouter(BackgroundService):
    """Run a :class:`Router` on a thread-owned event loop (tests,
    the load harness's cluster mode)."""

    daemon_class = Router

    def __init__(self, config: Optional[RouterConfig] = None):
        super().__init__(config or RouterConfig(port=0))

    @property
    def router(self) -> Optional[Router]:
        return self.service


async def router_main(config: RouterConfig, announce=None,
                      on_ready=None) -> int:
    """Run the router until drained; returns the process exit code.

    ``on_ready(router)`` fires after the port is bound — ``repro
    cluster --shards N`` uses it to wire the supervisor's membership
    pushes into the live router.
    """
    router = Router(config)
    await router.start()
    install_signal_handlers(router, asyncio.get_running_loop())
    if on_ready is not None:
        on_ready(router)
    if announce is not None:
        announce(f"repro cluster: routing on "
                 f"http://{config.host}:{router.port} "
                 f"({len(config.members)} shards, "
                 f"{config.vnodes} vnodes, "
                 f"pid={__import__('os').getpid()})")
    await router.serve_until_stopped()
    return 0
