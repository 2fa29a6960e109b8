"""The benchmark's three workloads.

Every workload runs PSgL on the columnar plane with the default kernel,
shuffle and steal settings, 8 logical workers, WA(0.5) and a bloom
index.  Each workload has one fixed R-MAT graph (``GRAPH_SEED``);
``--seed`` drives the queries: query ``i`` uses partition and strategy
seed ``seed * 1000 + i``, and the service's relabellings come from it
too.  The graph is fixed because R-MAT work varies a lot between graph
seeds: with a graph per seed, PG2 counts at scale 10 ranged over +-10%
and the 5-seed spread of ``query_s_p50`` was 24%.

One closed-loop client sends the next query only after the previous one
has answered.  Queries run in fixed rounds, so a run's mix of query
kinds does not depend on how fast it ran; the loop stops at the end of
a round once ``--seconds`` have passed and at least ``MIN_QUERIES``
measured queries are done.

* ``triangle``: PG1 on R-MAT scale 12 read from a text edge list,
  serial backend, each query paired with
  ``repro.baselines.centralized.count_triangles`` (the floor).
* ``square-service``: a resident ``SubgraphService`` on loopback over
  R-MAT scale 10 (``GraphContext.from_edge_list``); cold PG2/PG3
  requests with distinct seeds, and every fourth request resends the
  round's first query as an isomorphic relabelling in ``pattern_edges``
  form, which the result cache answers.
* ``parallel-spill``: R-MAT scale 10 as a ``.csrbin`` opened with
  ``load_mapped``; PG2 and PG4 alternate on the process backend with
  ``procs = nproc`` and a spill watermark low enough that every
  superstep carrying messages spills.  Each query has a serial twin with
  the same settings; which side runs first alternates.

Inputs are made here, not by the program: the R-MAT generator below is
the benchmark's own, so a change to ``repro.graph.generators`` cannot
change the workload.
"""

from __future__ import annotations

import gc
import inspect
import itertools
import math
import os
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import centralized
from repro.core import edge_index
from repro.core.listing import PSgL
from repro.graph import binfmt
from repro.graph import io as graph_io
from repro.graph.ordered import OrderedGraph
from repro.pattern import break_automorphisms, get_pattern
from repro.service import client as service_client
from repro.service import server as service_server

NUM_WORKERS = 8
STRATEGY = "WA,0.5"
MIN_QUERIES = 20
#: A set-up sample repeats the whole set-up for about this long and
#: keeps the mean, so a set-up of a few milliseconds is not one reading.
SETUP_SAMPLE_S = 0.05
#: Bounds the spans a traced run keeps in memory if set-up gets very fast.
SETUP_MAX_REPS = 200
#: Spill watermark for ``parallel-spill``: below one worker's outbox in
#: every superstep that carries messages at scale 10.
SPILL_WATERMARK_BYTES = 64 * 1024
#: Seed of every workload's R-MAT graph.
GRAPH_SEED = 1
#: A slow program still ends the run in time: no round starts after this.
HARD_STOP_S = 120.0
#: Spans recorded while the benchmark does its own work (oracles) carry
#: this query id and are left out of every layer.
OFF_QUERY = -(10 ** 9)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def rmat_edges(scale: int, seed: int, avg_degree: float = 8.0) -> np.ndarray:
    """R-MAT edges with the usual (0.57, 0.19, 0.19, 0.05) quadrants;
    self loops dropped, duplicates left for the loader to collapse."""
    rng = np.random.default_rng(seed)
    m = int(avg_degree * (1 << scale) / 2)
    quadrant = np.searchsorted(np.cumsum([0.57, 0.19, 0.19]), rng.random((m, scale)))
    powers = 1 << np.arange(scale - 1, -1, -1)
    us = (((quadrant >> 1) & 1) * powers).sum(axis=1)
    vs = ((quadrant & 1) * powers).sum(axis=1)
    keep = us != vs
    return np.stack([us[keep], vs[keep]], axis=1)


def write_edge_text(edges: np.ndarray, path: Path) -> None:
    np.savetxt(path, edges, fmt="%d")


def relabelled_edges(pattern, seed: int) -> str:
    """``pattern``'s edges under a seeded vertex permutation, in the
    1-based ``pattern_edges`` string form the service documents."""
    rng = np.random.default_rng(seed)
    k = pattern.num_vertices
    perm = rng.permutation(k)
    if (perm == np.arange(k)).all():
        perm = np.roll(perm, 1)
    edges = [(int(perm[u]) + 1, int(perm[v]) + 1) for u, v in sorted(pattern.edges())]
    rng.shuffle(edges)
    return ", ".join(f"{u}-{v}" for u, v in edges)


def oracle_pattern(name: str):
    pattern = get_pattern(name)
    return pattern if pattern.partial_order else break_automorphisms(pattern)


def psgl_options() -> Dict[str, Any]:
    """Only knobs the program still has: ``wire`` goes away with the
    object plane, and ``steal``/``kernel``/``shuffle`` are never set."""
    if "wire" in inspect.signature(PSgL).parameters:
        return {"wire": "columnar"}
    return {}


def service_options() -> Dict[str, Any]:
    if "wire" in getattr(service_server, "SPEC_DEFAULTS", {}):
        return {"wire": "columnar"}
    return {}


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------

@dataclass
class Query:
    qid: int
    kind: str
    side: str  # "measured" or "twin"
    key: str
    pattern: str = ""
    count: Optional[int] = None
    t0: float = 0.0
    t1: float = 0.0
    ok: bool = False
    error: str = ""
    counters: Dict[str, Any] = field(default_factory=dict)
    result: Any = None
    job: Dict[str, Any] = field(default_factory=dict)
    synthetic: List[Tuple[str, float, float]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    def fail(self, why: str) -> None:
        self.ok = False
        self.error = self.error or why


@dataclass
class SetupSample:
    #: Mean time of one set-up over ``reps`` repetitions.
    seconds: float
    reps: int
    #: Query id its spans carry, and the interval its repetitions span.
    qid: int
    lo: float
    hi: float


@dataclass
class Outcome:
    setup: List[SetupSample]
    queries: List[Query]
    #: Query-phase time; serial twins, oracle checks and set-up samples
    #: not counted.
    elapsed: float
    #: Share of each measured query kind in one round.
    weights: Dict[str, float]
    #: Single-thread centralized time for each kind that has one.
    floor_s: Dict[str, float]
    #: Failed operations that are not queries (leaked blocks, dirs).
    extra_failures: List[str] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)


class Context:
    """What a workload needs from the harness."""

    def __init__(self, seed: int, seconds: float, tmp: Path, recorder=None):
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.recorder = recorder
        self.set_query(OFF_QUERY)

    def set_query(self, qid: int) -> None:
        if self.recorder is not None:
            self.recorder.query = qid

    def qseed(self, i: int) -> int:
        return self.seed * 1000 + i

    def more_rounds(self, started: float, measured: int) -> bool:
        elapsed = perf_counter() - started
        if elapsed > HARD_STOP_S:
            return False
        return elapsed < self.seconds or measured < MIN_QUERIES


class SetupTimer:
    """Times a workload's set-up, from the graph file to ready to query.

    A sample repeats ``build`` ``reps`` times (about ``SETUP_SAMPLE_S``
    in all) and keeps the mean.  One sample is taken before the queries
    and one after every query (every pair on ``parallel-spill``), so
    the set-up is timed under the same machine load as the queries:
    timed only at the start of a run, its median followed the machine's
    speed in those few seconds.
    ``close`` releases a set-up nobody uses, off the clock.
    """

    def __init__(
        self, ctx: Context, build: Callable[[], Any],
        close: Callable[[Any], None] = lambda made: None,
    ):
        self.ctx, self.build, self.close = ctx, build, close
        self.samples: List[SetupSample] = []
        self.reps = 1
        #: Time spent in samples after the first, left out of the query phase.
        self.spent = 0.0

    def _once(self, qid: int) -> Tuple[Any, float]:
        self.ctx.set_query(qid)
        t0 = perf_counter()
        made = self.build()
        dt = perf_counter() - t0
        self.ctx.set_query(OFF_QUERY)
        return made, dt

    def start(self) -> Any:
        """Two untimed set-ups (imports, page cache; the second one's time
        picks ``reps``), then the first sample.  Returns the set-up the
        queries run on."""
        made, _ = self._once(OFF_QUERY)
        self.close(made)
        made, first = self._once(OFF_QUERY)
        self.close(made)
        self.reps = max(1, min(SETUP_MAX_REPS, math.ceil(SETUP_SAMPLE_S / max(first, 1e-6))))
        return self._sample()

    def sample(self) -> None:
        """One more sample, between queries.  The set-ups it made are
        collected at once, so they do not linger into the queries'
        memory (a service holds reference cycles)."""
        t0 = perf_counter()
        self.close(self._sample())
        gc.collect()
        self.spent += perf_counter() - t0

    def _sample(self) -> Any:
        qid = -1 - len(self.samples)
        lo = perf_counter()
        total = 0.0
        made = None
        for _ in range(self.reps):
            if made is not None:
                self.close(made)
                made = None
            made, dt = self._once(qid)
            total += dt
        self.samples.append(SetupSample(total / self.reps, self.reps, qid, lo, perf_counter()))
        return made


def _run_query(ctx: Context, q: Query, call: Callable[[], Any]) -> Any:
    """Time one query; an exception fails it instead of the run."""
    ctx.set_query(q.qid)
    q.t0 = perf_counter()
    try:
        out = call()
        q.ok = True
    except Exception as exc:  # the query boundary: record and go on
        out = None
        q.fail(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    q.t1 = perf_counter()
    ctx.set_query(OFF_QUERY)
    return out


def _ledger_counters(result) -> Dict[str, Any]:
    ledger = result.ledger
    return {
        "count": int(result.count),
        "gpsis": int(result.total_gpsis),
        "supersteps": int(result.supersteps),
        "makespan": float(result.makespan),
        "wire_bytes": int(ledger.total_wire_bytes()),
        "spill_chunks": int(getattr(ledger, "spill_chunks", 0)),
        "spill_bytes": int(getattr(ledger, "spill_bytes", 0)),
        "index_queries": int(result.index_queries),
        "index_pruned": int(result.index_pruned),
    }


class Oracle:
    """Counts patterns with ``repro.baselines.centralized``, a slice at a
    time between rounds of queries.  Its time is the workload's
    single-thread floor; spreading it over the run times it under the
    same machine load as the queries it is compared with (timed once at
    the start, its ratio to the queries spread 19-24% over seeds)."""

    #: Instances enumerated between two reads of the clock.
    SLICE = 4096
    #: Oracle time given after each round of queries.
    ROUND_BUDGET_S = 1.0

    def __init__(self, ctx: Context, graph, names):
        self._ctx = ctx
        self._todo = [
            (name, centralized.enumerate_instances(graph, oracle_pattern(name)))
            for name in names
        ]
        self.counts = {name: 0 for name in names}
        self.seconds = {name: 0.0 for name in names}

    def advance(self, budget: Optional[float] = None) -> float:
        """Count for about ``budget`` seconds, or to the end; returns the
        time spent."""
        self._ctx.set_query(OFF_QUERY)
        spent = 0.0
        while self._todo and (budget is None or spent < budget):
            name, instances = self._todo[0]
            t0 = perf_counter()
            n = sum(1 for _ in itertools.islice(instances, self.SLICE))
            dt = perf_counter() - t0
            self.counts[name] += n
            self.seconds[name] += dt
            spent += dt
            if n < self.SLICE:
                self._todo.pop(0)
        return spent

    def check(self, queries: List[Query]) -> None:
        """Fail every query whose count differs from the oracle's."""
        self.advance()
        for q in queries:
            if q.ok and q.count is not None and q.count != self.counts[q.pattern]:
                q.fail(f"count {q.count} != oracle {self.counts[q.pattern]}")


# ----------------------------------------------------------------------
# triangle
# ----------------------------------------------------------------------

def triangle(ctx: Context) -> Outcome:
    path = ctx.tmp / "graph.txt"
    write_edge_text(rmat_edges(12, GRAPH_SEED), path)

    def build():
        graph, _ = graph_io.read_edge_list(path)
        ordered = OrderedGraph(graph)
        index = edge_index.build_edge_index(graph, kind="bloom", fp_rate=0.01, seed=GRAPH_SEED)
        return graph, ordered, index

    timer = SetupTimer(ctx, build)
    graph, ordered, index = timer.start()
    pattern = get_pattern("PG1")
    options = psgl_options()
    queries: List[Query] = []
    floor_walls: List[float] = []
    started = perf_counter()
    while ctx.more_rounds(started, len(queries)):
        i = len(queries)
        qseed = ctx.qseed(i)
        q = Query(i, "PG1", "measured", f"PG1/s{qseed}")
        result = _run_query(
            ctx,
            q,
            lambda: PSgL(
                graph,
                num_workers=NUM_WORKERS,
                strategy=STRATEGY,
                edge_index=index,
                seed=qseed,
                ordered=ordered,
                backend="serial",
                **options,
            ).run(pattern),
        )
        f0 = perf_counter()
        truth = centralized.count_triangles(graph)
        floor_walls.append(perf_counter() - f0)
        if result is not None:
            q.result = result
            q.counters = _ledger_counters(result)
            if result.count != truth:
                q.fail(f"count {result.count} != oracle {truth}")
        queries.append(q)
        timer.sample()
    elapsed = perf_counter() - started - sum(floor_walls) - timer.spent
    return Outcome(
        setup=timer.samples,
        queries=queries,
        elapsed=elapsed,
        weights={"PG1": 1.0},
        floor_s={"PG1": float(np.median(floor_walls)) if floor_walls else 0.0},
        notes={"graph": _shape(graph)},
    )


def _shape(graph) -> Dict[str, int]:
    return {"vertices": int(graph.num_vertices), "edges": int(graph.num_edges)}


# ----------------------------------------------------------------------
# square-service
# ----------------------------------------------------------------------

class _Booted:
    def __init__(self, path: Path):
        self.context = service_server.GraphContext.from_edge_list(str(path))
        self.service = service_server.SubgraphService(self.context)
        self.httpd = service_server.make_server(self.service, port=0)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        url = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        self.client = service_client.ServiceClient(url, timeout=120.0)
        self.client.health()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.service.close()
        self.thread.join(10.0)


#: One round: three cold requests alternating PG2/PG3 across rounds,
#: then the round's first request again as a relabelled ``pattern_edges``.
SERVICE_ROUND = 4
SERVICE_PATTERNS = ("PG2", "PG3")


def square_service(ctx: Context) -> Outcome:
    path = ctx.tmp / "graph.txt"
    write_edge_text(rmat_edges(10, GRAPH_SEED), path)
    booted: Optional[_Booted] = None
    try:
        timer = SetupTimer(ctx, lambda: _Booted(path), _Booted.close)
        booted = timer.start()
        oracle = Oracle(ctx, booted.context.graph, SERVICE_PATTERNS)
        queries, elapsed = _service_loop(ctx, booted, oracle, timer)
    finally:
        if booted is not None:
            booted.close()
    cold = (SERVICE_ROUND - 1) / SERVICE_ROUND
    weights = {name: cold / len(SERVICE_PATTERNS) for name in SERVICE_PATTERNS}
    weights["hit"] = 1.0 / SERVICE_ROUND
    return Outcome(
        setup=timer.samples,
        queries=queries,
        elapsed=elapsed,
        weights=weights,
        floor_s=oracle.seconds,
        notes={"graph": _shape(booted.context.graph), "oracle": oracle.counts},
    )


def _service_loop(
    ctx: Context, booted: _Booted, oracle: Oracle, timer: SetupTimer
) -> Tuple[List[Query], float]:
    client, manager = booted.client, booted.service.manager
    base = {"workers": NUM_WORKERS, "strategy": STRATEGY, "backend": "serial", **service_options()}
    queries: List[Query] = []
    cold = 0
    started = perf_counter()
    oracle_total = 0.0
    while ctx.more_rounds(started, len(queries)):
        oracle_total += oracle.advance(Oracle.ROUND_BUDGET_S)
        first = None
        for slot in range(SERVICE_ROUND):
            i = len(queries)
            if slot < SERVICE_ROUND - 1:
                name = SERVICE_PATTERNS[cold % len(SERVICE_PATTERNS)]
                cold += 1
                spec = dict(base, pattern=name, seed=ctx.qseed(i))
                kind, expect_cached = name, False
                first = first or (name, spec["seed"])
            else:
                name, seed = first
                edges = relabelled_edges(get_pattern(name), ctx.qseed(i))
                spec = dict(base, pattern_edges=edges, seed=seed)
                kind, expect_cached = "hit", True
            q = Query(i, kind, "measured", f"{name}/s{spec['seed']}", name)
            job = _run_query(ctx, q, lambda: client.count(timeout=120.0, **spec))
            queries.append(q)
            timer.sample()
            if job is None:
                continue
            q.job = {
                "id": job.get("id"),
                "cached": job.get("cached"),
                "queue_seconds": job.get("queue_seconds"),
                "run_seconds": job.get("run_seconds"),
            }
            if job.get("state") != "completed":
                q.fail(f"job ended {job.get('state')}: {job.get('error')}")
                continue
            if bool(job.get("cached")) != expect_cached:
                q.fail(f"cached={job.get('cached')}, expected {expect_cached}")
            payload = job.get("result") or {}
            q.count = payload.get("count")
            if not expect_cached:
                q.counters = {
                    key: payload.get(src)
                    for key, src in (
                        ("count", "count"),
                        ("gpsis", "total_gpsis"),
                        ("supersteps", "supersteps"),
                        ("makespan", "makespan"),
                        ("index_queries", "index_queries"),
                        ("index_pruned", "index_pruned"),
                    )
                }
                record = manager.get(job["id"]) if ctx.recorder is not None else None
                if record is not None and record.started_mono is not None:
                    q.synthetic = [
                        ("service.queue", record.submitted_mono, record.started_mono),
                        ("service.run", record.started_mono, record.finished_mono),
                    ]
    elapsed = perf_counter() - started - oracle_total - timer.spent
    oracle.check(queries)
    return queries, elapsed


# ----------------------------------------------------------------------
# parallel-spill
# ----------------------------------------------------------------------

SPILL_PATTERNS = ("PG2", "PG4")


def _shm_blocks() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def parallel_spill(ctx: Context) -> Outcome:
    text = ctx.tmp / "graph.txt"
    csr = ctx.tmp / "graph.csrbin"
    write_edge_text(rmat_edges(10, GRAPH_SEED), text)
    binfmt.convert_edge_list(text, csr)
    spill_dir = ctx.tmp / "spill"
    spill_dir.mkdir()

    def build():
        graph = binfmt.load_mapped(csr)
        ordered = OrderedGraph(graph)
        index = edge_index.build_edge_index(graph, kind="bloom", fp_rate=0.01, seed=GRAPH_SEED)
        return graph, ordered, index

    timer = SetupTimer(ctx, build)
    graph, ordered, index = timer.start()
    oracle = Oracle(ctx, graph, SPILL_PATTERNS)
    procs = os.cpu_count() or 1
    options = psgl_options()
    queries: List[Query] = []
    extra: List[str] = []
    ratios: Dict[str, List[float]] = {name: [] for name in SPILL_PATTERNS}
    started = perf_counter()
    reference_total = 0.0
    pair = 0
    while ctx.more_rounds(started, pair):
        reference_total += oracle.advance(Oracle.ROUND_BUDGET_S)
        for _ in range(2 * len(SPILL_PATTERNS)):
            name = SPILL_PATTERNS[pair % len(SPILL_PATTERNS)]
            pattern = get_pattern(name)
            qseed = ctx.qseed(pair)
            sides = ("serial", "process")
            if (pair // len(SPILL_PATTERNS)) % 2:
                sides = sides[::-1]
            done = {}
            for backend in sides:
                side = "measured" if backend == "process" else "twin"
                q = Query(
                    2 * pair + (side == "twin"), name, side, f"{name}/s{qseed}/{backend}", name
                )
                before = _shm_blocks()

                def call(backend=backend):
                    return PSgL(
                        graph,
                        num_workers=NUM_WORKERS,
                        strategy=STRATEGY,
                        edge_index=index,
                        seed=qseed,
                        ordered=ordered,
                        backend=backend,
                        procs=procs if backend == "process" else None,
                        spill_dir=str(spill_dir),
                        memory_watermark_bytes=SPILL_WATERMARK_BYTES,
                        **options,
                    ).run(pattern)

                result = _run_query(ctx, q, call)
                if side == "twin":
                    reference_total += q.wall
                leaked = sorted(_shm_blocks() - before)
                if leaked:
                    extra.append(f"{q.key}: leaked /dev/shm blocks {leaked}")
                left = sorted(os.listdir(spill_dir))
                if left:
                    extra.append(f"{q.key}: spill dir left behind {left}")
                if result is not None:
                    q.result = result
                    q.counters = _ledger_counters(result)
                    q.count = result.count
                done[side] = q
                queries.append(q)
            measured, twin = done["measured"], done["twin"]
            if measured.ok and twin.ok:
                if measured.counters != twin.counters:
                    measured.fail(
                        f"process {measured.counters} != serial twin {twin.counters}"
                    )
                else:
                    ratios[name].append(twin.wall / measured.wall)
            pair += 1
            timer.sample()
    elapsed = perf_counter() - started - reference_total - timer.spent
    oracle.check(queries)
    for measured, twin in zip(queries[::2], queries[1::2]):
        if twin.side == "measured":
            measured, twin = twin, measured
        if measured.ok and not twin.ok:
            measured.fail(f"serial twin failed: {twin.error}")
    speedups = [float(np.median(v)) for v in ratios.values() if v]
    return Outcome(
        setup=timer.samples,
        queries=queries,
        elapsed=elapsed,
        weights={name: 1.0 / len(SPILL_PATTERNS) for name in SPILL_PATTERNS},
        floor_s=oracle.seconds,
        extra_failures=extra,
        notes={
            "graph": _shape(graph),
            "oracle": oracle.counts,
            "procs": procs,
            "parallel_speedup": float(np.mean(speedups)) if speedups else None,
            "parallel_speedup_by_pattern": {
                k: float(np.median(v)) for k, v in ratios.items() if v
            },
        },
    )


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "triangle": triangle,
    "square-service": square_service,
    "parallel-spill": parallel_spill,
}
