"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload triangle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps each layer's public names (see ``spans.py``) and
reports the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller report (machine block, every query, checks) is
written to ``.perfbench_work/reports/`` and spans to
``.perfbench_work/spans/``; counters of every query are kept in
``.perfbench_work/counters/``, keyed by workload, seed and a digest of
the measured code, so a later run of the same code and seed is checked
against them.  ``NOTES.md`` says why the workloads and metrics
are what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

#: Layers whose work runs inside a pool process on the process backend;
#: on ``parallel-spill`` they are read from the serial twins instead.
WORKER_LAYERS = ("expand", "decide", "bsp.deliver", "bsp.send")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    tmp = WORK / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder() if args.trace else None
    try:
        if recorder is not None:
            recorder.install()
        ctx = workloads.Context(args.seed, args.seconds, tmp, recorder)
        try:
            outcome = workloads.WORKLOADS[args.workload](ctx)
        finally:
            if recorder is not None:
                recorder.uninstall()
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)

    measured = [q for q in outcome.queries if q.side == "measured"]
    digest = code_digest()
    repeat_check(args.workload, args.seed, digest, outcome.queries)
    e2e = end_to_end(outcome)
    if recorder is not None:
        for q in outcome.queries:
            if q.result is None:
                q.result = recorder.results.get(q.qid)
        metrics, layer_report = per_layer(outcome, recorder, e2e)
    else:
        metrics, layer_report = e2e, {}
    failed_queries = [q for q in measured if not q.ok]
    failed = len(failed_queries) + len(outcome.extra_failures)
    attempted = max(1, len(measured))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "code_digest": digest,
        "machine": machine_block(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f"{q.key}: {q.error}" for q in failed_queries] + outcome.extra_failures,
        "end_to_end": e2e,
        "per_layer": metrics if recorder is not None else {},
        "layers": layer_report,
        "setup_samples_s": [s.seconds for s in outcome.setup],
        "floor_s": outcome.floor_s,
        "notes": outcome.notes,
        "queries": [
            {"key": q.key, "kind": q.kind, "side": q.side, "wall_s": q.wall,
             "ok": q.ok, "error": q.error, "counters": q.counters, "job": q.job}
            for q in outcome.queries
        ],
    }
    if recorder is not None:
        untraced = WORK / "reports" / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]["query_s_p50"]["value"]
            report["tracing_overhead_s"] = e2e["query_s_p50"]["value"] - base
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        recorder.save(str(WORK / "spans" / f"{args.workload}-seed{args.seed}.npz"))
    (WORK / "reports").mkdir(parents=True, exist_ok=True)
    out = WORK / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str))

    print_report(report)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def stop_children() -> None:
    """Wait for every process the run started.  The program joins its
    pool workers, but the resource tracker that a process query's
    shared-memory export starts outlives them: it would run on after
    this process has exited, so it is stopped and waited for here."""
    for child in multiprocessing.active_children():
        child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(outcome) -> dict:
    """The metrics a user sees, from the untraced (or traced) queries.

    ``query_s_p50`` is the median wall per query kind, weighted by each
    kind's fixed share of a round: the plain median of a mix of two
    kinds with very different walls sits between them and jumps with
    noise.  ``floor_ratio`` is PSgL's time for one round of the mix (the
    same weighted medians) over the single-thread centralized time for
    the same patterns on the same graph, over the kinds that have one.
    """
    done = [q for q in outcome.queries if q.side == "measured" and q.ok]
    walls = {}
    for q in done:
        walls.setdefault(q.kind, []).append(q.wall)
    weights = {k: w for k, w in outcome.weights.items() if k in walls}
    p50 = (
        sum(w * _median(walls[k]) for k, w in weights.items()) / sum(weights.values())
        if weights else 0.0
    )
    executed = [q for q in done if "gpsis" in q.counters]
    busy = sum(q.wall for q in executed)
    floored = [k for k, s in outcome.floor_s.items() if k in walls and s > 0]
    psgl_round = sum(outcome.weights[k] * _median(walls[k]) for k in floored)
    floor_round = sum(outcome.weights[k] * outcome.floor_s[k] for k in floored)
    return {
        "setup_s": _metric(_median(s.seconds for s in outcome.setup), "s"),
        "query_s_p50": _metric(p50, "s"),
        "queries_per_s": _metric(len(done) / outcome.elapsed if outcome.elapsed > 0 else 0.0, "1/s"),
        "gpsi_per_s": _metric(
            sum(q.counters["gpsis"] for q in executed) / busy if busy > 0 else 0.0, "1/s"
        ),
        "floor_ratio": _metric(psgl_round / floor_round if floor_round > 0 else 0.0, "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


#: Per-layer metrics whose layer is not named by their prefix.
LAYER_OF = {"runtime.wait_s": "runtime.superstep"}


def per_layer_specs() -> list:
    """``(name, unit)`` of every per-layer metric in ``BENCHMARK.json``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc["per_layer"]]


def layer_of(name: str, layers) -> str | None:
    """The wrapped layer a metric comes from, or None for metrics read
    from results, job records or the query wall.  ``graph.load_s`` is
    layer ``graph.load``, ``expand.calls`` layer ``expand``."""
    if name in LAYER_OF:
        return LAYER_OF[name]
    for candidate in (name[:-2] if name.endswith("_s") else name, name.split(".")[0]):
        if candidate in layers:
            return candidate
    return None


def per_layer(outcome, recorder, e2e) -> tuple:
    """Per-layer metrics of a traced run, each a mean per query.

    Set-up layers (load, order, index build) are medians over the
    set-up repetitions.  On ``parallel-spill`` the parent-process layers
    come from the process-backend queries and the worker-side layers
    (``WORKER_LAYERS``) from their serial twins, because pool processes
    keep their own spans.
    """
    import spans

    by_query = {}
    for s in recorder.spans:
        by_query.setdefault(s[5], []).append(s)
    setups = [
        (spans.layer_times(by_query.get(s.qid, []), (s.lo, s.hi)), s.reps)
        for s in outcome.setup
    ]
    measured = [q for q in outcome.queries if q.side == "measured"]
    twins = [q for q in outcome.queries if q.side == "twin"]
    times = {
        q.qid: spans.layer_times(by_query.get(q.qid, []), (q.t0, q.t1), q.synthetic)
        for q in measured + twins
    }

    def per_query(layer, field="self"):
        group = (twins or measured) if layer in WORKER_LAYERS else measured
        if not group:
            return 0.0
        return sum(times[q.qid].get(layer, {}).get(field, 0.0) for q in group) / len(group)

    def setup(layer):
        return _median(t.get(layer, {}).get("total", 0.0) / reps for t, reps in setups)

    with_result = [q for q in measured if q.result is not None]

    def from_results(fn):
        return sum(fn(q.result) for q in with_result) / len(with_result) if with_result else 0.0

    def imbalance(result):
        costs = result.worker_costs
        mean = sum(costs) / len(costs) if costs else 0.0
        return max(costs) / mean if mean > 0 else 0.0

    queries = sum(q.result.index_queries for q in with_result)
    pruned = sum(q.result.index_pruned for q in with_result)
    expand_calls = sum(times[q.qid].get("expand", {}).get("calls", 0) for q in (twins or measured))
    expand_total = sum(times[q.qid].get("expand", {}).get("total", 0.0) for q in (twins or measured))
    executed = [q for q in measured if q.job.get("run_seconds") is not None and not q.job.get("cached")]
    wall = sum(q.wall for q in measured)
    other = sum(times[q.qid]["other"]["self"] for q in measured)

    def mean_of(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    values = {
        "graph.load_s": setup("graph.load"),
        "graph.order_s": setup("graph.order"),
        "graph.partition_s": per_query("graph.partition", "total"),
        "pattern.prep_s": per_query("pattern.prep"),
        "index.build_s": setup("index.build"),
        "index.queries": from_results(lambda r: r.index_queries),
        "index.pruned_frac": pruned / queries if queries else 0.0,
        "expand.self_s": per_query("expand"),
        "expand.calls": per_query("expand", "calls"),
        "expand.us_per_call": 1e6 * expand_total / expand_calls if expand_calls else 0.0,
        "decide.self_s": per_query("decide"),
        "decide.calls": per_query("decide", "calls"),
        "decide.rows": per_query("decide", "rows"),
        "bsp.deliver_s": per_query("bsp.deliver"),
        "bsp.send_s": per_query("bsp.send"),
        "bsp.build_s": per_query("bsp.build"),
        "bsp.merge_s": per_query("bsp.merge"),
        "bsp.supersteps": from_results(lambda r: r.supersteps),
        "bsp.messages": from_results(lambda r: r.total_gpsis),
        "bsp.wire_bytes": from_results(lambda r: r.ledger.total_wire_bytes()),
        "bsp.makespan_units": from_results(lambda r: r.makespan),
        "bsp.cost_imbalance": from_results(imbalance),
        "spill.write_s": per_query("spill.write"),
        "spill.map_s": per_query("spill.map"),
        "spill.chunks": from_results(lambda r: getattr(r.ledger, "spill_chunks", 0)),
        "spill.bytes": from_results(lambda r: getattr(r.ledger, "spill_bytes", 0)),
        "runtime.start_s": per_query("runtime.start", "total"),
        "runtime.superstep_s": per_query("runtime.superstep", "total"),
        "runtime.wait_s": per_query("runtime.superstep"),
        "runtime.close_s": per_query("runtime.close", "total"),
        "service.submit_s": per_query("service.submit", "total"),
        "service.queue_s": mean_of(q.job["queue_seconds"] for q in executed),
        "service.run_s": mean_of(q.job["run_seconds"] for q in executed),
        "service.overhead_s": mean_of(q.wall - q.job["run_seconds"] for q in executed),
        "service.cache_hit_frac": (
            sum(1 for q in measured if q.job.get("cached")) / len(measured) if measured else 0.0
        ),
        "other.self_s": other / len(measured) if measured else 0.0,
        "trace.coverage_frac": 1.0 - other / wall if wall > 0 else 0.0,
        "trace.query_s_p50": e2e["query_s_p50"]["value"],
    }
    metrics = {
        name: _metric(values[name], unit)
        for name, unit in per_layer_specs()
        if layer_of(name, spans.TARGETS) not in recorder.absent
    }
    self_times = {
        layer: per_query(layer)
        for layer in sorted({s[1] for s in recorder.spans} | {"service.queue", "service.run", "other"})
    }
    ranking = sorted(self_times.items(), key=lambda kv: -kv[1])
    report = {"absent_layers": recorder.absent, "self_time_ranking": ranking}
    return metrics, report


# ----------------------------------------------------------------------
# Checks, machine block, printing
# ----------------------------------------------------------------------

def code_digest() -> str:
    """blake2b over the measured program and this benchmark's code, so
    counters stored by one version are never compared with another's."""
    h = hashlib.blake2b(digest_size=16)
    for base in (ROOT / "src" / "repro", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def repeat_check(workload: str, seed: int, digest: str, queries) -> None:
    """Deterministic counters must repeat exactly across runs of one
    seed on the same code: compare with what earlier runs stored, then
    store the union."""
    path = WORK / "counters" / f"{workload}-seed{seed}-{digest}.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    for q in queries:
        if not q.counters:
            continue
        before = stored.get(q.key)
        if before is not None and before != q.counters:
            q.fail(f"counters {q.counters} differ from an earlier run's {before}")
        stored.setdefault(q.key, q.counters)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True))
    os.replace(tmp, path)


def machine_block() -> dict:
    import importlib.util

    import numpy

    try:
        from repro.core import kernels

        kernel = kernels.kernel_info("auto")
    except (ImportError, AttributeError):
        kernel = None
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        ram = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ram_bytes": ram,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel": kernel,
        "mp_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
    }


def print_report(report: dict) -> None:
    print("machine: " + json.dumps(report["machine"], sort_keys=True))
    print(
        f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
        f"{report['attempted']} queries, {report['failed']} failed, "
        f"failed_frac {report['failed_frac']:.4f}"
    )
    for line in report["failures"][:20]:
        print(f"  FAILED {line}")
    for name, m in report["end_to_end"].items():
        print(f"  {name:<22} {m['value']:.6g} {m['unit']}")
    speedup = report["notes"].get("parallel_speedup")
    if speedup is not None:
        print(f"  {'parallel_speedup':<22} {speedup:.6g} x (serial twin / process, "
              f"{report['notes']['procs']} procs)")
    if report["per_layer"]:
        for name, m in report["per_layer"].items():
            print(f"  {name:<22} {m['value']:.6g} {m['unit']}")
        top = ", ".join(f"{k} {v:.4f}s" for k, v in report["layers"]["self_time_ranking"][:5])
        print(f"  largest self times per query: {top}")
        if "tracing_overhead_s" in report:
            print(f"  tracing overhead on query_s_p50: {report['tracing_overhead_s']:+.4f} s")


if __name__ == "__main__":
    sys.exit(main())
