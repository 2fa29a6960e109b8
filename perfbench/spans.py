"""Spans recorded from outside the program, and the per-layer numbers
derived from them.

The traced run replaces public names of each layer with timing wrappers
for the length of the run and restores them afterwards; the program
itself is not changed.  A name is wrapped where its caller looks it up:
``expand_columns`` in ``repro.core.listing`` (a ``from`` import there),
``choose_many`` on every strategy class, methods on the class that
defines them.  A name that no longer exists makes its whole layer
absent (with a warning) instead of crashing the run.

A span is ``(id, name, start, end, parent, query, rows)``.  Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


def _rows_first_arg(args, kwargs) -> int:
    # Bound methods: args[0] is self, args[1] the first real argument.
    return len(args[1]) if len(args) > 1 else 0


#: layer -> [(module, qualified name)].  Every target of a layer must
#: resolve, or the layer is reported absent.
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "graph.load": [
        ("repro.graph.io", "read_edge_list"),
        ("repro.graph.binfmt", "load_mapped"),
    ],
    "graph.order": [("repro.graph.ordered", "OrderedGraph.__init__")],
    "graph.partition": [("repro.core.listing", "random_partition")],
    "index.build": [
        ("repro.core.edge_index", "build_edge_index"),
        ("repro.service.server", "build_edge_index"),
    ],
    "pattern.prep": [
        ("repro.core.listing", "automorphisms"),
        ("repro.core.listing", "break_automorphisms"),
        ("repro.core.listing", "select_initial_vertex"),
        ("repro.pattern.pattern", "PatternGraph.canonical_key"),
        ("repro.service.server", "get_pattern"),
        ("repro.service.server", "pattern_from_edges"),
    ],
    "expand": [("repro.core.listing", "expand_columns")],
    # Filled in by _strategy_targets(): one entry per strategy class.
    "decide": [],
    "bsp.deliver": [("repro.core.psi", "GpsiColumns.row_slice")],
    "bsp.send": [
        ("repro.bsp.message", "ColumnarOutbox.append"),
        ("repro.bsp.message", "ColumnarOutbox.to_batch"),
    ],
    "bsp.build": [
        ("repro.bsp.message", "ColumnarMessageStore.build_worker_batches")
    ],
    "bsp.merge": [
        ("repro.bsp.message", "ColumnarMessageStore.merge_batch")
    ],
    "spill.write": [("repro.bsp.spill", "SuperstepSpill.spill")],
    "spill.map": [("repro.bsp.spill", "SuperstepSpill.load")],
    "runtime.start": [
        ("repro.runtime.serial", "SerialExecutor.start"),
        ("repro.runtime.process", "ProcessExecutor.start"),
    ],
    "runtime.superstep": [
        ("repro.runtime.serial", "SerialExecutor.run_superstep"),
        ("repro.runtime.process", "ProcessExecutor.run_superstep"),
    ],
    "runtime.close": [
        ("repro.runtime.serial", "SerialExecutor.close"),
        ("repro.runtime.process", "ProcessExecutor.close"),
    ],
    "service.submit": [("repro.service.server", "SubgraphService.submit")],
}


def _strategy_targets() -> List[Tuple[str, str, Callable]]:
    try:
        dist = importlib.import_module("repro.core.distribution")
    except ImportError:
        return []
    base = getattr(dist, "DistributionStrategy", None)
    if base is None:
        return []
    return [
        ("repro.core.distribution", f"{cls.__name__}.choose_many", _rows_first_arg)
        for _, cls in inspect.getmembers(dist, inspect.isclass)
        if issubclass(cls, base) and "choose_many" in cls.__dict__
    ]


class Recorder:
    """Collects spans in memory.  ``query`` is the id of the query the
    single closed-loop client has in flight; spans started on any thread
    (service job threads too) are tagged with it.  Pool processes forked
    from a traced run inherit the wrappers but record nothing: their
    spans stay in the child."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.query = -1
        self.results: Dict[int, object] = {}
        self.absent: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pid = os.getpid()
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, rows: Optional[Callable]) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != rec._pid:
                return fn(*args, **kwargs)
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                n = rows(args, kwargs) if rows is not None else 0
                rec.spans.append((sid, name, t0, t1, parent, rec.query, n))

        return wrapper

    def _tap_results(self, fn: Callable) -> Callable:
        # Not a span: keeps each query's ListingResult so the ledger's
        # counters are available even when a service thread ran it.
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if os.getpid() == rec._pid:
                rec.results[rec.query] = result
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's targets; missing names make layers absent."""
        targets = {
            layer: [(module, qualname, None) for module, qualname in entries]
            for layer, entries in TARGETS.items()
        }
        targets["decide"] = _strategy_targets()
        for layer, entries in targets.items():
            resolved = []
            for module_name, qualname, rows in entries:
                owner, attr = _resolve(module_name, qualname)
                if owner is None:
                    print(
                        f"warning: {module_name}.{qualname} not found; "
                        f"layer {layer} is reported absent",
                        file=sys.stderr,
                    )
                    resolved = None
                    break
                resolved.append((owner, attr, rows))
            if not resolved:
                if not entries:
                    print(
                        f"warning: no targets found for layer {layer}; "
                        "it is reported absent",
                        file=sys.stderr,
                    )
                self.absent.append(layer)
                continue
            for owner, attr, rows in resolved:
                self._patch(owner, attr, self._wrap(getattr(owner, attr), layer, rows))
        owner, attr = _resolve("repro.core.listing", "PSgL.run")
        if owner is not None:
            self._patch(owner, attr, self._tap_results(getattr(owner, attr)))

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def save(self, path: str) -> None:
        """Write every span once, as columns, at the end of the run."""
        names = sorted({s[1] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        np.savez_compressed(
            path,
            names=np.array(names),
            id=np.array(cols[0], dtype=np.int64),
            name=np.array([code[n] for n in cols[1]], dtype=np.int32),
            start=np.array(cols[2], dtype=np.float64),
            end=np.array(cols[3], dtype=np.float64),
            parent=np.array([-1 if p is None else p for p in cols[4]], dtype=np.int64),
            query=np.array(cols[5], dtype=np.int64),
            rows=np.array(cols[6], dtype=np.int64),
        )


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute)`` for a dotted name, or ``(None, None)``.
    Methods resolve on the class that defines them, so patching one
    class never shadows an inherited method on another."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if attr not in getattr(owner, "__dict__", {}):
        return None, None
    if isinstance(owner.__dict__[attr], (staticmethod, classmethod)):
        return None, None
    return owner, attr


# ----------------------------------------------------------------------
# Self times
# ----------------------------------------------------------------------

def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_times(
    spans: Sequence[tuple],
    root: Tuple[float, float],
    synthetic: Sequence[Tuple[str, float, float]] = (),
) -> Dict[str, Dict[str, float]]:
    """Per-layer totals for one query (or one set-up repetition).

    ``root`` is the query's wall interval as the client saw it.
    ``synthetic`` spans (the service's queue and run intervals, read
    from its job record) become children of the root, and a span with
    no recorded parent (a service thread's outermost call) hangs from
    the innermost synthetic span that contains it, else from the root.
    Returns ``{layer: {"total", "self", "calls", "rows"}}``; the root's
    self time, the wall no named span covers, is the ``other`` layer.
    """
    nodes = {s[0]: s for s in spans}
    children: Dict[object, List[Tuple[float, float]]] = {}
    syn = [("syn", i, name, a, b) for i, (name, a, b) in enumerate(synthetic)]
    for _, i, _, a, b in syn:
        children.setdefault("root", []).append((a, b))
    for sid, _, a, b, parent, _, _ in spans:
        if parent is None or parent not in nodes:
            holder = "root"
            best = None
            for _, i, _, sa, sb in syn:
                if sa <= a and b <= sb and (best is None or sb - sa < best):
                    holder, best = ("syn", i), sb - sa
            parent = holder
        children.setdefault(parent, []).append((a, b))
    out: Dict[str, Dict[str, float]] = {}

    def add(name: str, total: float, self_time: float, rows: int) -> None:
        slot = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0, "rows": 0})
        slot["total"] += total
        slot["self"] += self_time
        slot["calls"] += 1
        slot["rows"] += rows

    for sid, name, a, b, _, _, rows in spans:
        add(name, b - a, b - a - _covered(children.get(sid, ()), a, b), rows)
    for _, i, name, a, b in syn:
        add(name, b - a, b - a - _covered(children.get(("syn", i), ()), a, b), 0)
    lo, hi = root
    add("other", hi - lo, hi - lo - _covered(children.get("root", ()), lo, hi), 0)
    return out
