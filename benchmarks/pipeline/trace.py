"""Benchmark-side spans around the layers' public callables.

The spans are recorded from here, not from inside the program: each
target below is patched *at its use site* (the module attribute the
caller resolves at call time, or the class for methods), so the program
under test is unchanged and the wrappers come off again afterwards.
The program's own ``repro.obs`` spans stay off.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
enclosing span (-1 for a root) and ``op`` is the identifier of the poll
cycle, query or restart that caused it.  *Self time* is a span's
duration minus the durations of its direct children; what is left as the
self time of the benchmark's own root spans is what no layer claimed.
"""

from __future__ import annotations

import importlib
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Tracer", "TARGETS"]

# (module, attribute path inside the module, span name).  The span
# name's first component is the layer (a ``src/repro`` package).
TARGETS = [
    ("benchmarks.pipeline.worlds", "HistorySource.export", "sources.export"),
    ("repro.qss.wrapper", "Wrapper.poll", "wrapper.poll"),
    ("repro.lorel.result", "QueryResult.as_oem", "lorel.as_oem"),
    ("repro.qss.managers", "DOEMManager.incorporate", "qss.incorporate"),
    ("repro.qss.managers", "DOEMManager.filter_engine", "qss.filter_engine"),
    ("repro.qss.managers", "oem_diff", "diff.infer"),
    ("repro.diff.oemdiff", "match_snapshots", "diff.match"),
    ("repro.diff.iddiff", "id_diff", "diff.id"),
    ("repro.oem.model", "OEMDatabase.copy", "oem.copy"),
    ("repro.oem.history", "ChangeSet.apply_to", "oem.apply"),
    ("repro.doem.build", "apply_change_set", "doem.apply"),
    ("repro.doem.build", "build_doem", "doem.build"),
    ("repro.doem.snapshot", "snapshot_at", "doem.snapshot"),
    ("repro.doem.snapshot", "current_snapshot", "doem.snapshot"),
    ("repro.qss.managers", "current_snapshot", "doem.snapshot"),
    ("repro.doem.snapshot", "SnapshotCache.snapshot_at", "doem.snapshot_cache"),
    ("repro.store.log", "HistoryLog.append", "store.append"),
    ("repro.store.log", "HistoryLog.write_checkpoint", "store.checkpoint"),
    ("repro.store.log", "HistoryLog.nearest_checkpoint",
     "store.checkpoint_read"),
    ("repro.store.log", "HistoryLog.snapshot_at", "store.snapshot_at"),
    ("repro.store.log", "HistoryLog.get_doem", "store.get_doem"),
    ("repro.store.segment", "SegmentWriter.fsync", "store.fsync"),
    ("repro.store", "open_store", "store.open"),
    ("repro.chorel.engine", "ChorelEngine.run", "chorel.run"),
    ("repro.chorel.translate", "TranslatingChorelEngine.run", "chorel.run"),
    ("repro.lorel.engine", "LorelEngine.run", "lorel.run"),
    ("repro.chorel.engine", "ChorelEngine.parse", "lorel.parse"),
    ("repro.lorel.engine", "LorelEngine.parse", "lorel.parse"),
    # ``_compile`` rather than ``compile``: the indexed engine's ``run``
    # calls it directly.
    ("repro.chorel.engine", "ChorelEngine._compile", "plan.compile"),
    ("repro.lorel.engine", "LorelEngine._compile", "plan.compile"),
    ("repro.chorel.translate", "TranslatingChorelEngine._compile",
     "plan.compile"),
    ("repro.chorel.optimize", "IndexedChorelEngine.execute", "plan.execute"),
    ("repro.chorel.engine", "ChorelEngine.execute", "plan.execute"),
    ("repro.lorel.engine", "LorelEngine.execute", "plan.execute"),
    ("repro.chorel.translate", "TranslatingChorelEngine.execute",
     "plan.execute"),
    ("repro.lore.indexes", "TimestampIndex.rebuild", "lore.index_build"),
    ("repro.lore.indexes", "TimestampIndex.between", "lore.ts_index"),
    ("repro.lore.indexes", "PathIndex.nodes", "lore.path_index"),
    ("repro.lore.indexes", "PathIndex.contains", "lore.path_index"),
    ("repro.chorel.translate", "encode_doem", "chorel.encode"),
    ("repro.chorel.translate", "TranslatingChorelEngine.translate",
     "chorel.translate"),
    ("repro.qss.server", "QSSServer._package", "qss.package"),
    ("repro.parallel.executor", "ParallelExecutor.run", "parallel.scan_sharded"),
]


class Tracer:
    """In-memory span recorder with installable wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = ""
        self._thread = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """A span opened by the benchmark itself; ``op`` starts a new
        poll/query/restart identifier that nested spans inherit."""
        if op is not None:
            self._op = op
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, function):
        def traced(*args, **kwargs):
            # Worker threads of the sharded executor run beside the main
            # thread; only the driver thread's call stack is recorded.
            if threading.get_ident() != self._thread:
                return function(*args, **kwargs)
            index = self._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(index)
        traced.__wrapped__ = function
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrap(name, original))
            self._installed.append((owner, attribute, original))

    def remove(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- reading -----------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """``name -> [total self seconds, span count]``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += (end - start) - child_time[index]
            entry[1] += 1
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")
