"""The four pipeline workloads, run one per process.

``run.py`` starts this file as a child interpreter (``PYTHONHASHSEED=0``)
for exactly one workload, so peak RSS is per workload and the program's
process-level state (store-handle cache, metrics registry, query log)
never leaks from one workload into the next.  The child prints one JSON
document on its last line; ``run.py`` turns it into the contract's
result line.

Every workload drives the same pipeline -- a store-backed ``QSSServer``
polling a :class:`~worlds.HistorySource`, a long-lived
``IndexedChorelEngine`` over the main subscription's DOEM, then a close /
reopen / rebuild -- and differs in source posture, world size and where
the measured seconds go (see :data:`SPECS` and the README).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The script directory comes off the path (its ``trace.py`` would shadow
# the standard library's) and the checkout's sources go on.
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
    entry for entry in sys.path if Path(entry or ".").resolve() != HERE]

from benchmarks.pipeline.trace import Tracer  # noqa: E402
from benchmarks.pipeline.worlds import (  # noqa: E402
    NAMES, ChangeStream, Churn, HistorySource, day, make_origin)
from repro.chorel.engine import ChorelEngine  # noqa: E402
from repro.chorel.optimize import IndexedChorelEngine  # noqa: E402
from repro.chorel.translate import TranslatingChorelEngine  # noqa: E402
from repro.diff.matching import node_signatures  # noqa: E402
from repro.doem.snapshot import (  # noqa: E402
    current_snapshot, snapshot_at, snapshot_cache)
from repro.lorel.engine import LorelEngine  # noqa: E402
from repro.parallel.executor import ParallelExecutor  # noqa: E402
from repro.qss.server import QSSServer  # noqa: E402
from repro.qss.subscription import Subscription  # noqa: E402
from repro.qss.wrapper import Wrapper  # noqa: E402
from repro import store as store_layer  # noqa: E402

RESULTS = HERE / "results"
FSYNC_POLICY = "always"

QUERY_CLASSES = ("at", "snapshot", "range", "versions", "wide", "last",
                 "scan", "translated")
HEAVY = ("wide", "last")
WIDE_DAYS = 31
HISTORY = "history"     # the stored history time_travel queries


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spec:
    why: str
    items: int                  # origin has 5 * items + 1 nodes
    scramble: bool              # source without stable identifiers
    differ: str                 # DOEMManager.differ
    subscriptions: tuple[str, ...]   # "all" or an item name; first is main
    churn: Churn
    preload: int                # change sets written with put_history
    poll_share: float           # share of --seconds spent polling
    query_share: float          # share of --seconds spent in the matrix
    interleaved: tuple[str, ...]     # classes run after every poll cycle
    window: int                 # distinct probe days the matrix cycles over
    floor_cycles: int           # poll cycles before the query matrix
    heavy_every: int            # wide/last run once per this many rounds
    restarts: int
    setups: int                 # set-ups per run; setup_s is their median
    batch: dict                 # class -> queries per timed sample


_LIGHT = Churn(updates=50, fresh=5, links_added=10, links_removed=10)
_FULL = Churn(updates=100, fresh=10, links_added=20, links_removed=20)

# Queries per timed sample where the main DOEM is one selective
# subscription's (a few hundred nodes): one pass over the probe window,
# so every sample is above 2 ms and does the same work as the last.
_SMALL_DOEM_BATCH = {cls: 8 for cls in QUERY_CLASSES if cls not in HEAVY}

SPECS = {
    "qss_scrambled": Spec(
        why="autonomous source without stable ids: OEMdiff matching does "
            "most of the work, store and planner almost none",
        items=1000, scramble=True, differ="match",
        subscriptions=(NAMES[0], "all"), churn=_FULL, preload=0,
        poll_share=0.7, query_share=0.2,
        interleaved=(), window=8, floor_cycles=6, heavy_every=2,
        restarts=9, setups=3, batch=_SMALL_DOEM_BATCH),
    "qss_fanout": Spec(
        why="cooperative source with stable ids and 16 selective "
            "subscriptions: diff is bypassed, per-subscription fixed costs "
            "(export, polling query, copies, append+fsync) carry the time",
        items=1000, scramble=False, differ="ids",
        subscriptions=tuple(NAMES),
        churn=Churn(updates=100, fresh=10, links_added=32, links_removed=0),
        preload=0, poll_share=0.65,
        query_share=0.25, interleaved=(), window=8, floor_cycles=6,
        heavy_every=2, restarts=9, setups=3,
        batch=_SMALL_DOEM_BATCH),
    "time_travel": Spec(
        why="read-only: a deep stored history queried across 32 probe "
            "times, so planner, indexes, snapshots and checkpoint reads do "
            "the work and diff and append almost none",
        # The polls and restarts here are guards on one small selective
        # subscription beside the stored history ("match": the history's
        # link removals would trip the ids differ's re-entry limit).
        items=1000, scramble=False, differ="match",
        subscriptions=(NAMES[0],), churn=_LIGHT, preload=120,
        poll_share=0.1, query_share=0.8,
        interleaved=(), window=32, floor_cycles=3, heavy_every=3,
        # Snapshot cost swings with the checkpoint each probe lands on.
        restarts=9, setups=1, batch={"snapshot": 4}),
    "serve_mixed": Spec(
        why="polls beside queries on one live DOEM, then a restart: a "
            "read-side gain bought with write-side cost (or the reverse) "
            "shows here",
        items=300, scramble=True, differ="match",
        subscriptions=("all",), churn=_LIGHT, preload=0,
        poll_share=0.65, query_share=0.2,
        interleaved=("at", "snapshot", "range", "versions"), window=8,
        floor_cycles=10, heavy_every=2, restarts=5, setups=5,
        # A pair per sample: the first probe after a poll finds the caches
        # invalidated, the second finds them warm.
        batch={"at": 2, "snapshot": 2, "range": 2, "versions": 2}),
}


def scaled(spec: Spec, quick: bool) -> Spec:
    """The ``--quick`` posture: a tenth of the world, a short history."""
    if not quick:
        return spec
    return replace(spec, items=max(64, spec.items // 10),
                   churn=Churn(max(1, spec.churn.updates // 10),
                               max(1, spec.churn.fresh // 5),
                               max(1, spec.churn.links_added // 5),
                               min(spec.churn.links_removed, 1)),
                   preload=min(spec.preload, 50), setups=1,
                   restarts=1, floor_cycles=2)


def polling_query(sub: str) -> str:
    if sub == "all":
        return "select root.item"
    return f'select root.item where root.item.name = "{sub}"'


def filter_query(sub: str) -> str:
    return f"select {sub}.item.price<upd at T> where T > t[-1]"


def query_text(cls: str, db: str, k: int) -> str:
    """The Chorel (or, for ``snapshot``/``scan``, Lorel) text of one
    query of class ``cls`` probing simulated day ``k``."""
    price = f"{db}.item.price"
    if cls == "at":
        return f"select {price}<upd at {day(k)}>"
    if cls in ("snapshot", "scan"):
        return f"select I from {db}.item I where I.price > 900"
    if cls == "range":
        return (f"select X, T from {price}"
                f"<changed at T in [{day(k - 2)}..{day(k)}]> X")
    if cls == "versions":
        return (f"select X, T from {price}"
                f"<at T in [{day(k - 9)}..{day(k)}]> X")
    if cls == "wide":
        # Wider than 30 days: the planner picks checkpoint-replay.
        return (f"select X, T from {price}"
                f"<changed at T in [{day(k - WIDE_DAYS)}..{day(k)}]> X")
    if cls == "last":
        return f"select X, T from {price}<last-change at T> X"
    if cls == "translated":
        return (f"select {price}<upd at T> "
                f"where T > {day(k - 1)} and T <= {day(k)}")
    raise ValueError(cls)


def canonical(result) -> list[str]:
    return sorted(str(row.items) for row in result)


class Speedometer:
    """The drift canary, run beside every sample.

    This box shares its cores: the same code runs 1.3x to 1.8x slower for
    seconds or minutes at a time, and run-to-run medians of raw wall time
    spread by 20-40 % when it does.  So a fixed loop of interpreter-bound
    work (a *pulse*, about half a millisecond) is timed before and after
    every sample (five times around a long one), and the sample's wall
    time is scaled by ``REFERENCE_PULSE / pulse``, the pulse being the
    median of those taken from a quarter second before the sample to its
    end.  Every reported time is therefore wall time *at the reference
    machine speed*; the raw medians ride along in the result document.
    The loop is the benchmark's own: no change to the program can move
    it.
    """

    # Median pulse beside samples on the reference box (2-core Xeon
    # 2.1 GHz, CPython 3.11) while nothing else ran.
    REFERENCE_PULSE = 0.00055
    MARGIN = 0.25
    LONG = 0.02

    def __init__(self) -> None:
        self.times: list[float] = []
        self.pulses: list[float] = []

    def pulse(self) -> None:
        # Integers and one dict only: nothing the cyclic collector tracks
        # is allocated, so a pulse never pays for a collection of the
        # heap the sample before it grew.
        started = perf_counter()
        table: dict[int, int] = {}
        for index in range(6_000):
            table[index & 255] = table.get(index & 127, 0) + index
        ended = perf_counter()
        self.times.append(ended)
        self.pulses.append(ended - started)

    def begin(self, pulses: int = 1) -> float:
        for _ in range(pulses):
            self.pulse()
        return perf_counter()

    def end(self, started: float) -> tuple[float, float]:
        """``(raw, scaled)`` seconds since ``started``."""
        elapsed = perf_counter() - started
        # A long sample has few neighbours inside the margin: give it
        # five pulses of its own at this end.
        for _ in range(5 if elapsed > self.LONG else 1):
            self.pulse()
        recent = self.pulses[bisect_left(self.times, started - self.MARGIN):]
        return elapsed, elapsed * self.REFERENCE_PULSE \
            / statistics.median(recent)

    def pulse_ms(self, part: slice = slice(None)) -> float:
        return statistics.median(self.pulses[part]) * 1000.0


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _, mount, fstype = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


# ---------------------------------------------------------------------------
# The pipeline under test
# ---------------------------------------------------------------------------

@dataclass
class View:
    """A DOEM under a long-lived indexed engine, with the store log it
    was built from attached to the engine and to the snapshot cache."""

    name: str
    doem: object
    engine: IndexedChorelEngine

    @classmethod
    def open(cls, name: str, doem, log) -> "View":
        engine = IndexedChorelEngine(doem, name=name)
        engine.log = log
        snapshot_cache(doem).attach_store(log)
        return cls(name, doem, engine)


class Pipeline:
    """One workload's world, server, engines and counters."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.main = spec.subscriptions[0]
        self.directory = Path(tempfile.mkdtemp(prefix="store-", dir=RESULTS))
        self.path = self.directory / "st"
        self.notifications = 0
        self.notification_rows = 0
        self.diff_ops = 0       # inferred by every subscription's differ
        self.diff_ops_all = 0   # ... by the one that polls everything
        self.polls = 0
        self.poll_errors: list = []
        self.rows_returned = 0
        self.range_strategies: Counter = Counter()
        self.translator = None
        self._translator_fingerprint = None
        self._probe_index: Counter = Counter()

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        spec = self.spec
        origin = make_origin(self.seed, spec.items)
        self.stream = ChangeStream(origin, self.seed, spec.churn)
        self.source = HistorySource(origin, self.stream,
                                    scramble=spec.scramble)
        if spec.preload:
            history = self.stream.history(spec.preload)
            store_layer.open_store(
                self.path, "rw", fsync_policy=FSYNC_POLICY
            ).put_history(HISTORY, origin, history)
            for _, change_set in history:
                change_set.apply_to(self.source.db)
            self.source.today = spec.preload
        self.today = self.source.today
        self.wrapper = Wrapper(self.source, name="root")
        self.start_server()
        self.poll_cycle()  # warm-up: the first poll creates every object
        self.attach_engine()
        if spec.preload:
            log = self.store.log(HISTORY)
            self.target = View.open(HISTORY, log.get_doem(), log)
        # Probe days, as distances back from today: ``window`` distinct
        # days -- over the whole stored history when there is one (so the
        # 8-slot caches mostly miss), else over the most recent polls (so
        # they mostly hit).  The schedule is the same for every seed: cache
        # behaviour depends on the order of probes, and a seed should move
        # the data, not the mix of hits and misses.
        reach = max(spec.window, spec.preload - WIDE_DAYS) \
            if spec.preload else spec.window
        self.offsets = random.Random(0xDA15).sample(
            range(reach), min(spec.window, reach))

    def start_server(self) -> None:
        """A fresh server over the store, with every subscription.  The
        store keeps histories, not subscriptions, so a restarted server is
        subscribed again; its DOEMs come back from the log on first use."""
        self.store = store_layer.open_store(
            self.path, "rw", fsync_policy=FSYNC_POLICY)
        self.server = QSSServer(start=day(self.today), store=self.store,
                                on_error="skip")
        self.server.doems.differ = self.spec.differ
        self.server.register_wrapper("w", self.wrapper)
        for sub in self.spec.subscriptions:
            self.server.subscribe(
                Subscription(sub, "every day", polling_query(sub),
                             filter_query(sub)),
                "w", deliver=self._deliver)

    def attach_engine(self) -> None:
        """``live`` is the main subscription's DOEM under a long-lived
        engine; the query matrix targets it unless a stored history was
        preloaded for that."""
        self.live = View.open(self.main,
                              self.server.doems.doem(self.main),
                              self.store.log(self.main))
        if not self.spec.preload:
            self.target = self.live

    def _deliver(self, notification) -> None:
        self.notifications += 1
        self.notification_rows += len(notification.result)

    # -- operations --------------------------------------------------------

    def poll_cycle(self) -> None:
        """Advance one simulated day; every subscription polls once."""
        self.today += 1
        self.server.run_until(day(self.today))
        self.polls += len(self.spec.subscriptions)
        inferred = self.server.doems.last_diff_stats
        self.diff_ops += sum(stats.total for stats in inferred.values())
        if "all" in inferred:
            self.diff_ops_all += inferred["all"].total

    def probe_day(self, cls: str) -> int:
        """The next probe day of ``cls``: a fixed cycle over the window,
        so every run of a workload probes the same mix of times."""
        index = self._probe_index[cls]
        self._probe_index[cls] += 1
        offset = self.offsets[index % len(self.offsets)]
        # Back from the newest day the target holds: the stored history's
        # last, or today on a live subscription.
        return max(2, (self.spec.preload or self.today) - offset)

    def translator_stale(self) -> bool:
        return self._translator_fingerprint != self.target.doem.fingerprint()

    def encode(self) -> None:
        """The translation backend encodes the DOEM once, at construction;
        on a live DOEM it is rebuilt after new polls, as its own
        operation beside the ``translated`` samples."""
        target = self.target
        self.translator = TranslatingChorelEngine(target.doem,
                                                  name=target.name)
        self._translator_fingerprint = target.doem.fingerprint()

    def query(self, cls: str, k: int):
        target = self.target
        text = query_text(cls, target.name, k)
        if cls == "snapshot":
            # Version materialisation through the snapshot cache (store
            # checkpoints attached), then a single-version query.
            version = snapshot_cache(target.doem).snapshot_at(day(k))
            return LorelEngine(version, name=target.name).run(text)
        if cls == "translated":
            return self.translator.run(text)
        result = target.engine.run(text)
        self.rows_returned += len(result)
        plan = target.engine.last_range_plan
        if plan is not None:
            self.range_strategies[plan.strategy] += 1
        return result

    def oracle(self, cls: str, k: int):
        """The same question answered without the planner."""
        target = self.target
        text = query_text(cls, target.name, k)
        if cls == "snapshot":
            version = snapshot_at(target.doem, day(k))
            return LorelEngine(version, name=target.name,
                               use_planner=False).run(text)
        return ChorelEngine(target.doem, name=target.name,
                            use_planner=False).run(text)

    def shape(self) -> tuple[int, int, int]:
        doem = self.live.doem
        return (len(doem.graph), doem.graph.arc_count(),
                doem.annotation_count())

    def shutdown(self) -> None:
        # The server skips a failed poll and logs it; keep the log.
        self.poll_errors.extend(self.server.error_log)
        self.server.close()
        store_layer.close_store(self.path)

    def restart(self, text: str):
        """Reopen the store in a fresh server, rebuild the main DOEM from
        the log, build the index and answer one query."""
        self.start_server()
        self.attach_engine()
        return self.live.engine.run(text)

    def close(self) -> None:
        try:
            store_layer.close_store(self.path)
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Run:
    """Times one workload's operations and accounts for failures."""

    def __init__(self, pipeline: Pipeline, seconds: float,
                 tracer: Tracer | None, meter: Speedometer) -> None:
        self.p = pipeline
        self.spec = pipeline.spec
        self.seconds = seconds
        self.tracer = tracer
        self.meter = meter
        # Seconds per operation at the reference speed, by kind of sample;
        # ``raw`` keeps the plain samples' wall seconds as measured.
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.traced: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.busy = 0.0         # scaled seconds inside timed operations
        self.queries_done = 0
        self.poll_busy = 0.0    # busy seconds of phases that polled
        self.query_busy = 0.0   # busy seconds of phases that queried
        self.first_rows: dict[str, int] = {}
        # Counters the warm-up poll left behind; the counted prefix is
        # what the floor cycles add to them.
        self.after_setup = self.counters()
        self.prefix: dict = {}

    # -- one timed operation -----------------------------------------------

    def timed(self, kind: str, function, units: int = 1,
              pair: bool = True):
        """Run ``function`` as one sample of ``kind`` (``units`` operations
        of it).  With a tracer, every second sample of a kind runs with
        the wrappers installed, so traced and plain samples pair up;
        kinds too rare to pair (``pair=False``) are always traced."""
        tracer = self.tracer
        count = len(self.samples[kind]) + len(self.traced[kind])
        trace_this = tracer is not None and (count % 2 == 1 or not pair)
        self.attempted += units
        if trace_this:
            tracer.install()
        started = self.meter.begin(1 if pair else 5)
        try:
            if trace_this:
                with tracer.span(f"bench.{kind.split('.')[0]}",
                                 op=f"{kind}:{count}"):
                    value = function()
            else:
                value = function()
        except Exception as error:  # a failed operation, not a crash
            self.failed += units
            self.failures.append(f"{kind}: {type(error).__name__}: {error}")
            return None
        finally:
            elapsed, scaled = self.meter.end(started)
            self.busy += scaled
            if trace_this:
                tracer.remove()
        (self.traced if trace_this else self.samples)[kind].append(
            scaled / units)
        if not trace_this:
            self.raw[kind].append(elapsed / units)
        return value

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {label}")

    # -- phases ------------------------------------------------------------

    def query_sample(self, cls: str) -> None:
        p = self.p
        batch = self.spec.batch.get(cls, 1)
        days = [p.probe_day(cls) for _ in range(batch)]
        if cls == "translated" and p.translator_stale():
            self.timed("encode", p.encode, pair=False)
        results = self.timed(f"q.{cls}",
                             lambda: [p.query(cls, k) for k in days],
                             units=batch)
        self.queries_done += batch
        if results is not None and cls not in self.first_rows:
            # The first query of each class is checked against the
            # planner-less oracle at once, while the DOEM is unchanged.
            rows = canonical(results[0])
            self.first_rows[cls] = len(rows)
            self.check(f"oracle: {cls}",
                       canonical(p.oracle(cls, days[0])) == rows)

    def poll_phase(self, cycles: int, budget: float) -> float:
        """Poll for ``cycles`` cycles, then on until ``budget`` seconds
        are used; returns the seconds it took."""
        p, spec = self.p, self.spec
        started, busy = perf_counter(), self.busy
        while cycles > 0 or perf_counter() - started < budget:
            self.timed("poll", p.poll_cycle, units=len(spec.subscriptions))
            cycles -= 1
            for cls in spec.interleaved:
                self.query_sample(cls)
        self.poll_busy += self.busy - busy
        if spec.interleaved:
            self.query_busy += self.busy - busy
        return perf_counter() - started

    def query_phase(self) -> None:
        spec = self.spec
        classes = [cls for cls in QUERY_CLASSES
                   if cls not in spec.interleaved]
        budget = self.seconds * spec.query_share
        started, busy = perf_counter(), self.busy
        rounds = 0
        while rounds < 2 * spec.heavy_every or \
                perf_counter() - started < budget:
            for cls in classes:
                if cls in HEAVY and rounds % spec.heavy_every:
                    continue
                self.query_sample(cls)
            rounds += 1
        self.query_busy += self.busy - busy
        if self.tracer is not None:
            self.sharded_scan()

    def sharded_scan(self) -> None:
        """Informational: the scan class through ``ParallelExecutor``."""
        p = self.p
        text = query_text("scan", p.target.name, p.today)
        with ParallelExecutor(p.target.engine,
                              max_workers=os.cpu_count()) as executor:
            for _ in range(4):
                self.timed("sharded", lambda: executor.run(text))

    def counters(self) -> dict:
        p = self.p
        stats = p.store.stats()
        return {
            "polls": p.polls,
            "diff_ops": p.diff_ops,
            "diff_ops_all": p.diff_ops_all,
            "ops_applied": p.stream.ops_emitted,
            "ops_appended": stats["ops_appended"],
            "bytes_written": stats["bytes_written"],
            "fsyncs": stats["fsyncs"],
            "notifications": p.notifications,
            "notification_rows": p.notification_rows,
        }

    def counted_prefix(self) -> dict:
        """What the floor cycles added to the counters -- the same
        operations on every run of a seed, so these repeat exactly --
        and the store's size on disk against every op it holds."""
        now = self.counters()
        prefix = {key: now[key] - self.after_setup[key] for key in now}
        prefix["disk_bytes"] = tree_bytes(self.p.path)
        prefix["ops_stored"] = now["ops_appended"]
        return prefix

    def tip_checks(self) -> int:
        """After the last poll the DOEM's current snapshot must equal the
        wrapper's packaged result, up to identifiers."""
        p = self.p
        packaged = p.wrapper.poll(polling_query(p.main))
        live = current_snapshot(p.live.doem)
        self.check("tip: node and arc counts equal the packaged result",
                   (len(live), live.arc_count())
                   == (len(packaged), packaged.arc_count()))
        # Not isomorphic_to: it recurses past the limit at 5,000 nodes.
        self.check("tip: node signature multisets equal",
                   Counter(node_signatures(live).values())
                   == Counter(node_signatures(packaged).values()))
        self.check("notification rows > 0", p.notification_rows > 0)
        return len(packaged)

    def restart_phase(self) -> None:
        p = self.p
        text = query_text("at", p.main, max(2, p.today - 1))
        rows_before = canonical(p.live.engine.run(text))
        for _ in range(self.spec.restarts):
            shape_before = p.shape()
            p.shutdown()
            gc.collect()  # the server just dropped is not this sample's cost
            rows = self.timed("restart", lambda: p.restart(text), pair=False)
            if rows is None:
                return
            self.check("restart: node, arc and annotation counts",
                       p.shape() == shape_before)
            self.check("restart: first query rows",
                       canonical(rows) == rows_before)

    def execute(self) -> dict:
        """Run every phase; returns the counters that die at restart.

        The floor cycles come first, then the query matrix and the
        restarts, so both always see the same history for a seed -- the
        cost of ``wide``, ``last``, ``scan`` and of a rebuild grows with
        it.  The restarted server then polls on until the poll budget
        is used."""
        p, spec = self.p, self.spec
        gc.collect()
        floor_seconds = self.poll_phase(spec.floor_cycles, 0.0)
        self.prefix = self.counted_prefix()
        gc.collect()
        self.query_phase()
        details = {
            "store": p.store.stats(),
            "checkpoint_bytes": sum(entry.stat().st_size
                                    for entry in p.path.rglob("ckpt-*")),
            "annotations": p.target.doem.annotation_count(),
            "cache": snapshot_cache(p.target.doem).stats.as_dict(),
            "annotation_visits": p.target.engine.annotation_visits,
            "indexed_share": p.target.engine.stats.pushdown_rate,
            "ts_index_hit_ratio": p.target.engine.index.stats.hit_rate,
            "path_index_hit_ratio": p.target.engine.paths.stats.hit_rate,
        }
        gc.collect()
        self.restart_phase()
        gc.collect()
        self.poll_phase(0, self.seconds * spec.poll_share - floor_seconds)
        details["result_nodes"] = self.tip_checks()
        errors = p.poll_errors + p.server.error_log
        self.failed += len(errors)
        self.failures.extend(f"poll: {error!r}" for _, _, error in errors)
        return details


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0


def tail(values: list[float]) -> dict | None:
    """The highest percentile with ten samples beyond it (detail only:
    tails do not repeat within a tenth on a shared box)."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return {"percentile": round(100.0 * (index + 1) / len(ordered), 1),
            "ms": ordered[index] * 1000.0, "samples": len(ordered)}


def end_to_end(run: Run, setup_seconds: list[float]) -> dict:
    prefix = run.prefix
    metrics = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "poll_ms_p50": (median_ms(run.samples["poll"]), "ms"),
        "polls_per_s": ((run.p.polls - run.after_setup["polls"])
                        / run.poll_busy, "1/s"),
        "queries_per_s": (run.queries_done / run.query_busy, "1/s"),
        "restart_s": (statistics.median(run.samples["restart"]), "s"),
        "disk_bytes_per_op": (prefix["disk_bytes"] / prefix["ops_stored"],
                              "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    for cls in QUERY_CLASSES:
        metrics[f"q_{cls}_ms_p50"] = (median_ms(run.samples[f"q.{cls}"]),
                                      "ms")
    return metrics


# metric -> (span names, op prefix, nested spans left out, denominator).
# Times are inclusive ("inside this call") less the nested spans named;
# a denominator of "poll"/"query" gives ms per traced poll/query, "span"
# ms per call.
_SPAN_METRICS = {
    "sources.export_ms": (("sources.export",), "poll", (), "poll"),
    "wrapper.poll_ms": (("wrapper.poll",), "poll", ("sources.export",),
                        "poll"),
    "diff.match_ms": (("diff.match",), "poll", (), "poll"),
    "diff.infer_ms": (("diff.infer",), "poll", ("diff.match",), "poll"),
    "diff.id_ms": (("diff.id",), "poll", (), "poll"),
    "oem.copy_ms": (("oem.copy",), "poll", (), "poll"),
    "oem.apply_ms": (("oem.apply",), "poll", (), "poll"),
    "doem.apply_ms": (("doem.apply",), "poll", (), "poll"),
    "doem.build_ms": (("doem.build",), "", (), "span"),
    "doem.snapshot_ms": (("doem.snapshot", "doem.snapshot_cache"), "q.", (),
                         "span"),
    "store.append_ms": (("store.append",), "poll",
                        ("store.fsync", "store.checkpoint"), "poll"),
    "store.fsync_ms": (("store.fsync",), "poll", (), "poll"),
    "store.checkpoint_ms": (("store.checkpoint",), "", (), "span"),
    "store.snapshot_at_ms": (("store.checkpoint_read", "store.snapshot_at"),
                             "q.", (), "span"),
    "store.open_ms": (("store.open",), "", (), "span"),
    "lorel.parse_ms": (("lorel.parse",), "q.", (), "query"),
    "plan.compile_ms": (("plan.compile",), "q.", ("chorel.translate",),
                        "query"),
    "lore.index_build_ms": (("lore.index_build",), "", (), "span"),
    "chorel.translate_ms": (("chorel.translate",), "q.", (), "span"),
    "chorel.encode_ms": (("chorel.encode",), "", (), "span"),
    "qss.filter_ms": (("chorel.run",), "poll", (), "poll"),
    "qss.package_ms": (("qss.package",), "poll", (), "poll"),
    "parallel.scan_sharded_ms": (("parallel.scan_sharded",), "", (), "span"),
}


def span_totals(tracer: Tracer):
    """``total(names, op_prefix, minus) -> (seconds, calls)`` over the
    outermost spans called ``names`` in operations whose id starts with
    ``op_prefix``, with nested spans called ``minus`` taken out."""
    spans = tracer.spans
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)

    def nested(index: int, names) -> float:
        seconds = 0.0
        for child in children[index]:
            if spans[child][0] in names:
                seconds += spans[child][2] - spans[child][1]
            else:
                seconds += nested(child, names)
        return seconds

    def outermost(index: int, names) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return False
            parent = spans[parent][3]
        return True

    def total(names, op_prefix: str, minus=()) -> tuple[float, int]:
        seconds, calls = 0.0, 0
        for index, (name, start, end, _, op) in enumerate(spans):
            if name in names and op.startswith(op_prefix) \
                    and outermost(index, names):
                seconds += end - start - nested(index, minus)
                calls += 1
        return seconds, calls

    return total


def per_layer(run: Run, details: dict) -> dict:
    p, tracer, spec = run.p, run.tracer, run.spec
    total = span_totals(tracer)
    # Span times are scaled to the reference speed by the run's median
    # pulse (samples by the pulses beside each one).
    to_ms = 1e6 * Speedometer.REFERENCE_PULSE / run.meter.pulse_ms()
    traced_polls = len(run.traced["poll"]) * len(spec.subscriptions)
    traced_queries = sum(
        len(values) * spec.batch.get(kind[2:], 1)
        for kind, values in run.traced.items() if kind.startswith("q."))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name, (names, op_prefix, minus, per) in _SPAN_METRICS.items():
        seconds, calls = total(names, op_prefix, minus)
        denominator = {"poll": traced_polls, "query": traced_queries,
                       "span": calls}[per]
        metrics[name] = (ratio(seconds * to_ms, denominator), "ms")
    for cls in QUERY_CLASSES:
        seconds, _ = total(("plan.execute",), f"q.{cls}:")
        queries = len(run.traced[f"q.{cls}"]) * spec.batch.get(cls, 1)
        metrics[f"plan.execute_ms.{cls}"] = (
            ratio(seconds * to_ms, queries), "ms")

    # What no layer's span claims is the self time of the benchmark's own
    # root spans around polls and queries.
    self_times = tracer.self_times()
    poll_self = self_times.get("bench.poll", (0.0, 0))[0]
    query_self = self_times.get("bench.q", (0.0, 0))[0]
    op_seconds = sum(end - start for name, start, end, parent, _
                     in tracer.spans
                     if parent < 0 and name in ("bench.poll", "bench.q"))
    metrics["qss.poll_self_ms"] = (ratio(poll_self * to_ms, traced_polls),
                                   "ms")
    metrics["trace.coverage"] = (
        1.0 - ratio(poll_self + query_self, op_seconds), "ratio")

    # Tracing overhead from the paired samples of each kind.
    traced_cost = plain_cost = 0.0
    for kind, traced in run.traced.items():
        plain = run.samples.get(kind)
        if plain and traced:
            traced_cost += statistics.median(traced) * len(plain)
            plain_cost += statistics.median(plain) * len(plain)
    metrics["trace.overhead_ratio"] = (ratio(traced_cost, plain_cost),
                                       "ratio")
    metrics["trace.poll_ms"] = (
        ratio(sum(run.traced["poll"]) * 1000.0, len(run.traced["poll"])),
        "ms")
    metrics["trace.query_ms"] = (
        ratio(sum(sum(values) * spec.batch.get(kind[2:], 1)
                  for kind, values in run.traced.items()
                  if kind.startswith("q.")) * 1000.0, traced_queries), "ms")
    metrics["machine.calib_ms"] = (run.meter.pulse_ms(), "ms")

    # Counts come from the program's public stats objects; the ones that
    # must repeat exactly are read at the counted prefix.
    prefix, store, cache = run.prefix, details["store"], details["cache"]
    counts = {
        "sources.exports": (p.source.exports, "count"),
        "wrapper.result_nodes": (details["result_nodes"], "count"),
        "diff.ops_per_poll": (ratio(prefix["diff_ops"], prefix["polls"]),
                              "count"),
        # Ops the differ inferred for the subscription that polls the whole
        # source, per op the generator applied (0 without such a one).
        "diff.excess_ops_ratio": (
            ratio(prefix["diff_ops_all"], prefix["ops_applied"]), "ratio"),
        "oem.copies": (ratio(total(("oem.copy",), "poll")[1], traced_polls),
                       "count"),
        "doem.annotations": (details["annotations"], "count"),
        # Lookups the in-memory cache served (exactly or by replaying from
        # a cached snapshot); one that loaded a store checkpoint is a miss
        # here -- the cache's own ``hit_rate`` counts it as a hit and
        # reads 1.0 wherever a checkpoint precedes every probe.
        "doem.snapshot_cache_hit_ratio": (
            ratio(cache["exact_hits"] + cache["incremental"],
                  cache["lookups"]), "ratio"),
        "store.fsyncs": (prefix["fsyncs"], "count"),
        "store.bytes_per_op": (ratio(prefix["bytes_written"],
                                     prefix["ops_appended"]), "bytes"),
        "store.checkpoints_written": (store["checkpoints_written"], "count"),
        "store.checkpoint_bytes": (details["checkpoint_bytes"], "bytes"),
        "store.checkpoint_hit_ratio": (
            1.0 - ratio(store["checkpoint_loads"], cache["store_hits"])
            if cache["store_hits"] else 0.0, "ratio"),
        "store.replayed_sets_per_snapshot": (
            ratio(cache["replayed_sets"],
                  cache["lookups"] - cache["exact_hits"]), "count"),
        "plan.visits_per_row": (ratio(details["annotation_visits"],
                                      p.rows_returned), "count"),
        "plan.indexed_share": (details["indexed_share"], "ratio"),
        "plan.range_index_scans": (p.range_strategies["index-scan"],
                                   "count"),
        "plan.range_replays": (p.range_strategies["checkpoint-replay"],
                               "count"),
        "lore.ts_index_hit_ratio": (details["ts_index_hit_ratio"], "ratio"),
        "lore.path_index_hit_ratio": (details["path_index_hit_ratio"],
                                      "ratio"),
        "qss.notifications": (prefix["notifications"], "count"),
        "qss.notification_rows": (prefix["notification_rows"], "count"),
    }
    metrics.update((name, (float(value), unit))
                   for name, (value, unit) in counts.items())
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def set_up(spec: Spec, seed: int, tracer: Tracer | None,
           meter: Speedometer):
    """Set the pipeline up ``spec.setups`` times, keeping the last; the
    last one is traced when there is a tracer.  Returns the pipeline and
    each set-up's seconds at the reference speed."""
    seconds: list[float] = []
    pipeline = None
    for attempt in range(spec.setups):
        if pipeline is not None:
            pipeline.server.close()
            pipeline.close()
        gc.collect()
        traced = tracer is not None and attempt == spec.setups - 1
        started = meter.begin(5)
        pipeline = Pipeline(spec, seed)
        try:
            if traced:
                tracer.install()
                with tracer.span("bench.setup", op="setup"):
                    pipeline.setup()
            else:
                pipeline.setup()
        except BaseException:
            pipeline.close()
            raise
        finally:
            if traced:
                tracer.remove()
        seconds.append(meter.end(started)[1])
    return pipeline, seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    spec = scaled(SPECS[name], quick)
    RESULTS.mkdir(exist_ok=True)
    meter = Speedometer()
    tracer = Tracer() if trace else None
    pipeline, setup_seconds = set_up(spec, seed, tracer, meter)
    run = Run(pipeline, seconds, tracer, meter)
    try:
        details = run.execute()
        if trace:
            metrics = per_layer(run, details)
            tracer.write(RESULTS / f"trace-{name}.jsonl")
        else:
            metrics = end_to_end(run, setup_seconds)
    finally:
        pipeline.close()
    samples = sorted(run.samples.items())
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "quick": quick, "trace": trace,
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures[:20],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
        "samples": {kind: len(values) for kind, values in samples},
        # Wall time as measured, before scaling to the reference speed.
        "raw_median_ms": {kind: median_ms(values)
                          for kind, values in sorted(run.raw.items())},
        "tails": {kind: detail for kind, values in samples
                  if (detail := tail(values))},
        # Exact for a seed: the counted prefix and each class's first rows.
        "counts": dict(run.prefix, rows=dict(sorted(run.first_rows.items()))),
        "machine": {
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
            "fsync_policy": FSYNC_POLICY,
            "filesystem": filesystem_type(RESULTS),
            # The canary over the first and the second half of the run.
            "calib_before_ms": meter.pulse_ms(
                slice(None, len(meter.pulses) // 2)),
            "calib_after_ms": meter.pulse_ms(
                slice(len(meter.pulses) // 2, None)),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.quick)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
