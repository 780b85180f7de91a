"""The QSS server: the polling/diff/filter loop over a simulated clock.

One server process serves multiple clients (Figure 7).  The simulated
clock makes every run deterministic and fast: :meth:`QSSServer.run_until`
executes, in timestamp order, every poll that falls due across all
subscriptions, and delivers the filter-query results to the subscribing
clients.
"""

from __future__ import annotations

import threading
from concurrent.futures import wait as futures_wait
from time import perf_counter
from typing import Callable

from ..errors import QSSError
from ..obs.events import emit_event
from ..obs.metrics import registry as metrics_registry
from ..obs.querylog import query_attribution, slow_query_threshold_seconds
from ..obs.trace import span
from ..timestamps import Timestamp, parse_timestamp
from .managers import DOEMManager, QueryManager, SubscriptionManager, SubscriptionState
from .subscription import Notification, Subscription
from .wrapper import Wrapper

__all__ = ["QSSServer", "PollTimeout"]


class PollTimeout(QSSError):
    """A source poll exceeded the server's ``poll_timeout`` budget.

    Recorded in ``error_log`` (never raised through ``run_until``): a
    timeout is a deadline policy protecting the polling cycle, not a
    defect in the subscription, so the schedule advances and the other
    subscriptions in the batch are notified normally.
    """


class QSSServer:
    """The Query Subscription Service server.

    ``start`` sets the simulated clock's origin.  Wrappers are registered
    by name; clients attach via :class:`~repro.qss.client.QSC` (or any
    callable taking a :class:`~repro.qss.subscription.Notification`).

    ``deliver_empty`` controls whether polls whose filter query returns
    nothing still produce a (empty) notification -- the paper's QSS stays
    silent, the default here too; tests flip it to observe every poll.

    ``store`` (a :class:`~repro.store.ChangeLogStore` or a path) makes
    the server durable: every incorporated change set is appended to the
    store's change log (Figure 7's DOEM Store; see
    :class:`~repro.qss.managers.DOEMManager`), and the subscriptions
    that have polled are recorded in its manifest (the Subscription
    Store) before ``run_until`` / ``poll_now`` / ``on_source_signal`` /
    ``unsubscribe`` / ``close`` return.  A server restarted over the
    store resumes by subscribing again; docs/qss.md has the contract.

    Observability: every poll is wall-timed (``qss.poll_seconds``
    histogram; ``qss.polls`` / ``qss.notifications`` / ``qss.errors``
    counters in the global metrics registry) and, when tracing is
    enabled, produces a ``qss.poll`` span with per-phase children.
    ``REPRO_SLOW_QUERY_MS``, read when the server is built, flags slow
    polls: one at or above the threshold counts in ``qss.slow_polls``
    and emits a ``slow_poll`` event.  It is the same variable that drives
    the obs query log's slow-query capture; unset, nothing is flagged.
    The server keeps no per-poll list: callbacks and
    :meth:`run_until`'s return value hand each notification out.
    :meth:`metrics_text` serves the registry as a ``/metrics``-style
    text dump.

    Concurrency: with ``max_poll_workers > 1``, polls that fall due at
    the same simulated timestamp are fanned out to a bounded worker pool
    (metrics family ``qss.pool``).  Only the *source* phase (wrapper
    advance + polling query) runs on workers, serialized per wrapper by a
    lock; incorporation, filter evaluation, packaging, and notification
    delivery stay on the calling thread in ``(time, name)`` order, so
    notification order and DOEM contents are identical to the serial
    loop.  ``poll_timeout`` (seconds; ``None`` disables) bounds each
    batch's source phase: a subscription whose source poll has not
    finished by the deadline is recorded in ``error_log`` as a
    :class:`PollTimeout` (counter ``qss.timeouts``), its schedule
    advances, and the rest of the batch is notified normally -- one
    hung or crashing subscription cannot stall the cycle.  A timed-out
    poll's worker may linger until the source returns; it only touches
    the wrapper (under the wrapper lock) and its result is discarded,
    and while it lingers the subscription's subsequent polls are skipped
    (also as timeouts) rather than stacking more zombies onto the pool.
    """

    def __init__(self, start: object = "1Dec96",
                 cache_previous_result: bool = True,
                 deliver_empty: bool = False,
                 share_by_polling_query: bool = False,
                 on_error: str = "raise",
                 compact_keep_polls: int | None = None,
                 max_poll_workers: int = 1,
                 poll_timeout: float | None = None,
                 store=None) -> None:
        if on_error not in ("raise", "skip"):
            raise QSSError("on_error must be 'raise' or 'skip'")
        if compact_keep_polls is not None and compact_keep_polls < 1:
            raise QSSError("compact_keep_polls must be >= 1")
        if compact_keep_polls is not None and share_by_polling_query:
            raise QSSError("automatic compaction and DOEM sharing cannot "
                           "combine; compact shared DOEMs explicitly")
        if max_poll_workers < 1:
            raise QSSError("max_poll_workers must be >= 1")
        if poll_timeout is not None and poll_timeout <= 0:
            raise QSSError("poll_timeout must be > 0 (seconds)")
        if poll_timeout is not None and max_poll_workers == 1:
            raise QSSError("poll_timeout needs max_poll_workers > 1 "
                           "(the serial loop cannot abandon a poll)")
        self.clock: Timestamp = parse_timestamp(start)
        if store is not None and not hasattr(store, "log"):
            # A path: open (or join) the process-shared store handle.
            from ..store import open_store
            store = open_store(store, "rw")
        self.store = store
        self.subscriptions = SubscriptionManager()
        self.queries = QueryManager()
        self.doems = DOEMManager(cache_previous_result=cache_previous_result,
                                 store=store)
        self.deliver_empty = deliver_empty
        self.share_by_polling_query = share_by_polling_query
        self.on_error = on_error
        self.compact_keep_polls = compact_keep_polls
        self._slow_seconds = slow_query_threshold_seconds()
        self.max_poll_workers = max_poll_workers
        self.poll_timeout = poll_timeout
        self._subscribers: dict[str, list[Callable[[Notification], None]]] = {}
        self.error_log: list[tuple[Timestamp, str, Exception]] = []
        self._metrics = metrics_registry().group(
            "qss", ("polls", "notifications", "slow_polls", "errors",
                    "timeouts"),
            histograms=("poll_seconds",))
        self._poll_pool = None
        self._wrapper_locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        # name -> the Future of a timed-out poll that may still be running.
        self._inflight: dict[str, object] = {}
        # name -> health record (consecutive failure streaks + last
        # delivery), the state behind health() and the qss.sub.* gauges.
        self._health: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def register_wrapper(self, name: str, wrapper: Wrapper) -> None:
        """Expose a wrapper (a source) to subscriptions under ``name``."""
        self.queries.register_wrapper(name, wrapper)

    def subscribe(self, subscription: Subscription, wrapper_name: str,
                  deliver: Callable[[Notification], None] | None = None
                  ) -> SubscriptionState:
        """Create a subscription against a registered wrapper, or resume
        one the store records.

        The first poll is scheduled by the frequency specification,
        starting from the current simulated clock.  A name the store
        records with an equal definition and wrapper resumes: its polling
        times carry on (so do ``t[i]``, ``poll_index`` and the DOEM) and
        the next poll follows the later of the clock and the last one.
        An unequal one raises :class:`~repro.errors.SubscriptionError`.
        """
        self.queries.wrapper(wrapper_name)  # validate early
        key = subscription.name
        if self.share_by_polling_query:
            # Section 6.1's first space idea: subscriptions with the same
            # polling query (against the same wrapper) share one DOEM.
            key = f"{wrapper_name}::{subscription.polling_query}"
        state = self.subscriptions.add(
            subscription, wrapper_name, self.clock, doem_key=key,
            recorded=self._recorded().get(subscription.name))
        self.doems.set_alias(subscription.name, key)
        if deliver is not None:
            self._subscribers.setdefault(subscription.name, []).append(deliver)
        return state

    def unsubscribe(self, name: str) -> None:
        """Cancel a subscription and drop its state, its health record
        and ``qss.sub.<name>.*`` gauges, its record in the store and --
        unless another subscription, active or recorded, shares it -- its
        stored history.  Also cancels a subscription that only the store
        knows."""
        recorded = self._recorded()
        if name in recorded and name not in self.subscriptions:
            key = recorded[name]["doem_key"]
        else:
            key = self.subscriptions.remove(name).doem_key
            self.doems.drop(name)
            self._subscribers.pop(name, None)
        self._health.pop(name, None)
        metrics_registry().forget(f"qss.sub.{name}.")
        if self.store is None:
            return
        from ..store import sanitize_name
        in_use = {state.doem_key for state in self.subscriptions.states()} \
            | {record["doem_key"] for other, record in recorded.items()
               if other != name}
        if key not in in_use and sanitize_name(key) in self.store:
            # The history first: a crash in between leaves a record
            # without a history (resumed over an empty DOEM), never a
            # history for the next subscriber of this name to inherit.
            self.store.drop(sanitize_name(key))
        self._record_subscriptions(forget=name)

    def _recorded(self) -> dict[str, dict]:
        return {} if self.store is None else self.store.subscriptions()

    def _record_subscriptions(self, forget: str | None = None) -> None:
        """Bring the Subscription Store up to date; rewrite it if it moved.

        Once per public call, before it returns -- never per poll, and
        not when it raises (what such a call polled may be reported
        again).  Records every subscription that has polled; records of
        names this server has not subscribed again are left alone.
        """
        if self.store is None or self.store.closed:
            return
        updated = self.store.subscriptions()
        updated.pop(forget, None)
        for state in self.subscriptions.states():
            if state.polling_times:
                updated[state.subscription.name] = state.record()
        if updated != self.store.subscriptions():
            self.store.record_subscriptions(updated)

    # ------------------------------------------------------------------
    # The polling loop
    # ------------------------------------------------------------------

    def run_until(self, when: object) -> list[Notification]:
        """Advance the simulated clock, executing every due poll in order.

        Returns the notifications produced (also pushed to
        per-subscription callbacks).
        """
        deadline = parse_timestamp(when)
        if deadline < self.clock:
            raise QSSError(
                f"cannot run the clock backwards ({deadline} < {self.clock})")
        produced: list[Notification] = []

        while True:
            due = self.subscriptions.due(deadline)  # name order
            if not due:
                break
            poll_time = min(state.next_poll for state in due)
            batch = [state for state in due if state.next_poll == poll_time]
            if self.max_poll_workers > 1:
                # All polls due at the earliest timestamp form one batch.
                produced.extend(self._execute_poll_batch(batch, poll_time))
                continue
            state = batch[0]
            try:
                notification = self._execute_poll(state, poll_time)
            except Exception as error:
                self._record_poll_failure(state, poll_time, error)
                continue
            if notification is not None:
                produced.append(notification)

        self.clock = deadline
        self._record_subscriptions()
        return produced

    def _record_poll_failure(self, state: SubscriptionState,
                             poll_time: Timestamp,
                             error: Exception) -> None:
        """Count, log (or re-raise), and reschedule a failed poll.

        A failed poll must not wedge the server: log it, keep the
        schedule moving (the poll still "happened"), and leave the DOEM
        database untouched for the next attempt.  Timeouts never
        re-raise -- they are deadline policy, not subscription defects.
        """
        self._metrics["errors"].inc()
        name = state.subscription.name
        record = self._sub_health(name)
        if isinstance(error, PollTimeout):
            self._metrics["timeouts"].inc()
            record["consecutive_timeouts"] += 1
            metrics_registry().gauge(
                f"qss.sub.{name}.consecutive_timeouts").set(
                    record["consecutive_timeouts"])
            emit_event("poll_timeout", level="warning", subscription=name,
                       at=str(poll_time),
                       consecutive=record["consecutive_timeouts"],
                       detail=str(error))
        else:
            record["consecutive_errors"] += 1
            if self.on_error == "raise":
                raise error
        self.error_log.append((poll_time, name, error))
        if not state.polling_times or state.polling_times[-1] != poll_time:
            self.subscriptions.record_poll(state, poll_time)

    def _execute_poll_batch(self, batch: list[SubscriptionState],
                            poll_time: Timestamp) -> list[Notification]:
        """Poll one batch concurrently; finish serially in name order.

        Workers run only the source phase (:meth:`_poll_source`); each
        result is then incorporated/filtered/packaged on this thread in
        the batch's (name-sorted) order, so everything downstream of the
        source is byte-identical to the serial loop.
        """
        pool = self._pool()
        futures = {}
        for state in batch:
            name = state.subscription.name
            lingering = self._inflight.get(name)
            if lingering is not None:
                if not lingering.done():
                    # A previous timed-out poll is still occupying a
                    # worker; submitting another would just stack zombies
                    # until they exhaust the pool and starve healthy
                    # subscriptions.  Skip this round instead.
                    self._record_poll_failure(state, poll_time, PollTimeout(
                        f"poll of {name!r} at {poll_time} skipped: a "
                        f"previous timed-out poll is still in flight"))
                    continue
                del self._inflight[name]
            futures[name] = pool.submit(self._poll_source_timed,
                                        state, poll_time)
        done, not_done = futures_wait(list(futures.values()),
                                      timeout=self.poll_timeout) \
            if futures else (set(), set())
        produced: list[Notification] = []
        for state in batch:
            future = futures.get(state.subscription.name)
            if future is None:
                continue  # skipped above: still in flight
            if future in not_done:
                future.cancel()
                self._inflight[state.subscription.name] = future
                self._record_poll_failure(state, poll_time, PollTimeout(
                    f"poll of {state.subscription.name!r} at {poll_time} "
                    f"exceeded {self.poll_timeout:g}s"))
                continue
            try:
                result, source_seconds = future.result()
                with span("qss.poll", subscription=state.subscription.name,
                          at=str(poll_time)):
                    notification = self._finish_poll(state, poll_time,
                                                     result, source_seconds)
            except Exception as error:
                self._record_poll_failure(state, poll_time, error)
                continue
            if notification is not None:
                produced.append(notification)
        return produced

    # ------------------------------------------------------------------
    # The paper's two other snapshot modes (Section 6): explicit user
    # requests, and source-side trigger signals.
    # ------------------------------------------------------------------

    def poll_now(self, name: str) -> Notification | None:
        """Poll one subscription immediately, at the current clock.

        The paper's second mode: "snapshots are obtained following
        explicit user requests."  The on-demand poll joins the polling
        timeline (it becomes ``t[0]``; the scheduled cadence continues
        from it), so filter-query lookbacks stay consistent.  The clock
        must have advanced past the last poll.
        """
        state = self.subscriptions.get(name)
        if state.polling_times and self.clock <= state.polling_times[-1]:
            raise QSSError(
                f"cannot poll {name!r} at {self.clock}: a poll at "
                f"{state.polling_times[-1]} already happened")
        notification = self._execute_poll(state, self.clock)
        self._record_subscriptions()
        return notification

    def on_source_signal(self, wrapper_name: str) -> list[Notification]:
        """React to a source-side trigger firing (the paper's third mode).

        "Snapshots are obtained as a result of a trigger on the source
        database firing, if the source provides such a triggering
        mechanism."  Every subscription polling through ``wrapper_name``
        is refreshed immediately at the current clock; subscriptions
        whose latest poll is not in the past are skipped (they are
        already up to date).
        """
        self.queries.wrapper(wrapper_name)  # validate
        produced: list[Notification] = []
        for state in self.subscriptions.states():
            if state.wrapper_name != wrapper_name:
                continue
            if state.polling_times and self.clock <= state.polling_times[-1]:
                continue
            notification = self._execute_poll(state, self.clock)
            if notification is not None:
                produced.append(notification)
        self._record_subscriptions()
        return produced

    def _execute_poll(self, state: SubscriptionState,
                      poll_time: Timestamp) -> Notification | None:
        subscription = state.subscription
        with span("qss.poll", subscription=subscription.name,
                  at=str(poll_time)):
            started = perf_counter()
            with span("qss.poll.source"):
                result = self._poll_source(state, poll_time)
            source_seconds = perf_counter() - started
            return self._finish_poll(state, poll_time, result, source_seconds)

    def _poll_source(self, state: SubscriptionState,
                     poll_time: Timestamp) -> "OEMDatabase":
        """The source phase: advance the wrapper and run the polling query.

        Serialized per wrapper, so concurrent batch polls (and serial
        polls racing a lingering timed-out worker) never interleave on
        one source.  Polls of the same wrapper at the same simulated
        timestamp commute: the second ``advance`` to an already-reached
        time is a no-op and polling queries are read-only.
        """
        with self._wrapper_lock(state.wrapper_name):
            return self.queries.poll(state, poll_time)

    def _poll_source_timed(self, state: SubscriptionState,
                           poll_time: Timestamp):
        """Worker-side wrapper of :meth:`_poll_source` (batch path)."""
        started = perf_counter()
        with span("qss.poll.source", subscription=state.subscription.name,
                  at=str(poll_time)):
            result = self._poll_source(state, poll_time)
        return result, perf_counter() - started

    def _finish_poll(self, state: SubscriptionState, poll_time: Timestamp,
                     result: "OEMDatabase",
                     source_seconds: float) -> Notification | None:
        """Everything after the source returns: incorporate, filter,
        package, compact, account, deliver.  Always runs on the thread
        driving the polling loop, in deterministic poll order."""
        subscription = state.subscription
        started = perf_counter()
        with span("qss.poll.incorporate"):
            self.doems.incorporate(subscription.name, poll_time, result)
        self.subscriptions.record_poll(state, poll_time)

        engine = self.doems.filter_engine(state)
        # Tag the filter run so the obs query log can attribute its
        # fingerprint to this subscription (runs on the coordinator
        # thread, so the thread-local attribution holds).
        with span("qss.filter"), \
                query_attribution(subscription=subscription.name,
                                  poll_time=str(poll_time)):
            filtered = engine.run(subscription.filter_query)
        with span("qss.package"):
            answer = self._package(subscription.name, filtered)

        if self.compact_keep_polls is not None and \
                state.poll_count > self.compact_keep_polls:
            # Section 6.1 retention policy: keep the last N polling
            # intervals of history; everything older collapses into
            # the new original snapshot.  Cutoff = the (N+1)-th most
            # recent poll, so t[-N] filter lookbacks still work.
            cutoff = state.polling_times[-(self.compact_keep_polls + 1)]
            with span("qss.compact"):
                self.doems.compact_before(subscription.name, cutoff)
        elapsed = source_seconds + (perf_counter() - started)
        self._metrics["polls"].inc()
        self._metrics.histogram("poll_seconds").observe(elapsed)
        record = self._sub_health(subscription.name)
        record["consecutive_timeouts"] = 0
        record["consecutive_errors"] = 0
        metrics_registry().gauge(
            f"qss.sub.{subscription.name}.consecutive_timeouts").set(0)
        if self._slow_seconds is not None and elapsed >= self._slow_seconds:
            self._metrics["slow_polls"].inc()
            emit_event("slow_poll", level="warning",
                       subscription=subscription.name, at=str(poll_time),
                       seconds=round(elapsed, 6),
                       threshold=self._slow_seconds)
        notification = Notification(
            subscription=subscription.name,
            polling_time=poll_time,
            poll_index=state.poll_count,
            result=filtered,
            answer=answer,
            elapsed=elapsed,
        )
        if filtered or self.deliver_empty:
            self._metrics["notifications"].inc()
            record["last_notification"] = poll_time
            for deliver in self._subscribers.get(subscription.name, ()):
                deliver(notification)
            return notification
        return None

    # ------------------------------------------------------------------
    # Concurrency plumbing
    # ------------------------------------------------------------------

    def _pool(self):
        """The lazy poll pool (``qss.pool`` metrics family)."""
        if self._poll_pool is None:
            from ..parallel.pool import WorkerPool
            self._poll_pool = WorkerPool(self.max_poll_workers,
                                         metrics_prefix="qss.pool",
                                         thread_name_prefix="qss-poll")
        return self._poll_pool

    def _wrapper_lock(self, wrapper_name: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._wrapper_locks.get(wrapper_name)
            if lock is None:
                lock = self._wrapper_locks[wrapper_name] = threading.Lock()
            return lock

    @property
    def poll_pool(self):
        """The poll :class:`~repro.parallel.pool.WorkerPool`, if created."""
        return self._poll_pool

    def close(self) -> None:
        """Release the poll pool (no-op for a serial server).

        Does not wait for lingering timed-out polls -- a source that
        never returns must not be able to hang shutdown either.  An
        attached store is brought up to date and flushed but left open:
        the handle is process
        shared (``repro explain --store`` against the same path reads
        through it), so the last owner closes it via
        :func:`repro.store.close_store`.
        """
        if self._poll_pool is not None:
            self._poll_pool.shutdown(wait=False, cancel_pending=True)
            self._poll_pool = None
        self._record_subscriptions()
        if self.store is not None and not self.store.closed:
            self.store.flush()

    def __enter__(self) -> "QSSServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics_text(self, prefix: str | None = None) -> str:
        """A ``/metrics``-style text dump of the global registry.

        Includes this server's ``qss.*`` series plus every ``repro.*``
        family (index hit rates, snapshot-cache activity, diff volume).
        ``prefix`` narrows the dump (e.g. ``"qss"``).
        """
        return metrics_registry().render_text(prefix)

    def _sub_health(self, name: str) -> dict:
        record = self._health.get(name)
        if record is None:
            record = self._health[name] = {
                "consecutive_timeouts": 0,
                "consecutive_errors": 0,
                "last_notification": None,
            }
        return record

    def health(self, *, degraded_after: int = 1,
               unhealthy_after: int = 3) -> dict:
        """A structured liveness snapshot of every subscription.

        Per subscription: ``poll_lag_seconds`` (how far behind schedule
        the next poll is, in simulated seconds -- 0 when on time),
        ``notification_age_seconds`` (simulated seconds since the last
        delivered notification, ``None`` if never), and the consecutive
        timeout/error streaks.  A subscription is ``unhealthy`` once its
        timeout streak reaches ``unhealthy_after``, ``degraded`` when
        either streak reaches ``degraded_after``; the server's ``status``
        is the worst subscription's.  Refreshing the snapshot also
        refreshes the ``qss.sub.<name>.*`` gauges, so a ``/metrics``
        scrape taken after ``/health`` reflects the same picture.
        """
        reg = metrics_registry()
        order = {"healthy": 0, "degraded": 1, "unhealthy": 2}
        worst = "healthy"
        subscriptions: dict[str, dict] = {}
        for state in self.subscriptions.states():
            name = state.subscription.name
            record = self._sub_health(name)
            lag = 0.0
            if state.next_poll is not None and state.next_poll < self.clock:
                lag = self.clock - state.next_poll
            age = None
            if record["last_notification"] is not None:
                age = self.clock - record["last_notification"]
            timeouts = record["consecutive_timeouts"]
            errors = record["consecutive_errors"]
            if timeouts >= unhealthy_after:
                status = "unhealthy"
            elif timeouts >= degraded_after or errors >= degraded_after:
                status = "degraded"
            else:
                status = "healthy"
            if order[status] > order[worst]:
                worst = status
            reg.gauge(f"qss.sub.{name}.poll_lag_seconds").set(lag)
            reg.gauge(f"qss.sub.{name}.consecutive_timeouts").set(timeouts)
            if age is not None:
                reg.gauge(f"qss.sub.{name}.notification_age_seconds").set(age)
            subscriptions[name] = {
                "status": status,
                "poll_lag_seconds": lag,
                "notification_age_seconds": age,
                "consecutive_timeouts": timeouts,
                "consecutive_errors": errors,
                "last_poll": str(state.polling_times[-1])
                if state.polling_times else None,
                "next_poll": str(state.next_poll)
                if state.next_poll is not None else None,
            }
        return {
            "status": worst,
            "clock": str(self.clock),
            "subscriptions": subscriptions,
            "polls": self._metrics["polls"].value,
            "notifications": self._metrics["notifications"].value,
            "errors": self._metrics["errors"].value,
            "timeouts": self._metrics["timeouts"].value,
        }

    def _package(self, name: str, filtered) -> "OEMDatabase":
        """Package a filter result as a notification OEM database.

        Results are copied out of the subscription DOEM's *current
        snapshot* -- the polling result the DOEM manager already holds,
        read here and never changed; selected objects that are no longer
        live (e.g. targets of removed arcs) are included as value-only
        nodes, on a copy, so the notification is still self-contained.
        """
        from ..lorel.result import ObjectRef

        snapshot = self.doems.previous_result(name)
        dead = {value.node for row in filtered for _, value in row.items
                if isinstance(value, ObjectRef)
                and not snapshot.has_node(value.node)}
        if dead:
            graph = self.doems.doem(name).graph
            snapshot = snapshot.copy()
            for node in sorted(dead):
                snapshot.create_node(node, graph.value(node))
        return filtered.as_oem(snapshot, root="notification")
