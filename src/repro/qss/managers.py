"""The QSS server's internal modules (Figure 7).

* :class:`SubscriptionManager` -- "handles all the information relevant
  to subscriptions": the subscription itself, its polling schedule, and
  the per-subscription bookkeeping;
* :class:`QueryManager` -- "responsible for sending polling queries to
  the Tsimmis wrapper or mediator and for collecting the resulting OEM
  results";
* :class:`DOEMManager` -- "maintains the DOEM database corresponding to
  the sequence of polling query results, using the OEMdiff module to
  compute changes between successive polling query results".  It supports
  both space/time strategies the paper discusses: recomputing the
  previous result from the DOEM database (small state) or caching it
  (faster polls).

The Chorel engine wiring (filter-query evaluation with ``t[i]``
substitution, one indexed engine per DOEM) lives in
:meth:`DOEMManager.filter_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chorel.optimize import IndexedChorelEngine
from ..diff.oemdiff import DiffStats, oem_diff
from ..doem.model import DOEMDatabase
from ..doem.snapshot import current_snapshot
from ..errors import QSSError, SubscriptionError
from ..oem.changes import CreNode
from ..oem.history import ChangeSet
from ..oem.model import OEMDatabase
from ..timestamps import Timestamp, parse_timestamp
from .subscription import Subscription, polling_time_mapping
from .wrapper import Wrapper

__all__ = ["SubscriptionManager", "QueryManager", "DOEMManager",
           "SubscriptionState"]


# What the Subscription Store keeps of a Subscription, each as text.
_DEFINITION = ("name", "frequency", "polling_query", "filter_query",
               "polling_name", "user")


@dataclass
class SubscriptionState:
    """Per-subscription runtime bookkeeping."""

    subscription: Subscription
    wrapper_name: str
    polling_times: list[Timestamp] = field(default_factory=list)
    next_poll: Timestamp | None = None
    doem_key: str = ""  # the DOEM it feeds: its own name unless shared

    @property
    def poll_count(self) -> int:
        """How many polls have completed."""
        return len(self.polling_times)

    def record(self) -> dict:
        """What the Subscription Store keeps of this subscription.

        JSON-safe: the definition as text :class:`Subscription` parses
        back, the wrapper's name, the DOEM it feeds and its polling
        times as ticks.  Wrappers and delivery callbacks are live
        objects; whoever subscribes again hands them over again.
        """
        record = {name: str(getattr(self.subscription, name))
                  for name in _DEFINITION}
        return {**record, "wrapper": self.wrapper_name,
                "doem_key": self.doem_key,
                "polling_times": [when.ticks for when in self.polling_times]}


class SubscriptionManager:
    """Registry of active subscriptions and their schedules."""

    def __init__(self) -> None:
        self._states: dict[str, SubscriptionState] = {}

    def add(self, subscription: Subscription, wrapper_name: str,
            now: object, doem_key: str | None = None,
            recorded: dict | None = None) -> SubscriptionState:
        """Register a subscription; its first poll is scheduled after ``now``.

        ``recorded`` is the Subscription Store's record of this name
        (:meth:`SubscriptionState.record`), if any.  An equal definition
        resumes it: the polling times carry on and the next poll follows
        the later of ``now`` and the last one.  An unequal one is refused.
        """
        if subscription.name in self._states:
            raise SubscriptionError(
                f"subscription {subscription.name!r} already exists")
        state = SubscriptionState(subscription=subscription,
                                  wrapper_name=wrapper_name,
                                  doem_key=doem_key or subscription.name)
        last = parse_timestamp(now)
        if recorded is not None:
            given = state.record()
            changed = [f"{key}: recorded {recorded.get(key)!r}, "
                       f"given {value!r}" for key, value in given.items()
                       if key != "polling_times"
                       and recorded.get(key) != value]
            if changed:
                raise SubscriptionError(
                    f"subscription {subscription.name!r} is recorded in "
                    f"the store with a different definition "
                    f"({'; '.join(changed)}); unsubscribe it first")
            state.polling_times = [Timestamp(ticks) for ticks
                                   in recorded.get("polling_times") or ()]
            last = max([last] + state.polling_times[-1:])
        state.next_poll = subscription.frequency.next_after(last)
        self._states[subscription.name] = state
        return state

    def remove(self, name: str) -> SubscriptionState:
        """Drop a subscription; returns its final state."""
        self.get(name)  # raises for an unknown name
        return self._states.pop(name)

    def __contains__(self, name: str) -> bool:
        return name in self._states

    def get(self, name: str) -> SubscriptionState:
        """The state of one subscription."""
        try:
            return self._states[name]
        except KeyError:
            raise SubscriptionError(f"no subscription named {name!r}") from None

    def states(self) -> list[SubscriptionState]:
        """All subscription states, name order."""
        return [self._states[name] for name in sorted(self._states)]

    def due(self, now: object) -> list[SubscriptionState]:
        """Subscriptions whose next poll is at or before ``now``."""
        cutoff = parse_timestamp(now)
        return [state for state in self.states()
                if state.next_poll is not None and state.next_poll <= cutoff]

    def record_poll(self, state: SubscriptionState, when: Timestamp) -> None:
        """Mark a completed poll and schedule the next one."""
        state.polling_times.append(when)
        state.next_poll = state.subscription.frequency.next_after(when)


class QueryManager:
    """Sends polling queries to wrappers; collects packaged OEM results."""

    def __init__(self, wrappers: dict[str, Wrapper] | None = None) -> None:
        self._wrappers: dict[str, Wrapper] = dict(wrappers or {})

    def register_wrapper(self, name: str, wrapper: Wrapper) -> None:
        """Make a wrapper available under ``name``."""
        self._wrappers[name] = wrapper

    def wrapper(self, name: str) -> Wrapper:
        """Look up a registered wrapper."""
        try:
            return self._wrappers[name]
        except KeyError:
            raise QSSError(f"no wrapper named {name!r}") from None

    def poll(self, state: SubscriptionState, when: object) -> OEMDatabase:
        """Advance the source to ``when`` and run the polling query."""
        wrapper = self.wrapper(state.wrapper_name)
        wrapper.advance(when)
        return wrapper.poll(state.subscription.polling_query)


SEPARATOR = "~"  # reserved: joins a returning source id to its count


def _returning(change_set: ChangeSet, previous: OEMDatabase,
               graph: OEMDatabase) -> dict[str, str]:
    """Objects ``change_set`` creates whose identifier ``n`` the DOEM graph
    holds: they left an earlier result and came back, so (Section 2.2) each
    gets the first of ``n~1``, ``n~2``, ... live in ``R_{i-1}`` or new to
    the graph -- the same after a restart (docs/qss.md)."""
    renames = {}
    for op in change_set.filter(CreNode):
        if SEPARATOR in op.node:
            raise QSSError(f"source identifier {op.node!r} contains "
                           f"{SEPARATOR!r}, which differ='ids' reserves")
        candidate, count = op.node, 0
        while candidate not in previous and candidate in graph:
            count += 1
            candidate = f"{op.node}{SEPARATOR}{count}"
        if count:
            renames[op.node] = candidate
    return renames


def _renamed(result: OEMDatabase, renames: dict[str, str]) -> OEMDatabase:
    """``result`` with each node of ``renames`` under its new identifier:
    the root by :meth:`~OEMDatabase.subgraph` (containers shared), any other
    in place -- ``result`` is the manager's own -- with its parents' maps."""
    if result.root in renames:
        result = result.subgraph(result.root, renames.pop(result.root))
    for old, new in renames.items():
        if new in result:
            raise QSSError(f"source identifier {new!r} clashes with the "
                           f"identifier given to returning object {old!r}")
        result.create_node(new, result.value(old))
    for old, new in renames.items():
        for _, label, target in list(result.out_arcs(old)):
            result.add_arc(new, label, renames.get(target, target))
        for source, label, _ in list(result.in_arcs(old)):
            if source not in renames:
                result.add_arc(source, label, new)
                result.remove_arc(source, label, old)
    result.collect_garbage()
    return result


class DOEMManager:
    """Maintains one DOEM database per subscription.

    ``R0`` is the empty OEM database, so the first poll's objects all
    carry ``cre`` annotations (Example 6.1's t1 behaviour).

    ``store`` makes the histories durable: each non-empty change set is
    appended to the named history in a :class:`~repro.store.ChangeLogStore`
    (keys sanitized with :func:`~repro.store.sanitize_name`: alias keys
    like ``wrapper::query`` are not path-safe), which folds it into the
    log's own DOEM once it is durable; the log's tip is ``R_{i-1}``, and a
    manager over a non-empty store takes each DOEM from the log, folded as
    the log was read -- restarting without re-polling.

    Without a store, ``cache_previous_result`` selects the footnote's
    strategy: keep the previous polling result (aligned to DOEM
    identifiers) in memory instead of re-deriving it at every poll.
    """

    def __init__(self, cache_previous_result: bool = True,
                 differ: str = "match", store=None) -> None:
        if differ not in ("match", "ids"):
            raise QSSError("differ must be 'match' (content matching, the "
                           "default) or 'ids' (trust stable identifiers)")
        self.differ = differ
        self.cache_previous_result = cache_previous_result
        self.store = store
        self._doems: dict[str, DOEMDatabase] = {}
        self._engines: dict[str, IndexedChorelEngine] = {}
        self._previous: dict[str, OEMDatabase] = {}
        # key -> node signatures of R_{i-1}, as the last OEMdiff left them.
        self._signatures: dict[str, dict[str, int]] = {}
        self._aliases: dict[str, str] = {}
        self.last_diff_stats: dict[str, DiffStats] = {}

    def set_alias(self, name: str, key: str) -> None:
        """Let subscription ``name`` share the DOEM database stored at ``key``.

        This is the paper's first space-conservation idea (Section 6.1):
        "merging the DOEM databases for subscriptions that have similar
        polling queries".  Subscriptions sharing a key poll into one
        history; a redundant poll (same data, possibly a different
        instant) infers an empty change set, which is neither stored nor
        folded.
        """
        self._aliases[name] = key

    def _key(self, name: str) -> str:
        return self._aliases.get(name, name)

    def shared_with(self, name: str) -> list[str]:
        """Other subscription names sharing ``name``'s DOEM database."""
        key = self._key(name)
        return sorted(other for other, other_key in self._aliases.items()
                      if other_key == key and other != name)

    def _store_log(self, key: str):
        """The durable log behind ``key`` (``None`` without a store)."""
        if self.store is None:
            return None
        from ..store import sanitize_name
        return self.store.log(sanitize_name(key),
                              origin=OEMDatabase(root="answer"))

    def doem(self, name: str) -> DOEMDatabase:
        """The DOEM database for subscription ``name`` (created lazily).

        The empty base database has an ``answer`` root matching the
        wrapper's packaging, so diffs align naturally.  With a store
        attached, the DOEM is its log's (:meth:`HistoryLog.get_doem`), as
        of the manager's last append or compaction: a history already on
        disk was folded as the log opened -- restarting a server recovers
        every subscription's DOEM without touching the sources, a
        compacted origin included -- and the DOEM's snapshot cache reads
        through the log's checkpoints.
        """
        key = self._key(name)
        if key not in self._doems:
            log = self._store_log(key)
            self._doems[key] = DOEMDatabase(OEMDatabase(root="answer")) \
                if log is None else log.get_doem()
        return self._doems[key]

    def previous_result(self, name: str) -> OEMDatabase:
        """``R_{i-1}`` in DOEM identifier space; read it, never write it.

        With a store, the log's tip.  Without one, cached when
        ``cache_previous_result`` is on; otherwise recomputed as the
        current snapshot of the DOEM database (the space-saving strategy).
        """
        key = self._key(name)
        log = self._store_log(key)
        if log is not None:
            return log.tip_view()
        if self.cache_previous_result and key in self._previous:
            return self._previous[key]
        return current_snapshot(self.doem(name))

    def incorporate(self, name: str, when: object,
                    result: OEMDatabase) -> ChangeSet:
        """Fold a new polling result into the subscription's DOEM database.

        Runs OEMdiff between the previous result and ``result``, folds a
        non-empty inferred change set into the DOEM with timestamp
        ``when`` (Figure 7) and returns it.  With a store the log's append
        does the fold, once the set is durable: a failed append leaves the
        DOEM as it was for the next poll.  Fresh
        identifiers avoid every node of the DOEM graph, dead ones included:
        deleted identifiers are never reused (Section 2.2) while the
        history remembers them, and a server restarted over the store
        mints what an uninterrupted one would.  With ``differ="ids"`` the
        manager takes ``result`` over and renames its root and returning
        objects (:func:`_returning`); without a store it keeps it as
        ``R_{i-1}``: ``id_diff`` makes it ``U(previous)`` exactly.
        """
        from ..doem.build import apply_change_set

        key = self._key(name)
        doem = self.doem(name)
        log = self._store_log(key)
        previous = self.previous_result(name)
        # Out of the table while the poll is in flight: a failed poll must
        # not leave signatures of a state the DOEM never reached.
        signatures = self._signatures.pop(key, {})
        if self.differ == "ids":
            # Cooperative source: identifiers are stable between polls.
            from ..diff.iddiff import id_diff
            aligned = result if result.root == previous.root \
                else _renamed(result, {result.root: previous.root})
            change_set = id_diff(previous, aligned)
            returning = _returning(change_set, previous, doem.graph)
            if returning:
                aligned = _renamed(aligned, returning)
                change_set = id_diff(previous, aligned)
        else:
            change_set = oem_diff(previous, result,
                                  reserved_ids=doem.graph.nodes(),
                                  signatures=signatures)
            aligned = previous
        timestamp = parse_timestamp(when)
        if change_set:
            if log is not None:
                log.append(timestamp, change_set)  # and folds it
                self._doems[key] = log.get_doem()  # the same, or rebuilt
            else:
                apply_change_set(doem, timestamp, change_set)
        self.last_diff_stats[name] = DiffStats(change_set)
        if log is None and self.cache_previous_result:
            if change_set and self.differ != "ids":  # id_diff's is aligned
                aligned = previous.copy()
                change_set.apply_to(aligned)
            self._previous[key] = aligned
        if signatures:
            self._signatures[key] = signatures
        return change_set

    def compact_before(self, name: str, when: object) -> None:
        """Truncate the subscription's DOEM history at ``when``.

        Section 6.1's third space idea: the state at ``when`` becomes the
        new original snapshot and older annotations are forgotten.  Filter
        queries that only look back as far as ``when`` (the usual
        ``T > t[-1]`` shape) are unaffected.  Refuses to compact a DOEM
        shared by several subscriptions -- the caller must pick a cutoff
        safe for *all* sharers and call this once.
        """
        from ..doem.compact import compact

        if self.shared_with(name):
            raise QSSError(
                f"DOEM of {name!r} is shared "
                f"(with {self.shared_with(name)}); compact it explicitly "
                f"with a cutoff valid for every sharer")
        key = self._key(name)
        log = self._store_log(key)
        if log is None:
            self._doems[key] = compact(self.doem(name), parse_timestamp(when))
        else:
            # The log first, as for a poll: the same horizon promotes the
            # state at the cutoff to the log's new origin, and the DOEM is
            # the log's again (its snapshot cache reads the checkpoints).
            log.compact(before=parse_timestamp(when))
            self._doems[key] = log.get_doem()
        self._engines.pop(key, None)  # it reads the old DOEM
        # The previous result is a plain snapshot; unaffected.
        # Identifiers of nodes dropped here may be minted again.

    def filter_engine(self, state: SubscriptionState) -> IndexedChorelEngine:
        """The Chorel engine that evaluates ``state``'s filter query.

        One :class:`~repro.chorel.optimize.IndexedChorelEngine` per DOEM
        key, kept from poll to poll: the DOEM's timestamp index follows
        it as change sets are folded in, so the usual ``T > t[-1]``
        filter reads the entries of the tick just folded, not every
        annotation of the history.  Subscriptions sharing a DOEM share
        the engine; a new DOEM (a compaction, a log rebuilding it) gets a
        new one.  The database is registered under the polling query's
        name and the ``t[i]`` variables reflect the polls completed so far.
        """
        subscription = state.subscription
        key = self._key(subscription.name)
        doem = self.doem(subscription.name)
        engine = self._engines.get(key)
        if engine is None or engine.doem is not doem:
            engine = self._engines[key] = IndexedChorelEngine(
                doem, name=subscription.polling_name)
        # Sharers of one DOEM may name it differently in their filters.
        engine.register_name(subscription.polling_name, doem.graph.root)
        engine.set_polling_times(polling_time_mapping(state.polling_times))
        return engine

    def drop(self, name: str) -> None:
        """Forget a subscription's state (shared DOEMs survive until the
        last sharer is dropped)."""
        key = self._aliases.pop(name, name)
        self.last_diff_stats.pop(name, None)
        if key in self._aliases.values():
            return  # other subscriptions still share this DOEM
        self._doems.pop(key, None)
        self._engines.pop(key, None)
        self._previous.pop(key, None)
        self._signatures.pop(key, None)

    def state_size(self, name: str) -> dict[str, int]:
        """Rough state-size accounting (``tests/paper/test_qss_space.py``).

        ``cached_*`` count ``R_{i-1}`` held in memory: the log's tip with
        a store, the cached previous result without one.
        """
        doem = self.doem(name)
        sizes = {
            "doem_nodes": len(doem.graph),
            "doem_arcs": doem.graph.arc_count(),
            "annotations": doem.annotation_count(),
            "cached_nodes": 0,
            "cached_arcs": 0,
        }
        key = self._key(name)
        log = self._store_log(key)
        cached = log.tip_view() if log is not None else \
            self._previous.get(key) if self.cache_previous_result else None
        if cached is not None:
            sizes["cached_nodes"] = len(cached)
            sizes["cached_arcs"] = cached.arc_count()
        return sizes
