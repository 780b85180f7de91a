"""Seeded worlds for the pipeline benchmark.

Everything the program under test sees is generated here from one seed:
the origin database, the change stream and the evolving source that QSS
polls.  The shapes derive from ``repro.sources.generators``
(``large_database`` / ``large_history``) with two differences that make
run-to-run comparisons across seeds meaningful:

* every change set has an *exact* composition (so many price updates,
  fresh item subtrees, link additions, link removals) instead of a
  random roll per operation; item names are dealt evenly over
  :data:`NAMES` and so are each set's updates and new items -- a seed
  moves *which* objects change, never *how much* work a cycle is, not
  even for a subscription that selects one name;
* ``link`` arcs run from even-numbered items to odd-numbered ones, so
  the subobject closure of a selective polling result is one hop deep.
  Random item-to-item links percolate as they accumulate: the closure
  of 60 selected items then swings between 100 and 400 items with the
  seed, and a subscription's poll cost with it;
* link removals can be switched off, because with ``differ="ids"`` an
  object that leaves and re-enters a polling result is rejected by the
  program ("identifier already used"; see README, known limits).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.oem.changes import AddArc, ChangeOp, CreNode, RemArc, UpdNode
from repro.oem.history import ChangeSet, OEMHistory
from repro.oem.model import OEMDatabase
from repro.oem.values import COMPLEX
from repro.sources.base import scramble_ids
from repro.sources.generators import large_database
from repro.timestamps import Timestamp, parse_timestamp

__all__ = ["NAMES", "EPOCH", "Churn", "day", "make_origin", "ChangeStream",
           "HistorySource"]

# Sixteen immutable item names: the fan-out workload keys one selective
# polling query on each.
NAMES = ["n%02d" % index for index in range(16)]

EPOCH = parse_timestamp("1Jan97")


def day(index: int) -> Timestamp:
    """Simulated day ``index`` (day 0 is :data:`EPOCH`)."""
    return EPOCH.plus(days=index)


@dataclass(frozen=True)
class Churn:
    """The exact composition of one change set."""

    updates: int        # updNode on distinct existing prices
    fresh: int          # new item subtrees, 6 ops each
    links_added: int    # addArc item -link-> item
    links_removed: int  # remArc of a live link


def _number(item: str) -> int:
    return int(item[1:])


def make_origin(seed: int, items: int) -> OEMDatabase:
    """``large_database`` with names dealt evenly over :data:`NAMES` and
    ``items // 5`` even-to-odd links."""
    db = large_database(seed=seed, items=items, extra_links=0)
    rng = random.Random(seed ^ 0x5EED)
    # Dealt separately over the even and the odd items, so every name has
    # its share of link sources (even) and of link targets (odd).
    names = [""] * items
    for parity in (0, 1):
        indexes = list(range(parity, items, 2))
        rng.shuffle(indexes)
        for position, index in enumerate(indexes):
            names[index] = NAMES[position % len(NAMES)]
    for index, name in enumerate(names):
        db.update_value(f"i{index}_nm", name)
    # Link sources are dealt over the names too, like everything else a
    # one-name subscription's cost depends on.
    sources: dict[str, list[str]] = {name: [] for name in NAMES}
    for index in range(0, items, 2):
        sources[names[index]].append(f"i{index}")
    links = 0
    while links < items // 5:
        source = rng.choice(sources[NAMES[links % len(NAMES)]])
        target = f"i{2 * rng.randrange(items // 2) + 1}"
        if not db.has_arc(source, "link", target):
            db.add_arc(source, "link", target)
            links += 1
    return db


class ChangeStream:
    """An endless, valid, seeded change stream over one origin.

    Bookkeeping (live items, live links) is incremental, as in
    ``large_history``; validity holds by construction and is enforced
    again when the source applies each set to its own database.
    """

    def __init__(self, origin: OEMDatabase, seed: int, churn: Churn) -> None:
        self._rng = random.Random(seed ^ 0xC4A6E)
        self._root = origin.root
        self.churn = churn
        self._items = sorted(origin.children(origin.root, "item"))
        self._targets = [item for item in self._items if _number(item) % 2]
        self._by_name: dict[str, list[str]] = {name: [] for name in NAMES}
        self._sources: dict[str, list[str]] = {name: [] for name in NAMES}
        for item in self._items:
            name = origin.value(f"{item}_nm")
            self._by_name[name].append(item)
            if _number(item) % 2 == 0:
                self._sources[name].append(item)
        self._links = sorted(tuple(arc) for arc in origin.arcs()
                             if arc.label == "link")
        self._live_links = set(self._links)
        self._fresh = 0
        self.ops_emitted = 0

    def next(self) -> ChangeSet:
        rng, churn = self._rng, self.churn
        ops: list[ChangeOp] = []
        # The same number of updates lands on every name (a remainder
        # goes to the first names); new links below are dealt likewise.
        share, extra = divmod(churn.updates, len(NAMES))
        for index, name in enumerate(NAMES):
            for item in rng.sample(self._by_name[name],
                                   share + (index < extra)):
                ops.append(UpdNode(f"{item}_pr", rng.randrange(0, 1000)))
        removed = [self._links.pop(rng.randrange(len(self._links)))
                   for _ in range(churn.links_removed)]
        ops.extend(RemArc(*arc) for arc in removed)
        added: list[tuple[str, str, str]] = []
        while len(added) < churn.links_added:
            name = NAMES[len(added) % len(NAMES)]
            arc = (rng.choice(self._sources[name]), "link",
                   rng.choice(self._targets))
            # A link removed in this set stays off limits until the next:
            # one set never removes and re-adds the same arc.
            if arc not in self._live_links:
                self._live_links.add(arc)
                added.append(arc)
                ops.append(AddArc(*arc))
        self._live_links.difference_update(removed)
        born: list[str] = []
        for _ in range(churn.fresh):
            name = NAMES[self._fresh % len(NAMES)]
            self._fresh += 1
            item = f"x{self._fresh}"
            self._by_name[name].append(item)
            if self._fresh % 2:
                self._targets.append(item)
            else:
                self._sources[name].append(item)
            ops.append(CreNode(item, COMPLEX))
            ops.append(AddArc(self._root, "item", item))
            ops.append(CreNode(f"{item}_nm", name))
            ops.append(AddArc(item, "name", f"{item}_nm"))
            ops.append(CreNode(f"{item}_pr", rng.randrange(0, 1000)))
            ops.append(AddArc(item, "price", f"{item}_pr"))
            born.append(item)
        # This step's links and items become candidates from the next.
        self._links.extend(added)
        self._items.extend(born)
        self.ops_emitted += len(ops)
        return ChangeSet(ops)

    def history(self, steps: int) -> OEMHistory:
        """The next ``steps`` change sets, one per day from day 1."""
        history = OEMHistory()
        for index in range(steps):
            history.append(day(1 + index), self.next())
        return history


class HistorySource:
    """An autonomous source: one change set lands per simulated day.

    ``scramble=True`` renames every node on every export (no stable
    identity, the paper's deployment); ``False`` models a cooperative
    source with stable identifiers.
    """

    def __init__(self, origin: OEMDatabase, stream: ChangeStream, *,
                 scramble: bool, today: int = 0) -> None:
        self.db = origin.copy()
        self.stream = stream
        self.scramble = scramble
        self.today = today
        self.exports = 0

    def advance(self, when: object) -> None:
        target = parse_timestamp(when)
        while day(self.today + 1) <= target:
            self.today += 1
            self.stream.next().apply_to(self.db)

    def export(self) -> OEMDatabase:
        self.exports += 1
        if self.scramble:
            return scramble_ids(self.db, salt=self.exports)
        return self.db.copy()
