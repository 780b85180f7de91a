"""Random OEM graphs and random valid change streams.

The property tests and the scaling benchmarks need arbitrary-but-valid
inputs: graphs with sharing and cycles like Figure 2, and histories whose
every change set is valid for the evolving database.  Everything here is
seeded and deterministic.
"""

from __future__ import annotations

import random
from typing import Iterable

from ..oem.changes import AddArc, ChangeOp, CreNode, RemArc, UpdNode
from ..oem.history import ChangeSet, OEMHistory
from ..oem.model import OEMDatabase
from ..oem.values import COMPLEX
from ..timestamps import Timestamp, parse_timestamp

__all__ = ["random_database", "random_change_set", "random_history",
           "large_database", "large_history", "large_world", "demo_world",
           "LABELS"]

LABELS = ["a", "b", "c", "item", "name", "price", "link", "ref"]
_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
          "theta", "moderate", "cheap"]


def _random_value(rng: random.Random) -> object:
    roll = rng.random()
    if roll < 0.4:
        return rng.randrange(0, 1000)
    if roll < 0.6:
        return round(rng.uniform(0, 100), 2)
    if roll < 0.95:
        return rng.choice(_WORDS)
    return rng.random() < 0.5


def random_database(seed: int = 0, nodes: int = 30,
                    extra_arc_ratio: float = 0.3,
                    root: str = "root") -> OEMDatabase:
    """A random rooted OEM database with ``nodes`` total nodes.

    Roughly 60% of nodes are complex.  Every node is attached under some
    already-created complex node (guaranteeing reachability), after which
    ``extra_arc_ratio * nodes`` additional arcs are sprinkled between
    random complex sources and random targets -- these create sharing and
    cycles, like Figure 2's parking/nearby-eats arcs.
    """
    rng = random.Random(seed)
    db = OEMDatabase(root=root)
    complexes = [root]
    for index in range(nodes - 1):
        node = f"n{index + 1}"
        if rng.random() < 0.6:
            db.create_node(node, COMPLEX)
        else:
            db.create_node(node, _random_value(rng))
        parent = rng.choice(complexes)
        db.add_arc(parent, rng.choice(LABELS), node)
        if db.is_complex(node):
            complexes.append(node)
    all_nodes = list(db.nodes())
    for _ in range(int(extra_arc_ratio * nodes)):
        source = rng.choice(complexes)
        target = rng.choice(all_nodes)
        label = rng.choice(LABELS)
        if not db.has_arc(source, label, target):
            db.add_arc(source, label, target)
    db.check()
    return db


def random_change_set(db: OEMDatabase, seed: int = 0, size: int = 6,
                      id_prefix: str = "g",
                      reserved_ids: Iterable[str] = ()) -> ChangeSet:
    """A random change set that is valid for ``db``.

    The set is built by *simulating* its application on a copy, so each
    candidate operation is checked against the conceptual state the
    canonical order (cre -> rem -> upd -> add) will see.  Node identifiers
    for creations avoid ``db``'s ids and ``reserved_ids`` (QSS-style "ids
    are never reused").
    """
    rng = random.Random(seed)
    reserved = set(reserved_ids)
    ops: list[ChangeOp] = []

    # The simulation applies candidates in canonical-phase order, so we
    # accumulate per-phase and validate against a staged copy.
    work = db.copy()
    created: list[str] = []
    updated: set[str] = set()
    counter = 0

    def fresh_id() -> str:
        nonlocal counter
        while True:
            counter += 1
            candidate = f"{id_prefix}{counter}"
            if candidate not in reserved and not work.has_node(candidate):
                return candidate

    attempts = 0
    while len(ops) < size and attempts < size * 30:
        attempts += 1
        roll = rng.random()
        nodes = list(work.nodes())
        complexes = [node for node in nodes if work.is_complex(node)]
        if roll < 0.3:
            # creNode + addArc linking it in (kept paired so the new node
            # survives the post-set garbage collection).
            if len(ops) + 2 > size + 1:
                continue
            parent = rng.choice(complexes)
            node = fresh_id()
            value = COMPLEX if rng.random() < 0.4 else _random_value(rng)
            label = rng.choice(LABELS)
            ops.append(CreNode(node, value))
            ops.append(AddArc(parent, label, node))
            work.create_node(node, value)
            work.add_arc(parent, label, node)
            created.append(node)
        elif roll < 0.55:
            # updNode on an atomic node not yet updated in this set.
            atoms = [node for node in nodes
                     if not work.is_complex(node) and node not in updated
                     and node not in created]
            if not atoms:
                continue
            node = rng.choice(atoms)
            value = _random_value(rng)
            ops.append(UpdNode(node, value))
            work.update_value(node, value)
            updated.add(node)
        elif roll < 0.8:
            # addArc between existing nodes.
            source = rng.choice(complexes)
            target = rng.choice(nodes)
            label = rng.choice(LABELS)
            if work.has_arc(source, label, target):
                continue
            if any(isinstance(op, RemArc) and op.arc == (source, label, target)
                   for op in ops):
                continue
            ops.append(AddArc(source, label, target))
            work.add_arc(source, label, target)
        else:
            # remArc -- but keep the graph connected enough to stay
            # interesting: avoid removing a node's last incoming arc with
            # probability 1/2.
            arcs = [arc for arc in work.arcs()]
            if not arcs:
                continue
            arc = rng.choice(arcs)
            if any(isinstance(op, AddArc) and op.arc == tuple(arc)
                   for op in ops):
                continue
            in_degree = sum(1 for _ in work.in_arcs(arc.target))
            if in_degree <= 1 and rng.random() < 0.5:
                continue
            ops.append(RemArc(*arc))
            work.remove_arc(*arc)
    return ChangeSet(ops)


def random_history(db: OEMDatabase, seed: int = 0, steps: int = 5,
                   set_size: int = 6,
                   start: object = "1Jan97") -> OEMHistory:
    """A random valid history for ``db``: ``steps`` change sets, one day apart.

    The database itself is not modified; the history is validated by
    construction (each set is generated against the replayed state).
    """
    rng = random.Random(seed)
    history = OEMHistory()
    current = db.copy()
    when = parse_timestamp(start)
    reserved: set[str] = set(db.nodes())
    for step in range(steps):
        change_set = random_change_set(
            current, seed=rng.randrange(1 << 30), size=set_size,
            id_prefix=f"g{step}_", reserved_ids=reserved)
        if change_set:
            history.append(when, change_set)
            change_set.apply_to(current)
            reserved.update(change_set.created_nodes())
        when = when.plus(days=1)
    return history


# ---------------------------------------------------------------------------
# Benchmark-scale worlds
# ---------------------------------------------------------------------------
#
# random_change_set validates every candidate op by simulating it on a
# database copy -- O(nodes) of list materialization per op, fine for
# property-test worlds but quadratic pain at benchmark scale.  The large
# generators instead build a *regular* shape whose validity is known by
# construction, with incremental bookkeeping (live-arc set, price list)
# so generation stays O(total ops).  The shape is chosen for sharding:
# the root fans out into many ``item`` subtrees, so a query's first
# from-item binds thousands of environments cheaply and the per-shard
# stages (inner expansions, predicates, annotation walks) carry the real
# work.

def large_database(seed: int = 0, items: int = 1000, extra_links: int = 200,
                   root: str = "root") -> OEMDatabase:
    """A benchmark-scale OEM database: ``root`` fanning into ``items``
    item subtrees.

    Each item carries a ``name`` atom, a ``price`` atom, and a nested
    ``info`` complex with an ``a`` atom (two levels of depth for
    wildcard and multi-step paths); ``extra_links`` additional ``link``
    arcs between random items add the sharing the wildcard closure has
    to deduplicate.  Deterministic in ``seed``.
    """
    rng = random.Random(seed)
    db = OEMDatabase(root=root)
    item_ids: list[str] = []
    for index in range(items):
        item = f"i{index}"
        db.create_node(item, COMPLEX)
        db.add_arc(root, "item", item)
        item_ids.append(item)
        db.create_node(f"{item}_nm", rng.choice(_WORDS))
        db.add_arc(item, "name", f"{item}_nm")
        db.create_node(f"{item}_pr", rng.randrange(0, 1000))
        db.add_arc(item, "price", f"{item}_pr")
        db.create_node(f"{item}_in", COMPLEX)
        db.add_arc(item, "info", f"{item}_in")
        db.create_node(f"{item}_ia", rng.randrange(0, 100))
        db.add_arc(f"{item}_in", "a", f"{item}_ia")
    for _ in range(extra_links):
        source, target = rng.choice(item_ids), rng.choice(item_ids)
        if not db.has_arc(source, "link", target):
            db.add_arc(source, "link", target)
    db.check()
    return db


def large_history(db: OEMDatabase, seed: int = 0, steps: int = 6,
                  churn: int = 200,
                  start: object = "1Jan97") -> OEMHistory:
    """A benchmark-scale valid history: ``steps`` change sets of about
    ``churn`` operations each, one day apart.

    Each set mixes price updates (``upd``), fresh item subtrees (``cre``
    + ``add``), new ``link`` arcs between items (``add``), and removals
    of previously-added links (``rem``) -- all four annotation kinds land
    in the DOEM build.  Ops are validated by construction against
    incrementally-maintained bookkeeping, then replayed onto a working
    copy as a cross-check; ``db`` itself is untouched.  Deterministic in
    ``seed``.
    """
    rng = random.Random(seed)
    history = OEMHistory()
    current = db.copy()
    when = parse_timestamp(start)
    items = list(db.children(db.root, "item"))
    prices = {item: f"{item}_pr" for item in items
              if db.has_node(f"{item}_pr")}
    spare_links: list[tuple[str, str, str]] = []
    fresh = 0
    for _ in range(steps):
        ops: list[ChangeOp] = []
        updated: set[str] = set()
        born: list[str] = []
        added_links: list[tuple[str, str, str]] = []
        while len(ops) < churn:
            roll = rng.random()
            if roll < 0.5 and prices:
                item = rng.choice(items)
                price = prices.get(item)
                if price is None or price in updated:
                    continue
                ops.append(UpdNode(price, rng.randrange(0, 1000)))
                updated.add(price)
            elif roll < 0.7:
                fresh += 1
                item, price = f"x{fresh}", f"x{fresh}_pr"
                ops.append(CreNode(item, COMPLEX))
                ops.append(AddArc(db.root, "item", item))
                ops.append(CreNode(price, rng.randrange(0, 1000)))
                ops.append(AddArc(item, "price", price))
                born.append(item)
            elif roll < 0.85:
                source, target = rng.choice(items), rng.choice(items)
                arc = (source, "link", target)
                if current.has_arc(*arc) or arc in added_links:
                    continue
                ops.append(AddArc(*arc))
                added_links.append(arc)
            elif spare_links:
                ops.append(RemArc(*spare_links.pop()))
        history.append(when, ChangeSet(ops))
        ChangeSet(ops).apply_to(current)
        for item in born:
            items.append(item)
            prices[item] = f"{item}_pr"
        # Links added this step become removal candidates next step.
        spare_links.extend(added_links)
        when = when.plus(days=1)
    return history


def large_world(seed: int = 0, items: int = 1000, extra_links: int = 200,
                steps: int = 6, churn: int = 200):
    """``(db, history, doem)`` at benchmark scale, all from one seed."""
    from ..doem.build import build_doem
    db = large_database(seed=seed, items=items, extra_links=extra_links)
    history = large_history(db, seed=seed, steps=steps, churn=churn)
    return db, history, build_doem(db, history)


def demo_world(days: int = 30) -> tuple[OEMDatabase, OEMHistory]:
    """``(origin, history)``: the CLI's built-in demo workload.

    An append-only feed plus price churn: one ``item`` arc added under
    the root per day starting 1Jan97, with every third item's value
    later updated -- the workload the annotation indexes and snapshot
    cache are built for.  ``repro explain`` plans over it out of the box,
    ``repro store demo`` persists it, and the crash-recovery round-trip
    script replays it through a kill.
    """
    db = OEMDatabase(root="root")
    history = OEMHistory()
    when = parse_timestamp("1Jan97")
    for index in range(days):
        ops: list[ChangeOp] = [CreNode(f"i{index}", index),
                               AddArc("root", "item", f"i{index}")]
        if index >= 3 and index % 3 == 0:
            ops.append(UpdNode(f"i{index - 3}", 1000 + index))
        history.append(when, ChangeSet(ops))
        when = when.plus(days=1)
    return db, history
