"""The trigger manager: fold change sets, detect events, fire rules.

Semantics (deliberately simple and deterministic):

* changes arrive as timestamped change sets, exactly like a QSS poll or a
  direct :class:`~repro.oem.history.OEMHistory` entry;
* the whole set is folded into the DOEM database *first* (deferred,
  set-at-a-time evaluation -- conditions see the post-set state **and**
  the full history, which is what DOEM buys us over delta relations);
* then, for each operation in canonical order and each enabled rule in
  registration order, a matching event evaluates the rule's condition
  with the subject bound; non-empty results fire the action;
* actions must not mutate the database synchronously (no cascading in
  v1); they may *request* follow-up change sets, which the caller can
  fold next -- this keeps termination trivial, a deliberate restriction
  the active-database literature [WC96] would call "detached" coupling.
"""

from __future__ import annotations

from typing import Iterable

from ..chorel.engine import ChorelEngine
from ..doem.build import DOEMApplier
from ..doem.model import DOEMDatabase
from ..errors import QueryError
from ..oem.changes import AddArc, ChangeOp, CreNode, RemArc, UpdNode
from ..oem.history import ChangeSet
from ..oem.model import OEMDatabase
from ..timestamps import Timestamp, parse_timestamp
from .rules import Activation, Event, Rule

__all__ = ["TriggerManager"]


class TriggerManager:
    """Watches a DOEM database and fires ECA rules on folded changes.

    ``doem`` may be an existing DOEM database (e.g. a QSS subscription's)
    or None to start from an empty/root-only one.  ``name`` registers the
    database name conditions use for root paths.
    """

    def __init__(self, doem: DOEMDatabase | None = None,
                 name: str | None = None, root: str = "root") -> None:
        if doem is None:
            doem = DOEMDatabase(OEMDatabase(root=root))
        self.doem = doem
        self.name = name or doem.graph.root
        self._applier = DOEMApplier(doem)
        self._rules: list[Rule] = []
        self.activations: list[Activation] = []

    # ------------------------------------------------------------------
    # Rule registry
    # ------------------------------------------------------------------

    def add_rule(self, rule: Rule) -> Rule:
        """Register a rule; names must be unique."""
        if any(existing.name == rule.name for existing in self._rules):
            raise QueryError(f"duplicate rule name {rule.name!r}")
        self._rules.append(rule)
        return rule

    def on(self, name: str, event: Event, action,
           condition: str | None = None) -> Rule:
        """Shorthand: build and register a rule in one call."""
        return self.add_rule(Rule(name=name, event=event, action=action,
                                  condition=condition))

    def remove_rule(self, name: str) -> None:
        """Unregister a rule by name."""
        remaining = [rule for rule in self._rules if rule.name != name]
        if len(remaining) == len(self._rules):
            raise QueryError(f"no rule named {name!r}")
        self._rules = remaining

    def rules(self) -> list[Rule]:
        """Registered rules, in registration (firing) order."""
        return list(self._rules)

    # ------------------------------------------------------------------
    # Folding + firing
    # ------------------------------------------------------------------

    def fold(self, when: object,
             changes: ChangeSet | Iterable[ChangeOp]) -> list[Activation]:
        """Fold one timestamped change set and fire matching rules.

        Returns the activations produced by this set (also appended to
        :attr:`activations`).  The change set must be valid for the DOEM
        database's conceptual current snapshot.
        """
        timestamp = parse_timestamp(when)
        if not isinstance(changes, ChangeSet):
            changes = ChangeSet(changes)

        # Old values must be captured *before* the fold for event filters.
        old_values = {op.node: self.doem.graph.value(op.node)
                      for op in changes.filter(UpdNode)
                      if self.doem.graph.has_node(op.node)}

        self._applier.apply(timestamp, changes)

        produced: list[Activation] = []
        engine = ChorelEngine(self.doem, name=self.name)
        # Conditions may pin annotations to the triggering instant via the
        # QSS-style time variable t[0] (e.g. "<upd at T ...> ... T = t[0]").
        engine.set_polling_times({0: timestamp})
        for op in changes.canonical_order():
            for rule in self._rules:
                if not rule.enabled:
                    continue
                if not rule.event.matches(op, old_values.get(
                        getattr(op, "node", None))):
                    continue
                activation = self._evaluate(rule, op, timestamp, engine)
                if activation is not None:
                    produced.append(activation)
        self.activations.extend(produced)
        return produced

    def _evaluate(self, rule: Rule, op: ChangeOp, when: Timestamp,
                  engine: ChorelEngine) -> Activation | None:
        bindings = self._bindings_for(op)
        rows = None
        if rule.condition is not None:
            rows = engine.run(rule.condition, bindings=bindings)
            if not rows:
                return None
        activation = Activation(rule=rule, at=when, operation=op,
                                bindings=bindings, condition_rows=rows)
        rule.fired_count += 1
        rule.action(activation)
        return activation

    @staticmethod
    def _bindings_for(op: ChangeOp) -> dict:
        if isinstance(op, (CreNode, UpdNode)):
            return {"NEW": op.node}
        return {"NEW": op.target, "PARENT": op.source}

    # ------------------------------------------------------------------

    def replay_history(self, history) -> list[Activation]:
        """Fold an entire :class:`~repro.oem.history.OEMHistory`."""
        produced: list[Activation] = []
        for when, changes in history:
            produced.extend(self.fold(when, changes))
        return produced
