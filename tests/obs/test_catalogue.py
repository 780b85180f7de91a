"""The telemetry catalogue: what the program records is what the docs list.

Two checks pin ``docs/observability.md`` to the program:

* the event types passed as literals to ``emit_event(`` under
  ``src/repro`` are exactly the rows of the doc's event table, and every
  one of them is read by name in some test;
* after a fixed exercise -- QSS polls over a store (two poll workers, an
  event sink configured), one query on each engine and one through the
  parallel executor, and a cached snapshot -- every name in
  ``metrics_registry().snapshot()`` falls under a family of the doc's
  family table, and every listed family has a name.

The exercise runs in a fresh interpreter: the registry is process-global,
so names other tests register would otherwise show up in it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "observability.md"

EMIT_LITERAL = re.compile(r'emit_event\(\s*"([a-z_]+)"')

EXERCISE = """
import json, pathlib, sys
from repro import (ChorelEngine, IndexedChorelEngine, LorelEngine, QSSServer,
                   RestaurantGuideSource, Subscription,
                   TranslatingChorelEngine, Wrapper, build_doem,
                   metrics_registry)
from repro.doem.snapshot import snapshot_cache
from repro.obs.events import configure_events, disable_events
from repro.parallel.executor import ParallelExecutor
from repro.sources.generators import demo_world
from repro.store import close_store

tmp = pathlib.Path(sys.argv[1])
configure_events(tmp / "events.jsonl")
server = QSSServer(start="30Nov96", store=tmp / "store", max_poll_workers=2)
server.register_wrapper("guide", Wrapper(RestaurantGuideSource(seed=3),
                                         name="guide"))
server.subscribe(Subscription(
    name="changes", frequency="every day at 6:00am",
    polling_query="select guide.restaurant",
    filter_query="select G.restaurant<cre at T> where T > t[-1]",
    polling_name="G"), "guide")
server.run_until("6Dec96")
server.health()
db, history = demo_world(days=10)
doem = build_doem(db, history)
engines = [LorelEngine(db, name="root"), ChorelEngine(doem, name="root"),
           IndexedChorelEngine(doem, name="root"),
           TranslatingChorelEngine(doem, name="root")]
for engine in engines:
    engine.run("select root.item")
with ParallelExecutor(ChorelEngine(doem, name="root"),
                      max_workers=2) as executor:
    executor.run("select root.item")
    cache = snapshot_cache(doem)
    cache.snapshot_at(history.timestamps()[3])
    names = sorted(metrics_registry().snapshot())
server.close()
close_store(tmp / "store")
disable_events()
print(json.dumps(names))
"""


def doc_table(header: str) -> list[str]:
    """The first-column code spans of the doc table under ``header``."""
    lines = DOC.read_text(encoding="utf-8").splitlines()
    start = next(index for index, line in enumerate(lines)
                 if line.startswith(header))
    cells = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells.append(re.match(r"\| `([^`]+)`", line).group(1))
    return cells


def emitted_types() -> set[str]:
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        found.update(EMIT_LITERAL.findall(path.read_text(encoding="utf-8")))
    return found


def test_emitted_events_are_the_documented_ones():
    documented = doc_table("| event type |")
    assert len(documented) == len(set(documented))
    assert emitted_types() == set(documented)
    assert set(documented) == {
        "query_completed", "poll_timeout", "slow_poll",
        "checkpoint_written", "store_recovered", "store_compacted"}


def test_every_event_is_read_by_a_test():
    sources = [path.read_text(encoding="utf-8")
               for path in (ROOT / "tests").rglob("test_*.py")
               if path.name != Path(__file__).name]
    unread = [event for event in doc_table("| event type |")
              if not any(f'"{event}"' in text for text in sources)]
    assert unread == []


def family_pattern(family: str) -> re.Pattern:
    """``qss.sub.<name>`` -> a regex; ``<...>`` matches one name segment."""
    parts = re.split(r"<[^>]+>", family)
    return re.compile("[^.]+".join(map(re.escape, parts)) + r"\.")


def test_metric_families_are_the_documented_ones(tmp_path):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c", EXERCISE, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=300, check=True)
    names = json.loads(completed.stdout.splitlines()[-1])
    families = doc_table("| family |")
    patterns = {family: family_pattern(family) for family in families}
    owner = {}
    for name in names:
        matching = [family for family, pattern in patterns.items()
                    if pattern.match(name)]
        assert matching, f"{name} falls under no documented family"
        owner[name] = max(matching, key=len)
    assert set(owner.values()) == set(families)
