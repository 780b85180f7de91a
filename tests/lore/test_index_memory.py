"""What an annotation and a timestamp-index entry cost to hold.

The budgets are allocated bytes (``tracemalloc``), so they do not move
with the machine.  Before the index was stored by column and the
annotation records got slots, an index entry held 146 bytes on this
world, a ``cre``/``add``/``rem`` record 80 and an ``upd`` record 88.
Each budget is half of that, but for ``upd``'s second slot.  The OEM
encoding's time columns (one entry per annotation) keep to the index
entry's budget.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro import Add, Cre, Rem, TimestampIndex, Upd, large_world, parse_timestamp
from repro.doem.encoding import encode_doem

INDEX_ENTRY_BUDGET = 72
ANNOTATION_BUDGETS = {Cre: 40, Add: 40, Rem: 40, Upd: 48}


def allocated(build):
    """``(result, bytes still allocated once build() returns)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_index_entry_budget():
    _, _, doem = large_world(seed=0, items=1000, steps=12, churn=200)
    entries = doem.annotation_count()
    index, used = allocated(lambda: TimestampIndex(doem))
    assert sum(index.count(kind) for kind in ("cre", "upd", "add", "rem")) \
        == entries
    assert used / entries <= INDEX_ENTRY_BUDGET


def test_time_column_entry_budget():
    """A tick in an ``array('q')`` beside references to the atom's own
    timestamp and identifier, which the encoding already holds."""
    _, _, doem = large_world(seed=0, items=1000, steps=12, churn=200)
    encoded = encode_doem(doem)
    columns = list(encoded.time_columns.values())
    entries = sum(map(len, columns))
    assert entries == doem.annotation_count()
    held = sum(sys.getsizeof(part) for column in columns
               for part in (column.ticks, column.whens, column.subjects))
    assert held / entries <= INDEX_ENTRY_BUDGET
    for column in columns:
        assert all(encoded.oem.value(atom) is when
                   for when, atom in zip(column.whens, column.subjects))


@pytest.mark.parametrize("kind", list(ANNOTATION_BUDGETS),
                         ids=lambda kind: kind.__name__)
def test_annotation_budget(kind):
    when = parse_timestamp("1Jan97")
    # Old values are small ints: cached objects, so only the record counts.
    make = (lambda: [kind(when, 7) for _ in range(10_000)]) if kind is Upd \
        else (lambda: [kind(when) for _ in range(10_000)])
    records, used = allocated(make)
    per_record = (used - sys.getsizeof(records)) / len(records)
    # Half a byte a record of slack: whatever else the interpreter
    # allocates meanwhile (a few hundred bytes) is traced too.
    assert per_record <= ANNOTATION_BUDGETS[kind] + 0.5
    assert not hasattr(records[0], "__dict__")
