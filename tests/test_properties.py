"""Property-based tests (hypothesis) on the library's core invariants.

The DESIGN.md invariants, checked over arbitrary generated inputs:

* round trip: ``O0(D(O,H)) == O``, ``H(D(O,H)) == H``, and
  ``Ot(D(O,H))`` equals the replayed prefix at every timestamp;
* encoding fidelity: ``decode(encode(D)) == D``;
* backend equivalence: native Chorel == translated Lorel over the encoding;
* serializer: ``loads(dumps(db)) == db``;
* diff contract: ``U(A)`` isomorphic to ``B`` for generated (A, B);
* coercion: comparisons are total functions (never raise) and equality
  coercion is symmetric.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import (
    COMPLEX,
    ChorelEngine,
    TranslatingChorelEngine,
    build_doem,
    current_snapshot,
    decode_doem,
    dumps,
    encode_doem,
    encoded_history,
    is_feasible,
    loads,
    oem_diff,
    original_snapshot,
    parse_timestamp,
    random_change_set,
    random_database,
    random_history,
    snapshot_at,
)
from repro.diff.oemdiff import apply_diff
from repro.oem.values import coerce_pair, compare, like
from repro.sources.base import scramble_ids

# The generators are themselves seeded and validated (tests/sources); the
# properties below quantify over their seed space plus shape parameters,
# which gives hypothesis shrinkable handles on "which world" failed.

seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=2, max_value=40)
steps = st.integers(min_value=0, max_value=6)

atomic_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31).map(
        lambda ticks: parse_timestamp(ticks)),
)

relaxed = settings(max_examples=30, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


class TestRoundTripInvariants:
    @relaxed
    @given(seed=seeds, nodes=sizes, n_steps=steps)
    def test_original_snapshot_recovers_o(self, seed, nodes, n_steps):
        db = random_database(seed=seed, nodes=nodes)
        history = random_history(db, seed=seed, steps=n_steps)
        doem = build_doem(db, history)
        assert original_snapshot(doem).same_as(db)

    @relaxed
    @given(seed=seeds, nodes=sizes, n_steps=steps)
    def test_encoded_history_recovers_h(self, seed, nodes, n_steps):
        db = random_database(seed=seed, nodes=nodes)
        history = random_history(db, seed=seed, steps=n_steps)
        doem = build_doem(db, history)
        assert encoded_history(doem) == history

    @relaxed
    @given(seed=seeds, nodes=sizes, n_steps=steps)
    def test_snapshot_at_equals_replay(self, seed, nodes, n_steps):
        db = random_database(seed=seed, nodes=nodes)
        history = random_history(db, seed=seed, steps=n_steps)
        doem = build_doem(db, history)
        snapshots = history.replay(db)
        for index, when in enumerate(history.timestamps()):
            assert snapshot_at(doem, when).same_as(snapshots[index + 1])
            assert snapshot_at(doem, when.plus(hours=-1)).same_as(
                snapshots[index])
        assert current_snapshot(doem).same_as(snapshots[-1])

    @relaxed
    @given(seed=seeds, nodes=sizes, n_steps=steps)
    def test_built_doem_is_feasible(self, seed, nodes, n_steps):
        db = random_database(seed=seed, nodes=nodes)
        history = random_history(db, seed=seed, steps=n_steps)
        assert is_feasible(build_doem(db, history))


class TestEncodingInvariants:
    @relaxed
    @given(seed=seeds, nodes=sizes, n_steps=steps)
    def test_decode_encode_identity(self, seed, nodes, n_steps):
        db = random_database(seed=seed, nodes=nodes)
        history = random_history(db, seed=seed, steps=n_steps)
        doem = build_doem(db, history)
        encoded = encode_doem(doem)
        encoded.oem.check()
        assert decode_doem(encoded).same_as(doem)


class TestSerializerInvariants:
    @relaxed
    @given(seed=seeds, nodes=sizes)
    def test_dumps_loads_identity(self, seed, nodes):
        db = random_database(seed=seed, nodes=nodes)
        assert loads(dumps(db)).same_as(db)

    @settings(max_examples=50, deadline=None)
    @given(value=atomic_values)
    def test_atomic_value_round_trip(self, value):
        from repro import OEMDatabase
        db = OEMDatabase(root="r")
        db.create_node("x", value)
        db.add_arc("r", "v", "x")
        restored = loads(dumps(db))
        assert restored.value("x") == value


class TestDiffInvariants:
    @relaxed
    @given(seed=seeds, nodes=st.integers(min_value=3, max_value=30),
           edits=st.integers(min_value=0, max_value=10))
    def test_diff_apply_isomorphism(self, seed, nodes, edits):
        old = random_database(seed=seed, nodes=nodes)
        new = old.copy()
        random_change_set(new, seed=seed + 1, size=edits).apply_to(new)
        scrambled = scramble_ids(new, salt=seed)
        change_set = oem_diff(old, scrambled)
        assert apply_diff(old, change_set).isomorphic_to(scrambled)

    @relaxed
    @given(seed=seeds, nodes=st.integers(min_value=3, max_value=30))
    def test_self_diff_is_empty(self, seed, nodes):
        db = random_database(seed=seed, nodes=nodes)
        assert len(oem_diff(db, scramble_ids(db, salt=1))) == 0

    @relaxed
    @given(seed=seeds, nodes=sizes,
           n_steps=st.integers(min_value=1, max_value=5))
    def test_inferred_change_set_advances_replay(self, seed, nodes, n_steps):
        """The OEMdiff invariant ``U(R_{i-1}) == R_i``: for every pair of
        consecutive replayed snapshots, applying the *inferred* change set
        to the old snapshot yields the new one."""
        db = random_database(seed=seed, nodes=nodes)
        history = random_history(db, seed=seed, steps=n_steps)
        snapshots = history.replay(db)
        for old, new in zip(snapshots, snapshots[1:]):
            inferred = oem_diff(old, new)
            assert apply_diff(old.copy(), inferred).isomorphic_to(new)


class TestBackendEquivalence:
    QUERIES = [
        "select root.<add at T>item",
        "select root.item.name<cre at T>",
        "select X, OV from root.#.price<upd at T from OV> X",
        "select R from root.item R where R.<rem at T>link",
        "select root.item where root.item.price < 500",
    ]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=seeds)
    def test_native_equals_translated(self, seed):
        db = random_database(seed=seed, nodes=18)
        history = random_history(db, seed=seed, steps=3)
        doem = build_doem(db, history)
        native = ChorelEngine(doem, name="root")
        translating = TranslatingChorelEngine(doem, name="root")
        for query in self.QUERIES:
            assert sorted(str(r) for r in native.run(query)) == \
                sorted(str(r) for r in translating.run(query)), query


class TestCoercionProperties:
    @settings(max_examples=200, deadline=None)
    @given(left=atomic_values, right=atomic_values,
           op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    def test_compare_is_total(self, left, right, op):
        result = compare(left, right, op)
        assert isinstance(result, bool)

    @settings(max_examples=200, deadline=None)
    @given(left=atomic_values, right=atomic_values)
    def test_equality_coercion_symmetric(self, left, right):
        assert compare(left, right, "=") == compare(right, left, "=")

    @settings(max_examples=200, deadline=None)
    @given(left=atomic_values, right=atomic_values)
    def test_trichotomy_under_coercion(self, left, right):
        # When a coercion exists, exactly one of <, =, > holds.
        if coerce_pair(left, right) is not None:
            outcomes = [compare(left, right, op) for op in ("<", "=", ">")]
            assert outcomes.count(True) == 1

    @settings(max_examples=100, deadline=None)
    @given(value=atomic_values)
    def test_like_percent_matches_everything(self, value):
        assert like(value, "%")

    @settings(max_examples=100, deadline=None)
    @given(text=st.text(max_size=30))
    def test_like_self_is_reflexive_without_wildcards(self, text):
        if "%" not in text and "_" not in text:
            assert like(text, text)


class TestCompactionInvariants:
    @relaxed
    @given(seed=seeds, nodes=sizes,
           n_steps=st.integers(min_value=2, max_value=6),
           cut_fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_compaction_preserves_recent_history(self, seed, nodes,
                                                 n_steps, cut_fraction):
        from repro import compact
        db = random_database(seed=seed, nodes=nodes)
        history = random_history(db, seed=seed, steps=n_steps)
        if not len(history):
            return
        doem = build_doem(db, history)
        times = history.timestamps()
        cutoff = times[min(len(times) - 1,
                           int(cut_fraction * len(times)))]
        cut = compact(doem, cutoff)
        assert is_feasible(cut)
        assert original_snapshot(cut).same_as(snapshot_at(doem, cutoff))
        assert current_snapshot(cut).same_as(current_snapshot(doem))
        for when in times:
            if when > cutoff:
                assert snapshot_at(cut, when).same_as(
                    snapshot_at(doem, when))
        assert cut.annotation_count() <= doem.annotation_count()


class TestIncrementalStructures:
    """The PR-1 fast paths agree with the naive definitions, universally."""

    @relaxed
    @given(seed=seeds, nodes=sizes, n_steps=steps,
           capacity=st.integers(min_value=1, max_value=6))
    def test_snapshot_cache_equals_direct(self, seed, nodes, n_steps,
                                          capacity):
        from repro import NEG_INF, POS_INF, SnapshotCache
        import random as stdlib_random
        db = random_database(seed=seed, nodes=nodes)
        history = random_history(db, seed=seed, steps=n_steps)
        doem = build_doem(db, history)
        cache = SnapshotCache(doem, capacity=capacity)
        samples = [NEG_INF, POS_INF]
        for when in history.timestamps():
            samples.extend([when, when.plus(hours=-3), when.plus(hours=5)])
        stdlib_random.Random(seed).shuffle(samples)
        for when in samples:
            assert cache.snapshot_at(when).same_as(snapshot_at(doem, when))

    @relaxed
    @given(seed=seeds, nodes=sizes,
           n_steps=st.integers(min_value=1, max_value=6))
    def test_attached_index_equals_rebuilt(self, seed, nodes, n_steps):
        """The database's own index, made before folding the history ==
        rebuilding after it."""
        from repro import AnnotationIndex, DOEMDatabase
        from repro.doem.build import DOEMApplier
        db = random_database(seed=seed, nodes=nodes)
        history = random_history(db, seed=seed, steps=n_steps)
        doem = DOEMDatabase(db.copy())
        live = doem.timestamp_index()        # made while still empty
        applier = DOEMApplier(doem)
        for when, change_set in history:
            applier.apply(when, change_set)
        rebuilt = AnnotationIndex(doem)
        for kind in ("cre", "upd", "add", "rem"):
            assert sorted(str(e) for e in live.between(kind)) == \
                sorted(str(e) for e in rebuilt.between(kind)), kind


class TestChangeSetProperties:
    @relaxed
    @given(seed=seeds, nodes=sizes, size=st.integers(min_value=0, max_value=12))
    def test_generated_sets_always_valid(self, seed, nodes, size):
        db = random_database(seed=seed, nodes=nodes)
        changes = random_change_set(db, seed=seed, size=size)
        assert changes.is_valid_for(db)

    @relaxed
    @given(seed=seeds, nodes=sizes)
    def test_apply_preserves_oem_validity(self, seed, nodes):
        db = random_database(seed=seed, nodes=nodes)
        changes = random_change_set(db, seed=seed, size=8)
        changes.apply_to(db)
        db.check()
