"""Tests for the annotation index."""

import pytest

from repro import (
    AnnotationIndex,
    NEG_INF,
    POS_INF,
    parse_timestamp,
)
from repro.oem.model import Arc


class TestAnnotationIndex:
    def test_counts(self, guide_doem):
        index = AnnotationIndex(guide_doem)
        assert index.count("cre") == 3
        assert index.count("upd") == 1
        assert index.count("add") == 3
        assert index.count("rem") == 1

    def test_between_interval(self, guide_doem):
        index = AnnotationIndex(guide_doem)
        hits = index.between("cre", parse_timestamp("2Jan97"),
                             parse_timestamp("9Jan97"))
        assert [(when, node) for when, node in hits] == \
            [(parse_timestamp("5Jan97"), "n5")]

    def test_between_default_bounds(self, guide_doem):
        index = AnnotationIndex(guide_doem)
        assert len(index.between("add")) == 3
        assert len(index.between("add", NEG_INF, POS_INF)) == 3

    def test_qss_predicate_shape(self, guide_doem):
        # T > t[-1] and T <= t[0]: the (low, high] default.
        index = AnnotationIndex(guide_doem)
        low = parse_timestamp("1Jan97")  # exclusive by default
        hits = index.between("cre", low, parse_timestamp("5Jan97"))
        assert [node for _, node in hits] == ["n5"]

    def test_arc_subjects(self, guide_doem):
        index = AnnotationIndex(guide_doem)
        rem_hits = index.between("rem")
        assert rem_hits == [(parse_timestamp("8Jan97"),
                             Arc("r2", "parking", "n7"))]

    def test_created_since(self, guide_doem):
        index = AnnotationIndex(guide_doem)
        assert index.created_since(parse_timestamp("1Jan97")) == ["n5"]
        assert sorted(index.created_since(NEG_INF)) == ["n2", "n3", "n5"]

    def test_unknown_kind(self, guide_doem):
        with pytest.raises(KeyError):
            AnnotationIndex(guide_doem).between("nope")

    def test_index_agrees_with_engine_scan(self, guide_doem):
        """The index answers the same question a Chorel scan answers."""
        from repro import ChorelEngine
        engine = ChorelEngine(guide_doem, name="guide")
        scan = engine.run("select T from guide.#.comment<cre at T>")
        index = AnnotationIndex(guide_doem)
        hits = index.between("cre", parse_timestamp("4Jan97"),
                             parse_timestamp("6Jan97"))
        assert [when for when, _ in hits] == \
            [row.scalar() for row in scan]
