"""The text codec against the reader and writer it replaced.

``oracle_serialize.py`` keeps the recursive writer and the quadratic
reader.  Over random databases and mutated texts the production
``dumps`` writes the same bytes and ``loads`` builds the same database,
node and arc order included, or fails at the same line and column with
the same message.  The one deliberate difference: a number literal the
token pattern accepts but Python cannot convert (``1_``) raised a bare
``ValueError`` in the oracle and is a ``SerializationError`` now.
Neither direction recurses on the depth of the data.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COMPLEX, OEMDatabase
from repro.errors import SerializationError
from repro.oem.serialize import dumps, loads
from repro.sources.generators import large_database, random_database
from tests.conftest import make_guide_db
from tests.goldens import assert_golden
from tests.oem import oracle_serialize as oracle

GOLDENS = Path(__file__).parent / "goldens"
# sha256 of dumps(large_database(seed=0, items=300)) as the recursive
# writer wrote it, at indent=2 and indent=0.
LARGE_DIGESTS = {
    2: "1999460fe3af8c5bc4f425be6d81c80b21a7873a0214c5d987eb7b8638609a99",
    0: "41369193eb7d2b984d4564a2cdb7418719dec7701cbf3e737c5673b73d2e48e5",
}

# Fragments a mutation splices in: every token class of the grammar,
# broken strings and escapes, comments, non-ASCII letters and digits.
FRAGMENTS = ["{", "}", "&", ":", ",", '"', "\\", "@", "#", "\n", " ", "\t",
             "-", "+", ".", "e", "7", "_", "true", "false", "é", "٣",
             '"\\u00e9"', '"\\q"', "@1Jan97", "@31Feb97", "&x", "&x {}",
             "# note\n", "1_", "1.5e3", "&\"q d\"", "lab:"]


def outcome(read, text: str):
    """What ``read(text)`` does, in comparable form."""
    try:
        db = read(text)
    except SerializationError as exc:
        return ("SerializationError", str(exc), exc.line, exc.column)
    except Exception as exc:  # the oracle's untyped failures
        return (type(exc).__name__, str(exc))
    return ("db", db.root,
            [(node, type(db.value(node)).__name__, db.value(node))
             for node in db.nodes()],
            list(db.arcs()))


def assert_same_reading(text: str) -> None:
    expected = outcome(oracle.loads, text)
    got = outcome(loads, text)
    if expected[0] == "ValueError":
        assert got[0] == "SerializationError", (text, got)
        assert got[1].startswith("bad number literal"), got
    else:
        assert got == expected, text


def chain(depth: int) -> OEMDatabase:
    db = OEMDatabase(root="r")
    previous = "r"
    for index in range(depth):
        node = db.create_node(f"n{index}",
                              COMPLEX if index < depth - 1 else index)
        db.add_arc(previous, "next", node)
        previous = node
    return db


class TestWriterBytes:
    def test_guide_golden(self):
        assert_golden(GOLDENS / "guide_dumps.txt", dumps(make_guide_db()))

    @pytest.mark.parametrize("indent", sorted(LARGE_DIGESTS))
    def test_large_database_digest(self, indent):
        text = dumps(large_database(seed=0, items=300), indent=indent)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            LARGE_DIGESTS[indent]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), nodes=st.integers(1, 60),
           indent=st.sampled_from([0, 1, 2, 4]))
    def test_random_databases_write_the_oracle_s_bytes(self, seed, nodes,
                                                       indent):
        db = random_database(seed=seed, nodes=nodes)
        assert dumps(db, indent=indent) == oracle.dumps(db, indent=indent)

    def test_a_chain_writes_the_oracle_s_bytes(self):
        db = chain(400)
        assert dumps(db) == oracle.dumps(db)


class TestReaderOutcomes:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), nodes=st.integers(1, 60),
           indent=st.sampled_from([0, 2]))
    def test_written_databases_read_back_the_same(self, seed, nodes,
                                                  indent):
        assert_same_reading(dumps(random_database(seed=seed, nodes=nodes),
                                  indent=indent))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10_000),
           nodes=st.integers(1, 25), indent=st.sampled_from([0, 2]))
    def test_mutated_texts_read_or_fail_the_same(self, data, seed, nodes,
                                                 indent):
        text = dumps(random_database(seed=seed, nodes=nodes), indent=indent)
        for _ in range(data.draw(st.integers(1, 3))):
            start = data.draw(st.integers(0, len(text)))
            end = data.draw(st.integers(start, min(len(text), start + 6)))
            piece = data.draw(st.sampled_from(FRAGMENTS + [""]))
            text = text[:start] + piece + text[end:]
        assert_same_reading(text)

    @pytest.mark.parametrize("text", [
        "", "   \n# only a comment\n", "root", "&", "&root", "&root\n",
        "&r {", "&r { a: }", "&r { a &x 1 }", "&r { a: &x 1 } extra",
        '&r { a: &x "open', '&r { a: &x "bad \\q escape" }',
        '&r { "quoted label": &x "v", b: &y @1Jan97 }',
        "&r { a: &x { b: &y 1 } a: &x { c: &z 2 } }",
        "&r { a: &x 1_ }", "&r { a: &x 1_.5 }", "&r { a: &x ٣ }",
        "&r { a: &x @31Feb97 }", "&r { a: &x -1.5e-3, b: &y +7 }",
        "&r { a: &x true b: &y false c: &z }",
        "&r { # comment\n a: &x 1 # another\n}\n",
        '&"odd id" { a: &"other id" 1 }',
        "&r { a: &x 1 }\r\n\t  ",
    ])
    def test_edge_cases(self, text):
        assert_same_reading(text)

    def test_an_error_late_in_a_long_text_has_its_line_and_column(self):
        text = dumps(large_database(seed=0, items=100)).replace(
            "}\n", "} ?\n", 1)
        assert_same_reading(text)
        with pytest.raises(SerializationError) as caught:
            loads(text)
        assert caught.value.line > 1


class TestNoRecursionOnDepth:
    def test_a_deep_chain_round_trips_at_the_default_limit(self, monkeypatch):
        db = chain(100_000)
        limit = sys.getrecursionlimit()

        def refuse(value):
            raise AssertionError("the codec changed the recursion limit")
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        restored = loads(dumps(db, indent=0))
        assert sys.getrecursionlimit() == limit
        assert restored.same_as(db)

    def test_no_recursion_limit_is_set_anywhere_in_the_package(self):
        package = Path(__file__).resolve().parents[2] / "src" / "repro"
        offenders = [path.name for path in package.rglob("*.py")
                     if "setrecursionlimit" in path.read_text("utf-8")]
        assert offenders == []
