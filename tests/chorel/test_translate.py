"""Tests for the Chorel -> Lorel translation backend (Section 5.2).

The backbone invariant: for every supported query, the translation-based
engine returns the same rows as the native engine.
"""

import pytest

from repro import (
    ChorelEngine,
    TranslatingChorelEngine,
    TranslationError,
    build_doem,
    random_database,
    random_history,
)
from repro.lorel.parser import parse_query


@pytest.fixture
def engines(guide_doem):
    return (ChorelEngine(guide_doem, name="guide"),
            TranslatingChorelEngine(guide_doem, name="guide"))


EQUIVALENCE_QUERIES = [
    # plain Lorel over the current snapshot
    "select guide.restaurant",
    "select N from guide.restaurant.name N",
    "select guide.restaurant where guide.restaurant.price < 20.5",
    'select guide.restaurant where guide.restaurant.price = "moderate"',
    "select P from guide.restaurant.parking P",
    'select N from guide.restaurant.name N where N like "%a%"',
    "select guide.restaurant where not guide.restaurant.price",
    "select X from guide.# X where X = 20",
    "select X from guide.restaurant.price% X",
    # annotation queries (Examples 4.2-4.5 and friends)
    "select guide.<add>restaurant",
    "select guide.<add at T>restaurant where T < 4Jan97",
    "select R, T from guide.<add at T>restaurant R",
    "select N, T, NV from guide.restaurant.price<upd at T to NV>, "
    "guide.restaurant.name N where T >= 1Jan97 and NV > 15",
    'select N from guide.restaurant R, R.name N '
    'where R.<add at T>price = "moderate" and T >= 1Jan97',
    'select N from guide.restaurant R, R.name N '
    'where R.<add at T>comment = "need info" and T >= 1Jan97',
    "select R from guide.restaurant R where R.<rem at T>parking",
    "select P, T from guide.restaurant.<rem at T>parking P",
    "select guide.restaurant.comment<cre at T>",
    "select guide.restaurant.comment<cre at T> where T > 3Jan97",
    "select OV from guide.restaurant.price<upd from OV>",
    "select guide.<add at 1Jan97>restaurant",
    "select guide.<add at 2Jan97>restaurant",
    # boolean structure around annotations
    "select R from guide.restaurant R "
    "where R.<rem at T>parking or R.price = 20",
    "select R from guide.restaurant R "
    "where not R.<rem at T>parking",
    "select R from guide.restaurant R, R.name<cre at T> N "
    "where T < 4Jan97 and N = 'Hakata'",
]


class TestBackendEquivalence:
    @pytest.mark.parametrize("query", EQUIVALENCE_QUERIES)
    def test_same_rows(self, engines, query):
        native, translating = engines
        native_rows = sorted(str(row) for row in native.run(query))
        translated_rows = sorted(str(row) for row in translating.run(query))
        assert native_rows == translated_rows, \
            translating.last_translation.text()

    def test_random_histories_equivalence(self):
        queries = [
            "select root.<add at T>item where T >= 2Jan97",
            "select root.item.name<cre at T>",
            "select X, OV, NV from root.#.price<upd at T from OV to NV> X",
            "select R from root.item R where R.<rem at T>link",
        ]
        for seed in range(4):
            db = random_database(seed=seed, nodes=20)
            history = random_history(db, seed=seed, steps=3)
            doem = build_doem(db, history)
            native = ChorelEngine(doem, name="root")
            translating = TranslatingChorelEngine(doem, name="root")
            for query in queries:
                native_rows = sorted(str(row) for row in native.run(query))
                translated_rows = sorted(str(row)
                                         for row in translating.run(query))
                assert native_rows == translated_rows, (seed, query)


class TestTranslationOutput:
    def test_example51_shape(self, engines):
        """The translated text of Example 4.5 matches Example 5.1's shape."""
        _, translating = engines
        translation = translating.translate(
            'select N from guide.restaurant R, R.name N '
            'where R.<add at T>price = "moderate" and T >= 1Jan97')
        text = translation.text()
        assert "&price-history" in text
        assert "&add" in text
        assert "&target" in text
        assert "&val" in text
        assert "exists" in text

    def test_updfun_expansion(self, engines):
        _, translating = engines
        translation = translating.translate(
            "select T, OV, NV from guide.restaurant.price"
            "<upd at T from OV to NV>")
        text = translation.text()
        for piece in ("&upd", "&time", "&ov", "&nv"):
            assert piece in text, text

    def test_crefun_expansion(self, engines):
        _, translating = engines
        translation = translating.translate(
            "select guide.restaurant.comment<cre at T>")
        assert "&cre" in translation.text()

    def test_translation_is_plain_lorel(self, engines):
        """Every translated query must parse in the Lorel-only dialect."""
        _, translating = engines
        for query in EQUIVALENCE_QUERIES:
            translation = translating.translate(query)
            reparsed = parse_query(translation.text(),
                                   allow_annotations=False)
            assert reparsed is not None

    def test_value_access_rewrite(self, engines):
        """Predicates on object variables gain .&val (complex-safe)."""
        _, translating = engines
        translation = translating.translate(
            "select R from guide.restaurant R where R.price = 20")
        assert ".&val" in translation.text()

    def test_object_select_not_rewritten(self, engines):
        """Selecting an object variable is NOT a value access (Sec. 5.2)."""
        _, translating = engines
        translation = translating.translate(
            "select R from guide.restaurant R")
        select_clause = translation.text().splitlines()[0]
        assert "&val" not in select_clause

    def test_virtual_annotations_rejected(self, engines):
        _, translating = engines
        with pytest.raises(TranslationError):
            translating.run(
                "select P from guide.restaurant.price<at 31Dec96> P")

    def test_annotations_on_patterns_rejected(self, engines):
        _, translating = engines
        with pytest.raises(TranslationError):
            translating.run("select guide.<add>restau%")


class TestTimeVariables:
    def test_polling_times_in_translated_backend(self, guide_doem):
        translating = TranslatingChorelEngine(guide_doem, name="guide")
        translating.set_polling_times({0: "5Jan97", -1: "2Jan97"})
        result = translating.run(
            "select guide.restaurant.comment<cre at T> where T > t[-1]")
        assert len(result) == 1


def test_engine_follows_a_doem_that_moved():
    """Folding a change set in after the engine was built re-encodes
    before the next query (the guide's 8Jan97 parking removal)."""
    from repro.doem.build import apply_change_set
    from tests.conftest import make_guide_db, make_guide_history
    history = make_guide_history()
    doem = build_doem(make_guide_db(), history.prefix("5Jan97"))
    translating = TranslatingChorelEngine(doem, name="guide")
    when, change_set = history.entries()[-1]
    apply_change_set(doem, when, change_set)
    query = "select R, T from guide.restaurant.<rem at T>parking R"
    expected = sorted(str(row) for row in
                      ChorelEngine(doem, name="guide").run(query))
    assert expected
    assert sorted(str(row) for row in translating.run(query)) == expected


def test_a_compiled_query_keeps_the_encoding_it_was_made_over():
    """A plan compiled before a re-encode still reads its own graph and
    time columns, never the new encoding's."""
    from repro.doem.build import apply_change_set
    from tests.conftest import make_guide_db, make_guide_history
    history = make_guide_history()
    doem = build_doem(make_guide_db(), history.prefix("5Jan97"))
    translating = TranslatingChorelEngine(doem, name="guide")
    query = "select R, T from guide.restaurant.<rem at T>parking R " \
        "where T >= 1Jan97"
    compiled = translating.compile(query)
    assert not list(translating.execute(compiled))
    when, change_set = history.entries()[-1]
    apply_change_set(doem, when, change_set)
    fresh = [str(row) for row in translating.run(query)]  # re-encodes
    assert fresh == [str(row) for row in
                     ChorelEngine(doem, name="guide").run(query)]
    assert fresh
    assert not list(translating.execute(compiled))


# The taxonomy of what the translating backend refuses; the same table,
# with each message, is in docs/query-languages.md ("Three engines").
REFUSALS = {
    "virtual-at-node": ("select X from guide.restaurant<at 3Jan97> X", None,
                        r"^virtual <at \.\.\.> annotations have no Lorel"),
    "virtual-at-arc": ("select X from guide.<at 3Jan97>restaurant X", None,
                       r"^virtual <at \.\.\.> annotations have no Lorel"),
    "changed": ("select X, T from guide.restaurant.price"
                "<changed at T in [1Jan97..5Jan97]> X", None,
                r"^<changed \.\.\.> annotations have no Lorel"),
    "last-change": ("select X, T from guide.restaurant.price"
                    "<last-change at T> X", None,
                    r"^<last-change \.\.\.> annotations have no Lorel"),
    "range-arc": ("select X, T from guide.<add at T in [1Jan97..5Jan97]>"
                  "restaurant X", None,
                  r"^time-range annotations have no Lorel"),
    "range-node": ("select X, T from guide.restaurant.price"
                   "<upd at T in [1Jan97..5Jan97]> X", None,
                   r"^time-range annotations have no Lorel"),
    "annotated-pattern": ("select X from guide.<add>% X", None,
                          r"^annotation expressions on wildcard or pattern"),
    "annotated-wildcard": ("select X from guide.#<cre> X", None,
                           r"^annotation expressions on wildcard or pattern"),
    "annotated-alternation": ("select X from guide.<add>(restaurant|cafe) X",
                              None, r"^arc annotations on label alternations"),
    "pre-bound": ("select X from guide.restaurant X", {"X": "r1"},
                  r"^pre-bound variables have no Lorel translation"),
}


@pytest.mark.parametrize("how", ["run", "compile"])
@pytest.mark.parametrize("shape", sorted(REFUSALS))
def test_refusal_taxonomy(engines, shape, how):
    native, translating = engines
    query, bindings, message = REFUSALS[shape]
    with pytest.raises(TranslationError, match=message):
        getattr(translating, how)(query, bindings)
    assert native.run(query, bindings)  # the native engine answers it
