"""Tests for htmldiff (Figure 1): HTML -> OEM -> diff -> marked-up HTML."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import COMPLEX, html_diff, html_to_oem
from repro.diff.htmldiff import DELETE_MARK, INSERT_MARK, UPDATE_MARK
from repro.sources.restaurant_guide import RestaurantGuideSource
from tests.diff import oracle_htmldiff

OLD = ("<html><body><h1>Guide</h1><ul>"
       "<li>Janta - cheap</li>"
       "<li>Bangkok - $10</li>"
       "</ul></body></html>")
NEW = ("<html><body><h1>Guide</h1><ul>"
       "<li>Janta - cheap</li>"
       "<li>Bangkok - $20</li>"
       "<li>Hakata - new!</li>"
       "</ul></body></html>")


class TestHtmlToOem:
    def test_elements_become_complex(self):
        db = html_to_oem("<html><body><p>hi</p></body></html>")
        html_node = next(iter(db.children(db.root, "html")))
        assert db.is_complex(html_node)
        db.check()

    def test_text_becomes_atomic(self):
        db = html_to_oem("<p>hello world</p>")
        p = next(iter(db.children(db.root, "p")))
        text = next(iter(db.children(p, "text")))
        assert db.value(text) == "hello world"

    def test_attributes(self):
        db = html_to_oem('<a href="http://x.org">link</a>')
        a = next(iter(db.children(db.root, "a")))
        href = next(iter(db.children(a, "@href")))
        assert db.value(href) == "http://x.org"

    def test_void_tags(self):
        db = html_to_oem("<p>one<br>two</p>")
        p = next(iter(db.children(db.root, "p")))
        texts = sorted(db.value(t) for t in db.children(p, "text"))
        assert texts == ["one", "two"]
        assert len(list(db.children(p, "br"))) == 1

    def test_whitespace_runs_dropped(self):
        db = html_to_oem("<p>  \n\t </p>")
        p = next(iter(db.children(db.root, "p")))
        assert not db.has_children(p)

    def test_entities_decoded(self):
        db = html_to_oem("<p>a &amp; b</p>")
        p = next(iter(db.children(db.root, "p")))
        text = next(iter(db.children(p, "text")))
        assert db.value(text) == "a & b"


class TestHtmlDiff:
    def test_update_marked(self):
        result = html_diff(OLD, NEW)
        assert UPDATE_MARK in result.markup
        assert 'title="was: Bangkok - $10"' in result.markup
        assert "Bangkok - $20" in result.markup

    def test_insert_marked(self):
        result = html_diff(OLD, NEW)
        assert INSERT_MARK in result.markup
        assert "Hakata - new!" in result.markup

    def test_delete_listed(self):
        result = html_diff(NEW, OLD)
        assert DELETE_MARK in result.markup
        assert "Deleted content" in result.markup
        assert "Hakata" in result.markup

    def test_legend_counts(self):
        result = html_diff(OLD, NEW)
        assert "1 update(s)" in result.markup
        stats = result.stats
        assert stats.updates == 1
        assert stats.creates == 2  # <li> element + its text node

    def test_no_change_no_markers(self):
        result = html_diff(OLD, OLD)
        assert INSERT_MARK not in result.markup
        assert UPDATE_MARK not in result.markup
        assert result.stats.total == 0

    def test_change_set_replays(self):
        from repro import apply_diff, html_to_oem
        result = html_diff(OLD, NEW)
        old_db = html_to_oem(OLD, root="page")
        new_db = html_to_oem(NEW, root="page")
        assert apply_diff(old_db, result.change_set).isomorphic_to(new_db)

    def test_attribute_change_detected(self):
        old = '<a href="http://a.org">x</a>'
        new = '<a href="http://b.org">x</a>'
        result = html_diff(old, new)
        assert result.stats.updates == 1
        assert 'href="http://b.org"' in result.markup

    def test_escaping_in_markup(self):
        result = html_diff("<p>a &lt; b</p>", "<p>a &gt; b</p>")
        assert "a &gt; b" in result.markup


class TestOnRenderedGuide:
    """The Figure 1 scenario: two versions of the rendered guide page."""

    def test_guide_evolution_diff(self):
        source = RestaurantGuideSource(seed=42, initial_restaurants=6,
                                       events_per_day=3.0)
        page_v1 = source.render_html()
        source.advance("8Dec96")
        page_v2 = source.render_html()
        assert page_v1 != page_v2  # the world moved
        result = html_diff(page_v1, page_v2)
        assert result.stats.total > 0
        assert "htmldiff-legend" in result.markup

    def test_guide_page_round_trips_through_oem(self):
        source = RestaurantGuideSource(seed=7, initial_restaurants=4)
        db = html_to_oem(source.render_html())
        db.check()
        assert any(db.value(node) == "Restaurant Guide"
                   for node in db.nodes())


# ---------------------------------------------------------------------------
# The explicit-stack renderers against the recursive ones
# ---------------------------------------------------------------------------

_TAGS = ("div", "p", "b", "br", "img", "li", "ul")
_WORDS = ("alpha", "beta", "gamma", "<&>", "delta")


def random_page(rng: random.Random, depth: int = 4) -> str:
    """A small page of nested elements, attributes, void tags and text."""
    parts = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.35:
            parts.append(rng.choice(_WORDS))
            continue
        tag = rng.choice(_TAGS)
        attrs = "".join(f' {name}="{rng.choice(_WORDS)}"'
                        for name in rng.sample(("id", "class", "src"),
                                               rng.randint(0, 2)))
        if tag in ("br", "img"):
            parts.append(f"<{tag}{attrs}>")
        else:
            inner = random_page(rng, depth - 1) if depth else ""
            parts.append(f"<{tag}{attrs}>{inner}</{tag}>")
    return "".join(parts)


def edited(rng: random.Random, page: str) -> str:
    words = page.split("alpha")
    return "".join(word + rng.choice(("alpha", "omega", "<i>new</i>alpha"))
                   for word in words[:-1]) + words[-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_markup_matches_the_recursive_renderer(seed):
    rng = random.Random(seed)
    old = random_page(rng)
    new = edited(rng, old) if rng.random() < 0.7 else random_page(rng)
    expected = oracle_htmldiff.html_diff(old, new)
    result = html_diff(old, new)
    assert result.markup == expected.markup
    assert result.deleted_fragments == expected.deleted_fragments


def test_a_page_of_any_depth():
    """20,000 nested ``<div>``s render without recursion; 2,000 used to
    overflow the renderer's stack."""
    depth = 20_000
    old = "<div>" * depth + "hello" + "</div>" * depth
    new = "<div>" * depth + "hello world<b>x</b>" + "</div>" * depth
    result = html_diff(old, new)
    assert result.markup.count("<div>") == depth
    assert f'{UPDATE_MARK} hello world' in result.markup
    assert f'{INSERT_MARK} <b>' in result.markup
    shallow = 400
    old = "<div>" * shallow + "<p>gone</p>" + "</div>" * shallow
    new = "<div>" * shallow + "</div>" * shallow
    assert html_diff(old, new).markup == \
        oracle_htmldiff.html_diff(old, new).markup
