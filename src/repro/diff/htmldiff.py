"""htmldiff: marked-up change visualization for HTML pages (Figure 1).

The paper's htmldiff tool [CRGMW96] "takes two versions of a web page as
input, and produces as output a marked-up copy of the web page that
highlights the differences between the two versions based on their
semistructured contents".  This module reproduces the pipeline:

1. :func:`html_to_oem` parses HTML (stdlib :mod:`html.parser`) into an
   OEM tree -- elements become complex objects with their tag as the
   incoming arc label, text runs become ``text``-labeled atomic objects,
   attributes become ``@attr``-labeled atoms;
2. the two trees are matched and diffed with
   :mod:`repro.diff.oemdiff`;
3. :func:`html_diff` renders the *new* version back to HTML with change
   markers -- the insert/update/delete icons of Figure 1 become
   ``<span class="htmldiff-...">`` wrappers plus a marker glyph, and a
   summary legend is prepended.
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass, field
from html.parser import HTMLParser

from ..oem.changes import AddArc, CreNode, RemArc, UpdNode
from ..oem.history import ChangeSet
from ..oem.model import OEMDatabase
from ..oem.values import COMPLEX
from .matching import Matching, match_snapshots
from .oemdiff import DiffStats, oem_diff

__all__ = ["html_to_oem", "html_diff", "HtmlDiffResult"]

_VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})

INSERT_MARK = "[+]"
UPDATE_MARK = "[~]"
DELETE_MARK = "[-]"


class _OEMBuilder(HTMLParser):
    """Streams HTML into an OEM tree."""

    def __init__(self, db: OEMDatabase) -> None:
        super().__init__(convert_charrefs=True)
        self.db = db
        self.stack: list[str] = [db.root]

    def handle_starttag(self, tag: str, attrs) -> None:
        node = self.db.create_node(self.db.new_node_id("h"), COMPLEX)
        self.db.add_arc(self.stack[-1], tag, node)
        for name, value in attrs:
            attr_node = self.db.create_node(self.db.new_node_id("h"),
                                            value if value is not None else "")
            self.db.add_arc(node, f"@{name}", attr_node)
        if tag not in _VOID_TAGS:
            self.stack.append(node)

    def handle_endtag(self, tag: str) -> None:
        if len(self.stack) > 1:
            self.stack.pop()

    def handle_data(self, data: str) -> None:
        text = data.strip()
        if not text:
            return
        node = self.db.create_node(self.db.new_node_id("h"), text)
        self.db.add_arc(self.stack[-1], "text", node)


def html_to_oem(source: str, root: str = "page") -> OEMDatabase:
    """Parse an HTML document into a tree-shaped OEM database."""
    db = OEMDatabase(root=root)
    builder = _OEMBuilder(db)
    builder.feed(source)
    builder.close()
    return db


@dataclass
class HtmlDiffResult:
    """Output of :func:`html_diff`.

    ``markup`` is the marked-up HTML; ``stats`` counts the inferred basic
    change operations; ``change_set`` is the raw diff (in the old tree's
    identifier space) for programmatic use.
    """

    markup: str
    stats: DiffStats
    change_set: ChangeSet
    inserted_new_nodes: set[str] = field(default_factory=set)
    updated_new_nodes: set[str] = field(default_factory=set)
    deleted_fragments: list[str] = field(default_factory=list)


def html_diff(old_source: str, new_source: str) -> HtmlDiffResult:
    """Diff two HTML versions, returning marked-up HTML (Figure 1 style).

    Inserted elements/text render wrapped in
    ``<span class="htmldiff-insert">[+] ...</span>``, updated text in
    ``htmldiff-update`` (with the old text in a ``title`` attribute), and
    fragments deleted from the old version are listed at the end inside a
    ``htmldiff-deleted`` block -- the browsable equivalents of the
    paper's colored icons.
    """
    old_db = html_to_oem(old_source, root="page")
    new_db = html_to_oem(new_source, root="page")
    matching = match_snapshots(old_db, new_db)
    change_set = oem_diff(old_db, new_db, matching=matching)
    stats = DiffStats(change_set)

    inserted: set[str] = set()       # new-side nodes that are creations
    for node in new_db.nodes():
        if not matching.matched_new(node):
            inserted.add(node)
    updated: set[str] = set()        # new-side nodes whose value changed
    for old_node, new_node in matching.old_to_new.items():
        if old_db.value(old_node) != new_db.value(new_node):
            updated.add(new_node)
    old_updated = {matching.new_to_old[node]: node for node in updated}

    # Old-side fragments that disappear entirely.
    deleted_fragments: list[str] = []
    removed_arcs = {op.arc for op in change_set.filter(RemArc)}
    for arc in old_db.arcs():
        if not matching.matched_old(arc.target) and \
                matching.matched_old(arc.source):
            deleted_fragments.append(_render_plain(old_db, arc.target, arc.label))

    def atom(node: str, label: str) -> str:
        if label.startswith("@"):
            return ""  # attributes render with their element
        text = _html.escape(str(new_db.value(node)))
        if node in inserted:
            return (f'<span class="htmldiff-insert">{INSERT_MARK} '
                    f"{text}</span>")
        if node in updated:
            old_text = _html.escape(str(old_db.value(
                matching.new_to_old[node])))
            return (f'<span class="htmldiff-update" title="was: '
                    f'{old_text}">{UPDATE_MARK} {text}</span>')
        return text

    def element(node: str, label: str) -> tuple[str, str, list]:
        arcs = list(new_db.out_arcs(node))
        children = [arc for arc in arcs if not arc.label.startswith("@")]
        if label == "":
            return "", "", children
        attrs = sorted(
            f' {arc.label[1:]}='
            f'"{_html.escape(str(new_db.value(arc.target)), quote=True)}"'
            for arc in arcs if arc.label.startswith("@"))
        opening = f"<{label}{''.join(attrs)}>"
        closing = "" if label in _VOID_TAGS else f"</{label}>"
        if node in inserted:
            opening = (f'<span class="htmldiff-insert">{INSERT_MARK} '
                       f"{opening}")
            closing += "</span>"
        return opening, closing, children

    body = _render(new_db, new_db.root, "", atom, element)

    legend = (f'<div class="htmldiff-legend">htmldiff: '
              f"{stats.creates} insertion(s), {stats.updates} update(s), "
              f"{stats.removals} removal(s)</div>")
    deleted_block = ""
    if deleted_fragments:
        items = "".join(f"<li>{DELETE_MARK} {fragment}</li>"
                        for fragment in deleted_fragments)
        deleted_block = (f'<div class="htmldiff-deleted"><b>Deleted '
                         f"content:</b><ul>{items}</ul></div>")
    markup = legend + body + deleted_block
    return HtmlDiffResult(markup=markup, stats=stats, change_set=change_set,
                          inserted_new_nodes=inserted,
                          updated_new_nodes=updated,
                          deleted_fragments=deleted_fragments)


def _render(db: OEMDatabase, node: str, label: str, atom, element) -> str:
    """Render the tree below ``node`` with an explicit stack, so a page
    of any depth renders: ``atom(node, label)`` is an atom's text,
    ``element(node, label)`` an element's ``(opening, closing, child
    arcs)``, and the children render between the two."""
    parts: list[str] = []
    stack: list = [(node, label)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, label = item
        if db.value(node) is not COMPLEX:
            parts.append(atom(node, label))
            continue
        opening, closing, children = element(node, label)
        parts.append(opening)
        stack.append(closing)
        stack.extend((arc.target, arc.label) for arc in reversed(children))
    return "".join(parts)


def _render_plain(db: OEMDatabase, node: str, label: str) -> str:
    """Plain (marker-free) HTML rendering of an old-side fragment."""

    def element(node: str, label: str) -> tuple[str, str, list]:
        children = [arc for arc in db.out_arcs(node)
                    if not arc.label.startswith("@")]
        if label in ("", "text"):
            return "", "", children
        close = "" if label in _VOID_TAGS else f"</{label}>"
        return f"<{label}>", close, children

    return _render(db, node, label,
                   lambda node, _label: _html.escape(str(db.value(node))),
                   element)
