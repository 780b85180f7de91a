"""The reference ``html_diff``: ``repro.diff.htmldiff.html_diff`` as it
stood before its explicit-stack rewrite, kept as the oracle of
``test_htmldiff.py``.

Its renderers recurse once per level of the page, so a deep enough page
raises ``RecursionError``; within the recursion limit they define the
markup the production walk must return.  Do not optimise this file.
"""

from __future__ import annotations

import html as _html

from repro.diff.htmldiff import (
    DELETE_MARK,
    INSERT_MARK,
    UPDATE_MARK,
    _VOID_TAGS,
    HtmlDiffResult,
    html_to_oem,
)
from repro.diff.matching import match_snapshots
from repro.diff.oemdiff import DiffStats, oem_diff
from repro.oem.changes import RemArc
from repro.oem.model import OEMDatabase
from repro.oem.values import COMPLEX

__all__ = ["html_diff"]


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

    def render(node: str, label: str) -> str:
        value = new_db.value(node)
        freshly_inserted = node in inserted
        if value is not COMPLEX:
            text = _html.escape(str(value))
            if label.startswith("@"):
                return ""  # attributes render with their element
            if freshly_inserted:
                return (f'<span class="htmldiff-insert">{INSERT_MARK} '
                        f"{text}</span>")
            if node in updated:
                old_node = matching.new_to_old[node]
                old_text = _html.escape(str(old_db.value(old_node)))
                return (f'<span class="htmldiff-update" title="was: '
                        f'{old_text}">{UPDATE_MARK} {text}</span>')
            return text
        attrs = []
        body_parts = []
        for arc in new_db.out_arcs(node):
            if arc.label.startswith("@"):
                attr_value = _html.escape(str(new_db.value(arc.target)), quote=True)
                attrs.append(f' {arc.label[1:]}="{attr_value}"')
            elif arc.label == "text":
                body_parts.append(render(arc.target, "text"))
            else:
                body_parts.append(render(arc.target, arc.label))
        body = "".join(body_parts)
        if label == "":
            return body
        open_tag = f"<{label}{''.join(sorted(attrs))}>"
        close_tag = "" if label in _VOID_TAGS else f"</{label}>"
        rendered = f"{open_tag}{body}{close_tag}"
        if freshly_inserted:
            return (f'<span class="htmldiff-insert">{INSERT_MARK} '
                    f"{rendered}</span>")
        return rendered

    body = "".join(render(arc.target, arc.label)
                   for arc in new_db.out_arcs(new_db.root))

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


def _render_plain(db: OEMDatabase, node: str, label: str) -> str:
    """Plain (marker-free) HTML rendering of an old-side fragment."""
    value = db.value(node)
    if value is not COMPLEX:
        return _html.escape(str(value))
    body = "".join(_render_plain(db, arc.target, arc.label)
                   for arc in db.out_arcs(node)
                   if not arc.label.startswith("@"))
    if label in ("", "text"):
        return body
    close = "" if label in _VOID_TAGS else f"</{label}>"
    return f"<{label}>{body}{close}"
