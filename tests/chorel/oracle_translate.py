"""The depth-first oracle for the translating Chorel engine.

:class:`TranslatingOracle` translates exactly as
:class:`~repro.chorel.translate.TranslatingChorelEngine` does (same
encoding, same normalizer, same row post-processing), then answers the
translated Lorel with the depth-first evaluator over the encoding
instead of the planner: the differential oracle for the translated
backend.  The engine itself has no planner-off mode.
"""

from __future__ import annotations

from repro.chorel.translate import TranslatingChorelEngine


class TranslatingOracle(TranslatingChorelEngine):
    """Translate, then evaluate depth-first (no plan, no query log)."""

    def run(self, query, *, analyze: bool = False):
        if analyze:
            raise ValueError("analyze=True requires the planner "
                             "(the oracle has no plan tree)")
        translation = self.translate(query)
        raw = translation.encoding.lorel._evaluator.run(
            translation.query, self._base_env())
        return self._postprocess(raw, translation)
