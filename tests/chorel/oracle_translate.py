"""The oracles for the translating Chorel engine.

:class:`TranslatingOracle` translates exactly as
:class:`~repro.chorel.translate.TranslatingChorelEngine` does (same
view of the encoding, same normalizer, same row post-processing), then
answers the translated Lorel with the depth-first evaluator over that
view instead of the planner: the differential oracle for the translated
backend.  The engine itself has no planner-off mode.

:class:`MaterialisedTranslatingEngine` runs the same translation, plans
and post-processing over ``encode_doem(doem).oem``, the encoding built
as a second database, with the time columns built beside it: the oracle
for the :class:`~repro.doem.encoding.EncodingView`.
:class:`MaterialisedOracle` is both at once.
"""

from __future__ import annotations

from repro.chorel.translate import TranslatingChorelEngine, _Encoding
from repro.doem.encoding import encode_doem
from repro.lorel.eval import Evaluator
from repro.lorel.views import OEMView


class TranslatingOracle(TranslatingChorelEngine):
    """Translate, then evaluate depth-first (no plan, no query log)."""

    def run(self, query, *, analyze: bool = False):
        if analyze:
            raise ValueError("analyze=True requires the planner "
                             "(the oracle has no plan tree)")
        translation = self.translate(query)
        raw = translation.encoding.evaluator.run(translation.query,
                                                 self._base_env())
        return self._postprocess(raw, translation)


class MaterialisedView(OEMView):
    """An OEM view of a materialised encoding and its time columns."""

    def __init__(self, encoded, names: dict[str, str]) -> None:
        super().__init__(encoded.oem, names)
        self.time_columns = encoded.time_columns


class MaterialisedTranslatingEngine(TranslatingChorelEngine):
    """The translating engine over ``encode_doem(doem)``, re-encoded
    whenever the database has moved."""

    def _make_view(self) -> _Encoding:
        fingerprint = self.doem.fingerprint()
        view = MaterialisedView(encode_doem(self.doem),
                                {self._entry: self.doem.graph.root,
                                 **self._names})
        return _Encoding(fingerprint, view, Evaluator(view))


class MaterialisedOracle(MaterialisedTranslatingEngine, TranslatingOracle):
    """Depth-first over the materialised encoding."""
