"""The one golden-file check every suite that pins rendered output uses.

``assert_golden(path, text)`` compares ``text`` with the committed file
at ``path``.  A missing golden is a failure, unless ``REGEN_GOLDENS=1``
is set: then it is written from ``text`` first.  An existing golden is
never overwritten -- to update one on purpose, delete it and re-run with
``REGEN_GOLDENS=1``, and review the diff.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest


def assert_golden(path: Path, text: str) -> None:
    if not path.exists():
        if not os.environ.get("REGEN_GOLDENS"):
            pytest.fail(f"missing golden {path}; re-run with "
                        f"REGEN_GOLDENS=1 to write it")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    expected = path.read_text(encoding="utf-8")
    assert text == expected, f"drift from golden; diff against {path}"
