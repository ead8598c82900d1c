"""Every Python file parses under the oldest grammar that pyproject.toml admits.

``requires-python`` is ">=3.10". ``ast.parse(..., feature_version=(3, 10))``
rejects 3.11-only syntax such as ``except*``, so a newer interpreter catches
it before a 3.10 install does. This checks syntax only, not library calls.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "bench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_sources_are_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "bench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_3_11_syntax_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
