"""The Python 3.10 syntax floor that `requires-python = ">=3.10"` declares.

Every `.py` file under `src/`, `tests/`, `tools/` and `perfbench/` is read
and parsed with the 3.10 grammar, so syntax a 3.10 interpreter cannot
parse (an `except*` block, say) fails here on a newer interpreter too.
This checks syntax only: a call to a library function that 3.10 lacks is
not caught.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for top in ("src", "tests", "tools", "perfbench")
    for path in (ROOT / top).rglob("*.py")
)


def test_the_floor_covers_every_tree():
    assert {name.split("/")[0] for name in SOURCES} == {"src", "tests", "tools", "perfbench"}


@pytest.mark.parametrize("name", SOURCES)
def test_source_parses_with_the_python_3_10_grammar(name):
    source = (ROOT / name).read_text(encoding="utf-8")
    ast.parse(source, filename=name, feature_version=(3, 10))


def test_the_3_10_grammar_refuses_an_exception_group_handler():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
