"""Every package module stays under the CPython parser's 8,192-token step.

A stage compiles each module it loads from source whenever no bytecode
is cached (``PYTHONDONTWRITEBYTECODE=1``, as perfbench runs the stages),
and the parser's memory steps up once a module passes 8,192 tokens: with
``hubs.py`` padded, ``compile`` traced 2.73 MB at 8,186 tokens and 3.18
MB at 8,206 (tracemalloc), and every stage's peak RSS rose by about
0.45 MB.  Tokens are counted as ``tokenize`` gives them, without COMMENT
and NL tokens.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "hubmodal").glob("*.py"))
TOKEN_STEP = 8192


def module_tokens(path: Path) -> int:
    """The tokens of ``path`` that are not a comment or a non-logical line end."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for tok in tokenize.generate_tokens(fh.readline) if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_under_the_token_step(path):
    assert module_tokens(path) < TOKEN_STEP


def test_count_skips_comments_and_blank_lines(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("# a comment\n\nx = (1,\n     2)  # another\n", encoding="utf-8")
    # x = ( 1 , 2 ) NEWLINE ENDMARKER
    assert module_tokens(module) == 9
