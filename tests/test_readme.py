"""The README's quick starts, run as written, and the tests it names.

A Python quick-start line that is a bare expression with a comment
states a value when the comment, up to any ';', is a Python literal,
optionally after a comparison (``# (2, 4)``, ``# < 1e-12``): the
expression must compare so with the literal.
"""
import ast
import io
import json
import operator
import re
import shlex
import tokenize
from pathlib import Path

import pytest
from click.testing import CliRunner

from orbitcheck.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
COMPARE = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
           ">": operator.gt, ">=": operator.ge}


def _blocks(title: str, lang: str) -> list[str]:
    """The fenced ``lang`` blocks of the section headed ``## title``."""
    body = README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```$", body, re.M | re.S)


CLI_LINES = [line for block in _blocks("Quick start (CLI)", "sh")
             for line in block.splitlines() if line.startswith("orbitcheck ")]


def _stated(comment: str):
    """(comparison, value) a comment states, or None."""
    match = re.fullmatch(r"(==|<=|>=|<|>)?\s*(.+)",
                         comment.lstrip("#").split(";")[0].strip())
    if match is None:
        return None
    try:
        value = ast.literal_eval(match[2])
    except (ValueError, SyntaxError):
        return None
    return COMPARE[match[1] or "=="], value


def _run_checking_stated_values(source: str, namespace: dict) -> list[str]:
    """Run ``source`` statement by statement in ``namespace``; assert
    each stated value and return the expressions that stated one."""
    comments = {tok.start[0]: tok.string for tok in tokenize.generate_tokens(
        io.StringIO(source).readline) if tok.type == tokenize.COMMENT}
    checked = []
    for stmt in ast.parse(source).body:
        stated = _stated(comments.get(stmt.end_lineno, ""))
        if not isinstance(stmt, ast.Expr) or stated is None:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
            continue
        text = ast.unparse(stmt.value)
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                   namespace)
        compare, value = stated
        assert compare(got, value), f"{text} is {got!r}, README states " \
            f"{comments[stmt.end_lineno]!r}"
        checked.append(text)
    return checked


def test_the_python_quick_start_gives_the_values_it_states():
    namespace = {}
    checked = [text for block in _blocks("Quick start (Python)", "python")
               for text in _run_checking_stated_values(block, namespace)]
    assert {"space.module_dims", "space.metric_space_dim", "verdict.status",
            "verdict.max_residual", "v.status", "v.counterexample.rank_gap",
            "report.passed"} <= set(checked)


@pytest.mark.parametrize("line", CLI_LINES)
def test_every_cli_quick_start_line_exits_0(line, tmp_path, monkeypatch):
    # the "Space targets" example is the quick start's my_space.json
    (tmp_path / "my_space.json").write_text(
        _blocks("Space targets", "json")[0])
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, shlex.split(line)[1:])
    assert result.exit_code == 0, result.output
    if "--json" in line:
        json.loads(result.output)


def test_the_cli_quick_start_is_read():
    assert len(CLI_LINES) >= 10


def test_every_test_the_readme_names_exists():
    named = set(re.findall(r"`(test_\w+)`", README))
    defined = {name for path in (ROOT / "tests").glob("test_*.py")
               for name in re.findall(r"^def (test_\w+)", path.read_text(),
                                      re.M)}
    assert named and not named - defined, sorted(named - defined)
