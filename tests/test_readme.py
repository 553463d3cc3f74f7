"""README's examples run as written: every command line exits 0 and every
library value matches its comment."""

import ast
import shlex
from pathlib import Path

from supercong.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading):
    """The first fenced code block under heading, without its fences."""
    text = README.read_text(encoding="utf-8")
    fenced = text[text.index(f"\n{heading}\n"):].split("```", 2)[1]
    return fenced.split("\n", 1)[1]  # drop the fence's language tag


def test_command_line_examples_exit_0(capsys):
    lines = [shlex.split(line, comments=True) for line in _block("## Command line").splitlines()]
    assert lines and all(argv[0] == "supercong" for argv in lines)
    for argv in lines:
        assert run(argv[1:]) == 0, argv
        assert capsys.readouterr().out


def test_library_example_values_match_their_comments():
    block = _block("## Library")
    lines = block.splitlines()
    namespace, checked = {}, 0
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == lines[node.end_lineno - 1].split("#", 1)[1].strip()
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked
