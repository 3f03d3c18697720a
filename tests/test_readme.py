from __future__ import annotations

import ast
import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import zrel
from zrel import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def usage_lines() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("zrel ")]


@pytest.mark.parametrize("line", usage_lines())
def test_readme_usage_lines_run(line):
    out = StringIO()
    with redirect_stdout(out):
        code = cli.main(shlex.split(line, comments=True)[1:])
    assert code == 0 and out.getvalue()


def test_readme_examples_run_and_import_only_exported_names():
    blocks = python_blocks()
    assert blocks, "README.md has no python examples"
    for source in blocks:
        imported = [
            alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "zrel"
            for alias in node.names
        ]
        assert imported and set(imported) <= set(zrel.__all__), imported
        with redirect_stdout(StringIO()):
            exec(compile(source, str(README), "exec"), {})


def test_public_names_are_sorted_unique_and_resolve():
    names = zrel.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(zrel, name)] == []
