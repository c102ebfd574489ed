"""The package surface: re-exports and the README's Python API example."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import birough

REPO = Path(__file__).parent.parent


def test_every_reexport_is_in_its_submodule_all():
    tree = ast.parse(Path(birough.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    missing = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"birough.{node.module}").__all__
    ]
    assert missing == []


def test_every_submodule_all_resolves():
    # a name removed from a module but still listed breaks "import *"
    modules = [
        importlib.import_module(f"birough.{info.name}")
        for info in pkgutil.iter_modules(birough.__path__)
    ]
    listed = [module for module in modules if hasattr(module, "__all__")]
    assert len(listed) >= 5
    missing = [
        f"{module.__name__}.{name}"
        for module in listed
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_readme_python_api_example(monkeypatch):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    code, output = re.findall(r"```[a-z]*\n(.*?)```", section, re.S)[:2]
    monkeypatch.chdir(REPO)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert printed.getvalue() == output
