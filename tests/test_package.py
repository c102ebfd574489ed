"""The package surface: re-exports, the modules each command loads, and the README example."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import birough
from test_cli import GOLDEN, GOLDEN_CASES

REPO = Path(__file__).parent.parent
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(birough.__path__))


def test_every_reexport_is_in_its_submodule_all():
    exports = birough._EXPORTS
    assert sorted(exports) == [module for module in SUBMODULES if module != "cli"]
    missing = [
        f"{module}.{name}"
        for module, names in exports.items()
        for name in names
        if name not in importlib.import_module(f"birough.{module}").__all__
    ]
    assert missing == []
    table = [name for names in exports.values() for name in names]
    assert birough.__all__ == table
    star: dict = {}
    exec("from birough import *", star)
    assert [name for name in table if name not in star] == []
    assert [name for name in table if name not in dir(birough)] == []
    for module, names in exports.items():
        submodule = importlib.import_module(f"birough.{module}")
        assert all(getattr(birough, name) is getattr(submodule, name) for name in names)


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


def test_every_imported_name_is_used():
    # Every name a module imports is read in it, or listed in its __all__.
    unused = []
    for path in sorted((REPO / "src" / "birough").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = "birough" if path.stem == "__init__" else f"birough.{path.stem}"
        used.update(getattr(importlib.import_module(module), "__all__", ()))
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_private_top_level_name_is_used():
    # Every private name a module defines at its top level is read somewhere
    # in the package beyond its definition, so no helper is left behind.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((REPO / "src" / "birough").glob("*.py"))
    }
    defined = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(stem, n) for n in names if n.startswith("_") and not n.endswith("__")]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 50
    assert [f"{stem}.{name}" for stem, name in defined if name not in read] == []


def test_no_module_reads_another_modules_private_name():
    # A helper that two modules share is public in one of them: no module
    # imports an underscored name from another or reads one off it.
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    reads = []
    for path in sorted((REPO / "src" / "birough").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # the names this module binds to birough modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "birough"):
                for alias in node.names:
                    if node.module in (None, "birough"):
                        modules.add(alias.asname or alias.name)
                    elif private(alias.name):
                        reads.append(f"{path.stem}: {node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                modules.update(
                    alias.asname or "birough" for alias in node.names if alias.name.startswith("birough")
                )
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "importlib.import_module"
            ):
                modules.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    reads.append(f"{path.stem}: {ast.unparse(node)}")
    assert reads == []


def test_readme_python_api_example(monkeypatch):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    code, output = re.findall(r"```[a-z]*\n(.*?)```", section, re.S)[:2]
    monkeypatch.chdir(REPO)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert printed.getvalue() == output


def test_readme_tables_file_example_is_the_union_table():
    from birough.parse import parse_tables_json
    from birough.lab import UNION_TABLE

    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("--tables-file FILE", 1)[1]
    (example,) = re.findall(r"```json\n(.*?)```", section, re.S)[:1]
    assert parse_tables_json(example) == {"union": UNION_TABLE}


def _fresh_interpreter(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a new interpreter from the repo root."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, cwd=REPO
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


def _loaded(code: str, *args: str) -> set[str]:
    """The birough submodules loaded after ``code`` runs in a new interpreter."""
    report = "\nimport sys\nprint(*(m for m in sys.modules if m.startswith('birough.')))"
    return set(_fresh_interpreter(code + report, *args).split())


def test_bare_import_loads_no_submodule():
    assert _loaded("import birough") == set()
    # A submodule still resolves as an attribute of the package.
    assert _loaded("import birough; birough.approx") == {"birough.approx", "birough.relation"}


# The modules each subcommand loads, besides relation, approx and cli.
COMMAND_MODULES = {
    "approx": {"parse", "formats"},
    "neighbors": {"parse", "formats"},
    "classify": {"parse", "classify", "formats"},
    "verify": {"lab", "campaign", "formats"},
    "tables": {"lab", "formats"},
    "witness": {"lab", "formats"},
    "gen": {"parse", "lab"},
}


def _expected_modules(argv: list[str]) -> set[str]:
    """``COMMAND_MODULES`` of the command, with parse when verify or tables reads a file."""
    modules = COMMAND_MODULES[argv[0]] | {"relation", "approx", "cli"}
    if argv[0] == "verify" and not argv[1].startswith("-") or {"--relation", "--tables-file"} & set(argv):
        modules.add("parse")
    return {f"birough.{module}" for module in modules}


def _run_loading(argv: list[str]) -> tuple[int, bytes, set[str]]:
    """Exit code, stdout and newly loaded modules of ``main(argv)`` in a new interpreter.

    The command writes to the process's own stdout, so its batched writes
    can be checked at the file-descriptor level; the modules it loads,
    beyond those the bare interpreter has loaded before the script starts,
    are listed on stderr.
    """
    run = (
        "import sys\n"
        "preloaded = set(sys.modules)\n"
        "from birough.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "print(*(m for m in sys.modules if m not in preloaded), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", run, *argv], capture_output=True, cwd=REPO)
    return proc.returncode, proc.stdout, set(proc.stderr.decode().split())


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_each_subcommand_loads_only_its_modules(name):
    argv = GOLDEN_CASES[name]
    code, out, loaded = _run_loading(argv)
    assert code == 0, loaded
    assert out == (GOLDEN / name).read_bytes()
    expected = _expected_modules(argv)
    # Only classify computes with fractions; formats names them in annotations only.
    if argv[0] == "classify":
        expected.add("fractions")
    assert {m for m in loaded if m.startswith("birough.") or m == "fractions"} == expected
    # The records are built without dataclasses, which would bring inspect,
    # and the lane tables pack through struct, int.to_bytes and memoryview,
    # not array.
    assert not loaded & {"dataclasses", "inspect", "array"}


def _modules_at_read_and_work(argv: list[str]) -> tuple[set[str], set[str]]:
    """The birough submodules loaded when ``main(argv)`` first reads an input
    file, and when it first calls an approximation kernel or transposes a
    relation, in a new interpreter."""
    run = (
        "import json, sys\n"
        "from birough import approx, cli, relation\n"
        "seen = {}\n"
        "def record(stage, fn):\n"
        "    def recorded(*args):\n"
        "        seen.setdefault(stage, [m for m in sys.modules if m.startswith('birough.')])\n"
        "        return fn(*args)\n"
        "    return recorded\n"
        "cli._read_text = record('read', cli._read_text)\n"
        "for name in ('lower_bits', 'upper_bits', 'lower_table', 'upper_table', 'type_code'):\n"
        "    setattr(approx, name, record('work', getattr(approx, name)))\n"
        "relation.transpose = record('work', relation.transpose)\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "print(json.dumps(seen), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", run, *argv], capture_output=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stderr)
    return set(seen["read"]), set(seen["work"])


# The goldens whose command reads an input file.
READING_CASES = sorted(
    name
    for name, argv in GOLDEN_CASES.items()
    if argv[0] not in ("witness", "gen") and not {"--samples", "--exhaustive"} & set(argv)
)


@pytest.mark.parametrize("name", READING_CASES)
def test_each_command_compiles_its_modules_between_reading_and_work(name):
    # A module compiled before the input is read adds its compile's memory
    # to the reading's, and one compiled after the work starts adds it to the
    # work's data; in between, the input's text is gone and the results are
    # not built yet, which gave the lowest peak RSS on the benchmark's inputs.
    argv = GOLDEN_CASES[name]
    at_read, at_work = _modules_at_read_and_work(argv)
    assert at_read == {f"birough.{m}" for m in ("relation", "approx", "cli", "parse")}
    assert at_work == _expected_modules(argv)


def test_tables_file_is_read_before_the_tables_modules_load(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text('{"union": %s}' % ([[[1, 2, 3, 4]] * 4] * 4), encoding="utf-8")
    argv = ["tables", "--op", "union", "--max-u", "2", "--max-v", "2", "--tables-file", str(path)]
    at_read, at_work = _modules_at_read_and_work(argv)
    assert at_read == {f"birough.{m}" for m in ("relation", "approx", "cli", "parse")}
    assert at_work == _expected_modules(argv)


@pytest.mark.parametrize("tables_file", [False, True], ids=["sweep", "tables-file"])
def test_tables_sweep_loads_parse_only_for_a_tables_file(tables_file, tmp_path):
    # The goldens cover the other flag-dependent sets: verify with a relation
    # file, --samples and --exhaustive, tables --relation, witness and gen.
    argv = ["tables", "--op", "union", "--max-u", "2", "--max-v", "2"]
    if tables_file:
        path = tmp_path / "tables.json"
        grid = [[[1, 2, 3, 4]] * 4] * 4
        path.write_text('{"union": %s}' % grid, encoding="utf-8")
        argv += ["--tables-file", str(path)]
    code, out, loaded = _run_loading(argv)
    assert code == 0 and out
    modules = {m for m in loaded if m.startswith("birough.")}
    assert ("birough.parse" in modules) == tables_file
    assert modules == _expected_modules(argv)


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_imports_on_its_own(module):
    # A fresh interpreter, so no other birough module is loaded first and a
    # cycle or a bad name in a deferred import shows here.
    _fresh_interpreter(f"import birough.{module}")


def test_formats_deferred_imports_resolve():
    code = """
import sys
import birough.formats as formats
import birough.parse as parse
assert not {"birough.classify", "birough.lab"} & set(sys.modules)
grid = [[[1, 2, 3, 4]] * 4] * 4
assert len(parse.parse_tables_json('{"union": %s}' % grid)["union"]) == 16
from birough.classify import approximate_family, family_law_report, validate_classification
from birough.relation import BinaryRelation, UniversePair
up = UniversePair(["x1"], ["y1", "y2"])
rel = BinaryRelation.from_rows(up, [[0, 0]])
blocks = [("Y1", up.v_subset(["y1"])), ("Y2", up.v_subset(["y2"]))]
fa = approximate_family(rel, validate_classification(blocks))
body = formats.build_classify_report(rel, "tiny", fa, family_law_report(fa)).body
print(body["measures"]["accuracy"], sum(body["laws"][k] for k in ("holds", "vacuous", "violated")))
"""
    accuracy, laws = _fresh_interpreter(code).split()
    # An empty relation leaves every upper empty: accuracy is undefined.
    assert accuracy == "None" and int(laws) > 0
