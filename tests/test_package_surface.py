"""The package ships only what its programs call.

Every function and class defined in ``src/topocbt`` must be named
somewhere a program reads it: the package itself, the demos, or the
benchmark outside its own tests.  A name counts as read where it appears
as an ``ast.Name`` or an ``ast.Attribute``, and in the benchmark also as
a string constant, since its tracer patches functions by name.  Code
that only tests call belongs in ``tests/oracles.py``.

No module of the package, the demos or the tests imports a name it
never reads, so a name a deletion left behind cannot linger; the
package's ``__init__`` is exempt, since its imports are what it exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "topocbt"
BENCH = ROOT / "bench"

# definitions kept without a program caller, each for the reason given
ALLOWED = {
    # the chain's tamper audit, documented in the README
    "hash_violations",
    # BoundaryMatrix.rank is the one user of simplicial's gf2_rank
    # binding, which the benchmark's tracer patches
    "rank",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def referenced_names(files) -> set[str]:
    """Each Name id and Attribute attr in the files, plus the string
    constants of the benchmark's files."""
    names: set[str] = set()
    for path in files:
        in_bench = BENCH in path.parents
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif in_bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def defined_names(files) -> dict[str, str]:
    """Each non-dunder function and class defined in the files, with
    where it is defined."""
    defined: dict[str, str] = {}
    for path in files:
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    return defined


def package_files() -> list[Path]:
    return sorted(PACKAGE.glob("*.py"))


def program_files() -> list[Path]:
    bench = [p for p in BENCH.rglob("*.py") if BENCH / "tests" not in p.parents]
    return package_files() + sorted((ROOT / "demos").glob("*.py")) + sorted(bench)


def uncalled(package, programs) -> dict[str, str]:
    """The package's definitions that no program file names."""
    referenced = referenced_names(programs) | ALLOWED
    return {name: where for name, where in defined_names(package).items() if name not in referenced}


def unread_imports(path: Path) -> dict[str, int]:
    """Each name ``path`` imports but never reads as an ``ast.Name``,
    with its line; ``from __future__`` imports are directives."""
    tree = parse(path)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


def test_no_module_imports_a_name_it_never_reads():
    modules = [p for p in package_files() if p.name != "__init__.py"]
    modules += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unread = {f"{path.relative_to(ROOT)}:{line}": name
              for path in modules for name, line in unread_imports(path).items()}
    assert unread == {}


def test_an_unread_import_is_caught(tmp_path):
    extra = tmp_path / "extra.py"
    extra.write_text("from __future__ import annotations\nimport os.path\nfrom typing import Optional, Sequence\n"
                     "x: Optional[int] = None\n")
    assert unread_imports(extra) == {"os": 2, "Sequence": 3}


def test_every_package_definition_has_a_program_caller():
    programs = program_files()
    assert PACKAGE / "cli.py" in programs and BENCH / "tracing.py" in programs
    assert uncalled(package_files(), programs) == {}, "only tests call these; move them to tests/oracles.py"


def test_the_allowlist_holds_only_names_the_package_defines():
    assert ALLOWED <= defined_names(package_files()).keys()


def test_a_test_only_definition_is_caught(tmp_path):
    extra = tmp_path / "extra.py"
    extra.write_text("def only_tests_call_me():\n    return 1\n")
    found = uncalled([*package_files(), extra], [*program_files(), extra])
    assert found == {"only_tests_call_me": "extra.py:1"}
