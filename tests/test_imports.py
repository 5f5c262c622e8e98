"""Every module-level import in the package is used by the module that makes it.

No linter ships with the toolchain, so this is a small ``ast`` check: a
name bound by a module-level ``import`` or ``from ... import`` must be
read somewhere in the same module, annotations included.  Two checks ride
along: no module may be larger than ``MAX_MODULE_BYTES``, and none runs
generated code through the builtins ``exec``, ``eval`` or ``compile``.
"""

import ast
from pathlib import Path

import pytest

import nrquad

PACKAGE = Path(nrquad.__file__).parent

# Re-exports are imported for the module's importers.  __init__.py is all
# re-exports; expressions re-exports the node types, parser and printer of _syntax.
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
RE_EXPORTED = {"expressions.py": {"._syntax"}}


def unused_imports(source: str, exempt_modules: set[str] = frozenset()) -> list[str]:
    """Names bound by the module-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or "." * node.level + (node.module or "") in exempt_modules:
                continue
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import math, os.path\nfrom .a import b, c as d\nfrom __future__ import annotations\n\nx: d = math.pi\n"
    assert unused_imports(source) == ["os", "b"]
    assert unused_imports("from ._syntax import parse\n", {"._syntax"}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(), RE_EXPORTED.get(path.name, frozenset())) == []


# A process that compiles nrquad from source (no .pyc written) keeps memory in
# proportion to its largest module (README, "Cost of integrate"), so the bound
# is absolute: the size of cli.py, the largest module when it was set.
MAX_MODULE_BYTES = 14_417


def test_no_module_is_larger_than_the_bound():
    sizes = {path.name: path.stat().st_size for path in MODULES}
    assert {name: size for name, size in sizes.items() if size > MAX_MODULE_BYTES} == {}


CODE_RUNNERS = {"exec", "eval", "compile"}


def code_runner_calls(source: str) -> list[str]:
    """Calls in ``source`` of the builtins that run generated code, by bare name; ``re.compile`` is not one."""
    return [
        f"{node.func.id}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in CODE_RUNNERS
    ]


def test_the_check_finds_a_code_runner():
    source = "import re\n_RE = re.compile('x')\nexec(compile(text, '<k>', 'exec'), names)\nv = eval(t)\n"
    assert sorted(code_runner_calls(source)) == ["compile:3", "eval:4", "exec:3"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_runs_generated_code(path):
    assert code_runner_calls(path.read_text()) == []
