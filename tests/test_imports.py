"""Every module-level import in the package is used by the module that makes it.

No linter ships with the toolchain, so this is a small ``ast`` check: a
name bound by a module-level ``import`` or ``from ... import`` must be
read somewhere in the same module, annotations included.  Six checks ride
along: no module may be larger than ``MAX_MODULE_BYTES``, none runs
generated code through the builtins ``exec``, ``eval`` or ``compile``, the
package reads every private module-level name it defines, no function of
``expressions.py`` or ``_syntax.py`` but the printer ``to_text`` has a
``match`` statement, ``nrquad.__all__`` lists
exactly the names ``__init__.py`` imports, and the ``test`` extra of
``pyproject.toml`` names every module the tests ``importorskip``.
"""

import ast
import re
import subprocess
import sys
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
# proportion to its largest module, so the bound is absolute: the size of
# cli.py, the largest module when it was set.
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants that no module of ``sources`` reads.

    ``sources`` maps each module's name to its text.  A read inside the
    definition itself, such as a recursive call, does not count; a read in
    another module counts through its ``from .module import name``, at
    module level or inside a function.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {}  # (module, local name) -> (module, name) it was imported from
    defined = {}  # (module, name) -> the lines of its definition
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imported[module, alias.asname or alias.name] = (node.module, alias.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = range(node.lineno, node.end_lineno + 1)
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                key = (module, node.id)
                while key in imported:
                    key = imported[key]
                if key[0] != module or node.lineno not in defined.get(key, ()):
                    read.add(key)
    return sorted(f"{module}.{name}" for module, name in defined.keys() - read)


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": "def _used():\n    return _C\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n\n"
        "_C = 1\n_SELF: int = _SELF if False else 0\n_IMPORTED = 2\n__all__ = []\n",
        "b": "from .a import _IMPORTED, _used as use\n\nuse()\n_used = 3\n",
        "c": "from .b import use\n\nuse()\n",
    }
    assert unread_private_names(sources) == ["a._IMPORTED", "a._SELF", "a._recursive", "b._used"]


def test_the_check_follows_an_import_inside_a_function():
    sources = {"a": "def _f():\n    return 1\n", "b": "def g():\n    from .a import _f\n    return _f()\n"}
    assert unread_private_names(sources) == []


def test_the_package_reads_every_private_module_level_name():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


# The tree walks run on every integrand, and a class pattern costs an isinstance
# test and field reads for each case tried where a ``type(e) is ...`` test is
# one comparison, so only the printer ``to_text``, which no operation of the
# package calls, keeps ``match``.


def functions_with_match(source: str) -> list[str]:
    """The module-level functions of ``source`` that contain a ``match`` statement."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and any(isinstance(inner, ast.Match) for inner in ast.walk(node))
    ]


def test_the_check_finds_a_match_statement():
    source = "def f(e):\n    match e:\n        case _:\n            return 1\n\n\ndef g(e):\n    return type(e)\n"
    assert functions_with_match(source) == ["f"]


def test_no_function_in_expressions_has_a_match_statement():
    assert functions_with_match((PACKAGE / "expressions.py").read_text()) == []
    assert functions_with_match((PACKAGE / "_syntax.py").read_text()) == ["to_text"]


# The public API: every name __init__.py imports from a submodule or serves
# from nrquad.baselines on first use, once, sorted.
PUBLIC_NAMES = 39


def imported_from_submodules(source: str) -> list[str]:
    """The names that the module-level ``from .module import ...`` statements of ``source`` bind.

    The names of the module-level ``_BASELINES`` tuple, which the module's
    ``__getattr__`` imports on first use, count too.
    """
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["_BASELINES"]:
            names += [element.value for element in node.value.elts]
    return names


def test_the_check_reads_the_submodule_imports():
    source = "from __future__ import annotations\nimport os\nfrom .a import b, c as d\nfrom .e import f\n"
    assert imported_from_submodules(source) == ["b", "d", "f"]
    assert imported_from_submodules(source + "_BASELINES = ('g', 'h')\n_OTHER = ('i',)\n") == ["b", "d", "f", "g", "h"]


def test_both_import_forms_give_every_public_name_in_a_fresh_process():
    # import nrquad lists every name but leaves baselines unloaded; its names load it, as attributes and through import *
    code = (
        "import sys\n"
        "import nrquad\n"
        "listed = set(nrquad.__all__) <= set(dir(nrquad))\n"
        "loaded = 'nrquad.baselines' in sys.modules\n"
        "from nrquad import *\n"
        "names = [name for name in nrquad.__all__ if globals()[name] is getattr(nrquad, name)]\n"
        "print(listed, loaded, len(names), simpson.__module__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == f"True False {PUBLIC_NAMES} nrquad.baselines\n"


def test_all_lists_each_imported_name_once_in_order():
    names = nrquad.__all__
    assert names == sorted(set(names))
    assert set(names) == set(imported_from_submodules((PACKAGE / "__init__.py").read_text()))
    assert [name for name in names if not hasattr(nrquad, name)] == []
    assert len(names) == PUBLIC_NAMES


# A module a test passes to pytest.importorskip is an oracle that is skipped
# where it is missing, so an install of the test extra must bring it.
TESTS = Path(__file__).parent


def importorskip_modules(source: str) -> set[str]:
    """The top-level modules that ``source`` passes to ``pytest.importorskip`` by a string literal."""
    return {
        node.args[0].value.partition(".")[0]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "importorskip"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def extra_requirements(pyproject: str, extra: str) -> set[str]:
    """The distribution names that ``extra`` lists in the text of a ``pyproject.toml``, without versions.

    The file is read as text: ``tomllib`` is missing on Python 3.10.
    """
    listed = re.search(rf"^{extra} = \[(.*)\]$", pyproject, re.MULTILINE).group(1)
    return {re.match(r"[\w.-]+", requirement).group() for requirement in re.findall(r'"([^"]+)"', listed)}


def test_the_check_finds_the_skipped_modules_and_the_extra():
    source = "import pytest\nnp = pytest.importorskip('numpy')\ndef f():\n    pytest.importorskip(\"scipy.special\")\n"
    assert importorskip_modules(source) == {"numpy", "scipy"}
    pyproject = '[project.optional-dependencies]\ndocs = ["sphinx"]\ntest = ["pytest>=7", "mpmath"]\n'
    assert extra_requirements(pyproject, "test") == {"pytest", "mpmath"}


def test_the_test_extra_names_every_module_the_tests_skip_without():
    skipped = set().union(*(importorskip_modules(path.read_text()) for path in TESTS.glob("*.py")))
    assert "sympy" in skipped
    assert skipped - extra_requirements((TESTS.parent / "pyproject.toml").read_text(), "test") == set()
