"""Every package and test module uses each name it imports, every public
name a package module defines is read by some package module, and every
function, method and class the package defines is named by the package."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "fedcold"

def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in read
    ]


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each public top-level function, class or
    upper-case constant that no module in ``sources`` reads."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()
                ]
            else:
                names = []
            defined += [(module, name) for name in names if not name.startswith("_")]
        read |= {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .numerics import affine, sigmoid\n"
        "x = np.zeros(1)\n"
        "def f(v: np.ndarray) -> float:\n"
        "    return sigmoid(v)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: affine"]


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda path: path.name,
)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unread_public_names_are_found():
    sources = {
        "a.py": (
            "LIMIT = 3\n"
            "_PRIVATE = 1\n"
            "def used(x):\n"
            "    return x + LIMIT\n"
            "def unread_helper(x):\n"
            "    return x\n"
        ),
        "b.py": "from .a import used\nclass Unread:\n    pass\ny = used(1)\n",
    }
    assert unread_public_names(sources) == [
        "a.py: unread_helper",
        "b.py: Unread",
    ]


def test_every_public_name_is_read_by_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_public_names(sources) == []


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each function, method or class, at any depth,
    that no module in ``sources`` names as a ``Name`` or an ``Attribute``.
    Dunder methods are called by the language and are exempt."""
    defined: list[tuple[str, str]] = []
    named: set[str] = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((module, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [f"{module}: {name}" for module, name in defined if name not in named]


def test_unnamed_definitions_are_found():
    sources = {
        "a.py": (
            "def _helper(x):\n"
            "    return x\n"
            "def _only_tests_call(x):\n"
            "    return x\n"
            "class Rows:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def total(self):\n"
            "        return 0\n"
            "    def unused_method(self):\n"
            "        def inner():\n"
            "            return 1\n"
            "        return 2\n"
        ),
        "b.py": "from .a import _helper, Rows\ny = _helper(Rows().total())\n",
    }
    assert unnamed_definitions(sources) == [
        "a.py: _only_tests_call",
        "a.py: unused_method",
        "a.py: inner",
    ]


def test_every_definition_is_named_by_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unnamed_definitions(sources) == []


def package_imports(source: str) -> list[str]:
    """The fedcold modules that ``source`` imports, relatively or by name."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "fedcold":
                continue
            module = module.removeprefix("fedcold").lstrip(".")
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {
                alias.name.split(".", 1)[1]
                for alias in node.names
                if alias.name.startswith("fedcold.")
            }
    return sorted(found)


def test_package_imports_are_found():
    source = (
        "import numpy as np\n"
        "import fedcold.data\n"
        "from . import numerics\n"
        "from .diffusion import INFERENCE_MODES\n"
        "from fedcold.errors import ConfigError\n"
        "from dataclasses import field\n"
    )
    assert package_imports(source) == ["data", "diffusion", "errors", "numerics"]


def test_config_imports_no_package_module_but_errors():
    # the config is read by every layer, so it depends on none of them
    source = (PACKAGE / "config.py").read_text(encoding="utf-8")
    assert package_imports(source) == ["errors"]
