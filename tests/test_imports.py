"""Every name a ``paracnn`` module imports is used in that module, and every function,
class and method it defines is reached from code other than the tests."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "paracnn")


def read(path) -> str:
    with open(path) as fh:
        return fh.read()


def unused_imports(source: str) -> list:
    """The names ``source`` binds by an import and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c as d, e\n"
                          "import x.y\nsys.exit(e(x.y))\n") == ["os", "d"]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_no_unused_imports(path):
    assert unused_imports(read(path)) == []


def definitions(source: str) -> list:
    """The functions and classes ``source`` defines at module level, and the methods of
    those classes but the dunders, as ``Class.method``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef)
                      and not (m.name.startswith("__") and m.name.endswith("__"))]
    return names


def references(source: str) -> set:
    """Every name, attribute and string constant in ``source``: a string counts, as the
    benchmark's tracer wraps methods by their names."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def unreached(modules: dict, sources) -> list:
    """``module:definition`` for each definition of ``modules`` (name -> source) that no
    source of ``sources`` references."""
    refs = set().union(*map(references, sources))
    return [f"{module}:{name}" for module, source in modules.items()
            for name in definitions(source) if name.rpartition(".")[2] not in refs]


def test_finds_an_unreached_definition():
    lib = ("def f(): pass\nclass A:\n    def __init__(self): pass\n"
           "    def m(self): pass\n    def n(self): pass\n")
    assert unreached({"lib": lib}, [lib, "A().m()\nwrap('f')\n"]) == ["lib:A.n"]


def test_every_definition_is_reached_without_the_tests():
    modules = {os.path.basename(p): read(p) for p in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    sources = [read(p) for pattern in ("src/**/*.py", "scripts/*.py", "perfbench/*.py")
               for p in glob.glob(os.path.join(ROOT, pattern), recursive=True)]
    assert unreached(modules, sources) == []
