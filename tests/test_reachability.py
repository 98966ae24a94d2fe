"""src/optsl2 holds only what the command line, the suites, the
benchmark or the README's library-API table reaches.

The scan reads the ast of each module and works by name.  The roots are
`cli.main` (the console script), every name that a module-level
statement of src/optsl2 reads (the suite tables among them; imports
and __init__.py do not count), every name that perfbench/*.py reads,
and the names in the README's library-API table.  From the roots it
follows the names and attribute names read inside the bodies of the
functions and classes it reaches.  A method counts as reached when its
class is reached and its name is read; a dunder method is reached with
its class.  Annotations are not followed.  The scan fails on a
top-level function, class or public method that is not reached, and
on a table row that names nothing in src/optsl2 or that the other
roots reach anyway.
"""

import ast
import re
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "optsl2"

# the console script of pyproject.toml, optsl2.cli:main
CONSOLE_SCRIPT = "main"


class Definition(NamedTuple):
    qualname: str   # module.name or module.Class.method
    name: str
    owner: str      # qualname of the class of a method, "" otherwise
    required: bool  # top-level function or class, or public method
    nodes: list     # what is followed once it is reached


def _refs(nodes):
    """The names and attribute names that nodes read, outside
    annotations."""
    for node in nodes:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            children = value if isinstance(value, list) else [value]
            yield from _refs(c for c in children if isinstance(c, ast.AST))


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(module: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield Definition("%s.%s" % (module, node.name), node.name, "",
                             True, [node])
        elif isinstance(node, ast.ClassDef):
            qualname = "%s.%s" % (module, node.name)
            yield Definition(qualname, node.name, "", True,
                             node.decorator_list + node.bases
                             + node.keywords
                             + [s for s in node.body
                                if not isinstance(s, _DEFS)])
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield Definition("%s.%s" % (qualname, item.name),
                                     item.name, qualname,
                                     not item.name.startswith("_"), [item])


def _module_level_refs(tree: ast.Module) -> set:
    return set(_refs(s for s in tree.body if not isinstance(
        s, _DEFS + (ast.Import, ast.ImportFrom))))


def scan(modules: dict, roots, table) -> tuple:
    """(unreached, stale) for modules, a name -> source map of the
    package without its __init__.py.  unreached lists the qualnames of
    the required definitions that neither roots, the module-level
    statements nor table reach; stale lists the table names that no
    module defines or that the other roots reach without the table."""
    defs, names = [], set(roots)
    for module, source in modules.items():
        tree = ast.parse(source)
        defs.extend(_definitions(module, tree))
        names |= _module_level_refs(tree)

    def closure(names):
        names, reached = set(names), set()
        grew = True
        while grew:
            grew = False
            for d in defs:
                if d.qualname in reached or \
                        (d.owner and d.owner not in reached):
                    continue
                dunder = d.name.startswith("__") and d.name.endswith("__")
                if (dunder and d.owner) or d.name in names:
                    reached.add(d.qualname)
                    names.update(_refs(d.nodes))
                    grew = True
        return reached

    core = closure(names)
    reached = closure(names | set(table))
    unreached = [d.qualname for d in defs
                 if d.required and d.qualname not in reached]
    core_names = {d.name for d in defs if d.qualname in core}
    defined = {d.name for d in defs}
    stale = [t for t in table if t not in defined or t in core_names]
    return unreached, stale


def _package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"}


def _perfbench_refs() -> set:
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names.update(_refs([ast.parse(path.read_text())]))
    return names


def _library_api_table() -> list:
    """The first-column names of the README's library-API table."""
    section = (ROOT / "README.md").read_text().split(
        "\n### Library API\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, re.M)


def test_src_holds_only_what_a_root_reaches():
    table = _library_api_table()
    assert table, "the README's library-API table has no rows"
    unreached, stale = scan(_package_sources(),
                            {CONSOLE_SCRIPT} | _perfbench_refs(), table)
    assert not unreached, "unreached definitions: %s" % ", ".join(unreached)
    assert not stale, "stale library-API rows: %s" % ", ".join(stale)


_TOY = '''
TABLE = {"run": used}


def used():
    return Box().width


class Box:
    def __init__(self):
        self.size = helper()

    @property
    def width(self):
        return 1

    def height(self):
        return 2


def helper():
    return 0


def orphan():
    return used()
'''


def test_scan_reports_an_orphan_and_a_stale_row():
    """The scan of an in-memory module: a definition nothing reads is
    reported, a table row admits it, and rows for a missing name or
    for a name the roots reach anyway are stale."""
    modules = {"toy": _TOY}
    assert scan(modules, (), ()) == (["toy.Box.height", "toy.orphan"], [])
    assert scan(modules, (), ("orphan", "height")) == ([], [])
    assert scan(modules, (), ("orphan", "height", "gone", "helper")) == \
        ([], ["gone", "helper"])
    # a method of a class that nothing reaches is unreached with it
    assert scan({"toy": "class Lone:\n    def size(self):\n        pass\n"},
                ("size",), ()) == (["toy.Lone", "toy.Lone.size"], [])
