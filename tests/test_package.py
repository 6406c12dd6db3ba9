import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import clustercomplexes


def test_library_has_no_assert_statements():
    # correctness checks must survive python -O, which strips asserts
    root = Path(clustercomplexes.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.relative_to(root), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


CACHE_CONSTRUCTORS = ("dict", "set", "defaultdict", "OrderedDict", "Counter")
CACHE_DECORATORS = ("cache", "lru_cache")


def _name(expr):
    """The bare name a call or decorator refers to."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return getattr(expr, "id", None)


def test_no_module_level_caches():
    # a memo that outlives one call grows with every complex ever checked,
    # and one keyed by id() keeps every system it has seen alive
    root = Path(clustercomplexes.__file__).parent
    found = []
    for name in ("topology.py", "simplicial.py", "colored.py",
                 "noncrossing.py"):
        tree = ast.parse((root / name).read_text(), filename=name)
        for node in tree.body:
            value = getattr(node, "value", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                    isinstance(value, (ast.Dict, ast.Set, ast.DictComp,
                                       ast.SetComp))
                    or isinstance(value, ast.Call)
                    and _name(value) in CACHE_CONSTRUCTORS):
                found.append("%s:%d" % (name, node.lineno))
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", ()):
                if _name(dec) in CACHE_DECORATORS:
                    found.append("%s:%d" % (name, dec.lineno))
    assert found == []


def _bound_names(node):
    """The names an import statement binds in its module."""
    if isinstance(node, ast.Import):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    return [a.asname or a.name for a in node.names]


def test_library_reads_every_name_it_imports():
    # the package __init__ imports to re-export, so it is left out
    root = Path(clustercomplexes.__file__).parent
    unread = []
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += ["%s:%d %s" % (path.name, node.lineno, name)
                           for name in _bound_names(node)
                           if name not in read and name != "annotations"]
    assert unread == []


def _traced():
    """The benchmark tracer's TRACED list, read without importing it."""
    tracer = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED"])


def test_traced_names_resolve():
    # the traced benchmark run patches these names
    traced = _traced()
    assert traced
    missing = []
    for module, attr, _ in traced:
        obj = importlib.import_module("clustercomplexes." + module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append("%s.%s" % (module, attr))
    assert missing == []
    # its reflection-length getter reads the per-element cache
    assert "_length" in clustercomplexes.GroupElement.__slots__


def test_every_library_definition_is_read():
    # a def or class that nothing reads is dead code; the library, the
    # scripts and the benchmark count as readers, the tests and the package
    # __init__'s re-exports do not, and the benchmark tracer reads each name
    # it patches
    repo = Path(__file__).resolve().parents[1]
    reexports = Path(clustercomplexes.__file__).resolve()
    read = {part for _, attr, _ in _traced() for part in attr.split(".")}
    for folder in ("src", "scripts", "benchmark"):
        for path in (repo / folder).rglob("*.py"):
            if path.resolve() == reexports:
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(a.name for a in node.names)
    root = Path(clustercomplexes.__file__).parent
    unread = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unread += ["%s:%d %s" % (path.name, node.lineno, node.name)
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                   and not (node.name.startswith("__")
                            and node.name.endswith("__"))
                   and node.name not in read]
    assert unread == []


def test_import_loads_no_class_factory_and_no_csv():
    # set-up generates no methods: no dataclass machinery (which pulls in
    # inspect) and no csv until a csv report is rendered
    src = Path(clustercomplexes.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "before = set(sys.modules)\n"
         "import clustercomplexes, clustercomplexes.cli\n"
         "print(sorted({'dataclasses', 'inspect', 'csv'}\n"
         "             & set(sys.modules) - before))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"


def test_library_declares_records_as_plain_classes():
    root = Path(clustercomplexes.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [a.name for a in node.names]
            elif isinstance(node, ast.ClassDef):
                names = [_name(base) for base in node.bases]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name in ("dataclasses", "NamedTuple")]
    assert found == []
