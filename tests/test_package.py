import ast
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
