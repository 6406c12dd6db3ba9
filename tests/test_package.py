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
