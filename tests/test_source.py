"""Source-level checks of the library package."""

import ast
import glob
import os

import laddermod

SRC_DIR = os.path.dirname(laddermod.__file__)


def test_src_has_no_assert_statements():
    # assert statements vanish under python -O, so no invariant may rest on one
    paths = sorted(glob.glob(os.path.join(SRC_DIR, "*.py")))
    assert len(paths) > 1
    found = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        found += [
            "%s:%d" % (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
