"""Source-level checks of the library package."""

import ast
import glob
import os

import laddermod

SRC_DIR = os.path.dirname(laddermod.__file__)
BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _asserts(node):
    """An assert statement, or a raise of AssertionError."""
    if isinstance(node, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return isinstance(node, ast.Assert)


def test_src_has_no_assert_statements():
    # assert statements vanish under python -O, so no invariant may rest on one;
    # nor on a raised AssertionError, which reads as a failed assert
    paths = sorted(glob.glob(os.path.join(SRC_DIR, "*.py")))
    assert len(paths) > 1
    found = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        found += [
            "%s:%d" % (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if _asserts(node)
        ]
    assert found == []


def test_hidden_state_is_listed():
    # object.__setattr__ writes to a frozen dataclass outside its fields, where
    # equality, hash and repr do not see it; each such write is listed here by
    # class and attribute, or by method where the attribute name is computed
    allowed = {("BarGenerator", "origin"), ("BarcodeBasis", "_reduces"),
               ("LadderModule", "_commutes"), ("MorphismDoc", "_ladder")}

    def writes(node, cls=None, func=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from writes(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from writes(child, cls, child.name)
                continue
            target = getattr(child, "func", None)
            if (isinstance(target, ast.Attribute) and target.attr == "__setattr__"
                    and isinstance(target.value, ast.Name) and target.value.id == "object"):
                attr = child.args[1] if len(child.args) > 1 else None
                yield child.lineno, cls, attr.value if isinstance(attr, ast.Constant) else func
            yield from writes(child, cls, func)

    found = {}
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        for lineno, cls, where in writes(tree):
            found["%s:%d" % (os.path.basename(path), lineno)] = (cls, where)
    assert {k: v for k, v in found.items() if v not in allowed} == {}
    assert set(found.values()) == allowed


def test_bench_trace_targets_resolve(monkeypatch):
    # the traced benchmark run rebinds these names; a library change that drops
    # one would only surface there, so check each is still defined where listed
    monkeypatch.syspath_prepend(BENCH_DIR)
    from workloads import trace_targets

    missing = [
        "%s.%s" % (owner.__name__, attr)
        for owner, attr, _, _ in trace_targets()
        if attr not in vars(owner)
    ]
    assert missing == []


def test_sibling_imports_are_used_or_traced(monkeypatch):
    # a name imported from a sibling module must be used there, be re-exported
    # through __all__, or be one the traced benchmark run rebinds there
    monkeypatch.syspath_prepend(BENCH_DIR)
    from workloads import trace_targets

    traced = {(owner.__name__, attr) for owner, attr, _, _ in trace_targets()}
    unused = []
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        name = os.path.basename(path)[:-3]
        module = "laddermod" if name == "__init__" else "laddermod." + name
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        unused += [
            "%s:%d %s" % (os.path.basename(path), node.lineno, alias.asname or alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if (alias.asname or alias.name) not in used
            and (module, alias.asname or alias.name) not in traced
        ]
    assert unused == []


def test_only_fields_touches_raw_scalars():
    # fields.py alone knows how a scalar is stored: other modules go through
    # the field object and never branch on which field it is
    raw_attrs = {"v", "numerator", "denominator"}
    field_types = {"Fp", "PrimeField", "RationalField"}
    # nor how a Matrix stores its entries: every slot but the public shape and field
    storage = set(laddermod.Matrix.__slots__) - {"field", "rows", "cols"}
    assert storage

    def names(node):
        if isinstance(node, ast.Tuple):
            return {n for elt in node.elts for n in names(elt)}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        return {node.id} if isinstance(node, ast.Name) else set()

    found = []
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "*.py"))):
        if os.path.basename(path) == "fields.py":
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            what = None
            if isinstance(node, ast.Attribute) and node.attr in raw_attrs:
                what = "reads ." + node.attr
            elif isinstance(node, ast.Attribute) and node.attr in storage:
                what = "touches Matrix.%s" % node.attr
            elif isinstance(node, ast.Constant) and node.value in storage:
                what = "names Matrix.%s" % node.value
            elif isinstance(node, ast.Call) and names(node.func) & {"isinstance", "Fp"}:
                if "Fp" in names(node.func):
                    what = "builds an Fp"
                elif len(node.args) == 2 and names(node.args[1]) & field_types:
                    what = "tests for a field type"
            if what:
                found.append("%s:%d %s" % (os.path.basename(path), node.lineno, what))
    assert found == []


def test_raw_rows_stay_behind_fields():
    # the raw-row interface of fields.py serves the barcode sweep, the basis
    # fold and the matching-form reducer with its ops and its search; every
    # other module reads and builds matrices through Matrix methods
    interface = {"_lift", "_norm", "_drop", "_block", "_raw_rows", "_of_raw",
                 "_from_raw_rows", "_axpy", "_scaled", "_eliminate"}
    allowed = {"fields.py", "persistence.py", "ladder.py"}
    paths = sorted(glob.glob(os.path.join(SRC_DIR, "*.py")))
    assert {"coarse.py", "matching.py", "morphism.py", "cli.py", "__init__.py"} <= {
        os.path.basename(p) for p in paths
    }
    found = []
    for path in paths:
        if os.path.basename(path) in allowed:
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        # named as an attribute or imported; a module's own function of the
        # same name (cli._lift reinterprets a morphism at a coarser delta) is not it
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            found += ["%s:%d %s" % (os.path.basename(path), node.lineno, n)
                      for n in names if n in interface]
    assert found == []


def test_entries_are_lifted_only_where_they_enter():
    # a Matrix holds one raw block, lifted and checked once where its entries
    # enter: at construction, when parsed, and as the scalars of recorded ops
    assert set(laddermod.Matrix.__slots__) == {"field", "rows", "cols", "_raw", "_pick"}
    allowed = {("fields.py", "__init__"), ("fields.py", "_parse"),
               ("ladder.py", "apply_ops"), ("ladder.py", "_fold_ops")}

    def lifts(node, func=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from lifts(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "_lift"):
                yield func
            yield from lifts(child, func)

    found = set()
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        found |= {(os.path.basename(path), func) for func in lifts(tree)}
    assert found == allowed
