"""Every function, class and method of the package has a caller outside the
tests: in the package itself, the demos or the benchmark.  A callable that
only tests call is code kept alive for its own tests; it belongs in the
tests or nowhere.

A caller is any reference to the name (a call, an attribute read, a
decorator, a type in an annotation) outside the callable's own definition.
`__init__.py` re-exports are not callers.  Dunder methods are called by the
language and are not checked.

Likewise every parameter with a default in a `def` of the package (not the
`__init__` a dataclass generates) is set, by position or by keyword, in
some call from outside the tests: a parameter that only tests set is an
option kept alive for its own tests.  A call matches a definition by name,
a call to a class is a call to its `__init__`, and a `*args` or `**kwargs`
argument sets every parameter it could reach.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmplates"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")
CALLER_FILES = [p for d in CALLER_DIRS for p in sorted(d.glob("*.py")) if p.name != "__init__.py"]

# kept without a caller outside the tests, each for a stated reason; the
# demos are callers, so what only a demo calls needs no entry here
ALLOWED = {
    # the only writer of the mesh JSON format that the CLI's --mesh reads
    ("geometry", "save_mesh"),
    # the connecting-system identities the property tests pin at 1e-12
    ("thin_limit", "ConnectingSystem.adjoint_lhs"),
    ("thin_limit", "ConnectingSystem.adjoint_rhs"),
    ("thin_limit", "ConnectingSystem.hdelta_norm_extended"),
}

# (module, qualified name, parameter) kept without a setter outside the tests
ALLOWED_PARAMETERS = {
    # the test seam of the console script, which parses sys.argv
    ("cli", "main", "argv"),
}


def _definitions(tree):
    """(qualified name, first line, last line) of every def and class."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child.lineno, child.end_lineno))
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")

    visit(tree, "")
    return out


def _references(tree):
    """(name, line) of every name read and attribute access."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def uncalled():
    """(module, qualified name) of every package callable without a caller."""
    refs = {p: list(_references(ast.parse(p.read_text(), str(p)))) for p in CALLER_FILES}
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualname, first, last in _definitions(ast.parse(path.read_text(), str(path))):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(
                ref == name and not (p == path and first <= line <= last) for p, found in refs.items() for ref, line in found
            ):
                out.add((path.stem, qualname))
    return out


def _defaulted(node, method):
    """(position or None, name) of each parameter of a def that has a
    default; a method's position skips `self`, a static method's does not."""
    positional = node.args.posonlyargs + node.args.args
    skip = int(method and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list))
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= len(positional) - len(node.args.defaults)]
    return out + [(None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]


def _sets(call, position, name):
    """Whether a call sets the parameter `name` at `position` (None when keyword-only)."""
    reached = position is not None and any(
        i == position or (i < position and isinstance(arg, ast.Starred)) for i, arg in enumerate(call.args)
    )
    return reached or any(kw.arg in (None, name) for kw in call.keywords)


def unset_parameters():
    """(module, qualified name, parameter) of every defaulted parameter of a
    package function that no call outside the tests sets."""
    calls = {}
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append((path, node))
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        defs = [(node, None) for node in tree.body]
        defs += [(node, cls.name) for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
        for node, cls in defs:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called_as = cls if node.name == "__init__" else node.name
            qualname = f"{cls}.{node.name}" if cls else node.name
            found = [
                call
                for p, call in calls.get(called_as, [])
                if not (p == path and node.lineno <= call.lineno <= node.end_lineno)
            ]
            for position, name in _defaulted(node, cls is not None):
                if not any(_sets(call, position, name) for call in found):
                    out.add((path.stem, qualname, name))
    return out


UNCALLED = uncalled()
UNSET = unset_parameters()


def test_no_callable_is_called_only_by_tests():
    assert not sorted(UNCALLED - ALLOWED), "called only by tests (or by nothing)"


def test_allowlisted_callable_is_still_uncalled():
    # a keeper that is deleted or gains a caller leaves the allowlist
    assert not sorted(ALLOWED - UNCALLED)


def test_no_parameter_is_set_only_by_tests():
    assert not sorted(UNSET - ALLOWED_PARAMETERS), "defaulted parameters set only by tests (or by nothing)"


def test_allowlisted_parameter_is_still_unset():
    assert not sorted(ALLOWED_PARAMETERS - UNSET)
