"""Every function, class and method of the package has a caller outside the
tests: in the package itself, the demos or the benchmark.  A callable that
only tests call is code kept alive for its own tests; it belongs in the
tests or nowhere.

A caller is any reference to the name (a call, an attribute read, a
decorator, a type in an annotation) outside the callable's own definition.
`__init__.py` re-exports are not callers.  Dunder methods are called by the
language and are not checked.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmplates"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

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
    files = [p for d in CALLER_DIRS for p in sorted(d.glob("*.py")) if p.name != "__init__.py"]
    refs = {p: list(_references(ast.parse(p.read_text(), str(p)))) for p in files}
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


UNCALLED = uncalled()


def test_no_callable_is_called_only_by_tests():
    assert not sorted(UNCALLED - ALLOWED), "called only by tests (or by nothing)"


def test_allowlisted_callable_is_still_uncalled():
    # a keeper that is deleted or gains a caller leaves the allowlist
    assert not sorted(ALLOWED - UNCALLED)
