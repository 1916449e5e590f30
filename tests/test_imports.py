"""Import hygiene of the package source, read with ast (no linter is assumed).

A module-level import that its module never uses fails, unless the import
carries `# noqa: F401` (kept for an outside reader, such as a tracer that
replaces the name).  No module imports an underscore-prefixed name from
another effrate module.  The package's `__init__` must export exactly what
it imports.  Every module-level function and class, and every non-dunder
method, is referenced somewhere in the package, so code kept only for the
tests cannot stay unnoticed.  No module forms a matrix product.
"""

import ast
import pathlib

import pytest

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "effrate"
_MODULES = sorted(_SRC.glob("*.py"))


def _parse(path):
    text = path.read_text()
    return ast.parse(text), text.splitlines()


def _imported(tree, lines):
    """{bound name: line} of the module-level imports without `noqa: F401`."""
    names = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return None


@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_module_import(path):
    tree, lines = _parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree, lines).items() if name not in used}
    assert not unused, "%s imports names it never uses: %r" % (path.name, unused)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_the_package(path):
    # a rule several modules need lives under a public name in one module
    tree, _ = _parse(path)
    private = [(node.lineno, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "effrate")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, "%s imports private effrate names: %r" % (path.name, private)


def test_package_exports_what_it_imports():
    tree, lines = _parse(_SRC / "__init__.py")
    imported = set(_imported(tree, lines))
    exported = _all(tree)
    assert exported is not None, "__init__.py has no __all__"
    assert imported == exported, (
        "imported but not in __all__: %r; in __all__ but not imported: %r"
        % (sorted(imported - exported), sorted(exported - imported))
    )


def test_every_definition_has_a_reader_in_the_package():
    # a module-level function, class or method that nothing in src/effrate
    # names (a Name, an attribute or an __all__ entry) is test-only code
    trees = {path.name: _parse(path)[0] for path in _MODULES}
    read = set()
    for tree in trees.values():
        read |= set(_all(tree) or ())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = [(name, node.name) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    # and the non-dunder methods of its classes, by name alone: a method
    # that no module calls is as dead as a function
    defined += [(name, "%s.%s" % (node.name, method.name))
                for name, tree in trees.items() for node in tree.body
                if isinstance(node, ast.ClassDef) for method in node.body
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__")]
    unread = [(name, what) for name, what in defined if what.rpartition(".")[2] not in read]
    assert not unread, "defined in src/effrate but never referenced there: %r" % unread


# numpy's products, and convolve and correlate, which sum through BLAS's dot
_MATRIX_PRODUCTS = {"dot", "matmul", "einsum", "vdot", "inner", "tensordot", "vecdot",
                    "matvec", "vecmat", "convolve", "correlate"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_module_forms_a_matrix_product(path):
    # numpy hands a matrix product to BLAS: its buffers add resident memory
    # to every process, and the kernel OpenBLAS picks for the CPU sets the
    # product's last bits.  So no @, no call named like a product, and
    # nothing from linalg
    tree, _ = _parse(path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in _MATRIX_PRODUCTS:
                found.append((node.lineno, name))
        elif isinstance(node, (ast.Attribute, ast.Name)):
            if getattr(node, "attr", getattr(node, "id", None)) == "linalg":
                found.append((node.lineno, "linalg"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("linalg" in n.split(".") for n in names):
                found.append((node.lineno, "linalg"))
    assert not found, "%s forms a matrix product: %r" % (path.name, found)
