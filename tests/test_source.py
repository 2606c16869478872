"""Static checks on the library source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chiefblocks"


def test_no_assert_statements_in_library():
    """Self-checks must raise, because ``python -O`` strips assert."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports_in_library():
    """Every import is used by its module or re-exported in ``__all__``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _exported_names(tree)
        found += [f"{path.name}:{line} {name}"
                  for name, line in _imported_names(tree) if name not in used]
    assert not found, f"unused imports in src: {found}"


def test_lattice_index_data_read_through_public_names():
    """Other modules ask ``NormalLattice`` by its public ``up``, ``down``
    and ``below``; its private bitsets and lists stay inside lattice.py."""
    private = {"_up", "_down", "_below", "_above"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lattice.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno} {node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in private]
    assert not found, f"private lattice fields read outside lattice.py: {found}"


def test_traced_benchmark_names_exist():
    """The traced benchmark swaps these names; a rename must fail here."""
    import chiefblocks.cli as cli
    from chiefblocks.lattice import NormalLattice

    spans = SRC.parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"), str(spans))
    calls = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CLI_CALLS"
                for t in node.targets))
    missing = [name for name in calls if not hasattr(cli, name)]
    assert not missing, f"names the benchmark traces are gone: {missing}"
    assert callable(getattr(NormalLattice, "covers", None))
