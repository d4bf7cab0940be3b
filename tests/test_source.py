"""The library holds no code that only tests read."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "conformal_gap_lab"

# public definitions that no src/ code reads, by decision: independent
# reference oracles the tests check the library against, and a name that
# tests/compare_reports.py reads
UNREAD_BY_DESIGN = {
    "tractor.transport_matrix", "tractor.transform_tractor",
    "curvature.bianchi_check", "curvature.dual_cotton_3d",
    "curvature.warped_ricci_reference", "curvature.warped_nabla_reference",
    "analysis.bracket_closure_residual",
    "geometry.family_names",
}


def _unread_public_definitions() -> tuple[set, set]:
    """(every public top-level function and class as module.name, those that
    no src/ code loads as a Name or Attribute outside their own definition)."""
    defined = {}
    loads = {}                       # name -> [(module, node)] of every load
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                loads.setdefault(name, []).append((path.stem, node))
    unread = set()
    for qualified, definition in defined.items():
        module, name = qualified.split(".")
        inside = {id(n) for n in ast.walk(definition)}
        if all(m == module and id(n) in inside for m, n in loads.get(name, [])):
            unread.add(qualified)
    return set(defined), unread


def test_every_public_definition_has_a_reader_in_src():
    defined, unread = _unread_public_definitions()
    assert UNREAD_BY_DESIGN <= defined, sorted(UNREAD_BY_DESIGN - defined)
    assert not unread - UNREAD_BY_DESIGN, (
        f"read only outside src/: {sorted(unread - UNREAD_BY_DESIGN)}")


# the product-table layout that only ``jets`` reads: every cut of a jet to a
# lower order, of the tables and of the inverse steps, is made there
TABLE_LAYOUT = {"mul_i", "mul_j", "mul_k", "sizes_by_order"}


def test_only_jets_reads_the_product_table_layout():
    readers = set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "jets":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in TABLE_LAYOUT:
                readers.add(f"{path.stem}: {node.attr}")
    assert not readers, sorted(readers)
