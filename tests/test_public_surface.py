"""No dead public helpers: every public function and method of the package
is named somewhere in the package or the benchmark, outside its own body.

Tests do not count as callers.  A name that only tests reach is either a
check that is still waiting for a suite to run it, listed below with its
reason, or dead code to delete.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plabicflow"

# public names that no code in the package or the benchmark names, each
# with the reason it stays
ALLOWED = {
    "plabic.flow_weight": "the reference flow route, named by the benchmark's "
                          "per-layer metrics; ROADMAP item 2's benchmark "
                          "change moves it into the tests",
    "superpot.gvector_cone_ineqs": "a cone check that no suite runs yet; "
                                   "ROADMAP item 5's cone-fill suite will run it",
    "laurent.lp_exact_div": "exact division, named by the benchmark's per-layer "
                            "metrics (laurent.lp_exact_div.*) and so wrapped by "
                            "its tracer; mutation divides along chains on packed "
                            "terms, and the exchange-binomial substitution "
                            "oracle of the tests divides with it",
    "combinat.max_diag": "MaxDiag of one pair of k-subsets, checked; kappa "
                         "rows walk the same kernel on the seed's masks "
                         "(combinat._max_diag_masks), which are checked "
                         "where the seed is made",
}


def _names(node) -> Counter:
    """Every identifier a node's subtree names: variables, attributes and
    imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
    return out


def _public_defs(tree: ast.Module):
    """(qualified name, def) for each public top-level function and each
    public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def test_every_public_helper_has_a_caller_outside_tests():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    named = Counter()
    for tree in trees.values():
        named += _names(tree)
    unreferenced = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in _public_defs(tree):
            if named[node.name] == _names(node)[node.name]:
                unreferenced.add(f"{path.stem}.{qualname}")
    assert unreferenced == set(ALLOWED)


def test_one_function_expands_and_divides_exchange_chains():
    # X- and A-mutation share one packed exchange step: Pascal's rows of
    # (1 + y)^E and the chain division by (1 + y)^D are read in the body
    # of one function of the package
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    for name in ("_pascal_row", "_divide_chain"):
        users = [f"{path.stem}.{node.name}" for path, tree in trees.items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and _names(node)[name]]
        assert users == ["laurent._exchange"], name


def test_one_module_knows_the_packed_field_format():
    # every packed exponent vector is a laurent.Packing: no other module of
    # the package packs or unpacks fields with struct
    importers = sorted(
        path.stem for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "struct")
    assert importers == ["laurent"]
