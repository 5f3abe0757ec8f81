"""Every public name of flwave has a caller or states a result of the paper.

A name in a module's ``__all__`` passes when it is used as an identifier
(a name or an attribute, not an import and not a string) somewhere in
``src/`` or ``bench/`` outside its own definition, when the benchmark
traces it (``bench/spans.py`` ``WRAPPED``), or when it is on ``KEPT``.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flwave"

# Public names with no caller, kept because each states a result or a
# convention of the paper (the docstrings say which).
KEPT = {
    # L^p side of the lattice Parseval identity and of Young's inequality
    ("grid", "lp_norm"),
    ("flwave", "lp_norm"),
    # the Theta/Sigma direction split of the wave-front definition
    ("wavefront", "regular_directions"),
    # the cone split g + h in the product wave-front proofs
    ("wavefront", "split_regular"),
    # the transpose identity of T_F behind the q <-> q' duality
    ("bilinear", "tf_dual_pair"),
    # the semilinear equation P(D) f = G(x, J_k f)
    ("semilinear", "demo_solve"),
}


def _literal(tree: ast.Module, name: str):
    """The value of the module-level literal assignment ``name = ...``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in node.targets)


def _identifiers(node: ast.AST) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


@functools.cache
def _trees() -> dict:
    files = sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("bench/**/*.py"))
    return {path: ast.parse(path.read_text()) for path in files}


@functools.cache
def _nodes() -> tuple:
    """(path, node, its identifiers) of every top-level node, once."""
    return tuple((path, node, _identifiers(node))
                 for path, tree in _trees().items() for node in tree.body)


def _module(path: Path) -> str:
    return "flwave" if path.name == "__init__.py" else path.stem


def _uncalled(kept) -> set:
    """(module, name) of every public name with no caller, not in kept."""
    trees = _trees()
    spans = trees[ROOT / "bench" / "spans.py"]
    wrapped = {(mod, name) for mod, names in _literal(spans, "WRAPPED")
               for name in names}
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _literal(trees[path], "__all__") or ():
            key = (_module(path), name)
            if key in wrapped or key in kept:
                continue
            if not any(name in used for other, node, used in _nodes()
                       if not (other == path and _defines(node, name))):
                out.add(key)
    return out


def test_every_public_name_has_a_caller_or_states_a_result():
    assert _uncalled(KEPT) == set()


def test_kept_names_have_no_caller():
    # a kept name that gains a caller, or leaves __all__, leaves KEPT too
    assert _uncalled(set()) == KEPT


def test_only_the_grid_flattens_indices():
    # every flat grid or lattice index comes from TorusGrid.flat
    callers = {path.name for path, tree in _trees().items()
               if path.parent == PACKAGE
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and node.attr == "ravel_multi_index"}
    assert callers == {"grid.py"}
