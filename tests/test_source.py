"""Rules on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "biquadrates"


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


# the field route over Q(M) and the affine group law are the tests' oracle
# (tests/oracles.py): the library has one kind of curve point, a Jacobian
# triple over Z or Z[M]
FIELD_ROUTE = {"RatFn", "CurvePoint", "mul_scalar"}


def _bound_names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
    return names


def test_no_field_route_in_the_library():
    found = {"%s: %s" % (path.name, name)
             for path in sorted(SRC.glob("*.py"))
             for name in _bound_names(ast.parse(path.read_text(), str(path))) & FIELD_ROUTE}
    assert found == set()


def test_curve_takes_nothing_from_fractions():
    tree = ast.parse((SRC / "curve.py").read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert not {m for m in modules if m and m.split(".")[0] == "fractions"}
    assert "Fraction" not in _bound_names(tree)
