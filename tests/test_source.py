"""Rules on the library's source text, and the record types it defines
without ``dataclasses`` or ``typing``."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from biquadrates import derive, exact, families, identity, pell
from biquadrates.poly import IPoly

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


def test_no_function_is_a_default_argument():
    # a function passed as a default argument is a hook that gives its
    # callee a second arithmetic for callers to choose; each default is
    # evaluated in its module, and a lambda is a function by its syntax
    found = []
    for path in sorted(SRC.glob("*.py")):
        name = "biquadrates" + ("" if path.stem == "__init__" else "." + path.stem)
        scope = dict(vars(importlib.import_module(name)))
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                    if isinstance(default, ast.Lambda) or callable(
                            eval(compile(ast.Expression(default), str(path), "eval"), scope)):
                        found.append("%s:%d" % (path.name, default.lineno))
    assert found == []


def test_no_dataclasses_or_typing_imported():
    # each CLI process imports the package, and dataclasses and typing cost
    # its start-up their imports and their class generation
    found = ["%s:%d %s" % (path.name, node.lineno, name)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                          else [node.module or ""] if isinstance(node, ast.ImportFrom)
                          else [])
             if name.split(".")[0] in ("dataclasses", "typing")]
    assert found == []


def test_record_types_are_immutable_hashable_tuples():
    X = IPoly.gen()
    polys = [X + k for k in range(6)]
    cases = [
        (exact.SolutionSix, (1, 2, 5, 6, 8, 13), 14),
        (exact.CanonicalKey, ((1, 2), (5, 6), (Fraction(4), Fraction(13, 2))),
         (Fraction(4), Fraction(13))),
        (pell.PellSolution, (7, 4), 5),
        (families.ParamSolution, (*polys, "t"), "m"),
        (identity.GridIdentity, (("a",), (2,), abs, (1,)), (0,)),
    ]
    for cls, values, other in cases:
        rec = cls(*values)
        twin = cls(*(IPoly(v.coeffs) if isinstance(v, IPoly) else v for v in values))
        assert rec == twin and hash(rec) == hash(twin)
        assert rec != cls(*values[:-1], other)
        assert tuple(getattr(rec, f) for f in rec._fields) == values
        for name in (rec._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, values[0])
    assert families.ParamSolution(*polys).var == "m"
    assert identity.GridIdentity(("a",), (2,), abs).offsets == ()
    for name in derive.FAMILIES:
        assert derive.published_family(name) is derive.published_family(name)
