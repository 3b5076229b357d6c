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


def _imports(tree):
    """(the module an import names, the function it sits in or None) of every
    import in a module of the package; ``from a import b`` names a and a.b."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((a.name, func) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                module = ".".join(["biquadrates"] * bool(child.level)
                                  + [child.module] * bool(child.module))
                found.append((module, func))
                found.extend(("%s.%s" % (module, a.name), func) for a in child.names)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    visit(tree, None)
    return found


def test_only_usage_imports_argparse_and_only_parse_args_imports_usage():
    # a plain command line is read in cli without argparse: argparse arrives
    # with biquadrates.usage, which cli imports only where parse_args hands a
    # line over
    argparse, usage = [], []
    for path in sorted(SRC.glob("*.py")):
        for name, func in _imports(ast.parse(path.read_text(), str(path))):
            if name.split(".")[0] == "argparse":
                argparse.append(path.stem)
            if name == "biquadrates.usage":
                usage.append((path.stem, func))
    assert set(argparse) == {"usage"}
    assert set(usage) == {("cli", "parse_args")}


# poly's packed format for Kronecker substitution, which curve's ladder and
# derive's zero test reach only through these
PACKED_FORMAT = {"_width_above", "_pack", "_pack_pm", "_unpack"}


def _rounds_to_whole_bytes(node) -> bool:
    """x & -8, or a product by 8 of a floor quotient (x // 8 * 8, -(-x // k) * 8)."""
    def eight(n, sign):
        return (isinstance(n, ast.Constant) and n.value == 8 * sign
                or isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)
                and eight(n.operand, -sign))

    sides = (node.left, node.right)
    if isinstance(node.op, ast.BitAnd):
        return any(eight(n, -1) for n in sides)
    return isinstance(node.op, ast.Mult) and any(
        eight(n, 1) and any(isinstance(d, ast.BinOp) and isinstance(d.op, ast.FloorDiv)
                            for d in ast.walk(other))
        for n, other in (sides, sides[::-1]))


def test_only_poly_knows_the_packed_format():
    # whole-byte widths, the bytes of a packed integer and its balanced
    # digits live in poly: no other module converts an int to or from bytes
    # or rounds a width to whole bytes, and curve and derive import the
    # format's functions rather than packing themselves
    found, used = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used[path.stem] = {name.rsplit(".", 1)[1] for name, _ in _imports(tree)
                           if name.startswith("biquadrates.poly.")}
        if path.stem == "poly":
            continue
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes")
                  or isinstance(node, ast.BinOp) and _rounds_to_whole_bytes(node)]
    assert found == []
    assert used["curve"] & PACKED_FORMAT == {"_unpack", "_width_above"}
    assert used["derive"] & PACKED_FORMAT == {"_pack_pm", "_width_above"}
    assert all(not (names & PACKED_FORMAT) for stem, names in used.items()
               if stem not in ("curve", "derive"))
    # the rule sees each rounding the three sites once wrote out
    for text in ("(b + 9) & -8", "(b + 8) & -8", "-(-k // 16) * 8", "k // 8 * 8"):
        assert _rounds_to_whole_bytes(ast.parse(text, mode="eval").body)


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


def test_code_lines_counts_only_lines_with_code(tmp_path, capsys):
    import code_lines

    source = '''"""A module docstring
over two lines."""

# a comment
X = (1 +    # a comment after code
     2)
TEXT = """a string that is
no docstring"""


def f():
    """A function docstring."""
    return [X,
            TEXT]
'''
    # X's two lines, TEXT's two, def f and the return's two lines
    assert code_lines.code_lines(source) == 7
    (tmp_path / "m.py").write_text(source)
    (tmp_path / "n.py").write_text("Y = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out[1:]] == [
        ["14", "7", str(tmp_path / "m.py")], ["1", "1", str(tmp_path / "n.py")],
        ["15", "8", "total"]]
