"""Command-line front end: verify, search, families, curve pipeline, Pell ladder.

Exit codes are a stable contract: 0 success, 1 domain failure (degenerate
parameter, failed verification, a result past Python's int-to-text digit
limit), 2 usage error.  Every exit-1 failure writes one ``<command>: <message>``
line to stderr.  Only the domain error classes that ``main`` catches exit 1;
any other exception is a bug and ends in a traceback.  A reader that closes
stdout early (``| head``) also ends the run with exit 1 and a
``<command>: broken pipe`` line.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from biquadrates.curve import (
    DegenerateCurveError,
    curve_from_parameter,
    extra_point,
    mul_scalar,
    on_curve,
    point_P,
)
from biquadrates.derive import (
    PipelineError,
    auto_sign,
    evaluate_param,
    signed_multiple,
    solution_from_nP,
    solution_from_quartic_point,
    weierstrass_to_quartic,
)
from biquadrates.exact import (
    CanonicalKey,
    DegenerateSolutionError,
    SolutionSix,
    canonicalize,
    check_solution,
)
from biquadrates.families import FAMILIES
from biquadrates.identity import ALL_VERIFIERS
from biquadrates.pell import pell3_nth, pell_to_solution
from biquadrates.poly import PoleError, RatFn, format_poly
from biquadrates.search import SearchConfig, search


class NotASolutionError(ValueError):
    """The six integers given to ``verify`` fail the equation."""


class DigitLimitError(ValueError):
    """An exact result has more digits than Python turns into text."""


@contextmanager
def _int_text():
    """Report Python's int-to-text digit limit as a DigitLimitError.

    Wraps only statements that turn exact values into text, whose one
    ValueError is that limit; the message keeps Python's wording.
    """
    try:
        yield
    except ValueError as exc:
        raise DigitLimitError(str(exc)) from None


@dataclass(frozen=True)
class OutputRecord:
    """One emitted solution with its canonical key and provenance."""

    solution: SolutionSix
    canonical: CanonicalKey
    source: str
    parameter: Optional[str] = None


def _make_record(sol: SolutionSix, source: str, parameter=None) -> OutputRecord:
    if not check_solution(sol):
        raise PipelineError("refusing to emit a tuple that fails the equation")
    param = None if parameter is None else str(parameter)
    return OutputRecord(sol, canonicalize(sol), source, param)


def _key_text(key: CanonicalKey) -> str:
    pairs = [key.xpair, key.ypair, tuple(str(z) for z in key.zpair)]
    return " ".join("(%s,%s)" % (a, b) for a, b in pairs)


def _record_json(rec: OutputRecord) -> str:
    return json.dumps({
        "solution": [str(v) for v in rec.solution],
        "canonical": {
            "xpair": [str(v) for v in rec.canonical.xpair],
            "ypair": [str(v) for v in rec.canonical.ypair],
            "zpair": [str(v) for v in rec.canonical.zpair],
        },
        "source": rec.source,
        "parameter": rec.parameter,
    })


def _print_record(rec: OutputRecord, as_json: bool):
    with _int_text():
        if as_json:
            print(_record_json(rec))
            return
        print("solution: %s" % " ".join(str(v) for v in rec.solution))
        print("canonical: %s" % _key_text(rec.canonical))
        print("source: %s" % rec.source)
        if rec.parameter is not None:
            print("parameter: %s" % rec.parameter)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def cmd_verify(ns) -> int:
    sol = SolutionSix(*ns.values)
    lhs = (sol.x1**4 + sol.x2**4) * (sol.y1**4 + sol.y2**4)
    rhs = sol.z1**4 + sol.z2**4
    with _int_text():
        print("lhs = %d" % lhs)
        print("rhs = %d" % rhs)
        if lhs == rhs:
            print("PASS")
            return 0
        print("FAIL (difference %d)" % (lhs - rhs))
    raise NotASolutionError("the six integers are not a solution")


def cmd_search(ns) -> int:
    try:
        cfg = SearchConfig(bx=ns.bx, by=ns.by)
    except ValueError as exc:
        print("search: %s" % exc, file=sys.stderr)
        return 2
    results = search(cfg)
    if ns.csv:
        print("x1,x2,y1,y2,z1,z2")
        for sol in results:
            print(",".join(str(v) for v in sol))
    elif ns.json:
        for sol in results:
            print(_record_json(_make_record(sol, "search")))
    else:
        for sol in results:
            print(" ".join(str(v) for v in sol))
    return 0


def _print_family(ps, descending: bool) -> int:
    names = ("x1", "x2", "y1", "y2", "z1", "z2")
    for name, poly in zip(names, ps.polys()):
        print("%s = %s" % (name, format_poly(poly, ps.var, descending)))
    print("degrees: %s" % " ".join(str(d) for d in ps.degrees()))
    if not ps.residual().is_zero:
        raise PipelineError("the residual is nonzero")
    print("residual: 0")
    return 0


def _emit_family_value(ps, value: Fraction, source: str, as_json: bool) -> int:
    sol = evaluate_param(ps, value)
    if 0 in sol:
        raise DegenerateSolutionError(
            "degenerate at parameter %s (zero coordinate)" % value)
    _print_record(_make_record(sol, source, value), as_json)
    return 0


def cmd_family(ns) -> int:
    ps = FAMILIES[ns.name]()
    if ns.symbolic:
        return _print_family(ps, ns.descending)
    return _emit_family_value(ps, ns.param, "family_" + ns.name, ns.json)


def cmd_curve(ns) -> int:
    sign = auto_sign(ns.n) if ns.sign == "auto" else ns.sign
    if ns.symbolic:
        fam = solution_from_nP(ns.n, sign)
        print("sign: %s" % sign)
        return _print_family(fam, ns.descending)
    w, pt = signed_multiple(ns.n, ns.m**4, sign)
    with _int_text():
        print("nP: (%s, %s)" % (w.x, w.y))
        print("sign: %s" % sign)
        print("curve point: (%s, %s)" % (pt.x, pt.y))
    qp = weierstrass_to_quartic(ns.m**4, pt)
    u = Fraction(qp.u)
    with _int_text():
        print("quartic point: (%s, %s)" % (qp.u, qp.v))
        print("U = p/q: p = %d, q = %d" % (u.numerator, u.denominator))
    sol = solution_from_quartic_point(qp, ns.m)
    _print_record(_make_record(sol, "curve_nP", ns.m), ns.json)
    return 0


def cmd_pell(ns) -> int:
    if ns.k is not None:
        sol = pell_to_solution(pell3_nth(ns.k))
        _print_record(_make_record(sol, "pell", ns.k), ns.json)
        return 0
    return _emit_family_value(FAMILIES["eq26"](), ns.t, "family_eq26", ns.json)


def _selftest_curve_closure() -> bool:
    mm = RatFn.gen()
    sym = curve_from_parameter(mm**4)
    if not (on_curve(sym, point_P(mm**4)) and on_curve(sym, extra_point(mm))):
        return False
    for m0 in (1, 2):
        c = curve_from_parameter(m0**4)
        p = point_P(m0**4)
        for pt in (mul_scalar(c, 2, p), mul_scalar(c, 3, p), extra_point(m0)):
            if not on_curve(c, pt):
                return False
    return True


def _selftest_high_multiple() -> bool:
    fam = solution_from_nP(3)
    degs = fam.degrees()
    return fam.residual().is_zero and degs[4] >= 120 and degs[5] >= 120


def cmd_selftest(ns) -> int:
    checks = [(name, fn) for name, fn in ALL_VERIFIERS.items()]
    checks.append(("curve_closure", _selftest_curve_closure))
    if not ns.quick:
        checks.append(("curve_high_multiple", _selftest_high_multiple))
    failed = []
    for name, fn in checks:
        ok = bool(fn())
        print("%s: %s" % (name, "PASS" if ok else "FAIL"))
        if not ok:
            failed.append(name)
    if failed:
        raise PipelineError("failed %s" % ", ".join(failed))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquadrates",
        description="Products of sums of two fourth powers that are again "
                    "sums of two fourth powers: search, verify, derive.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check six integers against the equation")
    p.add_argument("values", nargs=6, type=int, metavar="N")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="enumerate solutions within bounds")
    p.add_argument("--bx", type=int, required=True, help="largest x2")
    p.add_argument("--by", type=int, required=True, help="largest y2")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("family", help="evaluate or print a published family")
    p.add_argument("name", choices=tuple(sorted(FAMILIES)))
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--param", type=_fraction, metavar="a/b")
    mode.add_argument("--symbolic", action="store_true")
    p.add_argument("--descending", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("curve", help="derive a solution from a curve multiple")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="which multiple of the base point")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--m", type=_fraction, metavar="a/b")
    mode.add_argument("--symbolic", action="store_true")
    p.add_argument("--sign", choices=("auto", "plus", "minus"), default="auto")
    p.add_argument("--descending", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("pell", help="solutions from the Pell ladder or slice")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--k", type=_positive_int, help="ladder index")
    mode.add_argument("--t", type=_fraction, metavar="a/b",
                      help="rational slice parameter")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("selftest", help="run the symbolic verifier suite")
    p.add_argument("--quick", action="store_true",
                   help="skip the high-multiple degree check")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (PipelineError, PoleError, DegenerateSolutionError,
            DegenerateCurveError, NotASolutionError, DigitLimitError) as exc:
        print("%s: %s" % (ns.command, exc), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: flush what is left to devnull at shutdown
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("%s: broken pipe" % ns.command, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
