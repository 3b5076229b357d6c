"""Command-line front end: verify, search, families, curve pipeline, Pell ladder.

Exit codes are a stable contract: 0 success, 1 domain failure (degenerate
parameter, failed verification, a result past Python's int-to-text digit
limit), 2 usage error.  Every exit-1 failure writes one ``<command>: <message>``
line to stderr.  Only the domain error classes that ``main`` catches exit 1;
any other exception is a bug and ends in a traceback.  A reader that closes
stdout early (``| head``) also ends the run with exit 1 and a
``<command>: broken pipe`` line, and a ``MemoryError`` (a job past the
process's memory limit) with a ``<command>: out of memory`` line.  Data goes
to stdout, diagnostics to stderr.

The commands only call the library and print; ``curve --m`` maps nP over Z
as ``--symbolic`` does over Z[M] (``derive.quartic_image``), and ``--sign``
resolves through ``derive._resolve_sign``, where ``auto`` is ``minus``;
``family`` and ``pell --t`` take their family from
``derive.published_family``, which builds each once per process.
Every emitted solution is turned into text by ``_record`` and then checked
once, by ``_proved``, so a tuple past the digit limit is refused unproved;
``selftest`` runs ``identity.ALL_VERIFIERS`` in order.

``main`` builds its parser on its first call and reuses it: parsing leaves
a parser as it was, and building one costs about a millisecond, most of a
short job.  ``build_parser()`` returns a new parser on every call, and
nothing is built at import.  The parser binds the ``cmd_*`` handlers when
it is built, so patching a ``cmd_*`` name after the first ``main`` call
does not reach ``main``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import gcd

from biquadrates.curve import DegenerateCurveError, multiple_P
from biquadrates.derive import (
    FAMILIES,
    PipelineError,
    _clear_image,
    _resolve_sign,
    evaluate_param,
    published_family,
    quartic_image,
    solution_from_nP,
)
from biquadrates.exact import (
    DegenerateSolutionError,
    SolutionSix,
    canonicalize,
    check_solution,
)
from biquadrates.identity import ALL_VERIFIERS
from biquadrates.pell import pell3_nth, pell_to_solution
from biquadrates.poly import PoleError, format_poly
from biquadrates.search import search


class NotASolutionError(ValueError):
    """The six integers given to ``verify`` fail the equation."""


class DigitLimitError(ValueError):
    """An exact result has more digits than Python turns into text."""


class _int_text:
    """Report Python's int-to-text digit limit as a DigitLimitError.

    Wraps only statements that turn exact values into text, whose one
    ValueError is that limit; the message keeps Python's wording.
    """

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, ValueError):
            raise DigitLimitError(str(exc)) from None


def _proved(sol: SolutionSix) -> SolutionSix:
    """sol, after the one equation check of a solution about to be emitted."""
    if not check_solution(sol):
        raise PipelineError("refusing to emit a tuple that fails the equation")
    return sol


def _record(sol: SolutionSix, source: str, parameter=None, as_json=False) -> str:
    """The text of one emitted solution: the tuple, its canonical key and
    its provenance, as labelled lines or as one JSON object."""
    # a tuple past the digit limit is refused before it is proved
    with _int_text():
        texts = [str(v) for v in sol]
    key = canonicalize(_proved(sol), check=False)
    param = None if parameter is None else str(parameter)
    with _int_text():
        # equal integers print the same: an integral key entry that is an
        # entry of |sol| reuses that entry's text
        known = {abs(v): t.lstrip("-") for v, t in zip(sol, texts)}
        key_texts = [v.denominator == 1 and known.get(v.numerator) or str(v)
                     for pair in key for v in pair]
    if as_json:
        return json.dumps({
            "solution": texts,
            "canonical": dict(zip(key._fields,
                                  (key_texts[:2], key_texts[2:4], key_texts[4:]))),
            "source": source,
            "parameter": param,
        })
    lines = ["solution: %s" % " ".join(texts),
             "canonical: (%s,%s) (%s,%s) (%s,%s)" % tuple(key_texts),
             "source: %s" % source]
    if param is not None:
        lines.append("parameter: %s" % param)
    return "\n".join(lines)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _fraction(text: str) -> Fraction:
    # Fraction("1e3000000000") would compute 10**3000000000
    if "e" in text or "E" in text:
        raise ValueError("no exponent notation")
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
        results = search(ns.bx, ns.by)
    except ValueError as exc:
        print("search: %s" % exc, file=sys.stderr)
        return 2
    if ns.csv:
        print("x1,x2,y1,y2,z1,z2")
    for sol in results:
        if ns.json:
            print(_record(sol, "search", as_json=True))
        else:
            print(("," if ns.csv else " ").join(str(v) for v in _proved(sol)))
    return 0


def _print_family(ps, descending: bool) -> int:
    """Print a family that the caller has proved, ending in ``residual: 0``."""
    names = ("x1", "x2", "y1", "y2", "z1", "z2")
    for name, poly in zip(names, ps.polys()):
        print("%s = %s" % (name, format_poly(poly, ps.var, descending)))
    print("degrees: %s" % " ".join(str(d) for d in ps.degrees()))
    print("residual: 0")
    return 0


def _emit_family_value(ps, value: Fraction, source: str, as_json: bool) -> int:
    sol = evaluate_param(ps, value, check=False)
    if 0 in sol:
        raise DegenerateSolutionError(
            "degenerate at parameter %s (zero coordinate)" % value)
    print(_record(sol, source, value, as_json))
    return 0


def cmd_family(ns) -> int:
    ps = published_family(ns.name)
    if ns.symbolic:
        if not ps.residual().is_zero:
            raise PipelineError("the residual is nonzero")
        return _print_family(ps, ns.descending)
    return _emit_family_value(ps, ns.param, "family_" + ns.name, ns.json)


def _ratio_text(num: int, z: int, k: int) -> str:
    """str(Fraction(num, z^k)), z != 0, reduced at z's width: with g = gcd(num, z),
    gcd(num, z^k) = g gcd(num/g, g^(k-1)), as a prime in num a times and in z
    b times is in both min(a, kb) times (if a < b, num/g holds it no more)."""
    g = gcd(num, z)
    g *= gcd(num // g, g ** (k - 1))
    num, den = num // g, z**k // g
    if den < 0:
        num, den = -num, -den
    return str(num) if den == 1 else "%s/%s" % (num, den)


def cmd_curve(ns) -> int:
    sign = _resolve_sign(ns.sign)
    if ns.symbolic:
        fam = solution_from_nP(ns.n, sign)
        print("sign: %s" % sign)
        return _print_family(fam, ns.descending)
    M = ns.m**4
    x, y, z, *_ = nP = multiple_P(ns.n, M.numerator, M.denominator)
    with _int_text():
        # a point past the digit limit fails here, before the map runs
        wx, wy = _ratio_text(x, z, 2), _ratio_text(y, z, 3)
    # -nP's y is nP's with the sign flipped (0 prints unsigned)
    cy = wy if sign == "plus" or wy == "0" else wy[1:] if wy[0] == "-" else "-" + wy
    # the map's identity proves the point before any of it is printed
    p, q, s = quartic_image(nP, M, sign)
    print("nP: (%s, %s)\nsign: %s\ncurve point: (%s, %s)" % (wx, wy, sign, wx, cy))
    with _int_text():
        # to_quartic gives q > 0 with p/q and s/q^2 in lowest terms
        tp, tq = str(p), str(q)
        u, v = (tp, str(s)) if q == 1 else (tp + "/" + tq, "%s/%s" % (s, q * q))
        print("quartic point: (%s, %s)\nU = p/q: p = %s, q = %s" % (u, v, tp, tq))
    print(_record(_clear_image(p, q, s, ns.m), "curve_nP", ns.m, ns.json))
    return 0


def cmd_pell(ns) -> int:
    if ns.k is not None:
        sol = pell_to_solution(pell3_nth(ns.k))
        print(_record(sol, "pell", ns.k, ns.json))
        return 0
    return _emit_family_value(published_family("eq26"), ns.t, "family_eq26", ns.json)


def cmd_selftest(ns) -> int:
    failed = []
    for name, fn in ALL_VERIFIERS.items():
        if ns.quick and name == "curve_high_multiple":
            continue
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
    p.add_argument("--sign", choices=("auto", "plus", "minus"), default="auto",
                   help="branch: nP (plus, the family of jR for the odd "
                        "j=2n+1) or -nP (minus, the even j=2n); auto is the "
                        "lower-degree branch, minus")
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


_parser = None   # main's parser, built by its first call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    ns = _parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (PipelineError, PoleError, DegenerateSolutionError,
            DegenerateCurveError, NotASolutionError, DigitLimitError) as exc:
        print("%s: %s" % (ns.command, exc), file=sys.stderr)
        return 1
    except MemoryError:
        print("%s: out of memory" % ns.command, file=sys.stderr)
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
