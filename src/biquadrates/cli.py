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
``derive.published_family``, the one builder of the table
``derive.FAMILIES``, which proves each by its full residual once per process.
Every emitted solution is turned into text by ``_record`` and then checked
once, by ``_proved``, so a tuple past the digit limit is refused unproved;
``selftest`` runs ``identity.ALL_VERIFIERS`` in order.

``parse_args`` reads a command line from the table ``COMMANDS`` by
argparse's rules for these commands and holds no state between calls.
``_plain`` reads a plain line: the command, whole option names given once,
each value option followed by its value, the positional's values in one
run, a value starting with "-" only as a negative integer, and every value
valid.  Every other line (a prefix, an ``=`` value, ``--``, ``-h``, a
repeated or clashing option, a missing or bad value) goes to argparse
itself: ``usage``, loaded on demand, builds its parser from the table, so
the help and error text are argparse's; the two readers share nothing but
the table.  The table binds the ``cmd_*`` handlers at import, so patching a
``cmd_*`` name does not reach ``main``.  ``build_parser()`` returns the
table, since there is nothing to build; it remains because perfbench's setup
times importing this module and calling it.

A one-shot process compiles only the modules its command runs.  This module
binds ``exact`` alone; each handler imports the rest as
``import biquadrates.derive as derive`` and calls through the module, so a
name patched in its module reaches every command.  ``verify`` loads nothing
more, ``search`` loads ``search``, ``pell --k`` loads ``pell``, ``curve``,
``family`` and ``pell --t`` load ``derive`` (with ``curve``, ``poly``,
``families`` and ``pell``), ``selftest`` loads ``identity`` (which runs
search's filters, so ``search`` too), and ``--json`` loads ``json``.
Only a line that is not plain loads ``usage`` (and ``argparse``), and only a
rational value, a derivation or a key with a fractional z-pair loads
``fractions``.
``main``'s domain errors live in ``exact``.
"""

from __future__ import annotations

import os
import sys
from math import gcd
from types import SimpleNamespace

from biquadrates.exact import (
    DegenerateCurveError,
    DegenerateSolutionError,
    PipelineError,
    PoleError,
    SolutionSix,
    canonicalize,
    check_solution,
)


def __getattr__(name):
    """``cli.search`` is ``biquadrates.search.search``, imported on first read.

    perfbench/test_bench.py reads ``cli.search``; ROADMAP item 1's benchmark
    change drops that read and deletes this hook.
    """
    if name != "search":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import biquadrates.search as search
    return search.search


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
        import json
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


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def fraction(text: str) -> Fraction:
    # Fraction("1e3000000000") would compute 10**3000000000
    if "e" in text or "E" in text:
        raise ValueError("no exponent notation")
    from fractions import Fraction   # here: only a rational value loads fractions
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
    import biquadrates.search as search
    try:
        results = search.search(ns.bx, ns.by)
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
    import biquadrates.poly as poly
    names = ("x1", "x2", "y1", "y2", "z1", "z2")
    for name, p in zip(names, ps.polys()):
        print("%s = %s" % (name, poly.format_poly(p, ps.var, descending)))
    print("degrees: %s" % " ".join(str(d) for d in ps.degrees()))
    print("residual: 0")
    return 0


def _emit_family_value(name: str, value: Fraction, as_json: bool) -> int:
    import biquadrates.derive as derive
    sol = derive.evaluate_param(derive.published_family(name), value, check=False)
    if 0 in sol:
        raise DegenerateSolutionError(
            "degenerate at parameter %s (zero coordinate)" % value)
    print(_record(sol, "family_" + name, value, as_json))
    return 0


def cmd_family(ns) -> int:
    if not ns.symbolic:
        return _emit_family_value(ns.name, ns.param, ns.json)
    import biquadrates.derive as derive
    return _print_family(derive.published_family(ns.name), ns.descending)


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
    import biquadrates.curve as curve
    import biquadrates.derive as derive
    sign = derive._resolve_sign(ns.sign)
    if ns.symbolic:
        fam = derive.solution_from_nP(ns.n, sign)
        print("sign: %s" % sign)
        return _print_family(fam, ns.descending)
    M = ns.m**4
    x, y, z, *_ = nP = curve.multiple_P(ns.n, M.numerator, M.denominator)
    with _int_text():
        # a point past the digit limit fails here, before the map runs
        wx, wy = _ratio_text(x, z, 2), _ratio_text(y, z, 3)
    # -nP's y is nP's with the sign flipped (0 prints unsigned)
    cy = wy if sign == "plus" or wy == "0" else wy[1:] if wy[0] == "-" else "-" + wy
    # the map's identity proves the point before any of it is printed
    p, q, s = derive.quartic_image(nP, M, sign)
    print("nP: (%s, %s)\nsign: %s\ncurve point: (%s, %s)" % (wx, wy, sign, wx, cy))
    with _int_text():
        # to_quartic gives q > 0 with p/q and s/q^2 in lowest terms
        tp, tq = str(p), str(q)
        u, v = (tp, str(s)) if q == 1 else (tp + "/" + tq, "%s/%s" % (s, q * q))
        print("quartic point: (%s, %s)\nU = p/q: p = %s, q = %s" % (u, v, tp, tq))
    print(_record(derive._clear_image(p, q, s, ns.m), "curve_nP", ns.m, ns.json))
    return 0


def cmd_pell(ns) -> int:
    if ns.k is not None:
        import biquadrates.pell as pell
        sol = pell.pell_to_solution(pell.pell3_nth(ns.k))
        print(_record(sol, "pell", ns.k, ns.json))
        return 0
    return _emit_family_value("eq26", ns.t, ns.json)


def cmd_selftest(ns) -> int:
    import biquadrates.identity as identity
    failed = []
    for name, fn in identity.ALL_VERIFIERS.items():
        if ns.quick and name == "curve_high_multiple":
            continue
        ok = bool(fn())
        print("%s: %s" % (name, "PASS" if ok else "FAIL"))
        if not ok:
            failed.append(name)
    if failed:
        raise PipelineError("failed %s" % ", ".join(failed))
    return 0


# Each command: its handler and help; its positional (dest, count, converter,
# metavar or choices) or None; its options in argparse's order, as name:
# (converter or None for a flag, metavar or choices, default, help); and its
# groups (required, names) of options that exclude each other, where a
# required group of one is a required option.
_FLAG = (None, None, False, "")
_JSON = (None, None, False, "print each solution as a JSON record")
_JSON_OR_SYMBOLIC = (None, None, False, "print the solution as a JSON record "
                                        "(--symbolic prints none)")
COMMANDS = {
    "verify": (cmd_verify, "check six integers against the equation",
               ("values", 6, int, "N"), {}, ()),
    "search": (cmd_search, "enumerate solutions within bounds", None,
               {"--bx": (int, "BX", None, "largest x2"),
                "--by": (int, "BY", None, "largest y2"), "--csv": _FLAG, "--json": _JSON},
               ((True, ("--bx",)), (True, ("--by",)), (False, ("--csv", "--json")))),
    "family": (cmd_family, "evaluate or print a published family",
               ("name", 1, str, ("eq20", "eq21", "eq22", "eq26")),
               {"--param": (fraction, "a/b", None, ""), "--symbolic": _FLAG,
                "--descending": _FLAG, "--json": _JSON_OR_SYMBOLIC},
               ((True, ("--param", "--symbolic")),)),
    "curve": (cmd_curve, "derive a solution from a curve multiple", None,
              {"--n": (positive, "N", None, "which multiple of the base point"),
               "--m": (fraction, "a/b", None, ""), "--symbolic": _FLAG,
               "--sign": (str, ("auto", "plus", "minus"), "auto",
                          "nP (plus, odd j=2n+1) or -nP (minus, even j=2n); auto: minus"),
               "--descending": _FLAG, "--json": _JSON_OR_SYMBOLIC},
              ((True, ("--n",)), (True, ("--m", "--symbolic")))),
    "pell": (cmd_pell, "solutions from the Pell ladder or slice", None,
             {"--k": (positive, "K", None, "ladder index"),
              "--t": (fraction, "a/b", None, "rational slice parameter"),
              "--json": _JSON},
             ((True, ("--k", "--t")),)),
    "selftest": (cmd_selftest, "run the symbolic verifier suite", None,
                 {"--quick": (None, None, False, "skip the high-multiple degree check")},
                 ()),
}
# what biquadrates -h says of the program itself
_ABOUT = ("Products of sums of two fourth powers that are again sums of two "
          "fourth powers: search, verify, derive.")


def build_parser():
    """The table that ``parse_args`` reads: there is nothing to build."""
    return COMMANDS


def _plain_value(convert, choices, text):
    """text converted, if it is a plain value and among the choices, else None."""
    if text is None or text[:1] == "-" and not text[1:].isdecimal():
        return None
    try:
        value = convert(text)
    except (TypeError, ValueError):
        return None
    return value if isinstance(choices, str) or value in choices else None


def _plain(args):
    """The namespace of a plain command line, or None to hand the line over.

    Plain is the command first, then whole option names, each at most once
    and each value option followed by its value, and the positional's values
    in one run; a value may start with "-" only as a negative integer.  Every
    value must convert and be among its choices, no two options of a group
    may be given, and every required argument must be.
    """
    if not args or args[0] not in COMMANDS:
        return None
    func, _, pos, opts, groups = COMMANDS[args[0]]
    ns = SimpleNamespace(command=args[0], func=func,
                         **{name[2:]: spec[2] for name, spec in opts.items()})
    count = pos[1] if pos else 0
    seen, values, rest = set(), [], iter(args[1:])
    for tok in rest:
        if tok in opts and tok not in seen:
            if 0 < len(values) < count:   # an option inside the positional's run
                return None
            convert, choices = opts[tok][:2]
            value = (True if convert is None
                     else _plain_value(convert, choices, next(rest, None)))
            if value is None:
                return None
            seen.add(tok)
            setattr(ns, tok[2:], value)
        elif len(values) < count:
            values.append(_plain_value(*pos[2:], tok))
            if values[-1] is None:
                return None
        else:
            return None
    if len(values) < count:
        return None
    if pos:
        setattr(ns, pos[0], values if count > 1 else values[0])
    for need, group in groups:
        given = seen.intersection(group)
        if len(given) > 1 or need and not given:
            return None
    return ns


def parse_args(argv=None):
    """The namespace of a command line, read by argparse's rules for this CLI:
    a usage error exits 2 and -h/--help exits 0, each writing what argparse writes.
    A plain line is read here; argparse, built in ``usage``, reads the rest."""
    args = sys.argv[1:] if argv is None else list(argv)
    ns = _plain(args)
    if ns is None:
        import biquadrates.usage as usage   # here only: a plain line loads no argparse
        ns = usage.parse_args(args, COMMANDS, _ABOUT)
    return ns


def main(argv=None) -> int:
    ns = parse_args(argv)
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
