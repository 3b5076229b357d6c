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

``parse_args`` reads a command line from the table ``COMMANDS`` by
argparse's rules for these commands, in one pass, and the parser holds no
state between calls.  The table binds the ``cmd_*`` handlers at import, so
patching a ``cmd_*`` name does not reach ``main``.  ``build_parser()``
returns the table, since there is nothing to build; it remains because
perfbench's setup times importing this module and calling it.

A one-shot process compiles only the modules its command runs.  This module
binds ``exact`` alone; each handler imports the rest as
``import biquadrates.derive as derive`` and calls through the module, so a
name patched in its module reaches every command.  ``verify`` loads nothing
more, ``search`` loads ``search``, ``pell --k`` loads ``pell``, ``curve``,
``family`` and ``pell --t`` load ``derive`` (with ``curve``, ``poly``,
``families`` and ``pell``), ``selftest`` loads ``identity`` (which runs
search's filters, so ``search`` too), and ``--json`` loads ``json``.
``main``'s domain errors live in ``exact``.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction
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
    ps = derive.published_family(ns.name)
    if not ps.residual().is_zero:
        raise PipelineError("the residual is nonzero")
    return _print_family(ps, ns.descending)


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
COMMANDS = {
    "verify": (cmd_verify, "check six integers against the equation",
               ("values", 6, int, "N"), {}, ()),
    "search": (cmd_search, "enumerate solutions within bounds", None,
               {"--bx": (int, "BX", None, "largest x2"),
                "--by": (int, "BY", None, "largest y2"), "--csv": _FLAG, "--json": _FLAG},
               ((True, ("--bx",)), (True, ("--by",)), (False, ("--csv", "--json")))),
    "family": (cmd_family, "evaluate or print a published family",
               ("name", 1, str, ("eq20", "eq21", "eq22", "eq26")),
               {"--param": (_fraction, "a/b", None, ""), "--symbolic": _FLAG,
                "--descending": _FLAG, "--json": _FLAG},
               ((True, ("--param", "--symbolic")),)),
    "curve": (cmd_curve, "derive a solution from a curve multiple", None,
              {"--n": (_positive_int, "N", None, "which multiple of the base point"),
               "--m": (_fraction, "a/b", None, ""), "--symbolic": _FLAG,
               "--sign": (str, ("auto", "plus", "minus"), "auto",
                          "nP (plus, odd j=2n+1) or -nP (minus, even j=2n); auto: minus"),
               "--descending": _FLAG, "--json": _FLAG},
              ((True, ("--n",)), (True, ("--m", "--symbolic")))),
    "pell": (cmd_pell, "solutions from the Pell ladder or slice", None,
             {"--k": (_positive_int, "K", None, "ladder index"),
              "--t": (_fraction, "a/b", None, "rational slice parameter"),
              "--json": _FLAG},
             ((True, ("--k", "--t")),)),
    "selftest": (cmd_selftest, "run the symbolic verifier suite", None,
                 {"--quick": (None, None, False, "skip the high-multiple degree check")},
                 ()),
}
# biquadrates itself: its positional is the command, which reads the rest
_TOP = (None, "Products of sums of two fourth powers that are again sums of two "
        "fourth powers: search, verify, derive.",
        ("command", 1, str, tuple(COMMANDS)), {}, ())
_HELP = ("-h", "--help")
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")   # argparse reads these as values


def build_parser():
    """The table that ``parse_args`` reads: there is nothing to build."""
    return COMMANDS


def _metavar(meta):
    return meta if isinstance(meta, str) else "{%s}" % ",".join(meta)


def _usage(command, full=False):
    """The usage line of ``biquadrates [command]`` and, if full, its help."""
    _, about, pos, opts, groups = COMMANDS.get(command, _TOP)
    spell = {n: n + " " + _metavar(s[1]) if s[0] else n for n, s in opts.items()}
    words = ["usage: biquadrates"] + [command] * bool(command) + ["[-h]"]
    for name in opts:
        need, group = next((g for g in groups if name in g[1]), (False, (name,)))
        if name == group[0]:
            text = " | ".join(map(spell.get, group))
            words.append(("(%s)" if group[1:] else "%s") % text if need else "[%s]" % text)
    usage = " ".join(words + ([_metavar(pos[3])] * pos[1] if pos else [])) + "\n"
    if not full:
        return usage
    rows = [(c, COMMANDS[c][1]) for c in COMMANDS] if command is None else [
        (spell[n], s[3]) for n, s in opts.items()]
    rows.append(("-h, --help", "show this help message and exit"))
    return usage + "\n%s\n\n%s\n" % (about, "\n".join(
        ("  %-24s  %s" % row).rstrip() for row in rows))


def _error(command, message):
    """Write a usage error as argparse does, and exit 2."""
    prog = "biquadrates " + command if command else "biquadrates"
    sys.stderr.write("%s%s: error: %s\n" % (_usage(command), prog, message))
    raise SystemExit(2)


def _option(tok, names, command):
    """argparse's reading of a token: None for a value, else (the option or
    None if none matches, the text after its "=" or after -h, or None)."""
    if tok[:1] != "-" or tok == "-":
        return None
    head, eq, arg = tok.partition("=")
    if tok in names or eq and head in names:
        return head, arg if eq else None
    hits = ([(n, arg if eq else None) for n in names if n.startswith(head)]
            if tok[1] == "-" else [("-h", tok[2:])] if tok[:2] == "-h" else [])
    if hits[1:]:
        _error(command, "ambiguous option: %s could match %s"
               % (tok, ", ".join(n for n, _ in hits)))
    return hits[0] if hits else None if _NUMBER.match(tok) or " " in tok else (None, None)


def _value(command, label, convert, choices, text):
    """text converted, then checked against the choices, as argparse does."""
    try:
        value = convert(text)
    except (TypeError, ValueError):
        _error(command, "argument %s: invalid %s value: %r"
               % (label, convert.__name__, text))
    if not isinstance(choices, str) and value not in choices:
        _error(command, "argument %s: invalid choice: %r (choose from %s)"
               % (label, value, ", ".join(map(repr, choices))))
    return value


def _parse(command, rest, extras):
    """The namespace of ``command`` from ``rest``, read in one pass as argparse
    reads it; the tokens that no argument takes go to extras."""
    func, _, pos, opts, groups = COMMANDS.get(command, _TOP)
    ns = SimpleNamespace(command=command, func=func,
                         **{name[2:]: spec[2] for name, spec in opts.items()})
    names = _HELP + tuple(opts)
    end = rest.index("--") if "--" in rest else len(rest)
    found = [_option(tok, names, command) for tok in rest[:end]]
    # argparse's pattern: O an option, A a value, - the "--" that ends the options
    kinds = ("".join("A" if f is None else "O" for f in found)
             + "-" * (end < len(rest)) + "A" * (len(rest) - end - 1) + "O")
    label = pos and (pos[3] if isinstance(pos[3], str) else pos[0])   # argparse's name
    seen, i = set(), 0
    while i < len(rest):
        if kinds[i] != "O":   # values: the positional's, if they match it whole
            match = pos and pos[0] not in seen and re.match(
                "-*" + "-*".join("A" * pos[1]) + "-*", kinds[i:])
            if match and command is None:   # the command, which reads the rest
                return _parse(_value(None, label, *pos[2:], rest[i]), rest[i + 1:], extras)
            j = i + match.end() if match else i
            if match:   # the values but the "--"
                values = [_value(command, label, *pos[2:], tok)
                          for k, tok in enumerate(rest[i:j], i) if k != end]
                setattr(ns, pos[0], values if pos[1] > 1 else values[0])
                seen.add(pos[0])
            i = kinds.index("O", j)
            extras += rest[j:i]
            continue
        (name, arg), i = found[i], i + 1
        if name is None:
            extras.append(rest[i - 1])
            continue
        if name in _HELP or opts[name][0] is None:   # a flag
            if name == "-h" and arg:   # -hh... is -h -h ...
                arg = arg.lstrip("h") or None
            if arg is not None:
                _error(command, "argument %s: ignored explicit argument %r"
                       % ("-h/--help" if name in _HELP else name, arg))
            if name in _HELP:
                sys.stdout.write(_usage(command, True))
                raise SystemExit(0)
            value = True
        else:
            if arg is None:   # the next token, if it is a value
                if kinds[i] != "A":
                    _error(command, "argument %s: expected one argument" % name)
                arg, i = rest[i], i + 1
            value = _value(command, name, *opts[name][:2], arg)
        clash = [n for _, g in groups if name in g for n in g if n in seen and n != name]
        if clash:
            _error(command, "argument %s: not allowed with argument %s" % (name, clash[0]))
        seen.add(name)
        setattr(ns, name[2:], value)
    missing = [label] * bool(pos and pos[0] not in seen) + [
        g[0] for need, g in groups if need and not g[1:] and g[0] not in seen]
    if missing:
        _error(command, "the following arguments are required: %s" % ", ".join(missing))
    for need, group in groups:
        if need and not seen.intersection(group):
            _error(command, "one of the arguments %s is required" % " ".join(group))
    return ns


def parse_args(argv=None):
    """The namespace of a command line, read by argparse's rules for this CLI:
    a usage error exits 2 and -h/--help exits 0, each writing what argparse would."""
    args, extras = sys.argv[1:] if argv is None else list(argv), []
    # a first token that names a command is the command: skip biquadrates' own pass
    ns = (_parse(args[0], args[1:], extras) if args[:1] and args[0] in COMMANDS
          else _parse(None, args, extras))
    if extras:
        _error(None, "unrecognized arguments: %s" % " ".join(extras))
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
