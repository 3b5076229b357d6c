"""Output checks for benchmark jobs, in plain ints and Fractions.

Nothing here imports the library under test.  Every printed solution is
re-checked against the equation, every printed canonical key is recomputed,
search output must have distinct canonical keys, and symbolic families must
print ``residual: 0`` and satisfy the equation at two integer points.  The
checks only parse text the program printed; they never turn a big int into
text, so Python's int-to-text digit limit never applies to them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd

from jobs import KNOWN_SOLUTIONS

OK, KNOWN_DEFECT, FAIL = "ok", "known-defect", "fail"

# At the seed commit the CLI turns ints into text under Python's default
# 4300-digit limit: `curve --n k --m a/b` then exits 1 with a "domain"
# message and `pell --k` with a large k dies with a traceback.  Such jobs are
# counted as known defects, so a fix shows as a drop in cli.fail_ratio.
DIGIT_LIMIT_TEXT = "for integer string conversion"

SELFTEST_NAMES = ("brahmagupta", "quartic_brahmagupta", "substitution_13",
                  "quartic_model", "birational_roundtrip", "pell_reduction",
                  "mod16_obstruction", "curve_closure", "curve_high_multiple")

SYMBOLIC_POINTS = (2, 3)


class CheckError(Exception):
    """A job's output is wrong."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def holds(sol) -> bool:
    x1, x2, y1, y2, z1, z2 = sol
    return (x1**4 + x2**4) * (y1**4 + y2**4) == z1**4 + z2**4


def canonical_key(sol):
    """Canonical key under scaling, signs, swaps and x/y exchange."""
    x1, x2, y1, y2, z1, z2 = (abs(v) for v in sol)
    if (x1, x2) == (0, 0) or (y1, y2) == (0, 0):
        raise CheckError("zero pair in %r" % (sol,))
    k1, k2 = gcd(x1, x2), gcd(y1, y2)
    xp = tuple(sorted((x1 // k1, x2 // k1)))
    yp = tuple(sorted((y1 // k2, y2 // k2)))
    if yp < xp:
        xp, yp = yp, xp
    zp = tuple(sorted((Fraction(z1, k1 * k2), Fraction(z2, k1 * k2))))
    return (xp, yp, zp)


def _require(cond, what):
    if not cond:
        raise CheckError(what)


def _ints(text):
    return tuple(int(t) for t in text.split())


def _solution(values):
    _require(len(values) == 6, "expected six values, got %d" % len(values))
    _require(holds(values), "printed tuple fails the equation")
    return values


def _parse_canonical(text):
    pairs = []
    for part in text.split():
        _require(part.startswith("(") and part.endswith(")"), "bad pair %r" % part)
        a, b = part[1:-1].split(",")
        pairs.append((Fraction(a), Fraction(b)))
    _require(len(pairs) == 3, "canonical key needs three pairs")
    (a, b), (c, d), z = pairs
    for v in (a, b, c, d):
        _require(v.denominator == 1, "non-integer x/y entry in canonical key")
    return ((int(a), int(b)), (int(c), int(d)), z)


def _check_record(out: str, source: str, parameter=None):
    """Plain or JSON record: solution, canonical key, source, parameter."""
    lines = out.splitlines()
    _require(len(lines) >= 1, "no record printed")
    if lines[-1].startswith("{"):
        rec = json.loads(lines[-1])
        sol = _solution(tuple(int(v) for v in rec["solution"]))
        c = rec["canonical"]
        key = (tuple(int(v) for v in c["xpair"]), tuple(int(v) for v in c["ypair"]),
               tuple(Fraction(v) for v in c["zpair"]))
        got_source, got_param = rec["source"], rec["parameter"]
        head = lines[:-1]
    else:
        fields = {}
        for line in lines:
            name, _, value = line.partition(": ")
            fields[name] = value
        sol = _solution(_ints(fields.get("solution", "")))
        key = _parse_canonical(fields.get("canonical", ""))
        got_source, got_param = fields.get("source"), fields.get("parameter")
        head = lines[:lines.index("solution: " + fields["solution"])]
    _require(key == canonical_key(sol), "printed canonical key is not the tuple's")
    _require(got_source == source, "source %r, expected %r" % (got_source, source))
    if parameter is not None:
        _require(Fraction(got_param) == Fraction(parameter), "wrong parameter")
    return sol, head


def _check_verify(argv, rc, out):
    vals = tuple(int(v) for v in argv[1:7])
    x1, x2, y1, y2, z1, z2 = vals
    lhs = (x1**4 + x2**4) * (y1**4 + y2**4)
    rhs = z1**4 + z2**4
    lines = out.splitlines()
    _require(len(lines) >= 3, "verify printed too little")
    _require(lines[0].startswith("lhs = ") and int(lines[0][6:]) == lhs, "wrong lhs")
    _require(lines[1].startswith("rhs = ") and int(lines[1][6:]) == rhs, "wrong rhs")
    _require((lines[2] == "PASS") == (lhs == rhs), "wrong verdict")
    _require(rc == (0 if lhs == rhs else 1), "wrong exit code")


def _check_search(argv, out):
    bx = int(argv[argv.index("--bx") + 1])
    by = int(argv[argv.index("--by") + 1])
    keys = set()
    for line in out.splitlines():
        x1, x2, y1, y2, z1, z2 = _solution(_ints(line))
        _require(0 < x1 < x2 <= bx and 0 < y1 < y2 <= by, "tuple outside the window")
        key = canonical_key((x1, x2, y1, y2, z1, z2))
        _require(key not in keys, "two lines share a canonical key")
        keys.add(key)
    for sol in KNOWN_SOLUTIONS:
        if sol[1] <= bx and sol[3] <= by:
            _require(canonical_key(sol) in keys, "missing known solution %r" % (sol,))


def _parse_poly(text: str, var: str) -> dict:
    """Inverse of the CLI's sparse polynomial format, e.g. ``4 + 6*m^2 - m^3``."""
    coeffs = {}
    sign = 1
    for tok in text.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        head, star, mono = tok.rpartition("*")
        if not star:
            head, mono = (tok, "") if tok[0].isdigit() else ("1", tok)
        if mono == "":
            k = 0
        elif mono == var:
            k = 1
        else:
            _require(mono.startswith(var + "^"), "bad monomial %r" % mono)
            k = int(mono[len(var) + 1:])
        coeffs[k] = coeffs.get(k, 0) + sign * int(head)
        sign = 1
    return coeffs


def _eval(coeffs: dict, x: int) -> int:
    return sum(c * x**k for k, c in coeffs.items())


def _check_family_text(lines, var):
    names = ("x1", "x2", "y1", "y2", "z1", "z2")
    polys = {}
    for line in lines:
        name, _, text = line.partition(" = ")
        if name in names:
            polys[name] = _parse_poly(text, var)
    _require(len(polys) == 6, "family printed %d of six polynomials" % len(polys))
    _require("residual: 0" in lines, "symbolic job did not print 'residual: 0'")
    for x in SYMBOLIC_POINTS:
        vals = tuple(_eval(polys[n], x) for n in names)
        _require(holds(vals), "family fails the equation at %s = %d" % (var, x))


def _check_curve_point(text, m):
    _require(text.startswith("(") and text.endswith(")"), "bad point %r" % text)
    x, y = (Fraction(v) for v in text[1:-1].split(", "))
    m4 = m**4
    _require(y * y == x * (x * (x + 1 - 4 * m4) + 32 * m4), "point is off the curve")
    return x, y


def _check_curve(argv, out):
    m = Fraction(argv[argv.index("--m") + 1])
    _, head = _check_record(out, "curve_nP", m)
    fields = dict(line.partition(": ")[::2] for line in head)
    nx, ny = _check_curve_point(fields["nP"], m)
    cx, cy = _check_curve_point(fields["curve point"], m)
    _require(cx == nx and cy == (-ny if fields["sign"] == "minus" else ny),
             "curve point does not match nP and sign")
    u, v = (Fraction(t) for t in fields["quartic point"][1:-1].split(", "))
    m4 = m**4
    _require(v * v == (((u - 2) * u - (4 * m4 - 1)) * u - 8 * m4) * u - 4 * m4,
             "quartic point is off the quartic model")


def check_output(argv, rc: int, out: str) -> None:
    """Raise CheckError unless a job that exited 0 (or verify) printed a correct result."""
    kind = argv[0]
    if kind == "verify":
        _check_verify(argv, rc, out)
        return
    _require(rc == 0, "exit code %d" % rc)
    if kind == "search":
        _check_search(argv, out)
    elif kind == "selftest":
        lines = out.splitlines()
        _require(sorted(lines) == sorted("%s: PASS" % n for n in SELFTEST_NAMES),
                 "selftest did not pass every check")
    elif kind == "family" and "--symbolic" in argv:
        _check_family_text(out.splitlines(), "t" if argv[1] == "eq26" else "m")
    elif kind == "family":
        _check_record(out, "family_" + argv[1], argv[argv.index("--param") + 1])
    elif kind == "curve" and "--symbolic" in argv:
        lines = out.splitlines()
        sign = argv[argv.index("--sign") + 1] if "--sign" in argv else "auto"
        _require(lines and lines[0] in ("sign: plus", "sign: minus"), "no sign line")
        _require(sign == "auto" or lines[0] == "sign: " + sign, "wrong sign branch")
        _check_family_text(lines, "m")
    elif kind == "curve":
        _check_curve(argv, out)
    elif kind == "pell" and "--k" in argv:
        _check_record(out, "pell", argv[argv.index("--k") + 1])
    elif kind == "pell":
        _check_record(out, "family_eq26", argv[argv.index("--t") + 1])
    else:
        raise CheckError("no check for %r" % (argv,))


def classify(argv, rc: int, out: str, err: str, crashed: bool):
    """(status, reason) for one finished job."""
    if rc != 0 and DIGIT_LIMIT_TEXT in err and argv[0] in ("curve", "pell"):
        return KNOWN_DEFECT, "int-to-text digit limit"
    if crashed:
        return FAIL, "uncaught exception: " + (err.strip().splitlines() or ["?"])[-1]
    try:
        check_output(argv, rc, out)
    except (CheckError, ValueError, TypeError, KeyError, IndexError,
            ZeroDivisionError) as exc:
        return FAIL, "%s: %s" % (type(exc).__name__, exc)
    return OK, ""
