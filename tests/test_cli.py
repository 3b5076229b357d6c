"""Tests for the command-line surface: formats, exit codes, worked examples."""

import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biquadrates.cli as cli
import biquadrates.derive as derive
import biquadrates.exact as exact
import biquadrates.identity as identity
import biquadrates.pell as pell
import biquadrates.poly as poly
import biquadrates.search as search
from biquadrates.cli import main
from biquadrates.derive import FAMILIES, published_family
from mutations import fresh_families
from oracles import curve_m_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "1", "2", "5", "6", "8", "13")
    assert code == 0
    assert "lhs = 32657" in out and "rhs = 32657" in out and "PASS" in out


def test_verify_trivial(capsys):
    code, out, _ = run(capsys, "verify", "1", "0", "1", "0", "1", "0")
    assert code == 0


def test_verify_fail(capsys):
    code, out, _ = run(capsys, "verify", "1", "2", "3", "4", "5", "6")
    assert code == 1
    assert "FAIL" in out


def test_verify_parse_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "1", "2", "3", "4", "5", "six"])
    assert exc.value.code == 2


def test_search_csv_contains_first_row(capsys):
    code, out, _ = run(capsys, "search", "--bx", "6", "--by", "6", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,y1,y2,z1,z2"
    assert "1,2,5,6,8,13" in lines[1:]


def test_search_empty_window(capsys):
    code, out, _ = run(capsys, "search", "--bx", "2", "--by", "2")
    assert code == 0
    assert out == ""


def test_search_bad_bound(capsys):
    code, _, err = run(capsys, "search", "--bx", "0", "--by", "5")
    assert code == 2
    assert "bounds" in err


def test_search_json_matches_csv(capsys):
    code, out_json, _ = run(capsys, "search", "--bx", "8", "--by", "12", "--json")
    assert code == 0
    records = [json.loads(line) for line in out_json.strip().splitlines()]
    code, out_csv, _ = run(capsys, "search", "--bx", "8", "--by", "12", "--csv")
    assert code == 0
    csv_rows = [tuple(r.split(",")) for r in out_csv.strip().splitlines()[1:]]
    json_rows = [tuple(r["solution"]) for r in records]
    assert sorted(json_rows) == sorted(csv_rows)
    for rec in records:
        assert rec["source"] == "search"
        assert len(rec["canonical"]["zpair"]) == 2


def test_family_eval(capsys):
    code, out, _ = run(capsys, "family", "eq20", "--param", "2")
    assert code == 0
    assert "canonical: (3,5) (17,28) (13,149)" in out
    assert "source: family_eq20" in out


def test_family_eq26_eval(capsys):
    code, out, _ = run(capsys, "family", "eq26", "--param", "3")
    assert code == 0
    assert "canonical: (1,2) (5,6) (8,13)" in out


def test_family_degenerate_parameter(capsys):
    code, _, err = run(capsys, "family", "eq20", "--param", "0")
    assert code == 1
    assert "degenerate" in err


def test_family_symbolic(capsys):
    for name in ("eq20", "eq21", "eq22", "eq26"):
        code, out, _ = run(capsys, "family", name, "--symbolic")
        assert code == 0
        assert "residual: 0" in out
    code, out, _ = run(capsys, "family", "eq20", "--symbolic", "--descending")
    assert "x1 = 6*m" in out


@pytest.mark.parametrize("argv", [["family", "eq20", "--symbolic"],
                                  ["curve", "--n", "2", "--symbolic"]], ids=" ".join)
def test_json_leaves_symbolic_output_as_it_is(capsys, argv):
    # --json formats a solution record, and --symbolic prints none
    assert run(capsys, *argv, "--json") == run(capsys, *argv)
    assert cli.COMMANDS[argv[0]][3]["--json"][3].endswith("(--symbolic prints none)")


def test_family_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["family", "eq20"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["family", "eq20", "--param", "2", "--symbolic"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["family", "eq99", "--param", "2"])
    assert exc.value.code == 2


def test_curve_worked_chain_exact(capsys):
    code, out, _ = run(capsys, "curve", "--n", "1", "--m", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nP: (4/9, 100/27)"
    assert lines[1] == "sign: minus"
    assert lines[2] == "curve point: (4/9, -100/27)"
    assert lines[3] == "quartic point: (-2/3, -8/9)"
    assert lines[4] == "U = p/q: p = -2, q = 3"
    assert lines[5] == "solution: -5 6 1 -2 13 -8"
    assert lines[6] == "canonical: (1,2) (5,6) (8,13)"


def test_curve_plus_branch(capsys):
    code, out, _ = run(capsys, "curve", "--n", "1", "--m", "1", "--sign", "plus")
    assert code == 0
    assert "canonical: (17,41) (48,65) (2257,2537)" in out


# SHA-256 of `curve --n k --symbolic [--descending]` stdout (auto sign),
# recorded before V was taken from the inverse map; any rewrite of the
# derivation must reproduce these families byte for byte
CURVE_SYMBOLIC_DIGESTS = {
    (7, False): "7a229048f4d61750368e83b3212e7e9c92327aa0f022a41a8cda3591f692b5f7",
    (7, True): "843365609a826b82954a2a957e286aa7559f8a024c95dcea20a79f6f5cde6801",
    (8, False): "44d52878faea2da789fd91aad2a45782421f81906a2c74ea43514cdf301dd890",
    (8, True): "c50c3c8662a8aacc158a54e89db3036c1ea57440d4051bc3a34b1d770b803b12",
    # recorded before the residual took the Brahmagupta split and the curve
    # and quartic checks stopped reducing through RatFn arithmetic
    (10, False): "b58fbd43a0401f95615c4589b0b6149833890e51206c2fabc0da6a2c2a9a113e",
    # recorded while nP still came from the group law over Q(M)
    (12, False): "f6e85370b65fdb96236738810f71d74a2a7e94e81d1743771668b7ba438c85d0",
    # recorded with three width roundings, one per packing site, before the
    # packed format moved into poly alone
    (14, False): "9efdffa547853cab4290d666c5becf4d88a7022fbe19556c5971ca471d08cb44",
    (16, False): "f9e8bb682c64f2e78793125caf2800b0d78d5638d0cce3e30ec9bee6f642e4a3",
}

# SHA-256 of `curve --n k --symbolic --sign plus|minus` stdout, recorded while
# the derivation still ran over Q(m); the Q(M) pipeline must match on both
# branches
CURVE_SYMBOLIC_SIGN_DIGESTS = {
    (1, "plus"): "49d93a0c73fa7f18f5a1efafd7625fa69a4c3d5e4769aa7cfe79b29bae8eac85",
    (1, "minus"): "1330ad6e50a3d3f2f5713dff937f7da03bed026e7f5ff4a0ead8140fa947c312",
    (2, "plus"): "bb1e574a3902dea8f90dbda42166d167e41ea545f225f842592fd55c1ca27260",
    (2, "minus"): "3d64584f274f86eebd9e55d4f63f24ae8916f894cdc60f3c27109d1fb1b47e53",
    (3, "plus"): "3f5b10630b7cb741c49934dc87c26d7beff7fa1e71b0fe5f1e457229cf42c272",
    (3, "minus"): "4bd7109ebfc62689b4e1f485c9014bc63501c5893af839371883bb1b454d73af",
    (4, "plus"): "aaa0ca66d845db6f326ebc5c28d0a22c589fa7c50a17242316ff1128d257447c",
    (4, "minus"): "876ef738e25e460651e7841619aab649e24366b76cc10e63c4af1f36fdd921fd",
    (5, "plus"): "eb68e48b28ff4a9a720e7cfd03206e8f9e10232e027f0be5c8024d4ae3d4ff1e",
    (5, "minus"): "065c948bf26147e48d8aa7bcbe46062de5cec43531fcc48887cf948a0d3a808f",
    (6, "plus"): "abf1936e3e581c9707d8bd5faaee291bc1ffeb0e3a695365fe1cdb5e09aa7a58",
    (6, "minus"): "94ef49ed9d66840ce69c32e9b007598c141f2ae8b70e443892db68f338644d22",
    (7, "plus"): "802a9a227ade6fee819dc22b57ce02df32d15859eefdb2394e28d02cad6698a8",
    (7, "minus"): "7a229048f4d61750368e83b3212e7e9c92327aa0f022a41a8cda3591f692b5f7",
    (8, "plus"): "3f953247a61cfd651a93c62343cd8aa7435645b0f3fd05599487c43dd732e86e",
    (8, "minus"): "44d52878faea2da789fd91aad2a45782421f81906a2c74ea43514cdf301dd890",
}


@pytest.mark.parametrize("sign", ("plus", "minus"))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6] + [
    pytest.param(n, marks=pytest.mark.slow) for n in (7, 8)])
def test_curve_symbolic_pinned_sign_digests(capsys, n, sign):
    code, out, err = run(capsys, "curve", "--n", str(n), "--symbolic", "--sign", sign)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_SYMBOLIC_SIGN_DIGESTS[n, sign]


@pytest.mark.slow
@pytest.mark.parametrize("n", (7, 8))
def test_curve_symbolic_pinned_digests(capsys, n):
    for descending in (False, True):
        argv = ["curve", "--n", str(n), "--symbolic"]
        code, out, err = run(capsys, *argv + ["--descending"] * descending)
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == CURVE_SYMBOLIC_DIGESTS[n, descending]


@pytest.mark.slow
def test_curve_symbolic_pinned_digest_n10(capsys):
    code, out, err = run(capsys, "curve", "--n", "10", "--symbolic")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_SYMBOLIC_DIGESTS[10, False]


@pytest.mark.slow
def test_curve_symbolic_pinned_digest_n12(capsys):
    code, out, err = run(capsys, "curve", "--n", "12", "--symbolic")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_SYMBOLIC_DIGESTS[12, False]


@pytest.mark.slow
@pytest.mark.parametrize("n", (14, 16))
def test_curve_symbolic_pinned_digest_large_n(n, capsys):
    # the packed widths grow with n: the ladder's and the zero test's are
    # widest here
    code, out, err = run(capsys, "curve", "--n", str(n), "--symbolic")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_SYMBOLIC_DIGESTS[n, False]


def test_curve_symbolic(capsys):
    code, out, _ = run(capsys, "curve", "--n", "2", "--symbolic")
    assert code == 0
    assert "residual: 0" in out
    assert "degrees: 24 21 25 24 49 48" in out


def test_curve_m_prints_no_unchecked_point(capsys, monkeypatch):
    # a ladder fault that passes the ladder's exact divisions gives a point
    # off the curve; the map's exact division or its integer identity, the
    # curve equation pulled back, rejects it before anything is printed
    import biquadrates.curve as curve
    from mutations import psi3_doubled

    monkeypatch.setattr(curve, "_initial_psi", psi3_doubled(curve._initial_psi))
    code, out, err = run(capsys, "curve", "--n", "2", "--m", "2", "--sign", "plus")
    assert (code, out) == (1, "")
    assert err.startswith("curve: ") and err.count("\n") == 1


def test_curve_degenerate_parameter(capsys):
    code, _, err = run(capsys, "curve", "--n", "1", "--m", "0")
    assert code == 1
    assert err != ""


def test_curve_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--n", "0", "--m", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--n", "1"])
    assert exc.value.code == 2


def test_pell_ladder(capsys):
    code, out, _ = run(capsys, "pell", "--k", "1")
    assert code == 0 and "solution: 1 2 5 6 8 13" in out
    code, out, _ = run(capsys, "pell", "--k", "2")
    assert code == 0 and "solution: 1 8 65 264 448 2113" in out
    code, out, _ = run(capsys, "pell", "--k", "3")
    assert code == 0 and "solution: 1 30 901 13530 23400 405901" in out


def test_pell_rational_slice(capsys):
    code, out, _ = run(capsys, "pell", "--t", "1")
    assert code == 0
    assert "canonical: (1,2) (5,6) (8,13)" in out
    assert "source: family_eq26" in out
    code, _, err = run(capsys, "pell", "--t", "0")
    assert code == 1


def test_pell_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["pell", "--k", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pell"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", (["family", "eq20", "--param"], ["curve", "--n", "1", "--m"],
                                  ["pell", "--t"]))
def test_fractions_refuse_exponents(argv, capsys):
    # Fraction("1e9") would compute 10**9: exponent notation is a usage error
    for text in ("1e5", "1E-3"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid fraction value: %r" % text in err and "Traceback" not in err
    for text, value in (("7", 7), ("-2/7", Fraction(-2, 7)), ("3/4", Fraction(3, 4)),
                        ("0.5", Fraction(1, 2))):
        assert cli.fraction(text) == value
        assert main(argv[:-1] + [argv[-1] + "=" + text]) in (0, 1)
    capsys.readouterr()


@given(st.integers(1, 24), st.integers(-13, 13).filter(bool), st.integers(1, 13),
       st.sampled_from(("auto", "plus", "minus")), st.booleans())
@example(19, 3, 5, "auto", False)    # past the digit limit at the quartic point
@example(22, 4, 3, "auto", False)
@example(1, 1, 1, "minus", False)
@example(24, 1, 2, "plus", True)
@settings(max_examples=60, deadline=None)
def test_curve_m_text_is_the_fraction_route_text(n, a, b, sign, as_json):
    # curve --m prints p/q and s/q^2 without a gcd and -nP's y by flipping
    # nP's sign: the same bytes as reduced Fractions, up to the digit limit
    m = Fraction(a, b)
    argv = ["curve", "--n", str(n), "--m=%s" % m, "--sign", sign]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--json"] * as_json)
    want = curve_m_text(n, m, derive._resolve_sign(sign), as_json)
    assert out.getvalue() == want
    assert code == (0 if "curve_nP" in want else 1)


SMALL_PRIMES = (2, 3, 5, 7)


@given(st.lists(st.integers(0, 9), min_size=4, max_size=4),
       st.lists(st.integers(0, 30), min_size=4, max_size=4),
       st.integers(-10**30, 10**30).filter(bool), st.integers(-10**40, 10**40),
       st.sampled_from((2, 3)))
@example([0] * 4, [0] * 4, 1, 0, 2)
@example([1, 0, 0, 0], [5, 0, 0, 0], -1, 3, 3)        # 2^5 num over (-2)^3
@example([2, 1, 0, 0], [3, 7, 0, 0], 7, -11, 2)
@example([3, 0, 1, 0], [20, 0, 2, 0], -13, 1, 3)
def test_ratio_text_is_the_reduced_fraction_text(zexp, nexp, zco, nco, k):
    # z and num share 2, 3, 5 and 7, num often more often than z (a >= b and
    # a < b in the gcd identity), z of either sign, num zero or not
    z, num = zco, nco
    for p, e, f in zip(SMALL_PRIMES, zexp, nexp):
        z, num = z * p**e, num * p**f
    assert cli._ratio_text(num, z, k) == str(Fraction(num, z**k))


@pytest.mark.parametrize("n, m, out_lines, digest", [("23", "5", 0, "e3b0c44298fc"),
                                                     ("19", "3/5", 3, "bd301f2108ad")])
def test_curve_past_the_digit_limit_keeps_its_text(capsys, n, m, out_lines, digest):
    # n = 23 at m = 5: nP itself is past the limit, nothing is printed;
    # n = 19 at m = 3/5: nP, sign and curve point print, the quartic point fails
    code, out, err = run(capsys, "curve", "--n", n, "--m", m)
    assert code == 1
    assert out == curve_m_text(int(n), Fraction(m), "minus")
    assert len(out.splitlines()) == out_lines
    # one line, Python's own message (later versions add the digit count)
    assert err.startswith("curve: Exceeds the limit (4300 digits) for integer string "
                          "conversion") and err.count("\n") == 1 and err[-1] == "\n"
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == digest


@given(st.sampled_from(sorted(FAMILIES)), st.integers(-9, 9).filter(bool), st.integers(1, 9),
       st.integers(1, 4), st.integers(1, 4), st.lists(st.booleans(), min_size=6, max_size=6),
       st.booleans())
@example("eq20", 2, 1, 1, 1, [True, False, False, True, True, False], False)
@example("eq20", 2, 1, 2, 3, [False] * 6, True)
def test_record_prints_the_canonical_key(name, a, b, k1, k2, flips, as_json):
    # an integral key entry reuses the text of the tuple's entry it equals,
    # and any other entry is formatted: the same bytes as the key's own text
    try:
        sol = derive.evaluate_param(published_family(name), Fraction(a, b))
    except exact.DegenerateSolutionError:
        return
    sol = exact.scale_solution(sol, k1, k2)
    sol = exact.SolutionSix(*(-v if f else v for v, f in zip(sol, flips)))
    key = exact.canonicalize(sol)
    text = cli._record(sol, "family_" + name, Fraction(a, b), as_json)
    if as_json:
        assert json.loads(text)["canonical"] == {
            field: [str(v) for v in pair] for field, pair in key._asdict().items()}
    else:
        assert text.splitlines()[1] == "canonical: %s" % " ".join(
            "(%s,%s)" % pair for pair in key)


def old_record(sol, source, parameter=None, as_json=False) -> str:
    """_record's text by the earlier rule: the key takes the tuple's texts
    only when both pair gcds are 1, and is formatted otherwise."""
    key = exact.canonicalize(sol, check=False)
    param = None if parameter is None else str(parameter)
    texts = [str(v) for v in sol]
    if gcd(sol.x1, sol.x2) == gcd(sol.y1, sol.y2) == 1:
        known = {abs(v): t.lstrip("-") for v, t in zip(sol, texts)}
        key = key._make((known[a.numerator], known[b.numerator]) for a, b in key)
    if as_json:
        return json.dumps({
            "solution": texts,
            "canonical": {name: [str(v) for v in pair] for name, pair in key._asdict().items()},
            "source": source,
            "parameter": param,
        })
    lines = ["solution: %s" % " ".join(texts),
             "canonical: %s" % " ".join("(%s,%s)" % pair for pair in key),
             "source: %s" % source]
    if param is not None:
        lines.append("parameter: %s" % param)
    return "\n".join(lines)


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("sol, parameter", [
    (exact.SolutionSix(1, 2, 5, 6, 8, 13), None),
    (exact.SolutionSix(-5, 6, 1, -2, 13, -8), None),
    # pair gcds 6 and 35, with the key's z-pair (8, 13) among no entry
    (exact.SolutionSix(-6, 12, 175, 210, -1680, 2730), None),
    # gcd 3 on the x-pair only: the key's y-pair is the tuple's own
    (exact.scale_solution(pell.pell_to_solution(pell.pell3_nth(40)), 3, -1), 40),
    # a family value, named here and derived in the test: a fault in the
    # derivation then fails this case, not the collection of the module
    pytest.param("eq21", Fraction(-6, 7), id="sol4-parameter4"),
])
def test_record_text_is_the_old_rule_text(sol, parameter, as_json):
    if isinstance(sol, str):
        sol = derive.evaluate_param(published_family(sol), parameter)
    assert cli._record(sol, "pell", parameter, as_json) == old_record(
        sol, "pell", parameter, as_json)


nonzero_pair = st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(any)


@given(nonzero_pair, nonzero_pair, st.integers(-10**40, 10**40), st.integers(-99, 99),
       st.integers(1, 12), st.integers(1, 12), st.booleans())
@example((1, 2), (5, 6), 8, 13, 2, 1, False)     # z-pair key (4, 13/2)
@example((-3, 3), (0, 2), 9, -1, 1, 3, True)      # key (0, 1), (1, 1), (1/18, 1/2)
@settings(max_examples=150)
def test_record_key_text_on_any_tuple(x, y, z1, z2, k1, k2, as_json):
    # _record proves what it prints; the key's text does not depend on the
    # tuple being a solution, so this lets random tuples through, with
    # fractional z keys whenever k1 * k2 does not divide the z-pair
    sol = exact.SolutionSix(k1 * x[0], k1 * x[1], k2 * y[0], k2 * y[1], z1, z2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_proved", lambda s: s)
        text = cli._record(sol, "search", None, as_json)
    assert text == old_record(sol, "search", None, as_json)


def _counted_checks(monkeypatch) -> list:
    """The tuples passed to check_solution through any module that binds it."""
    calls = []
    check = exact.check_solution

    def counted(sol):
        calls.append(tuple(str(v) for v in sol))
        return check(sol)

    for name, mod in list(sys.modules.items()):
        if name.startswith("biquadrates") and getattr(mod, "check_solution", None) is check:
            monkeypatch.setattr(mod, "check_solution", counted)
    return calls


def _emitted(out: str) -> list:
    """The solutions a command printed, in order, in any of its formats."""
    rows = []
    for line in out.splitlines():
        if line.startswith("{"):
            rows.append(tuple(json.loads(line)["solution"]))
        elif line.startswith("solution: "):
            rows.append(tuple(line.split()[1:]))
        elif line[:1].isdigit():
            rows.append(tuple(line.replace(",", " ").split()))
    return rows


CHECKED_ONCE = [["curve", "--n", "3", "--m", "2/5"],
                ["curve", "--n", "24", "--m", "1/2", "--sign", "plus", "--json"],
                ["pell", "--k", "1805"], ["pell", "--k", "7", "--json"],
                ["pell", "--t", "5/17"]]
CHECKED_ONCE += [["family", name, "--param", "6/7"] for name in sorted(FAMILIES)]
CHECKED_ONCE += [["search", "--bx", "8", "--by", "30"] + fmt
                 for fmt in ([], ["--csv"], ["--json"])]


@pytest.mark.parametrize("argv", CHECKED_ONCE, ids=" ".join)
def test_each_emitted_tuple_is_checked_once(capsys, monkeypatch, argv):
    calls = _counted_checks(monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = _emitted(out)
    assert len(rows) == (7 if argv[0] == "search" else 1)
    assert calls == rows


def _z2_plus_one(fn):
    def corrupted(*args, **kwargs):
        sol = fn(*args, **kwargs)
        return sol._replace(z2=sol.z2 + 1)
    return corrupted


@pytest.mark.parametrize("argv", [["curve", "--n", "3", "--m", "2/5"],
                                  ["family", "eq21", "--param", "6/7"],
                                  ["pell", "--t", "5/17", "--json"],
                                  ["pell", "--k", "4"],
                                  ["search", "--bx", "6", "--by", "6", "--csv"]],
                         ids=" ".join)
def test_a_corrupted_tuple_is_refused(capsys, monkeypatch, argv, fresh_families):
    # z2 + 1 after clearing (or in the Pell shapes, or in a search row):
    # the one check at emission refuses it with one stderr line.  eq26 is
    # built from the Pell shapes and proved when it is built, so the shapes
    # are bent for pell --k alone, and pell --t reaches the emission check
    # through the clearing
    monkeypatch.setattr(derive, "_clear_image", _z2_plus_one(derive._clear_image))
    monkeypatch.setattr(derive, "_clear_to_solution",
                        _z2_plus_one(derive._clear_to_solution))
    shapes, sweep = pell.pell_shapes, search.search
    if argv[:2] == ["pell", "--k"]:
        monkeypatch.setattr(pell, "pell_shapes",
                            lambda u, v, w=1: (*shapes(u, v, w)[:5], shapes(u, v, w)[5] + 1))
    monkeypatch.setattr(search, "search", lambda bx, by: [s._replace(z2=s.z2 + 1)
                                                          for s in sweep(bx, by)])
    code, out, err = run(capsys, *argv)
    assert code == 1 and _emitted(out) == []
    assert err == "%s: refusing to emit a tuple that fails the equation\n" % argv[0]


# selftest prints one line per verifier, in this order; --quick drops the last
SELFTEST_NAMES = ("brahmagupta", "quartic_brahmagupta", "substitution_13",
                  "quartic_model", "birational_roundtrip", "pell_reduction",
                  "mod16_obstruction", "curve_closure", "curve_high_multiple")


def test_selftest_quick(capsys):
    code, out, err = run(capsys, "selftest", "--quick")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["%s: PASS" % name for name in SELFTEST_NAMES[:8]]


def test_selftest_full(capsys, monkeypatch):
    # every verifier runs over Z, Q or Z[M] with no quotient field: the full
    # selftest takes no polynomial gcd
    calls = []
    gcd = poly.poly_gcd
    monkeypatch.setattr(poly, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    code, out, err = run(capsys, "selftest")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["%s: PASS" % name for name in SELFTEST_NAMES]
    assert calls == []


# every command, each curve job on all three signs
SWEEP = [["verify", "1", "2", "5", "6", "8", "13"], ["search", "--bx", "14", "--by", "30"],
         ["pell", "--k", "3"], ["pell", "--t", "3/2"]]
SWEEP += [["family", name] + mode for name in sorted(FAMILIES)
          for mode in (["--symbolic"], ["--param", "2"], ["--param", "3/2", "--json"])]
SWEEP += [["curve", "--n", str(n), "--sign", sign] + mode for n in range(1, 9)
          for sign in ("auto", "plus", "minus") for mode in (["--m", "3/5"], ["--symbolic"])]
SWEEP += [["selftest"], ["selftest", "--quick"], ["curve", "--n", "1", "--m", "1"]]
# curve --m at n <= 24 on five parameters: from n = 18 on some jobs reach
# the int-to-text digit limit and exit 1 with the lines printed before it
SWEEP += [["curve", "--n", str(n), "--sign", sign, "--m=" + m] for n in range(1, 25)
          for sign in ("auto", "plus", "minus") for m in ("1", "2", "3/5", "-2/7", "7/2")]
SWEEP += [["curve", "--n", str(n), "--m=" + m, "--json"] for n in (1, 5) for m in ("2", "-2/7")]
# SHA-256 of "<exit code>\n<stdout>" for each job in order, from a run with
# poly_gcd unpatched while curve --m still took the field route over Q and
# selftest's closure the group law over Q(M); 58 of the curve jobs exit 1 at
# the digit limit, every other job exits 0
SWEEP_DIGEST = "3a053dd246befc4a856ead7ca3766e506f9b69ae84c222120af8f2f9f6994792"


def test_every_command_takes_no_polynomial_gcd(capsys, monkeypatch):
    # nor can any leave Z[M]: the library defines no rational function
    # (tests/test_source.py)
    def no_gcd(a, b):
        raise AssertionError("polynomial gcd taken")

    monkeypatch.setattr(poly, "poly_gcd", no_gcd)
    h = hashlib.sha256()
    codes = []
    for argv in SWEEP:
        codes.append(main(argv))
        h.update(("%d\n%s" % (codes[-1], capsys.readouterr().out)).encode())
    assert len(SWEEP) == 431
    assert (codes.count(0), codes.count(1)) == (373, 58)
    assert h.hexdigest() == SWEEP_DIGEST


REUSE_ARGV = [["verify", "1", "2", "5", "6", "8", "13"],
              ["family", "eq99", "--param", "1"],   # a usage error: exit 2
              ["family", "eq20", "--param", "1/2"],
              ["curve", "--n", "2", "--m", "3/5"],
              ["selftest", "--quick"],
              ["search", "--bx", "6", "--by", "6"]]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code,) + tuple(capsys.readouterr())


def test_main_keeps_no_state_between_calls(capsys):
    # one process runs every argv, through a usage error, with the output of
    # a fresh process for each, and leaves cli's globals as they were
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    fresh = [subprocess.run([sys.executable, "-m", "biquadrates.cli"] + argv,
                            capture_output=True, text=True, env=env, timeout=300)
             for argv in REUSE_ARGV]
    fresh = [(proc.returncode, proc.stdout, proc.stderr) for proc in fresh]
    assert [o[0] for o in fresh] == [0, 2, 0, 0, 0, 0]
    names, table = dict(vars(cli)), repr(cli.COMMANDS)
    assert [_outcome(capsys, argv) for argv in REUSE_ARGV] == fresh
    assert vars(cli).keys() == names.keys() and all(vars(cli)[k] is v for k, v in names.items())
    assert repr(cli.COMMANDS) == table and cli.build_parser() is cli.COMMANDS


# one fresh process per command kind: the biquadrates modules it loads, and
# whether it loads json
LOADS_ARGV = [["verify", "1", "2", "5", "6", "8", "13"], ["search", "--bx", "6", "--by", "6"],
              ["search", "--bx", "6", "--by", "6", "--json"], ["pell", "--k", "7"],
              ["pell", "--k", "7", "--json"], ["curve", "--n", "3", "--m", "2/5"],
              ["curve", "--n", "2", "--symbolic"], ["family", "eq21", "--param", "6/7"],
              ["family", "eq26", "--symbolic"], ["pell", "--t", "5/27"],
              ["selftest", "--quick"], ["curve", "--sym", "--n", "2"]]
BASE = {"biquadrates", "biquadrates.cli", "biquadrates.exact"}
STDLIB = ("re", "fractions", "decimal")


def test_each_command_loads_only_its_modules():
    # -S: no site hook loads a stdlib module before the command does
    script = ("import sys\nfrom biquadrates.cli import main\ncode = main(sys.argv[1:])\n"
              "print(repr((code, 'json' in sys.modules, sorted(\n"
              "    n for n in sys.modules if n.split('.')[0] == 'biquadrates'),\n"
              "    [n for n in %r if n in sys.modules])))\n" % (STDLIB,))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for argv in LOADS_ARGV:
        proc = subprocess.run([sys.executable, "-S", "-c", script] + argv, capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        code, json_loaded, names, stdlib = ast.literal_eval(proc.stdout.splitlines()[-1])
        loaded = set(names)
        assert code == 0, argv
        # every line but the last is plain: only that one loads the table reader
        assert ("biquadrates.usage" in loaded) == (argv is LOADS_ARGV[-1]), argv
        # no rational value, derivation or fractional key: no fractions, and so no re
        lean = argv[0] in ("verify", "search") or argv[:2] == ["pell", "--k"]
        if lean and "--json" not in argv:
            assert stdlib == [], argv
        # selftest's mod16 verifier runs search's own filters
        assert ("biquadrates.search" in loaded) == (argv[0] in ("search", "selftest")), argv
        if argv[0] == "verify":
            assert loaded == BASE, argv
        elif argv[0] == "search":
            assert loaded == BASE | {"biquadrates.search"}, argv
        elif argv[:2] == ["pell", "--k"]:
            assert loaded == BASE | {"biquadrates.pell"}, argv
        elif argv[0] in ("curve", "family", "pell"):
            assert "biquadrates.identity" not in loaded, argv
        else:
            assert "biquadrates.identity" in loaded, argv
        assert json_loaded == ("--json" in argv), argv
    # the error classes main catches live in exact; the old paths give them
    import biquadrates.curve as curve
    assert curve.PipelineError is derive.PipelineError is exact.PipelineError
    assert curve.DegenerateCurveError is exact.DegenerateCurveError
    assert poly.PoleError is curve.PoleError is derive.PoleError is exact.PoleError
    assert cli.COMMANDS["family"][2][3] == tuple(sorted(derive.FAMILIES))


def test_cli_search_is_read_without_loading_search_at_import():
    # perfbench reads cli.search; importing cli alone leaves search unloaded
    script = ("import sys\nimport biquadrates.cli as cli\n"
              "loaded = 'biquadrates.search' in sys.modules\n"
              "read = cli.search\nfrom biquadrates.cli import search\n"
              "owner = sys.modules['biquadrates.search']\n"
              "print(repr((loaded, read is search is owner.search)))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == (False, True)
    assert "search" not in vars(cli)
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_no_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


BAD_ARGV = [
    ["search", "--bx", "1", "--by", "5"],
    ["search", "--bx", "4", "--by", "4", "--threads", "2"],
    ["search", "--bx", "4", "--by", "4", "--strategy", "sum_table"],
    ["curve", "--n", "0", "--m", "1"],
    ["curve", "--n", "1", "--m", "0"],
    ["curve", "--n", "1", "--m", "1/0"],
    ["family", "eq99", "--param", "1"],
    ["family", "eq20", "--param", "0"],
    ["pell", "--k", "0"],
    ["pell", "--k", "3000"],
    ["verify", "1", "2", "3"],
    ["verify", "1", "2", "3", "4", "5", "6"],
    # argparse reads --opt=-- as no value at all: the reader refuses it
    ["curve", "--n", "1", "--m=--"],
    ["pell", "--k=--"],
    ["family", "eq20", "--param=--"],
    ["search", "--bx=--", "--by", "3"],
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_argv_fails_clean(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code in (1, 2)
    assert captured.err != ""
    assert "Traceback" not in captured.out + captured.err
    if code == 1:
        assert captured.err.startswith(argv[0] + ": ")


BIG = str(10**1200)


@pytest.mark.parametrize("argv", [
    ["pell", "--k", "3000"],
    ["verify", BIG, BIG, BIG, BIG, BIG, BIG],
], ids=("pell", "verify"))
def test_digit_limit_is_a_domain_failure(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(argv[0] + ": ")
    assert "for integer string conversion" in err


def test_a_record_past_the_digit_limit_is_refused_unproved(capsys, monkeypatch):
    # the record's text comes first, so its refusal costs no check and no
    # canonical key; the spies only count, since str() of the tuple would
    # itself hit the limit
    check, key = exact.check_solution, exact.canonicalize
    calls = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("biquadrates"):
            if getattr(mod, "check_solution", None) is check:
                monkeypatch.setattr(mod, "check_solution",
                                    lambda s: calls.append("check") or check(s))
            if getattr(mod, "canonicalize", None) is key:
                monkeypatch.setattr(mod, "canonicalize",
                                    lambda s, check=True: calls.append("key") or key(s, check))
    code, out, err = run(capsys, "pell", "--k", "2463")
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("pell: ") and err.count("\n") == 1
    assert "integer string conversion" in err


def test_broken_pipe_exits_clean():
    # 109 KB of output outgrows the pipe buffer and the reader's one read, so
    # a write inside main fails once the reader has closed the pipe
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "biquadrates.cli", "curve", "--n", "8", "--symbolic",
         "--sign", "plus"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"sign: plus\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1
    assert err == b"curve: broken pipe\n"


def test_memory_limit_exits_clean():
    # search 60x90 peaks near 80 MB; a 60 MB address-space limit, set on the
    # child alone, makes it raise MemoryError, which main reports in one line
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (60 << 20, 60 << 20))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "biquadrates.cli", "search", "--bx", "60", "--by", "90"],
        capture_output=True, env=env, preexec_fn=limit, timeout=300)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"search: ") and proc.stderr.count(b"\n") == 1
    assert b"Traceback" not in proc.stderr


def test_internal_value_error_is_not_a_domain_failure(capsys, monkeypatch):
    def broken():
        raise ValueError("internal bug")

    monkeypatch.setitem(identity.ALL_VERIFIERS, "brahmagupta", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["selftest", "--quick"])
    assert "selftest:" not in capsys.readouterr().err


# Cheap values only: n <= 3, bounds <= 10, k <= 50, fractions a/b with
# |a| <= 6 and 0 <= b <= 6 (so zero values and zero denominators occur),
# passed as --flag=a/b so that negative values parse.
FRACTIONS = st.builds("{}/{}".format, st.integers(-6, 6), st.integers(0, 6))
FLAGS = st.sampled_from(([], ["--json"], ["--descending"]))


def _value_or_symbolic(flag):
    return st.one_of(FRACTIONS.map(lambda f: [flag + "=" + f]),
                     st.just(["--symbolic"]))


ARGV = st.one_of(
    st.lists(st.integers(-30, 30).map(str), min_size=5, max_size=7)
    .map(lambda vs: ["verify"] + vs),
    st.builds(lambda bx, by, fmt: ["search", "--bx", bx, "--by", by] + fmt,
              st.integers(0, 10).map(str), st.integers(0, 10).map(str),
              st.sampled_from(([], ["--csv"], ["--json"]))),
    st.builds(lambda name, mode, flags: ["family", name] + mode + flags,
              st.sampled_from(sorted(FAMILIES) + ["eq99"]),
              _value_or_symbolic("--param"), FLAGS),
    st.builds(lambda n, mode, sign, flags:
              ["curve", "--n", n] + mode + ["--sign", sign] + flags,
              st.integers(0, 3).map(str), _value_or_symbolic("--m"),
              st.sampled_from(("auto", "plus", "minus")), FLAGS),
    st.builds(lambda mode, flags: ["pell"] + mode + flags,
              st.one_of(st.integers(0, 50).map(lambda k: ["--k", str(k)]),
                        FRACTIONS.map(lambda t: ["--t=" + t])),
              st.sampled_from(([], ["--json"]))),
    st.sampled_from((["selftest", "--quick"], ["selftest", "--full"])),
)


@given(ARGV)
@settings(max_examples=80, deadline=None)
def test_any_argv_exits_clean(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code != 0:
        assert err.getvalue() != ""
