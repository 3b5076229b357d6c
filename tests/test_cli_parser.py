"""``cli.parse_args`` against argparse (``oracles.argparse_parser``), and its
plain reader (``cli._plain``) against its table reader: argparse built from
``cli.COMMANDS`` (``usage``).

Command lines are drawn from each command's options, their unique and
ambiguous prefixes, both value forms, negative numbers, ``--``, ``-h`` and
tokens no command takes.  ``parse_args`` and argparse must exit with the same
code and the same error line; on acceptance they must give the same value to
every destination.  Wherever the plain reader returns a namespace, the table
reader must return an equal one; the plain reader must read README's usage
lines and the ``ACCEPTED`` lines, and hand over the forms it leaves to the
table reader.
"""

import ast
import io
import itertools
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from biquadrates import cli, usage
from oracles import argparse_parser

ORACLE = argparse_parser()
# a command line each command accepts, in parts that may come in any order
ACCEPTED = {
    "verify": [[["1", "2", "5", "6", "8", "13"]], [["-1", "2", "5", "6", "8", "13"]]],
    "search": [[["--bx", "4"], ["--by", "9"]], [["--bx", "4"], ["--by", "9"], ["--csv"]]],
    "family": [[["eq20"], ["--param", "1/2"]], [["eq21"], ["--symbolic"], ["--json"]]],
    "curve": [[["--n", "2"], ["--m", "-2"]], [["--n", "1"], ["--symbolic"], ["--sign", "plus"]]],
    "pell": [[["--k", "2"]], [["--t", "3/5"], ["--json"]]],
    "selftest": [[], [["--quick"]]],
}
VALUES = ("1", "2", "-2", "3/5", "0.5", "plus", "eq20", "0", "-2/7", "-.5", "1e5", "x", "",
          "-", "--", "a b", "-1 x", "auto", "minus", "eq99", "-h")
ODD = ("-h", "--help", "--he", "-hh", "-hx", "-h=h", "--help=1", "-x", "--nope", "--",
       "--=1", "---", "-", "-2/7", "eq26")


def _names(command):
    names = list(cli.COMMANDS[command][3])
    # and every prefix of two dashes and at least one letter, unique or ambiguous
    return names + sorted({n[:k] for n in names for k in range(3, len(n))})


def _part(command):
    """Tokens to add: an option with a value in either form, an option alone
    (a flag or a missing value), a run of integers, or an odd token."""
    name, value = st.sampled_from(_names(command) + ["--nope"]), st.sampled_from(VALUES)
    return st.one_of(st.tuples(name, value).map(list),
                     st.tuples(name, value).map("=".join).map(lambda t: [t]),
                     name.map(lambda n: [n]),
                     st.lists(st.integers(-9, 20).map(str), min_size=1, max_size=7),
                     st.sampled_from(ODD).map(lambda t: [t]))


def _spelled(draw, part):
    """An accepted option part in the = form or under a prefix, or as it is."""
    if part[0].startswith("--") and draw(st.booleans()):
        name = part[0][:draw(st.integers(3, len(part[0])))]
        return [name + "=" + part[1]] if part[1:] and draw(st.booleans()) else [name] + part[1:]
    return part


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(tuple(cli.COMMANDS) * 4 + ("ver", "--", "-1")))
    accepted = draw(st.sampled_from(ACCEPTED.get(command, ACCEPTED["curve"])))
    parts = [_spelled(draw, part) for part in accepted]
    parts += draw(st.lists(_part(command if command in cli.COMMANDS else "curve"), max_size=2))
    before = draw(st.sampled_from([[]] * 8 + [[t] for t in ("-h", "-x", "--", "--json", "-2")]))
    return before + [command] + [t for part in draw(st.permutations(parts)) for t in part]


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ns = vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return 0, ns, err.getvalue()


@given(argvs())
@settings(max_examples=400, deadline=None)
@example(["curve", "--s"])
@example(["curve", "--sym", "--n", "2", "--desc", "--n=3"])
@example(["curve", "--n", "1", "--m", "-2"])
@example(["curve", "--n", "1", "--m", "-2/7"])
@example(["curve", "--n", "1", "--m=-2/7", "--symbolic"])
@example(["verify", "-1", "2", "5", "6", "8", "13"])
@example(["verify", "1", "--", "2", "5", "6", "8", "13"])
@example(["--json", "family", "--param", "1", "eq20"])
@example(["pell", "--k", "1", "--t", "2"])
@example(["search", "--bx", "1", "--csv", "--by", "2", "--json"])
@example(["search", "--bx"])
@example(["curve", "--n", "1", "--m=--"])
@example(["pell", "--k=--"])
@example(["search", "--by", "9", "--bx=--", "--bx", "4"])
@example(["search", "--bx", "4", "--by", "9", "--bx=--", "-h", "--csv"])
@example(["selftest", "-hh"])
@example(["-h"])
@example([])
def test_table_parser_reads_what_argparse_reads(argv):
    theirs = _outcome(ORACLE.parse_args, argv)
    ours = _outcome(cli.parse_args, argv)
    code, value, err = theirs
    if any(t.startswith("--") and t.endswith("=--") for t in argv):
        # argparse gives --opt=-- the empty list, on which the handlers end in
        # a traceback; the table reader refuses it as a missing value, so
        # only a refusal may differ in its message
        assert ours[0] == 2 if isinstance(value, dict) else ours[0] == code
        return
    assert ours[0] == code
    if isinstance(value, dict):
        assert ours[1] == value and ours[2] == err == ""
    elif code == 2:
        assert ours[1] == value == ""
        assert ours[2].split("\n")[-2] == err.split("\n")[-2]   # the error line
        assert ours[2].split()[:3] == err.split()[:3]   # usage: biquadrates <command>
    else:   # -h: the help on stdout
        assert code == 0 and ours[2] == err == ""
        assert ours[1].split()[:3] == value.split()[:3]


def test_help_lists_every_option():
    for command, (_, about, _, opts, _) in cli.COMMANDS.items():
        out = _outcome(cli.parse_args, [command, "--help"])
        assert out[0] == 0 and out[1].startswith("usage: biquadrates %s [-h]" % command)
        assert about in out[1] and all(name in out[1] for name in opts)
    out = _outcome(cli.parse_args, ["-h"])
    assert out[0] == 0 and all(c in out[1] for c in cli.COMMANDS)


def test_commands_load_no_argparse():
    # a one-shot process pays for every module it imports: a plain line is
    # read without argparse and the gettext it loads; a line handed over,
    # here an ambiguous prefix, loads argparse
    script = ("import sys\nfrom biquadrates.cli import main\n"
              "assert main(['verify', '1', '2', '5', '6', '8', '13']) == 0\n"
              "assert main(['curve', '--n', '2', '--symbolic']) == 0\n"
              "plain = sorted({'argparse', 'gettext'} & set(sys.modules))\n"
              "try:\n    main(['curve', '--s'])\nexcept SystemExit as exc:\n"
              "    assert exc.code == 2\n"
              "print(repr((plain, 'argparse' in sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == ([], True)


def _table(argv):
    return usage.parse_args(argv, cli.COMMANDS, cli._ABOUT)


# texts for a value of a converter, beside its valid ones: negative numbers
# and values that fail a converter or a choice
ODD_VALUES = ("-3", "-0", "0", "-1/2", "-.5", "1/0", "1e5", "x", "", "-5\n", "5\n", " 5",
              "-", "eq20", "plus", "--bx")


def _value_texts(convert, meta):
    if not isinstance(meta, str):
        valid = st.sampled_from(meta)
    elif convert is cli.fraction:
        valid = st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 9))
    else:
        valid = st.integers(-30, 30).map(str)
    return st.one_of(valid, st.sampled_from(ODD_VALUES))


@st.composite
def plain_lines(draw):
    """A command and some of its options, by whole name in any order, repeats
    included, each value option with a value; the positional with its count
    of values, or one too few or too many."""
    command = draw(st.sampled_from(tuple(cli.COMMANDS)))
    _, _, pos, opts, _ = cli.COMMANDS[command]
    names = draw(st.lists(st.sampled_from(tuple(opts)), max_size=len(opts) + 1) if opts
                 else st.just([]))
    parts = [[n] + ([] if opts[n][0] is None else [draw(_value_texts(*opts[n][:2]))])
             for n in names]
    if pos:
        count = draw(st.sampled_from((pos[1], pos[1], pos[1] - 1, pos[1] + 1)))
        parts.append([draw(_value_texts(*pos[2:])) for _ in range(count)])
    return [command] + [t for part in draw(st.permutations(parts)) for t in part]


@given(st.one_of(argvs(), plain_lines()))
@settings(max_examples=400, deadline=None)
@example(["curve", "--n", "2", "--n", "3", "--symbolic"])
@example(["curve", "--n", "1", "--m", "-2"])
@example(["curve", "--n", "1", "--m", "-2/7"])
@example(["curve", "--n", "1", "--m=-2/7"])
@example(["family", "--param", "1/2", "eq20"])
@example(["verify", "-1", "2", "5", "6", "8", "13"])
@example(["verify", "-5\n", "2", "5", "6", "8", "13"])
@example(["search", "--bx", "4", "--by", "9", "--csv", "--json"])
@example(["pell", "--k", "1", "--t", "2"])
@example(["curve", "--n", "0", "--symbolic"])
def test_plain_reader_reads_what_the_table_reader_reads(argv):
    ns = cli._plain(argv)
    if ns is not None:
        code, table, err = _outcome(_table, argv)
        assert code == 0 and err == ""
        assert vars(ns) == table and ns.func is table["func"]


# README's usage block, each line after its "biquadrates"
README_LINES = [
    "verify 1 2 5 6 8 13", "search --bx 14 --by 30 --csv", "family eq20 --param 2",
    "family eq21 --symbolic", "curve --n 1 --m 1", "curve --n 2 --symbolic",
    "curve --n 2 --m 3 --sign plus", "pell --k 2", "pell --t 3", "selftest"]
# lines the plain reader hands to the table reader
HANDED_OVER = [
    ["curve", "--n", "2", "--n", "3", "--symbolic"], ["curve", "--n", "1", "--m", "-2/7"],
    ["curve", "--n", "1", "--m=-2/7"], ["curve", "--sym", "--n", "2"],
    ["verify", "-5\n", "2", "5", "6", "8", "13"],
    ["verify", "1", "--", "2", "5", "6", "8", "13"],
    ["search", "--bx", "4", "--by", "9", "--csv", "--json"], ["pell", "--k", "1", "--t", "2"],
    ["curve", "--n", "0", "--symbolic"], ["curve", "--n", "1", "--m", "-0.5"],
    ["selftest", "-h"], ["search", "--bx"], ["family", "eq20"], ["--json", "selftest"], []]


def test_plain_reader_reads_plain_lines_and_hands_over_the_rest():
    lines = [line.split() for line in README_LINES] + [
        [command] + [t for part in order for t in part]
        for command, lines in ACCEPTED.items() for parts in lines
        for order in itertools.permutations(parts)]
    for argv in lines:
        ns = cli._plain(argv)
        assert ns is not None, argv
        assert _outcome(_table, argv) == (0, vars(ns), ""), argv
    for argv in HANDED_OVER:
        assert cli._plain(argv) is None, argv
