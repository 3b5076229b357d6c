"""argparse's reading of every command line that ``cli._plain`` hands over.

``cli.parse_args`` reads a plain line itself and imports this module for
the rest: a prefix, an ``=`` value, ``--``, ``-h``, a repeated or clashing
option, a missing or bad value, a ``-`` token that is not a plain negative
integer.  ``parse_args`` builds argparse's parser from the caller's table on
each call, so help, usage and error text are argparse's.  The table comes
from the caller: under ``python -m biquadrates.cli`` that module is
``__main__``, and importing it here would run it again, as a second module.
"""

import argparse


class _Store(argparse.Action):
    """argparse's store; it refuses ``--opt=--`` (no value to argparse) after the whole line."""

    def __call__(self, parser, ns, value, option):
        if value == []:
            ns.refused = parser, option
        setattr(ns, self.dest, value)


def parse_args(args, commands, description):
    """The namespace argparse reads from args by ``commands`` (``cli.COMMANDS``' layout)."""
    parser = argparse.ArgumentParser(prog="biquadrates", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, about, pos, opts, groups) in commands.items():
        p = sub.add_parser(command, help=about, description=about)
        if command not in args:   # argparse runs only a command that a token names
            continue
        if pos:
            dest, count, convert, meta = pos
            p.add_argument(dest, nargs=count if count > 1 else None, type=convert,
                           **{"metavar" if isinstance(meta, str) else "choices": meta})
        owner = {name: group for need, names in groups if names[1:] for group in
                 [p.add_mutually_exclusive_group(required=need)] for name in names}
        for name, (convert, meta, default, text) in opts.items():
            spec = {"action": "store_true"} if convert is None else {
                "action": _Store, "type": convert, "default": default,
                "metavar" if isinstance(meta, str) else "choices": meta}
            owner.get(name, p).add_argument(name, help=text, **spec,
                                            required=(True, (name,)) in groups)
        p.set_defaults(func=func)
    ns = parser.parse_args(args)
    if hasattr(ns, "refused"):
        ns.refused[0].error("argument %s: expected one argument" % ns.refused[1])
    return ns
