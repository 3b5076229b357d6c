"""The table reader: argparse's rules for every command line that is not plain.

``cli.parse_args`` reads a plain command line itself (``cli._plain``) and
imports this module only for the rest: an option prefix, an ``=`` value,
``--``, ``-h``/``--help``, a repeated or clashing option, a missing or bad
value, or a ``-`` token that is not a plain negative integer.
``parse_args`` reads such a line by argparse's rules for the caller's
command table, in one pass and without state between calls, and writes
argparse's help, usage and error text: -h/--help exits 0, a usage error
exits 2.

The table, the top level and the help options come from the caller.  This
module does not import ``biquadrates.cli``: run as ``python -m
biquadrates.cli``, that module is ``__main__``, and importing it by name
would compile and run it a second time, as a second module.
"""

import re
import sys
from types import SimpleNamespace

_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")   # argparse reads these as values


def _metavar(meta):
    return meta if isinstance(meta, str) else "{%s}" % ",".join(meta)


def parse_args(args, commands, top, help_names):
    """The namespace of the token list args by argparse's rules for ``commands``
    (``cli.COMMANDS``' layout), whose top level is ``top`` and whose help
    options are ``help_names``."""
    reader, extras = _Reader(commands, top, help_names), []
    # a first token that names a command is the command: skip biquadrates' own pass
    ns = (reader.parse(args[0], args[1:], extras) if args[:1] and args[0] in commands
          else reader.parse(None, args, extras))
    if extras:
        reader.error(None, "unrecognized arguments: %s" % " ".join(extras))
    return ns


class _Reader:
    """One reading of a command table, whose entry for a missing command is
    ``top``: biquadrates itself, whose positional is the command."""

    def __init__(self, commands, top, help_names):
        self.commands, self.top, self.help = commands, top, help_names

    def usage(self, command, full=False):
        """The usage line of ``biquadrates [command]`` and, if full, its help."""
        _, about, pos, opts, groups = self.commands.get(command, self.top)
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
        rows = [(c, self.commands[c][1]) for c in self.commands] if command is None else [
            (spell[n], s[3]) for n, s in opts.items()]
        rows.append(("-h, --help", "show this help message and exit"))
        return usage + "\n%s\n\n%s\n" % (about, "\n".join(
            ("  %-24s  %s" % row).rstrip() for row in rows))

    def error(self, command, message):
        """Write a usage error as argparse does, and exit 2."""
        prog = "biquadrates " + command if command else "biquadrates"
        sys.stderr.write("%s%s: error: %s\n" % (self.usage(command), prog, message))
        raise SystemExit(2)

    def option(self, tok, names, command):
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
            self.error(command, "ambiguous option: %s could match %s"
                       % (tok, ", ".join(n for n, _ in hits)))
        return hits[0] if hits else None if _NUMBER.match(tok) or " " in tok else (None, None)

    def value(self, command, label, convert, choices, text):
        """text converted, then checked against the choices, as argparse does."""
        try:
            value = convert(text)
        except (TypeError, ValueError):
            self.error(command, "argument %s: invalid %s value: %r"
                       % (label, convert.__name__, text))
        if not isinstance(choices, str) and value not in choices:
            self.error(command, "argument %s: invalid choice: %r (choose from %s)"
                       % (label, value, ", ".join(map(repr, choices))))
        return value

    def parse(self, command, rest, extras):
        """The namespace of ``command`` from ``rest``, read in one pass as argparse
        reads it; the tokens that no argument takes go to extras."""
        func, _, pos, opts, groups = self.commands.get(command, self.top)
        ns = SimpleNamespace(command=command, func=func,
                             **{name[2:]: spec[2] for name, spec in opts.items()})
        names = self.help + tuple(opts)
        end = rest.index("--") if "--" in rest else len(rest)
        found = [self.option(tok, names, command) for tok in rest[:end]]
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
                    return self.parse(self.value(None, label, *pos[2:], rest[i]),
                                      rest[i + 1:], extras)
                j = i + match.end() if match else i
                if match:   # the values but the "--"
                    values = [self.value(command, label, *pos[2:], tok)
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
            if name in self.help or opts[name][0] is None:   # a flag
                if name == "-h" and arg:   # -hh... is -h -h ...
                    arg = arg.lstrip("h") or None
                if arg is not None:
                    self.error(command, "argument %s: ignored explicit argument %r"
                               % ("-h/--help" if name in self.help else name, arg))
                if name in self.help:
                    sys.stdout.write(self.usage(command, True))
                    raise SystemExit(0)
                value = True
            else:
                if arg is None:   # the next token, if it is a value
                    if kinds[i] != "A":
                        self.error(command, "argument %s: expected one argument" % name)
                    arg, i = rest[i], i + 1
                value = self.value(command, name, *opts[name][:2], arg)
            clash = [n for _, g in groups if name in g for n in g if n in seen and n != name]
            if clash:
                self.error(command, "argument %s: not allowed with argument %s"
                           % (name, clash[0]))
            seen.add(name)
            setattr(ns, name[2:], value)
        missing = [label] * bool(pos and pos[0] not in seen) + [
            g[0] for need, g in groups if need and not g[1:] and g[0] not in seen]
        if missing:
            self.error(command, "the following arguments are required: %s"
                       % ", ".join(missing))
        for need, group in groups:
            if need and not seen.intersection(group):
                self.error(command, "one of the arguments %s is required" % " ".join(group))
        return ns
