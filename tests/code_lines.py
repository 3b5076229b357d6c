"""Count the lines and the code lines of Python modules.

A code line is a line that holds a token outside docstrings and comments.
A docstring here is any statement that is a bare string literal, so the
strings that document module attributes count as docstrings too.  Each line
of a statement continued over several lines is a code line, and so is each
line of a string literal that is not a docstring.  Lines are counted as
``wc -l`` counts them, by newline characters.

    python tests/code_lines.py src/biquadrates

prints the lines and code lines of each module (every ``*.py`` in a
directory, or each file named), then their totals.  It uses the standard
library only, and its name keeps it out of pytest's collection.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token outside docstrings
    and comments."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docs.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    files = [f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    total_lines = total_code = 0
    print("%6s %6s  %s" % ("lines", "code", "module"))
    for f in files:
        text = f.read_text()
        lines, code = text.count("\n"), code_lines(text)
        total_lines += lines
        total_code += code
        print("%6d %6d  %s" % (lines, code, f))
    print("%6d %6d  total" % (total_lines, total_code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
