"""Print the size of each module of src/liegrowth: lines, and code lines.

Code lines leave out blank lines, comments and docstrings, so a change's net
is read in them. With ``--against REV`` each module's net against the same
module at the git revision REV is printed too (a module missing on one side
counts as 0 lines there):

    python tools/source_size.py                    # the working tree
    python tools/source_size.py --against HEAD~1   # and the net against HEAD~1
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/liegrowth"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The lines holding a token that is not a comment, of code that is not a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            doc = body[0].value
            if isinstance(doc, ast.Constant) and isinstance(doc.value, str):
                docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def sources(rev: str | None = None) -> dict[str, str]:
    """Module file name -> source, in the working tree or at the git revision `rev`."""
    if rev is None:
        return {p.name: p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: _git("show", f"{rev}:{PACKAGE}/{name}") for name in names if name.endswith(".py")}


def report(now: dict[str, str], base: dict[str, str] | None = None) -> list[str]:
    """One row per module and a total: lines and code lines, and with `base` the net of each."""
    new, old = _sizes(now), _sizes(base or {})
    rows = []
    totals = [0, 0, 0, 0]
    for name in sorted(new.keys() | old.keys()):
        counts = new.get(name, (0, 0)) + old.get(name, (0, 0))
        totals = [t + c for t, c in zip(totals, counts)]
        rows.append(_row(f"{PACKAGE}/{name}", counts, base is not None))
    rows.append(_row("total", totals, base is not None))
    return rows


def _sizes(sources: dict[str, str]) -> dict[str, tuple[int, int]]:
    return {name: (len(src.splitlines()), code_lines(src)) for name, src in sources.items()}


def _row(label: str, counts, net: bool) -> str:
    lines, code, base_lines, base_code = counts
    text = f"{lines:6d} lines {code:6d} code"
    if net:
        text += f"   net {lines - base_lines:+5d} lines {code - base_code:+5d} code"
    return f"{text}   {label}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="also print each module's net against this git revision")
    args = parser.parse_args(argv)
    base = sources(args.against) if args.against else None
    print(*report(sources(), base), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
