"""Code lines per module of ``src/bcsym`` in one checkout, then the total.

A code line holds at least one token other than a comment, a docstring or
another bare string statement: blank lines, comment lines and the lines of
docstrings do not count, while a line that a multi-line expression spans
does.  This is the count that ROADMAP's aim 2 measures progress by.

    python3 scripts/loc.py --checkout .
    python3 scripts/loc.py --checkout ../parent
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code: layout, comments and the file's end
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    bare = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    ]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(lo <= tok.start < hi for lo, hi in bare):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", default=".", help="root of the checkout to count")
    args = ap.parse_args(argv)
    package = Path(args.checkout) / "src" / "bcsym"
    modules = sorted(package.glob("*.py"))
    if not modules:
        ap.error(f"no modules under {package}")
    total = 0
    for path in modules:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<16} {n:>6}")
    print(f"{'total':<16} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
