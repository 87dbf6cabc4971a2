"""Count the code lines of each module under src/multivirt: lines that hold a
token other than a comment, leaving out blank lines and docstrings.

    python tools/count_code_lines.py [--functions] [directory]

prints the count per module directly in the directory and the total; the
directory defaults to the package source next to this script, and one that
holds no `*.py` module is refused with the usage message.  With --functions,
each module's line is followed by one indented line per top-level function
and class, decorators included, in source order.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_HAS_DOCSTRING = (ast.Module, *_DEFINITIONS)


def _code_line_numbers(source: str, tree: ast.Module) -> set[int]:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    return len(_code_line_numbers(source, ast.parse(source)))


def definition_code_lines(source: str) -> list[tuple[str, int]]:
    """(name, code lines) of each top-level function and class, in source order."""
    tree = ast.parse(source)
    lines = _code_line_numbers(source, tree)
    out = []
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            first = min([node.lineno] + [dec.lineno for dec in node.decorator_list])
            out.append((node.name, sum(1 for n in lines if first <= n <= node.end_lineno)))
    return out


if __name__ == "__main__":
    args = sys.argv[1:]
    functions = "--functions" in args
    args = [a for a in args if a != "--functions"]
    package = Path(__file__).resolve().parents[1] / "src" / "multivirt"
    root = Path(args[0]) if args else package
    paths = sorted(root.glob("*.py")) if root.is_dir() else []
    # Anything else, an option this script does not know (--help among them)
    # or a directory that is not there or holds no module, is a usage error.
    if len(args) > 1 or args and args[0].startswith("-") or not paths:
        sys.exit("usage: python tools/count_code_lines.py [--functions] [directory]")
    total = 0
    for path in paths:
        source = path.read_text()
        n = code_lines(source)
        total += n
        print(f"{n:6d}  {path.name}")
        if functions:
            for name, k in definition_code_lines(source):
                print(f"{k:6d}    {name}")
    print(f"{total:6d}  total")
