"""Count the simulator's source lines by kind.

Prints, for each file of `src/dmrfsim/` and for the package as a whole, the
total lines and their split into code, docstring, comment and blank lines. A
line is docstring if any part of a string statement (a module, class or
function docstring, or any other string standing alone as a statement) lies
on it, else code if it holds any other token, else comment if it holds a
comment, else blank. The split shows whether a cut removed code or only
prose.

    python tools/src_lines.py
"""

from __future__ import annotations

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dmrfsim"
KINDS = ("code", "docstring", "comment", "blank")

#: tokens that carry no code of their own
_LAYOUT = {
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.COMMENT,
}


def count_lines(path: Path) -> dict[str, int]:
    """The number of lines of each kind in one Python file."""
    with tokenize.open(path) as f:
        total = len(f.readlines())
        f.seek(0)
        tokens = list(tokenize.generate_tokens(f.readline))
    docstring, code, comment = set(), set(), set()
    # a string statement is a STRING between two statement boundaries
    significant = [t for t in tokens if t.type not in _LAYOUT - {tokenize.NEWLINE}]
    for i, tok in enumerate(significant):
        if tok.type != tokenize.STRING:
            continue
        before = significant[i - 1].type if i else tokenize.NEWLINE
        after = significant[i + 1].type if i + 1 < len(significant) else tokenize.NEWLINE
        if before == after == tokenize.NEWLINE:
            docstring.update(range(tok.start[0], tok.end[0] + 1))
    for tok in tokens:
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.update(lines)
        elif tok.type not in _LAYOUT:
            code.update(lines)
    code -= docstring
    comment -= docstring | code
    counts = {"code": len(code), "docstring": len(docstring), "comment": len(comment)}
    counts["blank"] = total - sum(counts.values())
    return counts


def main() -> None:
    rows = [(path.name, count_lines(path)) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", {k: sum(counts[k] for _, counts in rows) for k in KINDS}))
    print(f"{'src/dmrfsim':<16}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name, counts in rows:
        print(f"{name:<16}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main()
