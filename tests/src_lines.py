"""Count each src/farmerjoshi module's lines as code, docstring, comment or blank.

A line is code if a code token covers it, docstring if a string standing alone as a
statement does; the total equals ``wc -l``. Usage:

    python tests/src_lines.py [SRC_DIR]                 # the counts of SRC_DIR
    python tests/src_lines.py [SRC_DIR] --against REV   # their change since git REV

With ``--against`` each column is the working tree's count minus the count of the
same module at REV (read with ``git show``); a module on one side only counts 0 on
the other.
"""

import argparse
import subprocess
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text: str) -> dict:
    toks = [t for t in tokenize.generate_tokens(iter(text.splitlines(True)).__next__)
            if t.type not in (tokenize.COMMENT, tokenize.NL)]
    code, doc = set(), set()
    for prev, tok, nxt in zip([None, *toks], toks, toks[1:]):
        lines = range(tok.start[0], tok.end[0] + 1)
        if (tok.type == tokenize.STRING and nxt.type == tokenize.NEWLINE
                and (prev is None or prev.type in NOT_CODE)):
            doc.update(lines)
        elif tok.type not in NOT_CODE:
            code.update(lines)
    out = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(text.splitlines(), 1):
        out["code" if n in code else "docstring" if n in doc else
            "comment" if line.strip() else "blank"] += 1
    return out


def modules_at(src: Path, rev: str) -> dict:
    """Module name -> source text of each ``*.py`` file in ``src`` at git ``rev``."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], check=True,
                              capture_output=True, text=True).stdout
    names = [n for n in git("ls-tree", "--name-only", rev, "--", ".").split() if n.endswith(".py")]
    return {n: git("show", f"{rev}:./{n}") for n in names}


def table(rows, signed: bool = False) -> str:
    rows = [*rows, ("total", {k: sum(c[k] for _, c in rows) for k in KINDS})]
    fmt = "{:>+10}" if signed else "{:>10}"
    lines = [f"{'module':<16}" + "".join(f"{k:>10}" for k in (*KINDS, "total"))]
    for name, c in rows:
        lines.append(f"{name:<16}" + "".join(fmt.format(v) for v in (*c.values(), sum(c.values()))))
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).parents[1] / "src/farmerjoshi")
    parser.add_argument("--against", metavar="REV", help="print the change since git REV")
    args = parser.parse_args()
    now = {p.name: counts(p.read_text()) for p in sorted(args.src.glob("*.py"))}
    if args.against is None:
        print(table(now.items()))
    else:
        old = {n: counts(text) for n, text in modules_at(args.src, args.against).items()}
        zero = dict.fromkeys(KINDS, 0)
        print(table([(n, {k: now.get(n, zero)[k] - old.get(n, zero)[k] for k in KINDS})
                     for n in sorted(now.keys() | old.keys())], signed=True))
