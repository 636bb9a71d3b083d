"""Count each src/farmerjoshi module's lines as code, docstring, comment or blank.

A line is code if a code token covers it, docstring if a string standing alone as a
statement does; the total equals ``wc -l``. Usage: python tests/src_lines.py [SRC_DIR]
"""

import sys
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


if __name__ == "__main__":
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1] / "src/farmerjoshi"
    rows = [(p.name, counts(p.read_text())) for p in sorted(src.glob("*.py"))]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in (*KINDS, "total")))
    for name, c in rows:
        print(f"{name:<16}" + "".join(f"{c[k]:>10}" for k in KINDS) + f"{sum(c.values()):>10}")
