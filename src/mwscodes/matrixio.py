"""Text file format for generator matrices.

Line 1:  q k n
Line 2:  n column multiplicities -- omitted when all are 1
Then:    k rows of n field-element indices

Blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

from pathlib import Path

from .codes import LinearCode
from .gf import build_field


def _dumps_rows(q: int, rows, multiplicities=()) -> str:
    """The text of k x n generator rows over GF(q), unchecked; the
    multiplicity line is written only when multiplicities are given."""
    lines = [f"{q} {len(rows)} {len(rows[0])}"]
    if multiplicities:
        lines.append(" ".join(str(m) for m in multiplicities))
    for row in rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def dumps_code(code: LinearCode) -> str:
    return _dumps_rows(code.q, code.generator, () if code.is_plain else code.multiplicities)


def loads_code(text: str) -> LinearCode:
    rows = [
        [int(tok) for tok in line.split()]
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows or len(rows[0]) != 3:
        raise ValueError("matrix file must start with a 'q k n' header line")
    q, k, n = rows[0]
    if k < 1 or n < 1:
        raise ValueError(f"header needs k >= 1 and n >= 1, got k={k}, n={n}")
    body = rows[1:]
    if len(body) == k + 1:
        multiplicities = tuple(body[0])
        body = body[1:]
    elif len(body) == k:
        multiplicities = (1,) * n
    else:
        raise ValueError(f"expected {k} matrix rows (plus optional multiplicity line), got {len(body)}")
    if any(len(r) != n for r in body) or len(multiplicities) != n:
        raise ValueError(f"rows must have exactly n={n} entries")
    return LinearCode(
        field=build_field(q),
        generator=tuple(tuple(r) for r in body),
        multiplicities=multiplicities,
    )


def save_code(code: LinearCode, path: str | Path) -> None:
    Path(path).write_text(dumps_code(code))


def load_code(path: str | Path) -> LinearCode:
    return loads_code(Path(path).read_text())
