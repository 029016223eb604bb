"""Grid diagrams of PCE maps ('#' preserved / '.' erased) in ascii and svg.

Layouts by qubit count:

* n = 1 — a column of four cells, digit 0 at the top.
* n = 2 — a 4x4 grid; row = qubit-1 digit, column = qubit-2 digit, (0, 0)
  top-left.
* n = 3 — a 4x4 outer grid over (qubit-1 digit = row, qubit-2 digit = column
  group), each cell an inner 1x4 strip over the qubit-3 digit; ascii
  separates the strips with one space.

One table, `_LAYOUT`, holds these layouts; `render_ascii`, `parse_ascii` and
`render_svg` all read their cells from it. Rendering is byte-deterministic,
and `parse_ascii` inverts `render_ascii` exactly.
"""

from __future__ import annotations

import numpy as np

from .maps import PceMap, Subspace, subspace_to_map
from .pauli import DIAGRAM_QUBIT_LIMIT, check_qubits

__all__ = ["DIAGRAM_QUBIT_LIMIT", "render_ascii", "parse_ascii", "render_svg"]

_CELL = 20
_MARGIN = 10
_GAP = 8


def _layout(n: int) -> list[list[list[int]]]:
    """Rows of cell groups, each group its flat indices in reading order.

    Row = qubit-1 digit; a row's cells run over qubit 2 (n = 2), or over
    qubit 2 as the group and qubit 3 within it (n = 3).
    """
    size = min(4, 4 ** (n - 1))
    groups = 4 ** (n - 1) // size
    return [
        [[row + 4 * (g + groups * i) for i in range(size)] for g in range(groups)]
        for row in range(4)
    ]


_LAYOUT = {n: _layout(n) for n in range(1, DIAGRAM_QUBIT_LIMIT + 1)}


def _renderable(obj: PceMap | Subspace) -> PceMap:
    """The bitmask to draw; the qubit limit is checked before it is built."""
    check_qubits(
        obj.n, DIAGRAM_QUBIT_LIMIT, "a grid diagram (larger maps have only the JSON form)"
    )
    return subspace_to_map(obj) if isinstance(obj, Subspace) else obj


def render_ascii(pce: PceMap | Subspace) -> str:
    """Ascii grid, one text line per qubit-1 digit; ends with a newline."""
    pce = _renderable(pce)
    bits = pce.tau_vector()
    lines = [
        " ".join("".join("#" if bits[f] else "." for f in group) for group in row)
        for row in _LAYOUT[pce.n]
    ]
    return "\n".join(lines) + "\n"


def parse_ascii(text: str) -> PceMap:
    """Recover the exact bitmask from `render_ascii` output."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if len(lines) != 4:
        raise ValueError(f"expected 4 diagram lines, got {len(lines)}")
    widths = {len(line) for line in lines}
    # A line is its row's groups joined by single spaces.
    n = next(
        (n for n, rows in _LAYOUT.items()
         if widths == {sum(map(len, rows[0])) + len(rows[0]) - 1}),
        None,
    )
    if n is None:
        raise ValueError(f"unrecognized diagram line widths {sorted(widths)}")
    bits = np.zeros(4**n, dtype=np.uint8)
    for line, row in zip(lines, _LAYOUT[n]):
        texts = line.split(" ") if len(row) > 1 else [line]
        if list(map(len, texts)) != list(map(len, row)):
            raise ValueError(f"bad nested row {line!r}")
        for group, chars in zip(row, texts):
            for flat, char in zip(group, chars):
                if char not in "#.":
                    raise ValueError(f"unexpected diagram character {char!r}")
                bits[flat] = char == "#"
    return PceMap._from_bits(n, bits)


def render_svg(pce: PceMap | Subspace) -> str:
    """Black/white square grid as a deterministic SVG document."""
    pce = _renderable(pce)
    bits = pce.tau_vector()
    rows = _LAYOUT[pce.n]
    size, groups = len(rows[0][0]), len(rows[0])
    stride = size * _CELL + _GAP
    width = _MARGIN * 2 + groups * stride - _GAP
    height = _MARGIN * 2 + len(rows) * _CELL
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for r, row in enumerate(rows):
        y = _MARGIN + r * _CELL
        for g, group in enumerate(row):
            for i, flat in enumerate(group):
                x = _MARGIN + g * stride + i * _CELL
                fill = "#000000" if bits[flat] else "#ffffff"
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                    f'fill="{fill}" stroke="#000000" stroke-width="1"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
