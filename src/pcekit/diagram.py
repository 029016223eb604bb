"""Grid diagrams of PCE maps ('#' preserved / '.' erased) in ascii and svg.

Layouts by qubit count:

* n = 1 — a column of four cells, digit 0 at the top.
* n = 2 — a 4x4 grid; row = qubit-1 digit, column = qubit-2 digit, (0, 0)
  top-left.
* n = 3 — a 4x4 outer grid over (qubit-1 digit = row, qubit-2 digit = column
  group), each cell an inner 1x4 strip over the qubit-3 digit; ascii
  separates the strips with one space.

Rendering is byte-deterministic, and `parse_ascii` inverts `render_ascii`
exactly.
"""

from __future__ import annotations

from .maps import PceMap, Subspace, subspace_to_map
from .pauli import DIAGRAM_QUBIT_LIMIT, check_qubits

__all__ = ["DIAGRAM_QUBIT_LIMIT", "render_ascii", "parse_ascii", "render_svg"]

_CELL = 20
_MARGIN = 10
_GAP = 8


def _renderable(obj: PceMap | Subspace) -> PceMap:
    """The bitmask to draw; the qubit limit is checked before it is built."""
    check_qubits(
        obj.n, DIAGRAM_QUBIT_LIMIT, "a grid diagram (larger maps have only the JSON form)"
    )
    return subspace_to_map(obj) if isinstance(obj, Subspace) else obj


def _char(pce: PceMap, flat: int) -> str:
    return "#" if (pce.tau >> flat) & 1 else "."


def render_ascii(pce: PceMap | Subspace) -> str:
    """Ascii grid, one text line per qubit-1 digit; ends with a newline."""
    pce = _renderable(pce)
    lines = []
    if pce.n == 1:
        lines = [_char(pce, a) for a in range(4)]
    elif pce.n == 2:
        for row in range(4):
            lines.append("".join(_char(pce, row + 4 * col) for col in range(4)))
    else:
        for row in range(4):
            groups = []
            for col in range(4):
                groups.append(
                    "".join(_char(pce, row + 4 * col + 16 * inner) for inner in range(4))
                )
            lines.append(" ".join(groups))
    return "\n".join(lines) + "\n"


def parse_ascii(text: str) -> PceMap:
    """Recover the exact bitmask from `render_ascii` output."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if len(lines) != 4:
        raise ValueError(f"expected 4 diagram lines, got {len(lines)}")
    widths = {len(line) for line in lines}
    if widths == {1}:
        n = 1
    elif widths == {4}:
        n = 2
    elif widths == {19}:
        n = 3
    else:
        raise ValueError(f"unrecognized diagram line widths {sorted(widths)}")
    tau = 0
    for row, line in enumerate(lines):
        if n == 3:
            groups = line.split(" ")
            if len(groups) != 4 or any(len(g) != 4 for g in groups):
                raise ValueError(f"bad nested row {line!r}")
            cells = [(row + 4 * col + 16 * inner, groups[col][inner])
                     for col in range(4) for inner in range(4)]
        elif n == 2:
            cells = [(row + 4 * col, line[col]) for col in range(4)]
        else:
            cells = [(row, line[0])]
        for flat, char in cells:
            if char == "#":
                tau |= 1 << flat
            elif char != ".":
                raise ValueError(f"unexpected diagram character {char!r}")
    return PceMap(n, tau)


def _svg_cells(pce: PceMap) -> tuple[int, int, list[tuple[int, int, int]]]:
    """Canvas width/height and (x, y, flat) for every cell."""
    if pce.n == 1:
        cells = [(_MARGIN, _MARGIN + a * _CELL, a) for a in range(4)]
        return _MARGIN * 2 + _CELL, _MARGIN * 2 + 4 * _CELL, cells
    if pce.n == 2:
        cells = [
            (_MARGIN + col * _CELL, _MARGIN + row * _CELL, row + 4 * col)
            for row in range(4)
            for col in range(4)
        ]
        return _MARGIN * 2 + 4 * _CELL, _MARGIN * 2 + 4 * _CELL, cells
    cells = []
    for row in range(4):
        for col in range(4):
            for inner in range(4):
                x = _MARGIN + col * (4 * _CELL + _GAP) + inner * _CELL
                y = _MARGIN + row * _CELL
                cells.append((x, y, row + 4 * col + 16 * inner))
    width = _MARGIN * 2 + 16 * _CELL + 3 * _GAP
    return width, _MARGIN * 2 + 4 * _CELL, cells


def render_svg(pce: PceMap | Subspace) -> str:
    """Black/white square grid as a deterministic SVG document."""
    pce = _renderable(pce)
    width, height, cells = _svg_cells(pce)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for x, y, flat in cells:
        fill = "#000000" if (pce.tau >> flat) & 1 else "#ffffff"
        parts.append(
            f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
            f'fill="{fill}" stroke="#000000" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
