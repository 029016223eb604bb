"""Grid-diagram rendering and parsing."""

import numpy as np
import pytest

from pcekit.diagram import parse_ascii, render_ascii, render_svg
from pcekit.errors import CapacityError
from pcekit.maps import PceMap

IDENTITY_1 = "#\n#\n#\n#\n"
DEPOLARIZING_1 = "#\n.\n.\n.\n"
DEPHASING_1 = "#\n.\n.\n#\n"


def test_single_qubit_columns():
    assert render_ascii(PceMap.identity(1)) == IDENTITY_1
    assert render_ascii(PceMap.depolarizing(1)) == DEPOLARIZING_1
    assert render_ascii(PceMap(1, 0b1001)) == DEPHASING_1


def test_two_qubit_grid_is_row_alpha1_column_alpha2():
    # Cell (row, column) shows the flat index row + 4*column.
    m = PceMap.from_preserved(2, [0, 5, 8, 13])
    assert render_ascii(m) == "#.#.\n.#.#\n....\n....\n"
    assert render_ascii(PceMap.identity(2)) == "####\n####\n####\n####\n"


def test_three_qubit_nested_grid():
    # Four groups per line: column group is alpha_2, inner position alpha_3.
    m = PceMap.from_preserved(3, [0, 1, 4, 16])
    art = render_ascii(m)
    # flat = alpha1 + 4*alpha2 + 16*alpha3: index 4 is row 0, group 1;
    # index 16 is row 0, group 0, inner position 1.
    assert art == (
        "##.. #... .... ....\n"
        "#... .... .... ....\n"
        ".... .... .... ....\n"
        ".... .... .... ....\n"
    )
    assert parse_ascii(art) == m


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parse_inverts_render_seeded(n):
    rng = np.random.default_rng(61 + n)
    for _ in range(100):
        m = PceMap(n, int(rng.integers(0, 1 << min(4**n, 63))))
        assert parse_ascii(render_ascii(m)) == m


def test_parse_rejects_malformed_text():
    for text in (
        "",
        "#\n#\n#\n",  # three lines
        "#\n#\n#\n#\n#\n",  # five lines
        "##\n..\n..\n..\n",  # wrong width
        "#x\n....\n....\n....\n",  # bad character and ragged widths
        "#... .... ....\n" * 4,  # three groups instead of four
        "......... .... ....\n" * 4,  # 19 characters but three groups
        "#... .x.. .... ....\n" * 4,  # bad character in a nested row
    ):
        with pytest.raises(ValueError):
            parse_ascii(text)


def test_render_rejects_large_n():
    with pytest.raises(CapacityError, match="JSON"):
        render_ascii(PceMap(4, 1))
    with pytest.raises(CapacityError):
        render_svg(PceMap(4, 1))


def test_svg_structure():
    m = PceMap.from_preserved(2, [0, 3, 12, 15])
    svg = render_svg(m)
    assert svg.startswith("<?xml")
    assert svg.endswith("\n")
    assert svg.count("<rect") == 16
    assert svg.count('fill="#000000"') == 4
    assert svg.count('fill="#ffffff"') == 12
    # Deterministic.
    assert render_svg(m) == svg


def test_svg_single_qubit_layout():
    svg = render_svg(PceMap.identity(1))
    assert svg.count("<rect") == 4
    assert svg.count('fill="#000000"') == 4
