import pytest

from monsterlie.output import OutputTable


def two_loop_render_text(table):
    """The text renderer before it read its widths column by column: one
    loop for the widths, one for the lines; the reference for `render_text`."""
    widths = [len(c) for c in table.columns]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(c.ljust(widths[i]) for i, c in enumerate(table.columns)).rstrip()]
    for row in table.rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


TABLES = {
    "no rows": (["j", "C(class,j)"], []),
    "one column": (["n"], [[1], [-10], [100000]]),
    "a cell wider than its header": (["n", "c(n)"], [[-1, 1], [1, 196884]]),
    "a header wider than every cell": (["weight", "dim_primary", "verdict"], [[2, 1, "x"]]),
    # the header is left-justified, so its last cell is padded to the width
    # of its column; rstrip removes that padding
    "trailing padding": (["j", "verdict"], [[1, "non-trivial"], [20, "trivial"]]),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_render_text_matches_the_two_loop_renderer(name):
    table = OutputTable.build(*TABLES[name])
    assert table.render_text() == two_loop_render_text(table)


def test_render_text_drops_trailing_padding():
    text = OutputTable.build(*TABLES["trailing padding"]).render_text()
    assert text == "j   verdict\n 1  non-trivial\n20      trivial\n"


@pytest.mark.parametrize("row", [[1], [1, 2, 3]])
def test_build_refuses_a_row_not_as_wide_as_the_header(row):
    # widths read through zip would cut every line to the shortest row
    with pytest.raises(ValueError, match="row 1 has .* cells for 2 columns"):
        OutputTable.build(["a", "b"], [[0, 0], row])
