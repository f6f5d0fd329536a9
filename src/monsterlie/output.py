"""Tabular output: aligned text, CSV, and a structured JSON document.

Every cell is a string; integers are rendered in full decimal (str of a
Python int never produces scientific notation), so arbitrarily large
values survive a round trip through any of the formats.
"""

from __future__ import annotations

import csv
import io
import json
from typing import NamedTuple

FORMATS = ("table", "csv", "json")


class OutputTable(NamedTuple):
    columns: list
    rows: list  # lists of str, same width as columns

    @classmethod
    def build(cls, columns, rows):
        """Cells as str; a row not as wide as the header is a ValueError."""
        columns, rows = list(map(str, columns)), [list(map(str, row)) for row in rows]
        for i, row in enumerate(rows):
            if len(row) != len(columns):
                raise ValueError(f"row {i} has {len(row)} cells for {len(columns)} columns")
        return cls(columns, rows)

    def render(self, fmt):
        if fmt == "table":
            return self.render_text()
        if fmt == "csv":
            return self.render_csv()
        if fmt == "json":
            return self.render_json()
        raise ValueError(f"unknown format {fmt!r}")

    def render_text(self):
        widths = [max(map(len, column)) for column in zip(self.columns, *self.rows)]
        lines = ["  ".join(map(str.ljust, self.columns, widths)).rstrip()]
        lines += ["  ".join(map(str.rjust, row, widths)).rstrip() for row in self.rows]
        return "\n".join(lines) + "\n"

    def render_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def render_json(self):
        return json.dumps({"columns": self.columns, "rows": self.rows}, indent=1) + "\n"
