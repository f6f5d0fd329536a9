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
        return cls([str(c) for c in columns], [[str(cell) for cell in r] for r in rows])

    def render(self, fmt):
        if fmt == "table":
            return self.render_text()
        if fmt == "csv":
            return self.render_csv()
        if fmt == "json":
            return self.render_json()
        raise ValueError(f"unknown format {fmt!r}")

    def render_text(self):
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns)).rstrip()
        ]
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip()
            )
        return "\n".join(lines) + "\n"

    def render_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def render_json(self):
        return json.dumps({"columns": self.columns, "rows": self.rows}, indent=1) + "\n"
