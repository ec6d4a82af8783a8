"""Result containers and text rendering for experiments."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import List, Sequence

__all__ = ["Table", "ExperimentResult", "format_table"]


@dataclass
class Table:
    """One titled table of results."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.headers)} columns")
        self.rows.append(list(cells))

    def column(self, header: str) -> List[object]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def lookup(self, key_header: str, key, value_header: str):
        """Value of *value_header* on the row where *key_header* == key."""
        key_index = self.headers.index(key_header)
        value_index = self.headers.index(value_header)
        for row in self.rows:
            if row[key_index] == key:
                return row[value_index]
        raise KeyError(f"no row with {key_header}={key!r}")

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(str(h) for h in self.headers) + "\n")
        for row in self.rows:
            out.write(",".join(_csv_cell(c) for c in row) + "\n")
        return out.getvalue()


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    experiment_id: str
    title: str
    tables: List[Table] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def table(self, title_fragment: str) -> Table:
        for table in self.tables:
            if title_fragment in table.title:
                return table
        raise KeyError(f"no table matching {title_fragment!r} in "
                       f"{self.experiment_id}")

    def render(self) -> str:
        parts = [f"=== {self.experiment_id}: {self.title} ==="]
        for table in self.tables:
            parts.append(table.render())
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts) + "\n"


def _csv_cell(cell: object) -> str:
    text = f"{cell:.4f}" if isinstance(cell, float) else str(cell)
    return f'"{text}"' if "," in text else text


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned monospace table."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.4f}"
        return str(cell)

    texts = [[fmt(c) for c in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in texts:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in texts:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
