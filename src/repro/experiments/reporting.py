"""Result containers and plain-text table rendering for experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError

#: Cell value for configurations that exceed memory, as in Fig. 14.
OOM = "OOM"


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    """Render dict rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    # Union of all row keys, in first-seen order (rows from different
    # panels may carry different columns).
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def fmt(value: object) -> str:
        if isinstance(value, float):
            if value == 0.0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.01:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    table = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in table))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(widths[i])
                       for i, col in enumerate(columns))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(line))
                     for line in table)
    return "\n".join([header, separator, body])


@dataclass
class ExperimentResult:
    """Structured output of one experiment driver."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        if not self.rows:
            raise ConfigurationError(
                f"{self.experiment_id}: no rows collected")
        return [row.get(name) for row in self.rows]

    def select(self, **filters: object) -> List[Dict[str, object]]:
        """Rows matching all column=value filters."""
        return [row for row in self.rows
                if all(row.get(k) == v for k, v in filters.items())]

    def value(self, column: str, **filters: object) -> object:
        """The single value of ``column`` in the row matching filters."""
        matches = self.select(**filters)
        if len(matches) != 1:
            raise ConfigurationError(
                f"{self.experiment_id}: {len(matches)} rows match "
                f"{filters!r}, expected exactly 1")
        return matches[0][column]

    def render(self) -> str:
        """The experiment as a printable report."""
        parts = [f"== {self.experiment_id}: {self.title} ==",
                 format_table(self.rows)]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)
