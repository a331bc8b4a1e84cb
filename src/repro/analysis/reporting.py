"""Plain-text rendering of result tables and heatmaps.

The benchmarks print the same rows and series the paper reports; these helpers
keep that formatting in one place so every bench produces consistent output.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

import numpy as np


class ReportMixin:
    """The small protocol every ``repro.api`` report object shares.

    A report class provides ``to_dict()`` (JSON-stable: identical runs
    produce identical payloads) and ``summary_table()`` (the human-readable
    headline table); the mixin derives the serialisation helpers from
    ``to_dict()`` so the CLI's ``--json`` output and the facade's
    ``to_json()`` are the same bytes by construction.

    A profiled run (``--profile`` / ``api.*(profile=True)``) attaches its
    :class:`~repro.obs.session.ProfileSnapshot` via
    :meth:`attach_observability`; ``to_dict()`` implementations close with
    ``self._with_observability(payload)`` so the snapshot lands under an
    ``observability`` key.  The attachment is always explicit -- reports
    never read ambient observability state, so un-profiled payloads stay
    byte-identical whether or not a session happens to be active.
    """

    #: The explicitly attached profile snapshot; ``None`` on plain runs.
    profile = None

    def to_dict(self) -> dict:  # pragma: no cover - interface declaration
        raise NotImplementedError

    def summary_table(self) -> str:  # pragma: no cover - interface declaration
        raise NotImplementedError

    def attach_observability(self, snapshot) -> None:
        """Attach a profile snapshot; its dict rides along in ``to_dict()``."""
        self.profile = snapshot

    def _with_observability(self, payload: dict) -> dict:
        if self.profile is not None:
            payload["observability"] = self.profile.to_dict()
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save_json(self, path: str | Path) -> Path:
        from repro.atomic import atomic_write_text

        return atomic_write_text(path, self.to_json())


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str | None = None) -> str:
    """Fixed-width text table; floats print with 3 decimals."""
    str_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[col])), *(len(row[col]) for row in str_rows)) if str_rows else len(str(headers[col]))
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_heatmap(
    grid: np.ndarray,
    row_labels: Sequence,
    col_labels: Sequence,
    corner: str = "",
    title: str | None = None,
) -> str:
    """Render a 2-D array with row/column labels and 2-decimal cells (Fig. 13-style heatmap)."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.shape != (len(row_labels), len(col_labels)):
        raise ValueError(
            f"grid shape {grid.shape} does not match labels "
            f"({len(row_labels)}, {len(col_labels)})"
        )
    headers = [corner] + [str(c) for c in col_labels]
    rows = []
    for label, row in zip(row_labels, grid):
        rows.append([str(label)] + [f"{v:.2f}" for v in row])
    return format_table(headers, rows, title=title)
