"""CSV ingestion with column selection.

Datasets are plain CSV with a mandatory header row; target and feature
columns are selected by name so silent column drift is impossible.  Cells
must parse as finite numbers; offenders are reported with their row and
column.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Dataset file violates the expected schema or contains bad cells."""


@dataclass(frozen=True)
class Table:
    """Parsed CSV: column names plus an (n, k) float matrix."""

    columns: tuple[str, ...]
    values: np.ndarray

    def select(self, names) -> np.ndarray:
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise DataError(f"columns not in header: {missing} (have {list(self.columns)})")
        idx = [self.columns.index(n) for n in names]
        return self.values[:, idx]


def read_table(path) -> Table:
    try:
        return _read_table(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def _read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a CSV header") from None
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise DataError(f"{path}: header repeats the column names {repeated}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
            parsed = []
            for col, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}:{line_no}: column {col!r}: non-numeric cell {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    raise DataError(f"{path}:{line_no}: column {col!r}: non-finite cell {cell!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return Table(columns=tuple(header), values=np.array(rows, dtype=float))


def write_csv(path, columns, rows):
    """Write rows (iterable of sequences) with full-precision floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
