"""Match scoring between a query and training entries.

Per column: categorical cells score 1.0 on exact equality, else 0.0;
continuous cells score 1 - |q - t| / range_width clamped to [0, 1]
(a zero-width column scores 1.0 only on exact equality). The entry
match score is the weight-scaled column sum, and the matching distance
is its complement against the schema's total weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, AttributeSpec, Query, TrainingTable, _is_real
from .errors import DataError


@dataclass(frozen=True)
class MatchScores:
    """Entry match score, matching distance, optional per-column scores."""

    ems: float
    dm: float
    per_column: tuple[float, ...] | None = None


def column_match_score(query_cell, entry_cell, spec: AttributeSpec) -> float:
    if spec.kind == CATEGORICAL:
        if not isinstance(query_cell, str) or not isinstance(entry_cell, str):
            raise DataError(f"attribute {spec.name!r} is categorical, cells must be strings")
        return 1.0 if query_cell == entry_cell else 0.0
    if not _is_real(query_cell) or not _is_real(entry_cell):
        raise DataError(f"attribute {spec.name!r} is continuous, cells must be reals")
    width = spec.range_width
    if width is None:
        raise DataError(f"attribute {spec.name!r} has no range_width; build a table first")
    if width == 0.0:
        return 1.0 if query_cell == entry_cell else 0.0
    raw = 1.0 - abs(query_cell - entry_cell) / width
    if raw < 0.0:
        return 0.0
    if raw > 1.0:
        return 1.0
    return raw


def entry_match_score(query: Query, table: TrainingTable, row: int, trace: bool = False) -> MatchScores:
    """Score one training entry against the query."""
    entry = table.values[row]  # IndexError on bad row is intentional
    score = 0.0
    per_column = [] if trace else None
    for j, spec in enumerate(table.schema.attributes):
        cms = column_match_score(query.values[j], entry[j], spec)
        if per_column is not None:
            per_column.append(cms)
        score += spec.weight * cms
    dm = max(table.total_weight - score, 0.0)
    return MatchScores(ems=score, dm=dm, per_column=tuple(per_column) if trace else None)


def match_vectors(query: Query, table: TrainingTable) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (ems, dm) over the table's U distinct rows.

    Entry i's scores sit at index ``table._distinct_of[i]``. Columns are
    accumulated in schema order with the same elementary operations as the
    scalar path, so the two agree bit for bit; a full match therefore sits
    at distance exactly 0.0.
    """
    encoded = table.encode_query(query)
    ems = np.zeros(table._distinct_entry.size, dtype=np.float64)
    for j, spec in enumerate(table.schema.attributes):
        column = table._col_data[j]
        if spec.kind == CATEGORICAL or spec.range_width == 0.0:
            cms = (column == encoded[j]).astype(np.float64)
        else:
            cms = np.clip(1.0 - np.abs(column - encoded[j]) / spec.range_width, 0.0, 1.0)
        ems += spec.weight * cms
    dm = np.maximum(table.total_weight - ems, 0.0)
    return ems, dm


def all_match_scores(query: Query, table: TrainingTable, trace: bool = False) -> list[MatchScores]:
    """MatchScores for every entry, in row order."""
    ems, dm = match_vectors(query, table)
    if not trace:
        rows = table._distinct_of
        return [MatchScores(ems=float(e), dm=float(d)) for e, d in zip(ems[rows], dm[rows])]
    return [entry_match_score(query, table, i, trace=True) for i in range(table.n_entries)]
