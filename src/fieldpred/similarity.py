"""Match scoring between a query and training entries.

Per column: categorical cells score 1.0 on exact equality, else 0.0;
continuous cells score 1 - |q - t| / range_width clamped to [0, 1]
(a zero-width column scores 1.0 only on exact equality). The entry
match score is the weight-scaled column sum, and the matching distance
is its complement against the schema's total weight.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dataset import CATEGORICAL, Query, TrainingTable


def match_vectors(query: Query, table: TrainingTable) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (ems, dm) over the table's U distinct rows.

    Entry i's scores sit at index ``table._distinct_of[i]``. Columns are
    accumulated in schema order, one scalar operation per cell as a plain
    per-entry loop would do them, so a full match sits at distance
    exactly 0.0.
    """
    return match_encoded(table.encode_query(query), table)


def match_encoded(encoded: Sequence, table: TrainingTable,
                  rows: np.ndarray | slice | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``match_vectors`` for cells already coded against the table, over
    the distinct rows ``rows`` (all U when None; a slice scores views).

    One coded cell per column scores one query against the rows. A
    column of B cells (shape B x 1) broadcasts to a B x U block of
    queries, by the same element-wise operations in the same order, so
    each block row equals its single-query scores bit for bit, as does
    the score of a row picked by ``rows``.
    """
    # A block's cells have shape B x 1 (a single query's are scalars, shape ()).
    lead = getattr(encoded[0], "shape", ())[:-1] if len(encoded) else ()
    ems = np.zeros(lead + table._distinct_entry[slice(None) if rows is None else rows].shape, dtype=np.float64)
    columns = table._col_data if rows is None else [column[rows] for column in table._col_data]
    for j, spec in enumerate(table.schema.attributes):
        column, w = columns[j], spec.weight
        if spec.kind == CATEGORICAL or spec.range_width == 0.0:
            hit = column == encoded[j]
            ems += hit if w == 1.0 else np.multiply(hit, w)
        else:
            # 1 - min(|c - q|, width) / width in one buffer. Rounding is monotone, so the clamp
            # binds only for a query farther than the width from the column's min or max, and
            # every row scores 0 for a query farther than that again from [lo, hi].
            q, (lo, hi) = encoded[j], table._col_bounds[j]
            q_lo, q_hi = (float(q.min()), float(q.max())) if isinstance(q, np.ndarray) else (q, q)
            if q_lo - hi > spec.range_width or lo - q_hi > spec.range_width:
                continue
            reach = max(hi - q_lo, q_hi - lo)  # Python floats: an overflow is inf, with no warning
            if reach == np.inf:  # |c - q| overflows only on rows that the clamp below sets to 0
                with np.errstate(over="ignore"):
                    cms = column - q
            else:
                cms = column - q
            np.abs(cms, out=cms)
            if not reach <= spec.range_width:
                np.minimum(cms, spec.range_width, out=cms)
            cms /= spec.range_width
            np.subtract(1.0, cms, out=cms)
            ems += cms if w == 1.0 else np.multiply(cms, w, out=cms)
    # Each column adds at most its weight, in total_weight's order, so dm >= 0 unclamped.
    return ems, table.total_weight - ems


def group_floors(encoded: Sequence, table: TrainingTable) -> np.ndarray:
    """A floor under the distance of every row, per group of ``table._equality_groups``:
    the equality columns add their terms as ``match_encoded`` does, in schema
    order, and any other column its weight w >= fl(cms * w), as cms <= 1.
    Addition and multiplication by w >= 0 round monotonically, so the sum is
    at least each row's ems, and the floor at most its distance, bit for bit."""
    bound = 0.0  # a Python float while every group adds the same
    for j, (spec, cells) in enumerate(zip(table.schema.attributes, table._equality_groups[0])):
        if cells is None:
            bound = bound + spec.weight
        else:
            hit = cells == encoded[j]
            bound = bound + (hit if spec.weight == 1.0 else np.multiply(hit, spec.weight))
    return table.total_weight - bound


def nearest_rows(query: Query, table: TrainingTable) -> tuple[np.ndarray, float]:
    """The distinct rows at the least distance from the query, in row order, and that
    distance. A table without equality groups is scanned in full; else one pass scores
    the groups at the two least floors. A row with a floor above the least distance d
    found is farther, so a second scores any groups above those and at most d."""
    encoded = table.encode_query(query)
    if table._equality_groups is None:
        dm = match_encoded(encoded, table)[1]
        d_min = dm.min()
        return np.flatnonzero(dm == d_min), float(d_min)
    _, order, offsets = table._equality_groups
    floors = group_floors(encoded, table)
    cut = np.min(floors, where=floors > floors.min(), initial=np.inf)
    rows = _group_rows(order, offsets, floors <= cut)
    dm = match_encoded(encoded, table, rows)[1]
    further = (floors > cut) & (floors <= dm.min())
    if further.any():
        more = _group_rows(order, offsets, further)
        rows, dm = np.concatenate((rows, more)), np.concatenate((dm, match_encoded(encoded, table, more)[1]))
    d_min = dm.min()
    return np.sort(rows[dm == d_min]), float(d_min)


def _group_rows(order: np.ndarray, offsets: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """The rows of the groups that the mask ``picked`` marks."""
    starts = offsets[:-1][picked]
    sizes = offsets[1:][picked] - starts
    ends = np.cumsum(sizes)
    return order[np.arange(ends[-1]) + np.repeat(starts - ends + sizes, sizes)]
