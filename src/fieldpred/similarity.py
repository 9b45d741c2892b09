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


def match_encoded(encoded: Sequence, table: TrainingTable) -> tuple[np.ndarray, np.ndarray]:
    """``match_vectors`` for cells already coded against the table.

    One coded cell per column scores one query against the U rows. A
    column of B cells (shape B x 1) broadcasts to a B x U block of
    queries, by the same element-wise operations in the same order, so
    each block row equals its single-query scores bit for bit.
    """
    # A block's cells have shape B x 1 (a single query's are scalars, shape ()).
    lead = getattr(encoded[0], "shape", ())[:-1] if len(encoded) else ()
    ems = np.zeros(lead + table._distinct_entry.shape, dtype=np.float64)
    for j, spec in enumerate(table.schema.attributes):
        column, w = table._col_data[j], spec.weight
        if spec.kind == CATEGORICAL or spec.range_width == 0.0:
            hit = column == encoded[j]
            ems += hit if w == 1.0 else np.multiply(hit, w)
        else:
            # 1 - |c - q| / width in one buffer. Rounding is monotone, so the clamp at 0
            # binds only for a query farther than the width from the column's min or max.
            q, (lo, hi) = encoded[j], table._col_bounds[j]
            q_lo, q_hi = (q.min(), q.max()) if isinstance(q, np.ndarray) else (q, q)
            cms = column - q
            np.abs(cms, out=cms)
            cms /= spec.range_width
            np.subtract(1.0, cms, out=cms)
            if not max(hi - q_lo, q_hi - lo) <= spec.range_width:
                np.maximum(cms, 0.0, out=cms)
            ems += cms if w == 1.0 else np.multiply(cms, w, out=cms)
    # Each column adds at most its weight, in total_weight's order, so dm >= 0 unclamped.
    return ems, table.total_weight - ems
