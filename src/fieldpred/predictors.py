"""Lazy predictors over a training table.

Every decision rule reduces one scoring core: the matching distance from
the query to each of the table's U distinct rows, and the U x K matrix
``FittedModel.votes`` of label counts per row (dcf-weighted with density).

* ``delanga``: majority among the rows at the smallest distance, count
  ties broken by walking outward through successive distance levels;
* ``rasturnat``: ``kernel(dm) @ votes``, the largest field wins;
* ``nearest``: majority at the smallest distance, ties to label order;
  kept as a familiar baseline.

``predict`` is the one way to ask a fitted model; ``explain`` recomputes
the per-entry evidence behind an answer on request.

Outcome scores within REL_TIE_TOL of the leader count as ties resolved by
label order. A tie in that band is re-scored per distance level, so labels
with equal counts at every level get bitwise-equal fields and results do
not depend on row order. The band is far above float accumulation noise
and far below any genuine score gap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import (CATEGORICAL, Query, Schema, TrainingTable, _is_finite_real, _is_int, _read_json,
                      schema_from_dict, schema_to_dict)
from .errors import PredictorError
from .kernels import Kernel, kernel_from_dict, kernel_to_dict, make_kernel
from .similarity import match_encoded, match_vectors, nearest_rows

PREDICTOR_KINDS = ("delanga", "rasturnat", "nearest")

#: Relative width of the winner tie band: scores within this fraction of the
#: leading score are treated as exactly tied.
REL_TIE_TOL = 1e-12

MODEL_FILE_VERSION = 3

#: Cells a density-fit block scores at once: B rows against all U rows.
_DENSITY_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True, eq=False)
class DensityModel:
    """Per-entry total superposition scores and the compensation factors.

    tss[j] is entry j's field as seen by the whole table (self term
    included), sts their sum, stavg the per-entry average, and
    dcf[j] = stavg / tss[j] scales crowded entries down and isolated
    entries up.
    """

    tss: np.ndarray
    sts: float
    stavg: float
    dcf: np.ndarray

    def __post_init__(self):
        if not (self.sts > 0 and all(np.all(np.isfinite(a) & (a > 0)) for a in (self.tss, self.dcf))):
            raise PredictorError("density scores must be positive and finite")


@dataclass(frozen=True, eq=False)
class PredictionTrace:
    """``explain``'s evidence per entry, in entry order (canonical order after a counts load): the
    champion distance and entry indices (delanga, nearest), or every entry's vote (rasturnat)."""

    champion_distance: float | None = None
    champion_rows: tuple[int, ...] | None = None
    ets: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Prediction:
    """Outcome scores, normalized likelihoods, the winner, and tie depth."""

    scores: dict[str, float]
    likelihoods: dict[str, float]
    winner: str
    tie_depth: int


@dataclass(frozen=True, eq=False)
class FittedModel:
    table: TrainingTable
    predictor_kind: str
    kernel: Kernel | None = None
    density: DensityModel | None = None
    #: U x K votes per distinct row and label: counts, or dcf sums with density.
    votes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.predictor_kind not in PREDICTOR_KINDS:
            raise PredictorError(f"unknown predictor kind {self.predictor_kind!r}")
        votes = self.table._label_counts
        if self.density is not None:
            votes = np.bincount(self.table._vote_cell, weights=self.density.dcf,
                                minlength=votes.size).reshape(votes.shape)
        object.__setattr__(self, "votes", votes)


def fit(
    table: TrainingTable,
    predictor_kind: str,
    kernel_kind: str | None = None,
    *,
    density: bool = False,
    mld_override: float | None = None,
) -> FittedModel:
    """Bind a predictor to a table; 'fitting' is bookkeeping, not training.

    ``kernel_kind`` is required for rasturnat and rejected otherwise, as are
    ``density`` and ``mld_override``.
    """
    if predictor_kind not in PREDICTOR_KINDS:
        raise PredictorError(f"unknown predictor kind {predictor_kind!r}")
    if predictor_kind != "rasturnat":
        if kernel_kind is not None:
            raise PredictorError("kernel is a rasturnat parameter; remove it for "
                                 f"{predictor_kind}")
        if density:
            raise PredictorError("density compensation is a rasturnat parameter")
        if mld_override is not None:
            raise PredictorError("mld is a rasturnat parameter")
        return FittedModel(table, predictor_kind)

    if kernel_kind is None:
        raise PredictorError("rasturnat requires a kernel kind (--kernel)")
    kernel = make_kernel(kernel_kind, table.n_entries, mld_override)
    density_model = compute_density_model(table, kernel) if density else None
    return FittedModel(table, "rasturnat", kernel=kernel, density=density_model)


def predict(model: FittedModel, query: Query) -> Prediction:
    """Score the query against the U distinct rows and reduce by the model's rule;
    delanga and nearest score only the rows ``nearest_rows`` cannot rule out."""
    if model.predictor_kind != "rasturnat":
        champions = nearest_rows(query, model.table)
        if champions is not None:
            return _predict_champions(model, query, champions)
    dm = match_vectors(query, model.table)[1]
    if model.predictor_kind == "rasturnat":
        return _predict_field(model, dm)
    return _predict_champions(model, query, np.flatnonzero(dm == dm.min()), dm)


def explain(model: FittedModel, query: Query) -> PredictionTrace:
    """The per-entry evidence behind ``predict(model, query)``, in entry order (canonical after a counts load).

    delanga and nearest: the minimal distance and the entries at it.
    rasturnat: each entry's kernel vote, times its dcf with density.
    """
    entry_row = model.table._distinct_of
    dm = match_vectors(query, model.table)[1]
    if model.predictor_kind != "rasturnat":
        d_min = float(dm.min())
        rows = np.flatnonzero((dm == d_min)[entry_row])
        return PredictionTrace(champion_distance=d_min, champion_rows=tuple(int(i) for i in rows))
    dcf = model.density.dcf if model.density is not None else 1.0
    return PredictionTrace(ets=model.kernel.evaluate(dm)[entry_row] * dcf)


def _band(tos: np.ndarray, tol: float) -> tuple[list[float], float, list[int]]:
    """``tos`` as Python floats, numpy's total of it (no left fold at K >= 8), and the indexes
    within the relative band ``tol`` of the best score. Python floats make the same IEEE
    operations as numpy's float64 scalars, in one pass."""
    values, total = tos.tolist(), float(tos.sum())
    # A finite total means finite scores; else numpy's max finds a NaN that max() may skip.
    best = max(values) if math.isfinite(total) else float(tos.max())
    if not math.isfinite(best):
        raise PredictorError(f"outcome score overflows to {best}: the kernel's mld is too large for this table")
    cut = best - best * tol
    return values, total, [k for k, v in enumerate(values) if v >= cut]


def _level_table(dm: np.ndarray, votes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct distances in increasing order, and the votes per label at each."""
    levels, level_of = np.unique(dm, return_inverse=True)
    per_level = np.zeros((levels.size, votes.shape[1]))
    np.add.at(per_level, level_of, votes)
    return levels, per_level


def _prediction(model: FittedModel, values: list[float], total: float, winner: str, tie_depth: int) -> Prediction:
    labels = model.table.schema.outcome_labels
    if not math.isfinite(total):
        raise PredictorError(f"outcome scores sum to {total}: the kernel's mld is too large for this table")
    # An underflowed field sums to 0, whose likelihoods numpy's 0 / 0 makes NaN.
    likelihoods = {label: v / total if total else math.nan for label, v in zip(labels, values)}
    return Prediction(dict(zip(labels, values)), likelihoods, winner, tie_depth)


def _predict_champions(model: FittedModel, query: Query, champions: np.ndarray,
                       dm: np.ndarray | None = None) -> Prediction:
    """delanga and nearest: label counts over the champion rows, those at the
    minimal distance; count ties go to delanga's level walk over all U
    distances ``dm`` (scored here if not given), or to label order with tie
    depth 1 for nearest."""
    values, total, tied = _band(model.votes[champions].sum(axis=0), 0.0)
    labels = model.table.schema.outcome_labels
    winner, depth = labels[tied[0]], int(len(tied) > 1)
    if depth and model.predictor_kind == "delanga":
        if dm is None:
            dm = match_vectors(query, model.table)[1]
        winner, depth = backtrack_tie_break(_level_table(dm, model.votes)[1], labels)
    return _prediction(model, values, total, winner, depth)


def backtrack_tie_break(level_counts: Sequence[Sequence[int]], labels: Sequence[str]) -> tuple[str, int]:
    """Resolve a champion-level count tie by the levels beyond it.

    ``level_counts[l][k]`` is the number of outcome-k entries at distance
    level l (levels sorted by increasing distance; level 0 must hold a
    tie). Among the tied outcomes only, compare counts level by level,
    dropping outcomes that fall behind, until one remains or the levels
    run out; then the earliest surviving label wins. Returns the winner
    and the number of levels examined beyond level 0.
    """
    counts = np.asarray(level_counts)
    tied = np.flatnonzero(counts[0] == counts[0].max())
    if tied.size < 2:
        raise PredictorError("backtrack_tie_break requires a tie at level 0")
    depth = 0
    while tied.size > 1 and depth + 1 < len(counts):
        depth += 1
        row = counts[depth, tied]
        tied = tied[row == row.max()]
    return labels[int(tied[0])], depth


def _predict_field(model: FittedModel, dm: np.ndarray) -> Prediction:
    """rasturnat: sum kernel-transformed row scores per outcome; the largest field wins."""
    values, total, tied = _band(model.kernel.evaluate(dm) @ model.votes, REL_TIE_TOL)
    if len(tied) > 1:
        # Sums over rows in different orders can split equal fields by an
        # ulp. Per level, labels with equal counts get equal terms, and the
        # row-wise sum adds every column in the same order.
        levels, per_level = _level_table(dm, model.votes)
        values, total, tied = _band((model.kernel.evaluate(levels)[:, None] * per_level).sum(axis=0), REL_TIE_TOL)
    return _prediction(model, values, total, model.table.schema.outcome_labels[tied[0]], int(len(tied) > 1))


def compute_density_model(table: TrainingTable, kernel: Kernel) -> DensityModel:
    """Score every distinct row against the whole table and derive dcf factors.

    O(U^2 * N) for U distinct rows, scored in blocks of about 2^14 cells
    (``max(1, 2^14 // U)`` rows against all U), so that each float64
    temporary stays within glibc's 128 KiB mmap threshold and the heap
    reuses its pages. Each row's tss equals ``math.fsum`` of its U terms,
    so tss does not depend on the block layout. Identical entries share
    one tss, which includes the entry's own term.
    """
    m = table.n_entries
    multiplicity = table._label_counts.sum(axis=1)
    n_rows = multiplicity.size
    step = max(1, _DENSITY_BLOCK_CELLS // n_rows)
    row_tss = np.empty(n_rows, dtype=np.float64)
    try:
        for start in range(0, n_rows, step):
            block = [column[start:start + step, None] for column in table._col_data]
            _, dm = match_encoded(block, table)
            # Without attribute columns the scores stay one row of U = 1.
            terms = (kernel.evaluate(dm) * multiplicity).reshape(-1, n_rows)
            row_tss[start:start + step] = _exact_row_sums(terms)
        tss = row_tss[table._distinct_of]
        sts = math.fsum(tss)
    except OverflowError:
        raise PredictorError(f"the density field overflows: the kernel's mld {kernel.mld} is too large "
                             "for this table") from None
    stavg = sts / m
    # Algebraically stavg / tss, but dividing the fsum by m * tss keeps
    # dcf at exactly 1.0 when every entry carries the same field.
    dcf = sts / (m * tss)
    return DensityModel(tss=tss, sts=sts, stavg=stavg, dcf=dcf)


def _exact_row_sums(values: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, bit for bit.

    fsum rounds the exact sum once, so any exact method agrees with it.
    Each value's 53-bit significand at binary exponent e splits into a
    whole-number high part (26 bits, scale 2^(e-26)) and low part (27
    bits, scale 2^(e-53)). ``np.bincount`` adds, per row, the high parts
    at exponent e and the low parts at e + 27, which share the scale
    2^(e-26); with n values a row, each such slot total is below n * 2^27.
    Runs of 26 - bit_length(n) slots are then added as whole numbers below
    2^53, so with fewer than 2^25 values a row every step is exact, and so
    is each total scaled back (subnormals included: every value is a
    multiple of 2^-1074). A row's dozen or so partials then go to fsum.
    A row with a non-finite partial, or whose partials overflow fsum, is
    summed by fsum directly, so it returns or raises as fsum does. The one
    difference: where values of both signs cancel below the float limit
    but fsum overflows on the way, this returns the sum.
    """
    n_rows, n_values = values.shape
    group = max(1, 26 - n_values.bit_length())
    with np.errstate(all="ignore"):
        low, exponent = np.frexp(values)
        low *= 2.0**26
        high = np.trunc(low)
        low -= high
        lowest = int(exponent.min())
        # Slot s of a row holds the parts of scale 2^(lowest - 53 + s).
        span = -(-(int(exponent.max()) - lowest + 28) // group) * group
        bins = (exponent - (lowest - 27) + span * np.arange(n_rows)[:, None]).ravel()
        partials = np.bincount(bins, high.ravel(), n_rows * span)
        bins -= 27
        partials += np.bincount(bins, low.ravel(), n_rows * span) * 2.0**27
        partials = partials.reshape(n_rows, span // group, group) @ 2.0 ** np.arange(group)
        partials = np.ldexp(partials, np.arange(lowest - 53, lowest - 53 + span, group))
    direct = ~np.isfinite(partials).all(axis=1)
    sums = np.empty(n_rows, dtype=np.float64)
    for r, row in enumerate(partials.tolist()):
        try:
            sums[r] = math.fsum(values[r].tolist() if direct[r] else filter(None, row))
        except OverflowError:
            sums[r] = math.fsum(values[r].tolist())
    return sums


def model_to_dict(model: FittedModel) -> dict:
    """Version 3: the U distinct rows column by column and ``counts``, K lists
    of U label counts; with a density, per entry its distinct row and outcome
    instead, so that the per-entry tss and dcf keep their order."""
    table = model.table
    columns = [
        {"values": data.tolist()} if vocab is None
        else {"categories": list(vocab), "codes": data.astype(np.intp).tolist()}
        for vocab, data in zip(table._col_vocab, table._col_data)
    ]
    entries = ({"counts": table._label_counts.T.astype(np.intp).tolist()} if model.density is None
               else {"entry_row": table._distinct_of.tolist(), "outcomes": table._outcomes.tolist()})
    payload: dict = {
        "version": MODEL_FILE_VERSION,
        "predictor": model.predictor_kind,
        "schema": schema_to_dict(table.schema),
        "n_entries": table.n_entries,
        "n_rows": table._distinct_entry.size,
        "columns": columns,
        **entries,
        "kernel": kernel_to_dict(model.kernel) if model.kernel is not None else None,
        "density": None,
    }
    if model.density is not None:
        payload["density"] = {
            "tss": model.density.tss.tolist(),
            "sts": model.density.sts,
            "stavg": model.density.stavg,
            "dcf": model.density.dcf.tolist(),
        }
    return payload


def _array(value, kinds: str, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A JSON list, nested to ``shape``, of numbers (not booleans) as an array
    of numpy kinds ``kinds``."""
    try:
        arr = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in kinds or arr.shape != shape or (
            bool in set(map(type, chain.from_iterable(value) if len(shape) > 1 else value))):
        noun = "integers" if kinds == "i" else "numbers"
        raise PredictorError(f"model file: {what} must list {' lists of '.join(map(str, shape))} {noun}")
    return arr


def _index_array(value, size: int, bound: int, what: str) -> np.ndarray:
    arr = _array(value, "i", (size,), what)
    if arr.min() < 0 or arr.max() >= bound:
        raise PredictorError(f"model file: {what} must lie in 0..{bound - 1}")
    return arr.astype(np.intp)


def _real_array(value, size: int, what: str) -> np.ndarray:
    arr = _array(value, "if", (size,), what).astype(np.float64)
    if not np.isfinite(arr).all():
        raise PredictorError(f"model file: {what} must be finite")
    return arr


def _table_v1(payload: dict, schema: Schema) -> TrainingTable:
    """Version 1 held every entry's typed cells; the row constructor checks them."""
    values, outcomes = payload["values"], payload["outcomes"]
    if not (isinstance(values, list) and all(isinstance(row, list) for row in values) and isinstance(outcomes, list)):
        raise PredictorError("model file: values must be a list of rows and outcomes a list")
    return TrainingTable(schema, values, outcomes)


def _table_v2(payload: dict, schema: Schema) -> TrainingTable:
    m, u, columns = payload["n_entries"], payload["n_rows"], payload["columns"]
    # Votes count exactly in float64 below 2^53, and numpy's entry total cannot wrap.
    if not all(_is_int(n) and 1 <= n < 2**53 for n in (m, u)):
        raise PredictorError("model file: n_entries and n_rows must be integers from 1 to 2^53 - 1")
    if not (isinstance(columns, list) and len(columns) == schema.n_attributes
            and all(isinstance(column, dict) for column in columns)):
        raise PredictorError(f"model file: columns must list {schema.n_attributes} objects")
    k = len(schema.outcome_labels)
    if "counts" in payload:  # entries in canonical order: distinct row, then label
        counts = _array(payload["counts"], "i", (k, u), "counts")
        if counts.min() < 0 or sum(counts.ravel().tolist()) != m:
            raise PredictorError(f"model file: counts must be integers >= 0 that sum to n_entries ({m})")
        try:
            cells = np.repeat(np.arange(u * k), counts.T.ravel())
        except MemoryError:
            raise PredictorError(f"model file: {m} entries do not fit in memory") from None
        entry_row, outcomes = cells // k, cells % k
    else:
        entry_row = _index_array(payload["entry_row"], m, u, "entry_row")
        outcomes = _index_array(payload["outcomes"], m, k, "outcomes")
    # Rows no entry holds are dropped; the others keep their order.
    named = np.bincount(entry_row, minlength=u) > 0
    entry_row = (np.cumsum(named) - 1)[entry_row]
    coded, vocabs = [], []
    for spec, column in zip(schema.attributes, columns):
        what = f"column {spec.name!r}"
        if spec.kind == CATEGORICAL:
            cats = column["categories"]
            if not (isinstance(cats, list) and all(isinstance(c, str) for c in cats) and len(set(cats)) == len(cats)
                    and spec.categories in (None, tuple(cats))):
                raise PredictorError(f"model file: {what} needs the schema's categories in code order")
            vocabs.append({c: k for k, c in enumerate(cats)})
            data = _index_array(column["codes"], u, len(cats), f"{what} codes")
        else:
            vocabs.append(None)
            data = _real_array(column["values"], u, f"{what} values")
        coded.append(data[named])
    return TrainingTable._from_columns(schema, coded, vocabs, entry_row, outcomes)


def _density_from_dict(payload, m: int) -> DensityModel:
    if not isinstance(payload, dict) or not (_is_finite_real(payload["sts"]) and _is_finite_real(payload["stavg"])):
        raise PredictorError("model file: density needs tss, dcf, and finite sts and stavg")
    density = DensityModel(
        tss=_real_array(payload["tss"], m, "density tss"),
        sts=float(payload["sts"]),
        stavg=float(payload["stavg"]),
        dcf=_real_array(payload["dcf"], m, "density dcf"),
    )
    # The fit's own expressions, bit for bit (see compute_density_model).
    with np.errstate(over="ignore"):
        dcf = density.sts / (m * density.tss)
    if not (density.sts == math.fsum(density.tss.tolist()) and density.stavg == density.sts / m
            and np.array_equal(density.dcf, dcf)):
        raise PredictorError("model file: density sts, stavg and dcf disagree with tss")
    return density


def model_from_dict(payload: dict) -> FittedModel:
    """Check a model document in one pass and rebuild the fitted model.

    Version 3 files are written by ``model_to_dict``. Version 2 files
    (always per-entry rows and outcomes) and version 1 files (every entry's
    cells) still load. The ``trace`` key of older files is ignored.
    """
    if not isinstance(payload, dict):
        raise PredictorError("model document must be a JSON object")
    version = payload.get("version")
    if not _is_int(version) or version not in (1, 2, MODEL_FILE_VERSION):
        raise PredictorError(f"unsupported model file version {version!r}")
    try:
        schema = schema_from_dict(payload["schema"])
        table = (_table_v1 if version == 1 else _table_v2)(payload, schema)
        predictor = payload["predictor"]
        kernel = None
        if payload.get("kernel") is not None:
            kernel = kernel_from_dict(payload["kernel"])
        density = None
        if payload.get("density") is not None:
            density = _density_from_dict(payload["density"], table.n_entries)
    except KeyError as exc:
        raise PredictorError(f"model file lacks the required key {exc}") from None
    if predictor not in PREDICTOR_KINDS or (predictor == "rasturnat") != (kernel is not None):
        raise PredictorError(f"model file holds predictor {predictor!r} with kernel {payload.get('kernel')!r}")
    if density is not None and kernel is None:
        raise PredictorError("model file holds a density for a predictor without a kernel")
    if version == MODEL_FILE_VERSION and ("counts" in payload) == (density is not None):
        raise PredictorError("model file: version 3 lists counts when it has no density, else entry_row and outcomes")
    return FittedModel(table, predictor, kernel=kernel, density=density)


def save_model(model: FittedModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), separators=(",", ":")) + "\n", encoding="utf-8")


def load_model(path) -> FittedModel:
    """Read a model file back; no refitting happens here."""
    return model_from_dict(_read_json(path, PredictorError, "model"))
