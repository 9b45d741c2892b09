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
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import (CATEGORICAL, Query, Schema, TrainingTable, _is_finite_real, _is_int, _read_json,
                      schema_from_dict, schema_to_dict)
from .errors import PredictorError
from .kernels import Kernel, kernel_from_dict, kernel_to_dict, make_kernel
from .similarity import match_encoded, match_vectors

PREDICTOR_KINDS = ("delanga", "rasturnat", "nearest")

#: Relative width of the winner tie band: scores within this fraction of the
#: leading score are treated as exactly tied.
REL_TIE_TOL = 1e-12

MODEL_FILE_VERSION = 2


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
    """Per-entry evidence from ``explain``: the champion distance and entry
    indices (delanga, nearest), or every entry's vote (rasturnat)."""

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
    kernel = make_kernel(kernel_kind, table.n_entries, table.total_weight, mld_override)
    density_model = compute_density_model(table, kernel) if density else None
    return FittedModel(table, "rasturnat", kernel=kernel, density=density_model)


def predict(model: FittedModel, query: Query) -> Prediction:
    """Score the query against the U distinct rows and reduce by the model's rule."""
    dm = match_vectors(query, model.table)[1]
    if model.predictor_kind == "rasturnat":
        return _predict_field(model, dm)
    return _predict_champions(model, dm)


def explain(model: FittedModel, query: Query) -> PredictionTrace:
    """The per-entry evidence behind ``predict(model, query)``, in entry order.

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


def _select_winner(scores: np.ndarray) -> tuple[int, int]:
    """Index of the winning outcome plus a 0/1 tie flag (band rule)."""
    best = float(scores.max())
    if not math.isfinite(best):
        raise PredictorError(f"outcome score overflows to {best}: the kernel's mld is too large for this table")
    tied = np.flatnonzero(scores >= best - best * REL_TIE_TOL)
    return int(tied[0]), (1 if tied.size > 1 else 0)


def _level_table(dm: np.ndarray, votes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct distances in increasing order, and the votes per label at each."""
    levels, level_of = np.unique(dm, return_inverse=True)
    per_level = np.zeros((levels.size, votes.shape[1]))
    np.add.at(per_level, level_of, votes)
    return levels, per_level


def _prediction(model: FittedModel, tos: np.ndarray, winner: str, tie_depth: int) -> Prediction:
    labels = model.table.schema.outcome_labels
    total = tos.sum()
    if not math.isfinite(total):
        raise PredictorError(f"outcome scores sum to {total}: the kernel's mld is too large for this table")
    scores = {label: float(tos[k]) for k, label in enumerate(labels)}
    likelihoods = {label: float(tos[k] / total) for k, label in enumerate(labels)}
    return Prediction(scores, likelihoods, winner, tie_depth)


def _predict_champions(model: FittedModel, dm: np.ndarray) -> Prediction:
    """delanga and nearest: label counts at the minimal distance; count ties
    go to delanga's level walk, or to label order with tie depth 1 for nearest."""
    at_min = dm == dm.min()
    counts = model.votes[at_min].sum(axis=0)
    tied = np.flatnonzero(counts == counts.max())
    labels = model.table.schema.outcome_labels
    winner, depth = labels[int(tied[0])], int(tied.size > 1)
    if depth and model.predictor_kind == "delanga":
        winner, depth = backtrack_tie_break(_level_table(dm, model.votes)[1], labels)
    return _prediction(model, counts, winner, depth)


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
    tos = model.kernel.evaluate(dm) @ model.votes
    winner, tie = _select_winner(tos)
    if tie:
        # Sums over rows in different orders can split equal fields by an
        # ulp. Per level, labels with equal counts get equal terms, and the
        # row-wise sum adds every column in the same order.
        levels, per_level = _level_table(dm, model.votes)
        tos = (model.kernel.evaluate(levels)[:, None] * per_level).sum(axis=0)
        winner, tie = _select_winner(tos)
    return _prediction(model, tos, model.table.schema.outcome_labels[winner], tie)


def compute_density_model(table: TrainingTable, kernel: Kernel) -> DensityModel:
    """Score every distinct row against the whole table and derive dcf factors.

    O(U^2 * N) for U distinct rows; identical entries share one tss, which
    includes the entry's own term.
    """
    m = table.n_entries
    multiplicity = table._label_counts.sum(axis=1)
    row_tss = np.empty(multiplicity.size, dtype=np.float64)
    coded_rows = zip(*(column.tolist() for column in table._col_data))
    for u, row in enumerate(coded_rows):
        _, dm = match_encoded(row, table)
        row_tss[u] = math.fsum(kernel.evaluate(dm) * multiplicity)
    tss = row_tss[table._distinct_of]
    sts = math.fsum(tss)
    stavg = sts / m
    # Algebraically stavg / tss, but dividing the fsum by m * tss keeps
    # dcf at exactly 1.0 when every entry carries the same field.
    dcf = sts / (m * tss)
    return DensityModel(tss=tss, sts=sts, stavg=stavg, dcf=dcf)


def model_to_dict(model: FittedModel) -> dict:
    """Version 2: the U distinct rows column by column, and per entry its
    distinct row and outcome, so entry order survives a round trip."""
    table = model.table
    columns = [
        {"values": data.tolist()} if vocab is None
        else {"categories": list(vocab), "codes": data.astype(np.intp).tolist()}
        for vocab, data in zip(table._col_vocab, table._col_data)
    ]
    payload: dict = {
        "version": MODEL_FILE_VERSION,
        "predictor": model.predictor_kind,
        "schema": schema_to_dict(table.schema),
        "n_entries": table.n_entries,
        "n_rows": table._distinct_entry.size,
        "columns": columns,
        "entry_row": table._distinct_of.tolist(),
        "outcomes": table._outcomes.tolist(),
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


def _array(value, kinds: str, size: int, what: str) -> np.ndarray:
    """A JSON list as a 1-D array of ``size`` items of numpy kinds ``kinds``."""
    try:
        arr = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in kinds or arr.shape != (size,):
        noun = "integers" if kinds == "i" else "numbers"
        raise PredictorError(f"model file: {what} must list {size} {noun}")
    return arr


def _index_array(value, size: int, bound: int, what: str) -> np.ndarray:
    arr = _array(value, "i", size, what)
    if arr.min() < 0 or arr.max() >= bound:
        raise PredictorError(f"model file: {what} must lie in 0..{bound - 1}")
    return arr.astype(np.intp)


def _real_array(value, size: int, what: str) -> np.ndarray:
    arr = _array(value, "if", size, what).astype(np.float64)
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
    if not all(_is_int(n) and n >= 1 for n in (m, u)):
        raise PredictorError("model file: n_entries and n_rows must be positive integers")
    if not (isinstance(columns, list) and len(columns) == schema.n_attributes
            and all(isinstance(column, dict) for column in columns)):
        raise PredictorError(f"model file: columns must list {schema.n_attributes} objects")
    entry_row = _index_array(payload["entry_row"], m, u, "entry_row")
    outcomes = _index_array(payload["outcomes"], m, len(schema.outcome_labels), "outcomes")
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
        coded.append(data[entry_row])
    return TrainingTable._from_columns(schema, coded, vocabs, outcomes)


def _density_from_dict(payload, m: int) -> DensityModel:
    if not isinstance(payload, dict) or not (_is_finite_real(payload["sts"]) and _is_finite_real(payload["stavg"])):
        raise PredictorError("model file: density needs tss, dcf, and finite sts and stavg")
    return DensityModel(
        tss=_real_array(payload["tss"], m, "density tss"),
        sts=float(payload["sts"]),
        stavg=float(payload["stavg"]),
        dcf=_real_array(payload["dcf"], m, "density dcf"),
    )


def model_from_dict(payload: dict) -> FittedModel:
    """Check a model document in one pass and rebuild the fitted model.

    Version 2 files are written by ``model_to_dict``; version 1 files
    (every entry's cells) still load. The ``trace`` key of older files
    is ignored.
    """
    if not isinstance(payload, dict):
        raise PredictorError("model document must be a JSON object")
    version = payload.get("version")
    if version not in (1, MODEL_FILE_VERSION):
        raise PredictorError(f"unsupported model file version {version!r}")
    try:
        schema = schema_from_dict(payload["schema"])
        table = (_table_v1 if version == 1 else _table_v2)(payload, schema)
        predictor = payload["predictor"]
        kernel = None
        if payload.get("kernel") is not None:
            kernel = kernel_from_dict(payload["kernel"], table.total_weight)
        density = None
        if payload.get("density") is not None:
            density = _density_from_dict(payload["density"], table.n_entries)
    except KeyError as exc:
        raise PredictorError(f"model file lacks the required key {exc}") from None
    if predictor not in PREDICTOR_KINDS or (predictor == "rasturnat") != (kernel is not None):
        raise PredictorError(f"model file holds predictor {predictor!r} with kernel {payload.get('kernel')!r}")
    if density is not None and kernel is None:
        raise PredictorError("model file holds a density for a predictor without a kernel")
    return FittedModel(table, predictor, kernel=kernel, density=density)


def save_model(model: FittedModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), separators=(",", ":")) + "\n", encoding="utf-8")


def load_model(path) -> FittedModel:
    """Read a model file back; no refitting happens here."""
    return model_from_dict(_read_json(path, PredictorError, "model"))
