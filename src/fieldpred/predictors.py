"""Lazy predictors over a training table.

Every decision rule reduces one scoring core: the matching distance from
the query to each of the table's U distinct rows, and the U x K matrix
``FittedModel.votes`` of label counts per row (dcf-weighted with density).

* ``delanga``: majority among the rows at the smallest distance, count
  ties broken by walking outward through successive distance levels;
* ``rasturnat``: ``kernel(dm) @ votes``, the largest field wins;
* ``nearest``: majority at the smallest distance, ties to label order;
  kept as a familiar baseline.

``predict`` is the one way to ask a fitted model; ``explain`` returns the level
table behind an answer, the one delanga's tie walk and rasturnat's band re-score read.

Outcome scores within REL_TIE_TOL of the leader count as ties resolved by
label order. A tie in that band is re-scored per distance level, so labels
with equal counts at every level get bitwise-equal fields and results do
not depend on row order. The band is far above float accumulation noise
and far below any genuine score gap.
"""

from __future__ import annotations

import base64
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import (CATEGORICAL, Query, Schema, TrainingTable, _is_finite_real, _is_int, _is_strings, _read_json,
                      schema_from_dict, schema_to_dict)
from .errors import PredictorError
from .kernels import Kernel, kernel_from_dict, kernel_to_dict, make_kernel
from .similarity import match_encoded, match_vectors, nearest_rows

PREDICTOR_KINDS = ("delanga", "rasturnat", "nearest")

#: Relative width of the winner tie band: scores within this fraction of the
#: leading score are treated as exactly tied.
REL_TIE_TOL = 1e-12

MODEL_FILE_VERSION = 5

#: Packed dtypes (the kind is the second character): values, scaled values, then codes and counts.
_PACKED_DTYPES = ("<f8", "|i1", "<i2", "<i4", "<i8", "|u1", "<u2", "<u4", "<u8")

#: Cells a density-fit strip scores at once: B rows against the rows from the first of them on.
_DENSITY_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True, eq=False)
class DensityModel:
    """The density of ``table``, from ``row_tss``: each distinct row's total field as seen by
    the whole table (its own terms included), one per row in canonical order.

    The constructor derives the rest and refuses a field that overflows or is not positive:
    sts, the correctly rounded sum of the M per-entry totals, stavg = sts / M, and
    row_dcf = sts / (M · row_tss), which scales crowded rows down and isolated rows up.
    ``tss`` and ``dcf`` are read-only per-entry views, ``row_*[table._distinct_of]``.
    """

    table: TrainingTable
    row_tss: np.ndarray
    sts: float = field(init=False)
    stavg: float = field(init=False)
    row_dcf: np.ndarray = field(init=False, repr=False)
    tss: np.ndarray = field(init=False, repr=False)
    dcf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.table, TrainingTable):
            raise PredictorError(f"a density needs a TrainingTable, got {type(self.table).__name__}")
        m, rows, u = self.table.n_entries, self.table._distinct_of, self.table._distinct_entry.size
        try:
            row_tss = np.asarray(self.row_tss)
        except ValueError:  # ragged nesting
            row_tss = np.empty(0, dtype=object)
        if row_tss.dtype.kind not in "iuf" or row_tss.shape != (u,):
            raise PredictorError(f"a density needs {u} numbers, one tss per distinct row of its table")
        row_tss = row_tss.astype(np.float64)  # a copy, which the caller cannot change
        try:
            if not np.isfinite(row_tss).all():
                raise OverflowError
            sts = math.fsum(row_tss[rows].tolist())
        except OverflowError:
            raise PredictorError("the density field overflows: the kernel's mld is too large for this table") from None
        with np.errstate(all="ignore"):  # sts / (m * tss), not stavg / tss, keeps dcf at exactly 1.0 on equal fields
            row_dcf = sts / (m * row_tss)
        if not (sts > 0 and np.all(np.isfinite(row_dcf) & (row_dcf > 0))):
            raise PredictorError("density scores must be positive and finite")
        for name, value in (("row_tss", row_tss), ("row_dcf", row_dcf), ("tss", row_tss[rows]), ("dcf", row_dcf[rows])):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "sts", sts)
        object.__setattr__(self, "stavg", sts / m)


@dataclass(frozen=True, eq=False)
class PredictionTrace:
    """The level table of one query: the distinct distances from it in increasing order,
    the L x K votes per label at each, the kernel value at each (None without a kernel),
    and the entries at ``levels[0]``, in entry order (canonical order after a counts load)."""

    levels: np.ndarray
    votes: np.ndarray
    kernel_values: np.ndarray | None
    champion_rows: tuple[int, ...]

    @property
    def champion_distance(self) -> float:
        return float(self.levels[0])


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
        table, kind, kernel, density = self.table, self.predictor_kind, self.kernel, self.density
        if not isinstance(table, TrainingTable):
            raise PredictorError(f"a model needs a TrainingTable, got {type(table).__name__}")
        if kind not in PREDICTOR_KINDS:
            raise PredictorError(f"unknown predictor kind {kind!r}")
        if (kind == "rasturnat") != (kernel is not None):
            raise PredictorError(f"predictor {kind!r} with kernel {kernel!r}: rasturnat needs a kernel, "
                                 "and the other predictors take none")
        if kernel is not None and not callable(getattr(kernel, "evaluate", None)):
            raise PredictorError(f"kernel {kernel!r} has no evaluate method")
        if density is not None and not (kernel is not None and isinstance(density, DensityModel)
                                        and density.table is table):
            raise PredictorError("a density goes only with a kernel, and only on the table it was fit to")
        votes = table._label_counts
        if density is not None:
            votes = np.bincount(table._vote_cell, weights=density.dcf, minlength=votes.size).reshape(votes.shape)
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
    ``density`` and ``mld_override``. ``FittedModel`` refuses an unknown
    predictor kind; ``density`` fits ``compute_density_model`` here.
    """
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
    delanga and nearest reduce the champion rows that ``nearest_rows`` finds."""
    if not (isinstance(model, FittedModel) and isinstance(query, Query)):
        raise PredictorError("predict takes a FittedModel and a Query")
    if model.predictor_kind == "rasturnat":
        return _predict_field(model, match_vectors(query, model.table)[1])
    return _predict_champions(model, query, nearest_rows(query, model.table)[0])


def explain(model: FittedModel, query: Query) -> PredictionTrace:
    """The level table behind ``predict(model, query)``, from a scan of all U distinct rows."""
    if not (isinstance(model, FittedModel) and isinstance(query, Query)):
        raise PredictorError("explain takes a FittedModel and a Query")
    return _level_table(model, match_vectors(query, model.table)[1])


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


def _level_table(model: FittedModel, dm: np.ndarray) -> PredictionTrace:
    """The level table of the distances ``dm`` to the U distinct rows. Each label's votes
    per level add in row order, so labels with equal votes at a level get equal sums."""
    levels, level_of = np.unique(dm, return_inverse=True)
    votes = np.stack([np.bincount(level_of, column, levels.size) for column in model.votes.T], axis=1)
    kernel_values = model.kernel.evaluate(levels) if model.kernel is not None else None
    champions = np.flatnonzero(dm[model.table._distinct_of] == levels[0])
    return PredictionTrace(levels, votes, kernel_values, tuple(champions.tolist()))


def _prediction(model: FittedModel, values: list[float], total: float, winner: str, tie_depth: int) -> Prediction:
    labels = model.table.schema.outcome_labels
    if not math.isfinite(total):
        raise PredictorError(f"outcome scores sum to {total}: the kernel's mld is too large for this table")
    # An underflowed field sums to 0, whose likelihoods numpy's 0 / 0 makes NaN.
    likelihoods = {label: v / total if total else math.nan for label, v in zip(labels, values)}
    return Prediction(dict(zip(labels, values)), likelihoods, winner, tie_depth)


def _predict_champions(model: FittedModel, query: Query, champions: np.ndarray) -> Prediction:
    """delanga and nearest: label counts over the champion rows, those at the
    minimal distance; count ties go to delanga's level walk over all U rows,
    scored again here, or to label order with tie depth 1 for nearest."""
    values, total, tied = _band(model.votes[champions].sum(axis=0), 0.0)
    labels = model.table.schema.outcome_labels
    winner, depth = labels[tied[0]], int(len(tied) > 1)
    if depth and model.predictor_kind == "delanga":
        winner, depth = backtrack_tie_break(_level_table(model, match_vectors(query, model.table)[1]).votes, labels)
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
    try:
        counts = np.asarray(level_counts)
    except ValueError:  # ragged rows
        counts = np.empty(0)
    if counts.ndim != 2 or not counts.size or counts.shape[1] != len(labels) or counts.dtype.kind not in "biuf":
        raise PredictorError(f"level_counts must be a non-empty table of numbers with {len(labels)} columns")
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
        trace = _level_table(model, dm)
        values, total, tied = _band((trace.kernel_values[:, None] * trace.votes).sum(axis=0), REL_TIE_TOL)
    return _prediction(model, values, total, model.table.schema.outcome_labels[tied[0]], int(len(tied) > 1))


def compute_density_model(table: TrainingTable, kernel: Kernel) -> DensityModel:
    """Score every distinct row against the whole table and derive dcf factors.

    O(U^2 * N) for U distinct rows, each unordered pair scored once: strip s
    scores rows [s, e) against rows [s, U), e = s + max(1, 2^14 // (U - s)),
    so that each float64 temporary stays within glibc's 128 KiB mmap threshold
    and the heap reuses its pages. d(u, v) is bitwise symmetric, so a strip
    adds its row sums to rows [s, e) and its column sums to rows [e, U). tss
    depends only on the table (its distinct rows are in canonical order) and
    the fixed strip size: a table of at most 128 rows is one strip of plain
    row sums. Each tss lies within about one rounding per strip of the
    correctly rounded sum of its U terms. Identical entries share one tss,
    which includes the entry's own term.
    """
    multiplicity = table._label_counts.sum(axis=1)
    n_rows = multiplicity.size
    row_tss = np.zeros(n_rows, dtype=np.float64)
    start = 0
    with np.errstate(over="ignore"):
        while start < n_rows:
            end = start + max(1, _DENSITY_BLOCK_CELLS // (n_rows - start))
            block = [column[start:end, None] for column in table._col_data]
            # Without attribute columns the scores stay one row of U = 1.
            k = kernel.evaluate(match_encoded(block, table, slice(start, None))[1]).reshape(-1, n_rows - start)
            row_tss[start:end] += (k * multiplicity[start:]).sum(axis=1)
            row_tss[end:] += multiplicity[start:end] @ k[:, end - start:]
            start = end
    return DensityModel(table, row_tss)


def _packed(arr: np.ndarray, dtype: str | None = None) -> dict:
    """The packed form of a numeric array: its little-endian bytes as ``dtype``
    (by default the smallest unsigned one that holds its maximum), compressed at
    zlib level 1, in base64. A ``<f8`` array is written as exact decimals where it
    can be: for the smallest p in 0..22 (the powers of ten binary64 holds exactly)
    for which every k = rint(x * 10^p) lies below 2^53 in magnitude and k / 10^p
    gives back x bit for bit, as k in the smallest signed dtype, with ``"scale": p``."""
    with np.errstate(over="ignore"):
        for p in range(23 if dtype == "<f8" else 0):
            k = np.rint(arr * 10.0**p)
            if (np.abs(k) < 2**53).all() and np.array_equal((k.astype(np.int64) / 10.0**p).view(np.uint64),
                                                            arr.view(np.uint64)):
                # A signed dtype holds k.min() and k.max() when it holds k.min() and -1 - k.max().
                return {**_packed(k, np.min_scalar_type(min(int(k.min()), -1 - int(k.max())))), "scale": p}
    dtype = np.dtype(dtype or np.min_scalar_type(int(arr.max()))).newbyteorder("<")
    return {"dtype": dtype.str, "zlib": base64.b64encode(zlib.compress(arr.astype(dtype).tobytes(), 1)).decode()}


def model_to_dict(model: FittedModel) -> dict:
    """Version 5: the U distinct rows column by column and ``counts``, the K x U label
    counts; with a density, per entry its distinct row and outcome instead, so that
    the per-entry tss and dcf keep their order. Each of these arrays is ``_packed``."""
    table = model.table
    columns = [
        {"values": _packed(data, "<f8")} if vocab is None else {"categories": list(vocab), "codes": _packed(data)}
        for vocab, data in zip(table._col_vocab, table._col_data)
    ]
    entries = ({"counts": _packed(table._label_counts.T)} if model.density is None
               else {"entry_row": _packed(table._distinct_of), "outcomes": _packed(table._outcomes)})
    density = model.density
    return {
        "version": MODEL_FILE_VERSION,
        "predictor": model.predictor_kind,
        "schema": schema_to_dict(table.schema),
        "n_entries": table.n_entries,
        "n_rows": table._distinct_entry.size,
        "columns": columns,
        **entries,
        "kernel": kernel_to_dict(model.kernel) if model.kernel is not None else None,
        "density": None if density is None else {"tss": density.tss.tolist(), "sts": density.sts,
                                                 "stavg": density.stavg, "dcf": density.dcf.tolist()},
    }


def _array(value, kinds: str, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A packed array (``_packed``) inflated no further than ``shape`` needs, as an array
    of numpy kinds ``kinds``: reals pack as ``<f8`` or, with a scale, as signed integers;
    integers as unsigned ones. Reals may also be a JSON list of numbers (not booleans),
    as the density's tss and dcf are."""
    if isinstance(value, dict):
        dtype, text, scale = value.get("dtype"), value.get("zlib"), value.get("scale", 0)
        kind = "u" if "f" not in kinds else "i" if "scale" in value else "f"
        allowed = [t for t in _PACKED_DTYPES if t[1] == kind]
        if not (dtype in allowed and isinstance(text, str) and _is_int(scale) and 0 <= scale <= 22
                and ("scale" in value) <= (kind == "i")):
            raise PredictorError(f"model file: {what} must pack base64 text as one of the dtypes {allowed}, "
                                 "and a scale from 0 to 22 only with signed ones")
        size, inflate = math.prod(shape) * np.dtype(dtype).itemsize, zlib.decompressobj()
        try:
            stream = base64.b64decode(text, validate=True)
            # Deflate emits at most 258 bytes per 2-bit length/distance pair: 1032 per stream byte.
            raw = inflate.decompress(stream, size) if size <= 1032 * len(stream) else b""
        except (ValueError, zlib.error):
            raw = b""
        if len(raw) != size or not inflate.eof or inflate.unused_data:
            raise PredictorError(f"model file: {what} must pack one zlib stream of {size} bytes")
        arr = np.frombuffer(raw, dtype).reshape(shape)
        return arr if kind != "i" else arr / 10.0**scale
    try:
        arr = np.asarray(value) if isinstance(value, list) and "f" in kinds else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in kinds or arr.shape != shape or bool in set(map(type, value)):
        listed = f", or a list of {shape[0]} numbers" if "f" in kinds else ""
        raise PredictorError(f"model file: {what} must be a packed array{listed}")
    return arr


def _index_array(value, size: int, bound: int, what: str) -> np.ndarray:
    arr = _array(value, "u", (size,), what)
    if arr.max() >= bound:
        raise PredictorError(f"model file: {what} must lie in 0..{bound - 1}")
    return arr.astype(np.intp)


def _real_array(value, size: int, what: str) -> np.ndarray:
    arr = _array(value, "if", (size,), what).astype(np.float64)
    if not np.isfinite(arr).all():
        raise PredictorError(f"model file: {what} must be finite")
    return arr


def _table(payload: dict, schema: Schema) -> TrainingTable:
    m, u, columns = payload["n_entries"], payload["n_rows"], payload["columns"]
    # Votes count exactly in float64 below 2^53, and numpy's entry total cannot wrap.
    if not all(_is_int(n) and 1 <= n < 2**53 for n in (m, u)):
        raise PredictorError("model file: n_entries and n_rows must be integers from 1 to 2^53 - 1")
    if not (isinstance(columns, list) and len(columns) == schema.n_attributes
            and all(isinstance(column, dict) for column in columns)):
        raise PredictorError(f"model file: columns must list {schema.n_attributes} objects")
    # The U-long columns first: their size in the file bounds U before anything is sized by it.
    coded, vocabs = [], []
    for spec, column in zip(schema.attributes, columns):
        what = f"column {spec.name!r}"
        if spec.kind == CATEGORICAL:
            cats = column["categories"]
            if not (_is_strings(cats) and len(set(cats)) == len(cats) and spec.categories in (None, tuple(cats))):
                raise PredictorError(f"model file: {what} needs the schema's categories in code order")
            vocabs.append({c: k for k, c in enumerate(cats)})
            data = _index_array(column["codes"], u, len(cats), f"{what} codes")
        else:
            vocabs.append(None)
            if not isinstance(column["values"], dict):  # only the density's tss and dcf may be lists
                raise PredictorError(f"model file: {what} values must be a packed array")
            data = _real_array(column["values"], u, f"{what} values")
        coded.append(data)
    k = len(schema.outcome_labels)
    if "counts" in payload:  # entries in canonical order: distinct row, then label
        counts = _array(payload["counts"], "u", (k, u), "counts")
        if sum(counts.ravel().tolist()) != m:
            raise PredictorError(f"model file: counts must sum to n_entries ({m})")
        try:
            cells = np.repeat(np.arange(u * k), counts.T.ravel().astype(np.intp))
        except MemoryError:
            raise PredictorError(f"model file: {m} entries do not fit in memory") from None
        entry_row, outcomes = cells // k, cells % k
    else:
        entry_row = _index_array(payload["entry_row"], m, u, "entry_row")
        outcomes = _index_array(payload["outcomes"], m, k, "outcomes")
    if not np.bincount(entry_row, minlength=u).all():
        raise PredictorError("model file: every distinct row must hold an entry")
    return TrainingTable._from_columns(schema, coded, vocabs, entry_row, outcomes)


def _density_from_dict(payload, table: TrainingTable) -> DensityModel:
    """The file's density, if it is the ``DensityModel`` of one tss per distinct row, bit for bit."""
    if not isinstance(payload, dict) or not (_is_finite_real(payload["sts"]) and _is_finite_real(payload["stavg"])):
        raise PredictorError("model file: density needs tss, dcf, and finite sts and stavg")
    tss, dcf = (_real_array(payload[key], table.n_entries, f"density {key}") for key in ("tss", "dcf"))
    density = DensityModel(table, tss[table._distinct_entry])
    if not np.array_equal(density.tss, tss):
        raise PredictorError("model file: density tss differs between entries of one distinct row")
    if not (density.sts == payload["sts"] and density.stavg == payload["stavg"] and np.array_equal(density.dcf, dcf)):
        raise PredictorError("model file: density sts, stavg and dcf disagree with tss")
    return density


def model_from_dict(payload: dict) -> FittedModel:
    """Check a model document's format in one pass and rebuild the model, whose constructor checks the pairings.

    Version 5 files are written by ``model_to_dict``; version 4 files, whose
    columns are all ``<f8``, read through the same path. Versions 1 to 3 are
    refused: a model file is a cache of ``fit``, which rebuilds it from the CSV.
    """
    if not isinstance(payload, dict):
        raise PredictorError("model document must be a JSON object")
    version = payload.get("version")
    if not _is_int(version) or version not in range(1, MODEL_FILE_VERSION + 1):
        raise PredictorError(f"unsupported model file version {version!r}")
    if version < 4:
        raise PredictorError(f"model file version {version} is no longer read: run fit again to rebuild it")
    try:
        schema = schema_from_dict(payload["schema"])
        table = _table(payload, schema)
        predictor = payload["predictor"]
        kernel = None
        if payload.get("kernel") is not None:
            kernel = kernel_from_dict(payload["kernel"])
        density = None
        if payload.get("density") is not None:
            density = _density_from_dict(payload["density"], table)
    except KeyError as exc:
        raise PredictorError(f"model file lacks the required key {exc}") from None
    if ("counts" in payload) == (density is not None):
        raise PredictorError("model file: counts without a density, else entry_row and outcomes")
    return FittedModel(table, predictor, kernel=kernel, density=density)


def save_model(model: FittedModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), separators=(",", ":")) + "\n", encoding="utf-8")


def load_model(path) -> FittedModel:
    """Read a model file back; no refitting happens here."""
    return model_from_dict(_read_json(path, PredictorError, "model"))
