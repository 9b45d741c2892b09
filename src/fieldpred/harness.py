"""Synthetic ground-truth experiments: generation, oracles, convergence runs.

A synthetic specification fixes categorical attribute cardinalities, a
distribution over attribute tuples, and per-tuple conditional outcome
masses. Because the joint law is explicit, the Bayes-optimal accuracy is
computable in closed form and the regret of any predictor is measurable
exactly, trial by trial.

Sampling uses counter-based Philox streams keyed by (seed, stream_id):
any (spec, m, stream) triple regenerates the identical table regardless
of what else ran before, so experiments stay reproducible under
reordering and parallelism.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import (CATEGORICAL, AttributeSpec, Query, Schema, TrainingTable, _is_count, _is_finite_real, _is_int,
                      _is_strings, _read_json)
from .errors import HarnessError
from .kernels import KERNEL_KINDS
from .predictors import PREDICTOR_KINDS, FittedModel, fit, predict

SPEC_FILE_VERSION = 1

#: Stream id reserved for drawing a specification's own parameters
#: (never used for data, which keeps small consecutive stream ids safe).
DESIGN_STREAM = 2**63

#: Fixed seed for the standard three-ternary-attribute benchmark spec.
STANDARD_SPEC_SEED = 2024

#: Fixed seed for the non-convergence counterexample spec.
COUNTEREXAMPLE_SEED = 77

#: Largest law ``make_spec`` builds: it materializes every attribute tuple
#: and a dense tuple-by-label table, so a spec's size must stay bounded.
MAX_LAW_TUPLES = 2**16

REPORT_HEADER = "m,predictor,kernel,trial,accuracy,bayes_accuracy,regret"


def _stream_rng(seed: int, stream_id: int) -> np.random.Generator:
    key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def all_tuples(cardinalities: Sequence[int]) -> list[tuple[str, ...]]:
    """Every attribute tuple, in canonical (first attribute slowest) order."""
    alphabets = [[str(v) for v in range(c)] for c in cardinalities]
    return list(itertools.product(*alphabets))


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Explicit joint law over attribute tuples and outcome labels.

    ``probs`` and ``conditionals`` are aligned with ``all_tuples(cardinalities)``;
    conditional rows are meaningful only where the tuple mass is positive.
    """

    cardinalities: tuple[int, ...]
    labels: tuple[str, ...]
    seed: int
    probs: np.ndarray
    conditionals: np.ndarray

    def __post_init__(self):
        cards, seed = _law_cardinalities(self.cardinalities, self.labels), self.seed
        if not (_is_int(seed) or isinstance(seed, np.integer)):
            raise HarnessError(f"seed must be an integer, got {seed!r}")
        object.__setattr__(self, "cardinalities", cards)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "seed", int(seed))
        k = math.prod(cards)
        try:
            probs, cond = np.asarray(self.probs), np.asarray(self.conditionals)
        except ValueError:  # ragged nesting
            probs = cond = np.empty(0, dtype=object)
        # Numbers, not booleans, strings or objects; numpy reads True among floats as 1.0, so each cell is typed.
        typed = {type(x) for mass in (self.probs, self.conditionals) for x in np.asarray(mass, dtype=object).flat}
        if probs.dtype.kind not in "iuf" or cond.dtype.kind not in "iuf" or bool in typed or np.bool_ in typed:
            raise HarnessError("masses must be arrays of numbers")
        probs, cond = probs.astype(np.float64), cond.astype(np.float64)
        if probs.shape != (k,):
            raise HarnessError(f"probs must have shape ({k},)")
        if cond.shape != (k, len(self.labels)):
            raise HarnessError(f"conditionals must have shape ({k}, {len(self.labels)})")
        if not (np.isfinite(probs).all() and np.isfinite(cond).all()):
            raise HarnessError("masses must be finite")
        if np.any(probs < 0) or np.any(cond < 0):
            raise HarnessError("masses must be nonnegative")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise HarnessError("tuple masses must sum to 1")
        live = probs > 0
        row_sums = cond[live].sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-12):
            raise HarnessError("conditional masses must sum to 1 for every reachable tuple")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "conditionals", cond)
        tuples = all_tuples(cards)
        object.__setattr__(self, "_tuples", tuples)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(tuples)})

    @property
    def tuples(self) -> list[tuple[str, ...]]:
        return list(self._tuples)

    def tuple_index(self, values: Sequence[str]) -> int:
        return _tuple_index(self._index, values, self.cardinalities)

    def schema(self) -> Schema:
        attrs = tuple(
            AttributeSpec(
                name=f"x{j}",
                kind=CATEGORICAL,
                categories=tuple(str(v) for v in range(c)),
            )
            for j, c in enumerate(self.cardinalities)
        )
        return Schema(attrs, self.labels)


def _tuple_index(index: dict, values, cards: tuple[int, ...]) -> int:
    """The index of a tuple, given as a list or tuple of attribute values (strings, or ints that read as them)."""
    key = tuple(map(str, values)) if isinstance(values, (list, tuple)) else None
    if key not in index:
        raise HarnessError(f"unknown tuple {values!r}: not a point of the law of cardinalities {cards}")
    return index[key]


def _law_cardinalities(cardinalities, labels) -> tuple[int, ...]:
    """The cardinalities as ints, once they and the labels describe a law of at most MAX_LAW_TUPLES tuples."""
    if (isinstance(labels, (list, tuple)) and not labels) or not (
            isinstance(cardinalities, (list, tuple)) and cardinalities and all(map(_is_count, cardinalities))):
        raise HarnessError("cardinalities must be positive integers and labels nonempty")
    if not (_is_strings(labels) and len(set(labels)) == len(labels)):
        raise HarnessError("labels must be a nonempty list or tuple of unique strings")
    cards = tuple(map(int, cardinalities))
    if math.prod(cards) > MAX_LAW_TUPLES:
        raise HarnessError(f"a law of {math.prod(cards)} attribute tuples exceeds the limit of {MAX_LAW_TUPLES}")
    return cards


def make_spec(
    cardinalities: Sequence[int],
    labels: Sequence[str],
    seed: int,
    attribute_distribution="uniform",
    conditionals: Mapping[tuple, Sequence[float]] | None = None,
) -> SyntheticSpec:
    """Assemble a SyntheticSpec from user-facing pieces.

    ``attribute_distribution`` is "uniform" or a mapping tuple -> mass;
    ``conditionals`` maps each reachable tuple to its outcome masses; each
    mass is a finite int or float. A conditional for an unreachable tuple,
    or a missing one for a reachable tuple, is an error.
    """
    cards = _law_cardinalities(cardinalities, labels)
    tuples = all_tuples(cards)
    index = {t: i for i, t in enumerate(tuples)}
    k = len(tuples)
    n_labels = len(labels)

    probs = np.zeros(k, dtype=np.float64)
    if isinstance(attribute_distribution, str):
        if attribute_distribution != "uniform":
            raise HarnessError(f"unknown distribution descriptor {attribute_distribution!r}")
        probs[:] = 1.0 / k
    elif isinstance(attribute_distribution, Mapping):
        for key, mass in attribute_distribution.items():
            i = _tuple_index(index, key, cards)
            if not _is_finite_real(mass):
                raise HarnessError(f"the mass of {tuples[i]!r} must be a finite real, got {mass!r}")
            probs[i] = mass
    else:
        raise HarnessError("attribute_distribution must be 'uniform' or a mapping from tuple to mass")

    if not isinstance(conditionals, Mapping):
        raise HarnessError("conditionals are required, as a mapping from tuple to outcome masses")
    cond = np.full((k, n_labels), 1.0 / n_labels, dtype=np.float64)
    covered = np.zeros(k, dtype=bool)
    for key, masses in conditionals.items():
        i = _tuple_index(index, key, cards)
        if probs[i] == 0.0:
            raise HarnessError(f"conditional given for unreachable tuple {tuples[i]!r}")
        if not (isinstance(masses, (list, tuple)) and len(masses) == n_labels and all(map(_is_finite_real, masses))):
            raise HarnessError(f"conditional for {tuples[i]!r} must list {n_labels} masses, each a finite real")
        cond[i] = masses
        covered[i] = True
    missing = np.flatnonzero((probs > 0) & ~covered)
    if missing.size:
        raise HarnessError(f"missing conditional for reachable tuple {tuples[missing[0]]!r}")

    return SyntheticSpec(cards, labels, seed, probs, cond)


def _outcome_cdf(spec: SyntheticSpec) -> np.ndarray:
    cdf = np.cumsum(spec.conditionals, axis=1)
    cdf[:, -1] = 1.0
    return cdf


def _positive_int(value, what: str) -> int:
    """``value`` as an int, if it is an int or numpy integer (not a bool) of at least 1."""
    if not _is_count(value):
        raise HarnessError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def generate_synthetic(spec: SyntheticSpec, m: int, stream_id: int) -> TrainingTable:
    """Draw m i.i.d. labeled rows on the stream (seed, stream_id)."""
    m = _positive_int(m, "m")
    rng = _stream_rng(spec.seed, stream_id)
    idx = rng.choice(spec.probs.size, size=m, p=spec.probs)
    u = rng.random(m)
    cdf = _outcome_cdf(spec)
    outcomes = np.argmax(u[:, None] < cdf[idx], axis=1)
    return _tuple_table(spec, idx, outcomes)


def _tuple_table(spec: SyntheticSpec, idx: np.ndarray, outcomes: np.ndarray) -> TrainingTable:
    """A table from tuple indices: attribute j's code is tuple digit j."""
    schema = spec.schema()
    vocabs = [{c: k for k, c in enumerate(a.categories)} for a in schema.attributes]
    rows, entry_row = np.unique(idx, return_inverse=True)
    columns = list(np.unravel_index(rows, spec.cardinalities))
    return TrainingTable._from_columns(schema, columns, vocabs, entry_row, outcomes.astype(np.intp))


def generate_point_test(spec: SyntheticSpec, tuple_values: Sequence[str], n: int, stream_id: int) -> TrainingTable:
    """A test table whose every row sits at one tuple, labels drawn from its conditional."""
    n = _positive_int(n, "n")
    i = spec.tuple_index(tuple_values)
    if spec.probs[i] == 0.0:
        raise HarnessError(f"tuple {tuple(tuple_values)!r} has zero mass; no conditional is defined")
    rng = _stream_rng(spec.seed, stream_id)
    u = rng.random(n)
    cdf = _outcome_cdf(spec)[i]
    outcomes = np.argmax(u[:, None] < cdf[None, :], axis=1)
    return _tuple_table(spec, np.full(n, i), outcomes)


def bayes_optimal(spec: SyntheticSpec) -> tuple[Callable[[Sequence[str]], str], float]:
    """The argmax-conditional classifier and its exact accuracy.

    Accuracy is sum over tuples of P(tuple) * max_k P(k | tuple); ties in
    a conditional go to the earliest label.
    """
    best = np.argmax(spec.conditionals, axis=1)
    accuracy = math.fsum(
        spec.probs[i] * float(spec.conditionals[i].max())
        for i in np.flatnonzero(spec.probs > 0)
    )

    def classify(values: Sequence[str]) -> str:
        return spec.labels[best[spec.tuple_index(values)]]

    return classify, accuracy


def evaluate_accuracy(model: FittedModel, test_table: TrainingTable) -> float:
    """Fraction of test entries whose winner matches the recorded label; a
    label unknown to the model never does."""
    if not (isinstance(model, FittedModel) and isinstance(test_table, TrainingTable)):
        raise HarnessError("evaluate_accuracy takes a FittedModel and a TrainingTable")
    test_schema = test_table.schema
    if [(a.name, a.kind) for a in model.table.schema.attributes] != [(a.name, a.kind) for a in test_schema.attributes]:
        raise HarnessError("test table attributes do not match the model's schema")
    # predict is a pure function of the query, so each distinct test row is
    # predicted once and counts for every entry holding it.
    labels = test_schema.outcome_labels
    correct = 0
    for u, row in enumerate(test_table._distinct_rows):
        winner = predict(model, Query(row)).winner
        if winner in labels:
            correct += int(test_table._label_counts[u, labels.index(winner)])
    return correct / test_table.n_entries


@dataclass(frozen=True)
class ConvergenceReportRow:
    m: int
    predictor: str
    kernel: str
    trial: int
    accuracy: float
    bayes_accuracy: float
    regret: float


def _check_arm(arm: Sequence) -> tuple[str, str | None]:
    if not (isinstance(arm, (tuple, list)) and len(arm) in (1, 2)):
        raise HarnessError(f"an arm is a predictor and an optional kernel, as a tuple or list; got {arm!r}")
    predictor, kernel = (arm[0], arm[1]) if len(arm) == 2 else (arm[0], None)
    if predictor not in PREDICTOR_KINDS:
        raise HarnessError(f"unknown predictor {predictor!r} in arm")
    if predictor == "rasturnat":
        if kernel is None:
            raise HarnessError("rasturnat arm needs a kernel")
        if kernel not in KERNEL_KINDS:
            raise HarnessError(f"unknown kernel kind {kernel!r} in arm")
    elif kernel is not None:
        raise HarnessError(f"kernel named for {predictor} arm; kernel is a rasturnat parameter")
    return predictor, kernel


def run_convergence(
    spec: SyntheticSpec,
    arms: Sequence[Sequence],
    schedule: Sequence[int],
    trials: int,
    test_size: int,
    progress: Callable[[str], None] | None = None,
) -> list[ConvergenceReportRow]:
    """Accuracy/regret per (arm, m, trial), rows in exactly that order.

    Arms are (predictor, kernel_or_None) pairs. All arms see the same
    train/test draw for a given (m, trial), which is recreated from its
    own streams rather than cached, so the run order cannot matter.
    """
    if not arms:
        raise HarnessError("at least one arm is required")
    parsed = [_check_arm(arm) for arm in arms]
    if not (isinstance(schedule, (list, tuple)) and schedule):
        raise HarnessError(f"schedule must list positive entry counts, got {schedule!r}")
    schedule = [_positive_int(m, "a schedule entry") for m in schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise HarnessError("schedule must be strictly increasing")
    trials, test_size = _positive_int(trials, "trials"), _positive_int(test_size, "test_size")

    _, bayes = bayes_optimal(spec)
    rows: list[ConvergenceReportRow] = []
    for predictor, kernel in parsed:
        arm_name = predictor if kernel is None else f"{predictor}:{kernel}"
        if progress is not None:
            progress(arm_name)
        for m_index, m in enumerate(schedule):
            for trial in range(trials):
                train_stream = 2 * (trial * len(schedule) + m_index)
                train = generate_synthetic(spec, m, train_stream)
                test = generate_synthetic(spec, test_size, train_stream + 1)
                accuracy = evaluate_accuracy(fit(train, predictor, kernel), test)
                rows.append(ConvergenceReportRow(m, predictor, kernel or "", trial, accuracy, bayes, bayes - accuracy))
    return rows


def report_to_csv(rows: Sequence[ConvergenceReportRow]) -> str:
    lines = [f"{r.m},{r.predictor},{r.kernel},{r.trial},{r.accuracy:.6f},{r.bayes_accuracy:.6f},{r.regret:.6f}"
             for r in rows]
    return "\n".join([REPORT_HEADER, *lines]) + "\n"


def write_report(rows: Sequence[ConvergenceReportRow], path) -> None:
    Path(path).write_text(report_to_csv(rows), encoding="utf-8")


def summarize_final_regret(rows: Sequence[ConvergenceReportRow]) -> list[tuple[str, int, float]]:
    """Mean regret at the largest m, per arm, in first-seen arm order."""
    if not rows:
        return []
    final_m = max(r.m for r in rows)
    regrets: dict[str, list[float]] = {}  # in first-seen arm order
    for r in rows:
        values = regrets.setdefault(r.predictor if not r.kernel else f"{r.predictor}:{r.kernel}", [])
        if r.m == final_m:
            values.append(r.regret)
    return [(arm, final_m, math.fsum(values) / len(values)) for arm, values in regrets.items()]


def spec_to_dict(spec: SyntheticSpec) -> dict:
    tuples = spec.tuples
    return {
        "version": SPEC_FILE_VERSION,
        "cardinalities": list(spec.cardinalities),
        "attribute_distribution": [
            {"tuple": list(tuples[i]), "mass": float(spec.probs[i])}
            for i in np.flatnonzero(spec.probs > 0)
        ],
        "conditionals": [
            {"tuple": list(tuples[i]), "masses": [float(x) for x in spec.conditionals[i]]}
            for i in np.flatnonzero(spec.probs > 0)
        ],
        "labels": list(spec.labels),
        "seed": spec.seed,
    }


def _tuple_map(records, key: str, what: str) -> dict:
    """``[{"tuple": [...], key: value}, ...]`` as a dict from tuple (values as strings) to value, for make_spec."""
    if not (isinstance(records, list) and all(
            isinstance(rec, dict) and isinstance(rec.get("tuple"), list) and key in rec for rec in records)):
        raise HarnessError(f"spec {what} must list objects with a 'tuple' list and {key!r}")
    return {tuple(map(str, rec["tuple"])): rec[key] for rec in records}


def spec_from_dict(payload: dict) -> SyntheticSpec:
    """Build the spec a spec document describes; ``make_spec`` and SyntheticSpec check its values."""
    if not isinstance(payload, dict):
        raise HarnessError("spec document must be a JSON object")
    if payload.get("version") != SPEC_FILE_VERSION:
        raise HarnessError(f"unsupported spec file version {payload.get('version')!r}")
    for key in ("cardinalities", "labels", "attribute_distribution", "conditionals"):
        if key not in payload:
            raise HarnessError(f"spec file lacks the required key {key!r}")
    dist = payload["attribute_distribution"]
    if not isinstance(dist, str):
        dist = _tuple_map(dist, "mass", "attribute_distribution")
    conditionals = _tuple_map(payload["conditionals"], "masses", "conditionals")
    return make_spec(payload["cardinalities"], payload["labels"], payload.get("seed", 0),
                     attribute_distribution=dist, conditionals=conditionals)


def save_spec(spec: SyntheticSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n", encoding="utf-8")


def load_spec(path) -> SyntheticSpec:
    return spec_from_dict(_read_json(path, HarnessError, "spec"))


def standard_spec(seed: int = STANDARD_SPEC_SEED) -> SyntheticSpec:
    """Three ternary attributes, uniform tuples, two labels.

    Each tuple's dominant conditional is drawn once from the seed's design
    stream, uniformly in [0.7, 0.95], with the favored label a fair coin;
    the Bayes accuracy is the mean of the 27 dominant masses.
    """
    rng = _stream_rng(seed, DESIGN_STREAM)
    cards = (3, 3, 3)
    tuples = all_tuples(cards)
    conditionals = {}
    for t in tuples:
        p_max = float(rng.uniform(0.7, 0.95))
        favored = int(rng.integers(0, 2))
        masses = [p_max, 1.0 - p_max] if favored == 0 else [1.0 - p_max, p_max]
        conditionals[t] = masses
    return make_spec(cards, ("A", "B"), seed, "uniform", conditionals)


def counterexample_spec(seed: int = COUNTEREXAMPLE_SEED) -> SyntheticSpec:
    """A law where a fixed-lead kernel is asymptotically wrong at one point.

    The tuple (0,0,0) is rare (mass 0.01) and favors label A at 0.9, but
    its six Hamming-1 neighbors carry thirty times that mass and favor B
    at 0.9. Any kernel whose almost-perfect vote stays a fixed fraction
    of the perfect vote (pow_2: one half) lets the neighbor crowd outvote
    the point evidence no matter how large the table grows, while a
    lead-certified kernel tracks the perfect matches and converges.
    """
    cards = (3, 3, 3)
    rare = ("0", "0", "0")
    tuples = all_tuples(cards)
    distribution = {}
    conditionals = {}
    for t in tuples:
        d = sum(1 for a, b in zip(rare, t) if a != b)
        if d == 0:
            distribution[t] = 0.01
            conditionals[t] = [0.9, 0.1]
        elif d == 1:
            distribution[t] = 0.05
            conditionals[t] = [0.1, 0.9]
        else:
            distribution[t] = 0.69 / 20
            conditionals[t] = [0.3, 0.7]
    return make_spec(cards, ("A", "B"), seed, distribution, conditionals)
