"""Seeded input generation for the benchmark workloads.

Everything here is written without the fieldpred package: the laws, the
draws and the file formats are produced from numpy and the standard
library, so the program under test only ever sees the generated files.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CAT_LABELS = ("A", "B")
MIXED_LABELS = ("L0", "L1", "L2")
MIXED_N_CONT = 6
MIXED_CARDS = (2, 3, 4, 5, 6, 8)
UNSEEN_CATEGORY = "unseen"


@dataclass(frozen=True)
class Law:
    """An explicit categorical law: tuple masses and per-tuple label masses."""

    cards: tuple[int, ...]
    labels: tuple[str, ...]
    probs: np.ndarray  # (T,)
    cond: np.ndarray  # (T, K)

    @property
    def tuples(self) -> np.ndarray:
        """All attribute tuples as integer codes, first attribute slowest."""
        return np.array(list(itertools.product(*(range(c) for c in self.cards))), dtype=np.int64)


def standard_law(rng: np.random.Generator) -> Law:
    """Three ternary attributes, uniform tuples, two labels.

    Each tuple's dominant label mass is uniform in [0.7, 0.95] and the
    favoured label is a fair coin, the construction of the paper's
    standard experiment.
    """
    cards = (3, 3, 3)
    n = 27
    cond = np.empty((n, 2))
    for i in range(n):
        p_max = float(rng.uniform(0.7, 0.95))
        favoured = int(rng.integers(0, 2))
        cond[i] = (p_max, 1.0 - p_max) if favoured == 0 else (1.0 - p_max, p_max)
    return Law(cards, CAT_LABELS, np.full(n, 1.0 / n), cond)


def counterexample_law() -> Law:
    """A rare tuple (0,0,0) favouring A, crowded by six neighbours favouring B.

    A kernel whose almost-perfect vote is a fixed fraction of the perfect
    vote (pow_2) is outvoted at (0,0,0) however large the table grows.
    """
    cards = (3, 3, 3)
    tuples = np.array(list(itertools.product(range(3), repeat=3)))
    hamming = (tuples != 0).sum(axis=1)
    probs = np.where(hamming == 0, 0.01, np.where(hamming == 1, 0.05, 0.69 / 20))
    cond = np.where(
        (hamming == 0)[:, None], [0.9, 0.1], np.where((hamming == 1)[:, None], [0.1, 0.9], [0.3, 0.7])
    )
    return Law(cards, CAT_LABELS, probs, cond)


def write_spec(law: Law, seed: int, path: Path) -> None:
    """A spec file (version 1) the `converge` command reads."""
    tuples = [[str(v) for v in t] for t in law.tuples]
    live = np.flatnonzero(law.probs > 0)
    doc = {
        "version": 1,
        "cardinalities": list(law.cards),
        "attribute_distribution": [{"tuple": tuples[i], "mass": float(law.probs[i])} for i in live],
        "conditionals": [{"tuple": tuples[i], "masses": [float(x) for x in law.cond[i]]} for i in live],
        "labels": list(law.labels),
        "seed": int(seed),
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


@dataclass
class Data:
    """Rows as categorical codes, continuous values and label indices.

    ``cat_names[j][code]`` is the CSV text of category ``code`` of column j;
    a code of -1 is a category the training table never holds. In the CSV
    the continuous columns come first when ``cont_first`` is set.
    """

    cat: np.ndarray  # (M, Nk) int
    cont: np.ndarray  # (M, Nc) float
    labels: np.ndarray  # (M,) int
    label_names: tuple[str, ...]
    cat_names: list[list[str]]
    cont_first: bool

    @property
    def n_rows(self) -> int:
        return int(self.labels.size)

    def header(self) -> list[str]:
        cats = [f"k{j}" for j in range(self.cat.shape[1])]
        conts = [f"c{j}" for j in range(self.cont.shape[1])]
        return (conts + cats) if self.cont_first else (cats + conts)

    def cells(self, i: int) -> list[str]:
        cats = [self.cat_names[j][c] if c >= 0 else UNSEEN_CATEGORY for j, c in enumerate(self.cat[i])]
        conts = [repr(float(x)) for x in self.cont[i]]
        return (conts + cats) if self.cont_first else (cats + conts)


def draw_categorical(law: Law, m: int, rng: np.random.Generator) -> Data:
    idx = rng.choice(law.probs.size, size=m, p=law.probs)
    u = rng.random(m)
    cdf = np.cumsum(law.cond, axis=1)
    cdf[:, -1] = 1.0
    labels = np.argmax(u[:, None] < cdf[idx], axis=1)
    names = [[f"v{v}" for v in range(c)] for c in law.cards]
    return Data(law.tuples[idx], np.zeros((m, 0)), labels, law.labels, names, cont_first=False)


@dataclass(frozen=True)
class MixedLaw:
    """Continuous and categorical attributes; the label is a noisy argmax of linear scores."""

    cont_weights: np.ndarray  # (K, Nc)
    cat_effects: list[np.ndarray]  # per column, (card, K)
    lows: np.ndarray
    highs: np.ndarray


def mixed_law(rng: np.random.Generator) -> MixedLaw:
    k = len(MIXED_LABELS)
    lows = rng.uniform(-5.0, 0.0, MIXED_N_CONT)
    highs = lows + rng.uniform(1.0, 10.0, MIXED_N_CONT)
    return MixedLaw(
        cont_weights=rng.normal(0.0, 1.0, (k, MIXED_N_CONT)) / (highs - lows),
        cat_effects=[rng.normal(0.0, 0.7, (c, k)) for c in MIXED_CARDS],
        lows=lows,
        highs=highs,
    )


def draw_mixed(law: MixedLaw, m: int, rng: np.random.Generator) -> Data:
    cont = np.round(rng.uniform(law.lows, law.highs, (m, MIXED_N_CONT)), 6)
    cat = np.stack([rng.integers(0, c, m) for c in MIXED_CARDS], axis=1)
    score = cont @ law.cont_weights.T
    for j, effects in enumerate(law.cat_effects):
        score += effects[cat[:, j]]
    labels = np.argmax(score + rng.gumbel(0.0, 0.5, score.shape), axis=1)
    names = [[f"v{v}" for v in range(c)] for c in MIXED_CARDS]
    return Data(cat, cont, labels, MIXED_LABELS, names, cont_first=True)


def perturb_queries(data: Data, rng: np.random.Generator, share: float, lows, highs) -> Data:
    """Give a share of the rows an unseen category and another share an out-of-range value."""
    cat, cont = data.cat.copy(), data.cont.copy()
    m = data.n_rows
    unseen = rng.random(m) < share
    cat[unseen, rng.integers(0, cat.shape[1], m)[unseen]] = -1
    outside = rng.random(m) < share
    cols = rng.integers(0, cont.shape[1], m)[outside]
    width = highs[cols] - lows[cols]
    below = rng.random(cols.size) < 0.5
    cont[outside, cols] = np.round(np.where(below, lows[cols] - 0.3 * width, highs[cols] + 0.3 * width), 6)
    return Data(cat, cont, data.labels, data.label_names, data.cat_names, data.cont_first)


def write_table(data: Data, path: Path) -> None:
    """Labelled CSV with a header; the label is the last column."""
    lines = [",".join(data.header() + ["label"])]
    for i in range(data.n_rows):
        lines.append(",".join(data.cells(i) + [data.label_names[data.labels[i]]]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_queries(data: Data, path: Path) -> None:
    """Query CSV: attribute cells only, no header."""
    path.write_text("".join(",".join(data.cells(i)) + "\n" for i in range(data.n_rows)), encoding="utf-8")
