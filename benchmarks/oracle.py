"""Expected answers computed apart from the program under test.

The reference works on the distinct training rows and their per-label
counts. On a categorical table drawn from a 27-tuple law that is the
per-tuple count table and Hamming distances; on a table of distinct mixed
rows it is a chunked numpy recomputation over every row. Kernel values
use the closed forms (M^-d, M^-Q(d), 2^-d) written out here.

Where the program's answer hinges on a near-tie (two candidate winners
within TIE_TOL of each other), every label in the tie is accepted and the
likelihoods are not compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from inputs import Data, Law

#: Relative (fields) or absolute (distances) gap under which two candidates count as tied.
TIE_TOL = 1e-9
#: Printed values carry six decimals.
PRINT_TOL = 1e-6
CERTIFIED_ARMS = ("delanga", "rasturnat:bridge", "rasturnat:decay_b")


def kernel_value(kind: str, mld: float, d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if kind == "bridge":
        return mld ** (-d)
    if kind == "pow_2":
        return 2.0 ** (-d)
    if kind == "decay_b":
        whole = np.floor(d)
        partial = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, int(whole.max()) + 2) ** 2)))
        q = partial[whole.astype(np.int64)] + (d - whole) / (whole + 1.0) ** 2
        return mld ** (-q)
    raise ValueError(f"no closed form for kernel {kind!r}")


@dataclass(frozen=True)
class Answer:
    """Labels accepted as the winner, and the expected likelihoods (None on a near-tie)."""

    winners: frozenset
    likelihoods: dict | None


class Reference:
    """Distinct training rows with per-label counts, in the program's label order."""

    def __init__(self, train: Data):
        first_seen = list(dict.fromkeys(train.labels.tolist()))
        self.labels = [train.label_names[k] for k in first_seen]
        remap = np.empty(len(train.label_names), dtype=np.int64)
        remap[first_seen] = np.arange(len(first_seen))
        rows = np.concatenate([train.cat.astype(np.float64), train.cont], axis=1)
        self.rows, inverse = np.unique(rows, axis=0, return_inverse=True)
        self.inverse = inverse.reshape(-1)
        self.n_cat = train.cat.shape[1]
        self.counts = np.zeros((self.rows.shape[0], len(self.labels)))
        np.add.at(self.counts, (self.inverse, remap[train.labels]), 1.0)
        self.n_rows = train.n_rows
        self.total_weight = float(rows.shape[1])
        cont = train.cont
        self.widths = cont.max(axis=0) - cont.min(axis=0) if cont.shape[1] else np.zeros(0)

    @property
    def n_distinct(self) -> int:
        return self.rows.shape[0]

    def distances(self, cat: np.ndarray, cont: np.ndarray) -> np.ndarray:
        """Matching distance from each query row to each distinct training row."""
        out = np.empty((cat.shape[0], self.n_distinct))
        step = max(1, 2_000_000 // max(1, self.n_distinct))
        for lo in range(0, cat.shape[0], step):
            hi = min(lo + step, cat.shape[0])
            score = np.zeros((hi - lo, self.n_distinct))
            for j in range(self.n_cat):
                score += cat[lo:hi, j, None] == self.rows[None, :, j]
            for j, width in enumerate(self.widths):
                column = self.rows[None, :, self.n_cat + j]
                q = cont[lo:hi, j, None]
                if width == 0.0:
                    score += q == column
                else:
                    score += np.clip(1.0 - np.abs(q - column) / width, 0.0, 1.0)
            out[lo:hi] = np.maximum(self.total_weight - score, 0.0)
        return out

    def field_answers(self, dist: np.ndarray, kind: str, weights: np.ndarray | None = None) -> list[Answer]:
        """rasturnat: the label with the largest kernel-weighted vote."""
        counts = self.counts if weights is None else self.counts * weights[:, None]
        fields = kernel_value(kind, float(self.n_rows), dist) @ counts
        answers = []
        for f in fields:
            near = np.flatnonzero(f >= f.max() * (1.0 - TIE_TOL))
            winners = frozenset(self.labels[k] for k in near)
            answers.append(Answer(winners, dict(zip(self.labels, (f / f.sum()).tolist()))))
        return answers

    def level_answers(self, dist: np.ndarray, walk: bool) -> list[Answer]:
        """delanga (walk=True) and nearest (walk=False): majority at the closest level."""
        answers = []
        for d in dist:
            levels, level_of = np.unique(d, return_inverse=True)
            per_level = np.zeros((levels.size, len(self.labels)))
            np.add.at(per_level, level_of.reshape(-1), self.counts)
            if levels.size > 1 and levels[1] - levels[0] < TIE_TOL:
                near = per_level[: np.searchsorted(levels, levels[0] + TIE_TOL)].sum(axis=0)
                answers.append(Answer(frozenset(self.labels[k] for k in np.flatnonzero(near)), None))
                continue
            first = per_level[0]
            tied = np.flatnonzero(first == first.max()).tolist()
            if walk:
                for row in per_level[1:]:
                    if len(tied) == 1:
                        break
                    best = max(row[k] for k in tied)
                    tied = [k for k in tied if row[k] == best]
            likes = dict(zip(self.labels, (first / first.sum()).tolist()))
            answers.append(Answer(frozenset([self.labels[min(tied)]]), likes))
        return answers

    def density(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """tss (self term included) and dcf = sts / (M * tss), per distinct row."""
        mld = float(self.n_rows)
        totals = self.counts.sum(axis=1)
        tss_distinct = np.empty(self.n_distinct)
        cat = self.rows[:, : self.n_cat]
        cont = self.rows[:, self.n_cat:]
        step = max(1, 2_000_000 // self.n_distinct)
        for lo in range(0, self.n_distinct, step):
            hi = min(lo + step, self.n_distinct)
            dist = self.distances(cat[lo:hi], cont[lo:hi])
            tss_distinct[lo:hi] = kernel_value(kind, mld, dist) @ totals
        sts = math.fsum(tss_distinct * totals)
        dcf_distinct = sts / (self.n_rows * tss_distinct)
        return tss_distinct, dcf_distinct


def answer_for(ref: Reference, dist: np.ndarray, arm: str, weights=None) -> list[Answer]:
    if arm == "delanga":
        return ref.level_answers(dist, walk=True)
    if arm == "nearest":
        return ref.level_answers(dist, walk=False)
    return ref.field_answers(dist, arm.split(":", 1)[1], weights)


def matches(answer: Answer, winner: str, likelihoods: dict, tol: float) -> bool:
    if winner not in answer.winners:
        return False
    if answer.likelihoods is None:
        return True
    if set(likelihoods) != set(answer.likelihoods):
        return False
    return all(abs(likelihoods[k] - v) <= tol for k, v in answer.likelihoods.items())


def parse_predict_output(text: str) -> list[tuple[str, dict]]:
    """Lines of `winner=X label=value ...` into (winner, likelihoods)."""
    parsed = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or not parts[0].startswith("winner="):
            raise ValueError(f"unexpected predict line {line!r}")
        likes = {}
        for part in parts[1:]:
            label, value = part.rsplit("=", 1)
            likes[label] = float(value)
        parsed.append((parts[0][len("winner="):], likes))
    return parsed


def count_wrong_predictions(text: str, answers: list[Answer]) -> int:
    """Queries whose printed answer disagrees with the reference (all of them if unparsable)."""
    try:
        parsed = parse_predict_output(text)
    except ValueError:
        return len(answers)
    if len(parsed) != len(answers):
        return len(answers)
    return sum(not matches(a, w, l, PRINT_TOL) for a, (w, l) in zip(answers, parsed))


def accuracy_bounds(answers: list[Answer], truth: list[str]) -> tuple[float, float]:
    """Lowest and highest accuracy the accepted winners allow."""
    sure = sum(a.winners == {t} for a, t in zip(answers, truth))
    maybe = sum(len(a.winners) > 1 and t in a.winners for a, t in zip(answers, truth))
    n = len(truth)
    return sure / n, (sure + maybe) / n


def check_fit_output(text: str, m: int, n_attributes: float, kernel: str) -> bool:
    """Entry and attribute counts, and the lead certificate: sepm > (m - 1) * seap.

    bridge and decay_b lead by exactly m, so they certify; pow_2 leads by 2,
    so it cannot once m > 3.
    """
    lines = text.splitlines()
    if not lines or lines[0] != f"entries={m} attributes={int(n_attributes)}":
        return False
    if not kernel:
        return lines[1:2] == ["kernel: none"]
    certified = "true" if kernel in ("bridge", "decay_b") else "false"
    return any(line.startswith("lead: ") and line.endswith(f"certified: {certified}") for line in lines)


def check_eval_output(text: str, bounds: tuple[float, float]) -> bool:
    lines = text.split()
    if len(lines) != 1 or not lines[0].startswith("accuracy="):
        return False
    value = float(lines[0][len("accuracy="):])
    return bounds[0] - PRINT_TOL <= value <= bounds[1] + PRINT_TOL


def check_density_model(doc: dict, ref: Reference, tss_distinct: np.ndarray, dcf_distinct: np.ndarray) -> bool:
    """The stored tss and dcf match the recomputation, and sum(dcf * tss) equals sts."""
    dens = doc.get("density")
    if not dens:
        return False
    tss = np.asarray(dens["tss"])
    dcf = np.asarray(dens["dcf"])
    if tss.shape != (ref.n_rows,) or dcf.shape != (ref.n_rows,):
        return False
    ok = np.allclose(tss, tss_distinct[ref.inverse], rtol=TIE_TOL, atol=0.0)
    ok &= np.allclose(dcf, dcf_distinct[ref.inverse], rtol=TIE_TOL, atol=0.0)
    sts = float(dens["sts"])
    ok &= abs(math.fsum(dcf * tss) - sts) <= TIE_TOL * sts
    return bool(ok)


def bayes_accuracy(law: Law) -> float:
    return math.fsum(law.probs[i] * law.cond[i].max() for i in np.flatnonzero(law.probs > 0))


def pow_2_regret_range(law: Law, m: int) -> tuple[float, float]:
    """Regret of pow_2 once its per-tuple winner is the argmax of expected votes.

    A tuple whose two expected votes sit within a few standard deviations
    of each other at table size m may go either way; it widens the range.
    """
    tuples = law.tuples
    hamming = (tuples[:, None, :] != tuples[None, :, :]).sum(axis=2)
    rates = (2.0 ** (-hamming)) @ (law.probs[:, None] * law.cond)
    spread = np.sqrt((4.0 ** (-hamming)) @ law.probs / m)
    lo = hi = 0.0
    for t in np.flatnonzero(law.probs > 0):
        best = law.cond[t].max()
        order = np.argsort(-rates[t], kind="stable")
        regrets = [best - law.cond[t][order[0]]]
        if rates[t][order[0]] - rates[t][order[1]] < 5.0 * spread[t]:
            regrets.append(best - law.cond[t][order[1]])
        lo += law.probs[t] * min(regrets)
        hi += law.probs[t] * max(regrets)
    return lo, hi


def check_converge_report(text: str, law: Law, arms: list[str], schedule: list[int], trials: int, test_size: int) -> bool:
    """Report rows in arm, m, trial order; exact Bayes accuracy; regret near its limit at the largest m."""
    lines = text.splitlines()
    if not lines or lines[0] != "m,predictor,kernel,trial,accuracy,bayes_accuracy,regret":
        return False
    expected_keys = [(m, arm, t) for arm in arms for m in schedule for t in range(trials)]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(expected_keys):
        return False
    bayes = bayes_accuracy(law)
    final: dict[str, list[float]] = {arm: [] for arm in arms}
    for (m, arm, trial), row in zip(expected_keys, rows):
        name = row[1] if not row[2] else f"{row[1]}:{row[2]}"
        if (int(row[0]), name, int(row[3])) != (m, arm, trial):
            return False
        accuracy, bayes_col, regret = float(row[4]), float(row[5]), float(row[6])
        if abs(bayes_col - bayes) > PRINT_TOL or abs(regret - (bayes - accuracy)) > 2 * PRINT_TOL:
            return False
        if abs(accuracy * test_size - round(accuracy * test_size)) > test_size * PRINT_TOL:
            return False
        if m == schedule[-1]:
            final[arm].append(accuracy)
    # Past convergence every certified arm answers the Bayes label at every
    # tuple, so on the shared test draws their accuracies coincide.
    certified = [final[a] for a in arms if a in CERTIFIED_ARMS]
    if any(acc != certified[0] for acc in certified):
        return False
    noise = 4.0 * math.sqrt(0.25 / (trials * test_size))
    for arm, accs in final.items():
        regret = bayes - sum(accs) / len(accs)
        if arm in CERTIFIED_ARMS and abs(regret) > noise:
            return False
        if arm == "rasturnat:pow_2":
            lo, hi = pow_2_regret_range(law, schedule[-1])
            if not lo - noise <= regret <= hi + noise:
                return False
    return True
