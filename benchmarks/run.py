"""End-to-end benchmark of the fieldpred CLI.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload cat-1e5 --seed 1 --seconds 20 --trace 0

The run generates its inputs from the seed, then repeats whole sessions of
CLI commands (fit, density fit, predict, eval, converge) plus in-process
single-query calls until --seconds have passed, at least three sessions.
Every answer is checked against benchmarks/oracle.py. With --trace 0 each
command runs as its own process and the end-to-end metrics are reported;
with --trace 1 the same sessions run in this process through
fieldpred.cli.main, alternately untraced and traced, and the per-layer
metrics are reported. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracle
from tracing import COUNT_METRICS, SELF_TIME_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"
MIN_SESSIONS = 3
QUERIES = 200  # per query file, so per `predict` command
TEST_ROWS = 1_000  # per `eval` command
EVAL_ARM = "delanga"
CALLS_PER_BATCH = 70  # in-process calls after each command that follows the fits


@dataclass(frozen=True)
class Workload:
    """Table sizes, arms and the convergence sweep of one workload."""

    law: str  # "standard", "counterexample" or "mixed"
    m: int
    arms: tuple[str, ...]
    density_law: str
    density_m: int
    converge_laws: tuple[str, ...]
    converge_arms: tuple[str, ...]
    schedule: tuple[int, ...]
    trials: int
    converge_test: int


WORKLOADS = {
    # 27 distinct rows among 1e5: the O(M) scan does nearly all the work.
    "cat-1e5": Workload(
        law="standard", m=100_000, arms=("delanga", "rasturnat:bridge", "rasturnat:decay_b"),
        density_law="standard", density_m=3_000,
        converge_laws=("standard",), converge_arms=("delanga", "rasturnat:bridge", "rasturnat:decay_b"),
        schedule=(100_000,), trials=1, converge_test=100,
    ),
    # Every row distinct (U = M) and the continuous match path.
    "mixed-2e4": Workload(
        law="mixed", m=20_000, arms=("delanga", "rasturnat:bridge", "rasturnat:decay_b", "nearest"),
        density_law="mixed", density_m=3_000,
        converge_laws=("counterexample",),
        converge_arms=("delanga", "rasturnat:bridge", "rasturnat:decay_b", "rasturnat:pow_2"),
        schedule=(20_000,), trials=1, converge_test=200,
    ),
    # Thousands of small fits and short predictions: per-call overhead.
    "converge": Workload(
        law="standard", m=10_000, arms=("delanga", "rasturnat:bridge", "rasturnat:decay_b", "rasturnat:pow_2"),
        density_law="counterexample", density_m=2_000,
        converge_laws=("standard", "counterexample"),
        converge_arms=("delanga", "rasturnat:bridge", "rasturnat:decay_b", "rasturnat:pow_2"),
        schedule=(100, 1_000, 10_000), trials=3, converge_test=500,
    ),
}


class Inputs:
    """Generated files plus the expected answers for each of them."""

    def __init__(self, wl: Workload, seed: int):
        rng = np.random.default_rng([seed, list(WORKLOADS.values()).index(wl)])
        laws = {"standard": inputs.standard_law(rng), "counterexample": inputs.counterexample_law()}
        mixed = inputs.mixed_law(rng)

        def draw(law_name: str, m: int) -> inputs.Data:
            if law_name == "mixed":
                return inputs.draw_mixed(mixed, m, rng)
            return inputs.draw_categorical(laws[law_name], m, rng)

        train = draw(wl.law, wl.m)
        small = draw(wl.density_law, wl.density_m)
        queries = draw(wl.law, QUERIES)
        if wl.law == "mixed":
            queries = inputs.perturb_queries(queries, rng, 0.05, mixed.lows, mixed.highs)
        self.queries = queries
        test = draw(wl.law, TEST_ROWS)
        spec_seed = int(rng.integers(0, 2**62))
        self.converge_laws = {name: laws[name] for name in wl.converge_laws}

        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        self.paths = {name: WORK / f"{name}.csv" for name in ("train", "small", "test")}
        inputs.write_table(train, self.paths["train"])
        inputs.write_table(small, self.paths["small"])
        inputs.write_table(test, self.paths["test"])
        self.paths["queries"] = WORK / "queries.csv"
        inputs.write_queries(queries, self.paths["queries"])
        for name, law in self.converge_laws.items():
            self.paths[f"spec-{name}"] = WORK / f"spec-{name}.json"
            inputs.write_spec(law, spec_seed, self.paths[f"spec-{name}"])

        self.ref = oracle.Reference(train)
        dist = self.ref.distances(queries.cat, queries.cont)
        self.answers = {arm: oracle.answer_for(self.ref, dist, arm) for arm in wl.arms}
        self.small_ref = oracle.Reference(small)
        self.density = self.small_ref.density("bridge")
        small_dist = self.small_ref.distances(queries.cat, queries.cont)
        self.density_answers = oracle.answer_for(self.small_ref, small_dist, "rasturnat:bridge", self.density[1])
        test_answers = oracle.answer_for(self.ref, self.ref.distances(test.cat, test.cont), EVAL_ARM)
        self.eval_bounds = oracle.accuracy_bounds(test_answers, [test.label_names[k] for k in test.labels])


class Runner:
    """Runs CLI commands either as child processes or in this process."""

    def __init__(self, in_process: bool, tracer: Tracer | None = None):
        self.in_process = in_process
        self.tracer = tracer
        self.peak_rss_kb = 0

    def __call__(self, *argv: str) -> tuple[int, str, float]:
        if self.in_process:
            from fieldpred import cli

            main = cli.main if self.tracer is None else self.tracer.span("cli.main", cli.main)
            out = io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(list(argv))
            return code, out.getvalue(), time.perf_counter() - start
        out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], stdout=out, stderr=err,
                                    env=child_env(), cwd=WORK)
            proc.wait()
            wall = time.perf_counter() - start
        last = (err_path.read_text(encoding="utf-8").splitlines() or [""])[-1].split()
        if last[:1] == ["VmHWM:"]:
            self.peak_rss_kb = max(self.peak_rss_kb, int(last[1]))
        return proc.returncode, out_path.read_text(encoding="utf-8"), wall


#: The CLI as a child process, reporting its own peak RSS on its last
#: stderr line. ``ru_maxrss`` from ``wait4`` would not do: a forked child
#: starts with its parent's resident pages, and the parent here holds the
#: reference data. VmHWM is counted from the child's own exec.
CHILD = """
import sys
from fieldpred.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class RunState:
    """Timings, failure counts and shared state of one run, accumulated over its sessions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.sessions = 0
        self.seconds: dict[str, float] = {}
        self.work: dict[str, int] = {}
        self.call_us: list[float] = []
        self.model_bytes = 0
        self.first_outputs: dict[str, str] = {}
        self.self_test_ok: bool | None = None
        self.model = None
        self.queries: list = []
        self.next_query = 0
        self.untimed = 0.0

    def record(self, kind: str, seconds: float, work: int = 0) -> None:
        self.seconds[kind] = self.seconds.get(kind, 0.0) + seconds
        self.work[kind] = self.work.get(kind, 0) + work

    def rate(self, kind: str) -> float:
        return self.work[kind] / self.seconds[kind]

    def load_model(self, path: Path, inp: Inputs) -> None:
        """Load the first session's bridge model for the in-process calls, untimed."""
        if self.model is not None:
            return
        import fieldpred

        began = time.perf_counter()
        self.model = fieldpred.load_model(path)
        self.queries = [fieldpred.validate_query(inp.queries.cells(i), self.model.table.schema)
                        for i in range(inp.queries.n_rows)]
        self.untimed += time.perf_counter() - began

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def run_session(wl: Workload, inp: Inputs, run: Runner, st: RunState) -> None:
    """One pass of every command of the workload, each output checked.

    After each command that follows the fits, a batch of in-process calls
    runs, so that those calls sample the whole session, not one stretch of it.
    """
    written = 0
    models = {}
    for arm in wl.arms:
        predictor, _, kernel = arm.partition(":")
        path = WORK / f"model-{arm.replace(':', '-')}.json"
        argv = ["fit", "--train", str(inp.paths["train"]), "--predictor", predictor, "--out", str(path)]
        if kernel:
            argv += ["--kernel", kernel]
        code, out, wall = run(*argv)
        st.record("fit", wall)
        st.tally(1, int(code != 0 or not oracle.check_fit_output(out, wl.m, inp.ref.total_weight, kernel)))
        written += path.stat().st_size if path.exists() else 0
        models[arm] = path
    st.load_model(models["rasturnat:bridge"], inp)

    density_path = WORK / "model-density.json"
    code, out, wall = run("fit", "--train", str(inp.paths["small"]), "--predictor", "rasturnat",
                          "--kernel", "bridge", "--density", "--out", str(density_path))
    st.record("density", wall)
    ok = code == 0 and density_path.exists()
    ok = ok and oracle.check_density_model(json.loads(density_path.read_text()), inp.small_ref, *inp.density)
    st.tally(1, int(not ok))
    written += density_path.stat().st_size if density_path.exists() else 0
    st.model_bytes = written
    in_process_calls(wl, inp, st)

    expected = {**{arm: inp.answers[arm] for arm in wl.arms}, "density": inp.density_answers}
    for name, path in {**models, "density": density_path}.items():
        code, out, wall = run("predict", "--model", str(path), "--queries", str(inp.paths["queries"]))
        st.record("predict", wall, QUERIES)
        answers = expected[name]
        wrong = len(answers) if code != 0 else oracle.count_wrong_predictions(out, answers)
        st.tally(len(answers), wrong)
        if st.self_test_ok is None and code == 0:
            st.self_test_ok = self_test(out, answers, wrong)
        in_process_calls(wl, inp, st)

    code, out, wall = run("eval", "--train", str(inp.paths["train"]), "--test", str(inp.paths["test"]),
                          "--predictor", EVAL_ARM)
    st.record("eval", wall, TEST_ROWS)
    st.tally(1, int(code != 0 or not oracle.check_eval_output(out, inp.eval_bounds)))
    in_process_calls(wl, inp, st)

    for name, law in inp.converge_laws.items():
        report = WORK / f"report-{name}.csv"
        code, _, wall = run("converge", "--spec", str(inp.paths[f"spec-{name}"]), "--arms", ",".join(wl.converge_arms),
                            "--schedule", ",".join(map(str, wl.schedule)), "--trials", str(wl.trials),
                            "--test-size", str(wl.converge_test), "--out", str(report))
        st.record("converge", wall, len(wl.converge_arms) * len(wl.schedule) * wl.trials * wl.converge_test)
        text = report.read_text(encoding="utf-8") if code == 0 and report.exists() else ""
        ok = text == st.first_outputs.setdefault(report.name, text) and oracle.check_converge_report(
            text, law, list(wl.converge_arms), list(wl.schedule), wl.trials, wl.converge_test)
        st.tally(1, int(not ok))
        in_process_calls(wl, inp, st)
    st.sessions += 1


def in_process_calls(wl: Workload, inp: Inputs, st: RunState) -> None:
    """Single `fieldpred.predict` calls on the loaded bridge model, each timed and checked."""
    import fieldpred

    answers = inp.answers["rasturnat:bridge"]
    wrong = 0
    for _ in range(CALLS_PER_BATCH):
        i = st.next_query
        st.next_query = (i + 1) % QUERIES
        start = time.perf_counter_ns()
        pred = fieldpred.predict(st.model, st.queries[i])
        st.call_us.append((time.perf_counter_ns() - start) / 1000.0)
        wrong += not oracle.matches(answers[i], pred.winner, pred.likelihoods, oracle.TIE_TOL)
    st.tally(CALLS_PER_BATCH, wrong)


def self_test(out: str, answers: list, wrong: int) -> bool:
    """Flip one printed winner and confirm the check counts exactly one more failure."""
    lines = out.splitlines()
    i = next(i for i, a in enumerate(answers) if len(a.winners) == 1)
    winner, likelihoods = oracle.parse_predict_output(lines[i])[0]
    other = next(label for label in likelihoods if label != winner)
    lines[i] = lines[i].replace(f"winner={winner}", f"winner={other}", 1)
    return oracle.count_wrong_predictions("\n".join(lines) + "\n", answers) == wrong + 1


def end_to_end(st: RunState, rss_kb: int) -> dict:
    # Totals over all sessions: the machine's speed drifts in phases of a
    # few seconds, and a mean over every sample of a run varies less from
    # run to run than a median of the few samples each command has.
    return {
        "setup_s": (st.seconds["fit"] / st.sessions, "s"),
        "density_fit_s": (st.seconds["density"] / st.sessions, "s"),
        "predict_qps": (st.rate("predict"), "queries/s"),
        "query_p50_us": (statistics.median(st.call_us), "us"),
        "eval_rows_per_s": (st.rate("eval"), "rows/s"),
        "converge_preds_per_s": (st.rate("converge"), "predictions/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "model_bytes": (st.model_bytes, "bytes"),
    }


def per_layer(tracer: Tracer, sessions: int, startup_s: float, overhead: float) -> dict:
    metrics = {"cli.startup_s": (startup_s, "s")}
    self_times = tracer.self_times()
    for span, name in SELF_TIME_METRICS.items():
        metrics[name] = (self_times.get(span, 0.0) / sessions, "s")
    counts = tracer.counts
    for name in COUNT_METRICS:
        metrics[name] = (counts[name] / sessions, "count")
    metrics["similarity.distinct_row_share"] = (
        counts["similarity.distinct_rows_scored"] / max(counts["similarity.rows_scored"], 1), "ratio")
    metrics["kernels.distinct_distance_share"] = (
        counts["kernels.distinct_distances"] / max(counts["kernels.values_evaluated"], 1), "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def startup_seconds() -> float:
    """Median wall time of an interpreter that only imports fieldpred."""
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fieldpred"], env=child_env(), check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fieldpred" / "__init__.py").is_file():
        print(f"error: no fieldpred package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fieldpred

    if Path(fieldpred.__file__).resolve().parent != (SRC / "fieldpred").resolve():
        print(f"error: fieldpred imported from {fieldpred.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    inp = Inputs(wl, args.seed)
    st = RunState()
    start = time.perf_counter()
    if not args.trace:
        run = Runner(in_process=False)
        # Stop when another session would end past --seconds.
        while st.sessions < MIN_SESSIONS or (time.perf_counter() - start) * (st.sessions + 1) / st.sessions <= args.seconds:
            run_session(wl, inp, run, st)
        metrics = end_to_end(st, run.peak_rss_kb)
    else:
        # Untraced and traced sessions in ABBA order, so that drift in the
        # machine's speed falls on both sides; their wall times give the overhead.
        startup = startup_seconds()
        tracer = Tracer()
        walls = [0.0, 0.0]
        pairs = 0
        while pairs < 2 or (time.perf_counter() - start) * (pairs + 1) / pairs <= args.seconds:
            for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
                if traced:
                    tracer.install(fieldpred)
                began, untimed = time.perf_counter(), st.untimed
                try:
                    run_session(wl, inp, Runner(in_process=True, tracer=tracer if traced else None), st)
                finally:
                    walls[traced] += time.perf_counter() - began - (st.untimed - untimed)
                    tracer.uninstall()
            pairs += 1
        metrics = per_layer(tracer, pairs, startup, walls[1] / walls[0])

    correct = st.failed == 0 and st.self_test_ok is True
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
