"""Command-line front end: fit, predict, eval, converge, kernels.

Exit codes: 0 on success, 1 on user/input errors, 2 on internal faults.
Output is deterministic: no timestamps, no environment lookups, floats
fixed at six decimals.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import dataset, harness, kernels, predictors
from .errors import FieldpredError


class _UsageError(FieldpredError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our error
    # handling instead so user errors stay at exit code 1.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fieldpred", description="Lazy tabular predictors with certified kernels")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="bind a predictor to a training CSV")
    _add_fit_args(p_fit)
    p_fit.add_argument("--out", help="write the fitted model to this JSON file")

    p_pred = sub.add_parser("predict", help="answer queries from a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--query", action="append", default=[],
                        help="one query as comma-separated cells (repeatable)")
    p_pred.add_argument("--queries", help="CSV file of queries, one per line, no header")
    p_pred.add_argument("--format", choices=("text", "json"), default="text")

    p_eval = sub.add_parser("eval", help="accuracy of a predictor on a labeled test CSV")
    _add_fit_args(p_eval)
    p_eval.add_argument("--test", required=True)

    p_conv = sub.add_parser("converge", help="run a convergence experiment from a spec file")
    p_conv.add_argument("--spec", required=True)
    p_conv.add_argument("--arms", required=True,
                        help="comma-separated arms, e.g. delanga,rasturnat:bridge")
    p_conv.add_argument("--schedule", required=True,
                        help="comma-separated training sizes, strictly increasing")
    p_conv.add_argument("--trials", type=int, default=3)
    p_conv.add_argument("--test-size", type=int, default=500)
    p_conv.add_argument("--out", required=True, help="report CSV path")

    p_kern = sub.add_parser("kernels", help="list kernel kinds or check certification")
    p_kern.add_argument("action", choices=("list", "check"))
    p_kern.add_argument("--m", type=int, help="table size for certification (check)")

    return parser


def _add_fit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", required=True)
    p.add_argument("--predictor", required=True, choices=predictors.PREDICTOR_KINDS)
    p.add_argument("--kernel", help="kernel kind (rasturnat only)")
    p.add_argument("--schema", help="schema JSON file; inferred from data when omitted")
    p.add_argument("--outcome-column", help="header name of the outcome column (default: last)")
    p.add_argument("--mld", type=float, help="multiplier lead override (rasturnat only)")
    p.add_argument("--density", action="store_true", help="apply density compensation (rasturnat only)")


def _fit_from_args(args) -> predictors.FittedModel:
    schema = dataset.load_schema(args.schema) if args.schema else None
    table = dataset.load_table(args.train, schema=schema, outcome_column=args.outcome_column)
    return predictors.fit(table, args.predictor, args.kernel, density=args.density, mld_override=args.mld)


def cmd_fit(args) -> int:
    model = _fit_from_args(args)
    table = model.table
    print(f"entries={table.n_entries} attributes={table.n_attributes}")
    if model.kernel is None:
        print("kernel: none")
    else:
        k = model.kernel
        line = f"kernel: kind={k.kind} mld={k.mld:.6f}"
        if k.adrez is not None:
            line += f" adrez={k.adrez:.6f}"
        if k.base is not None:
            line += f" base={k.base.kind}"
        print(line)
        cert = kernels.certify_lead(k, table.n_entries)
        flag = "true" if cert.certified else "false"
        print(
            f"lead: sepm={cert.sepm:.6f} seap={cert.seap:.6f} "
            f"maxsap={cert.maxsap:.6f} certified: {flag}"
        )
    if args.out:
        predictors.save_model(model, args.out)
        print(f"model written to {args.out}")
    return 0


def _iter_queries(args):
    if not args.query and not args.queries:
        raise _UsageError("provide --query or --queries")
    for line_no, raw in enumerate(args.query, start=1):
        rows = list(csv.reader(io.StringIO(raw)))
        yield line_no, rows[0] if rows else []
    if args.queries:
        text = dataset._read_text(args.queries)
        yield from enumerate(csv.reader(io.StringIO(text)), start=1)


def cmd_predict(args) -> int:
    model = predictors.load_model(args.model)
    schema = model.table.schema
    for line_no, cells in _iter_queries(args):
        try:
            query = dataset.validate_query(cells, schema)
        except FieldpredError as exc:
            raise _UsageError(f"malformed query at line {line_no}: {exc}") from None
        prediction = predictors.predict(model, query)
        if args.format == "json":
            print(json.dumps({
                "winner": prediction.winner,
                "likelihoods": {k: round(v, 6) for k, v in prediction.likelihoods.items()},
                "tie_depth": prediction.tie_depth,
            }))
        else:
            parts = [f"winner={prediction.winner}"]
            parts += [f"{label}={value:.6f}" for label, value in prediction.likelihoods.items()]
            print(" ".join(parts))
    return 0


def cmd_eval(args) -> int:
    model = _fit_from_args(args)
    # Enforce the model's attribute kinds on the test file, but not its
    # category lists or labels: test rows may carry unseen attribute values,
    # which simply match nothing, and unseen labels, which count as misses.
    relaxed = dataset.Schema(
        tuple(
            dataset.AttributeSpec(a.name, a.kind, a.weight)
            for a in model.table.schema.attributes
        ),
        model.table.schema.outcome_labels,
    )
    test = dataset.load_table(args.test, schema=relaxed, outcome_column=args.outcome_column, extend_labels=True)
    accuracy = harness.evaluate_accuracy(model, test)
    print(f"accuracy={accuracy:.6f}")
    return 0


def _parse_arms(text: str) -> list[tuple[str, str | None]]:
    arms: list[tuple[str, str | None]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            predictor, kernel = part.split(":", 1)
            arms.append((predictor, kernel))
        else:
            arms.append((part, None))
    if not arms:
        raise _UsageError("no arms given")
    return arms


def cmd_converge(args) -> int:
    spec = harness.load_spec(args.spec)
    arms = _parse_arms(args.arms)
    try:
        schedule = [int(x) for x in args.schedule.split(",") if x.strip()]
    except ValueError:
        raise _UsageError(f"bad --schedule {args.schedule!r}") from None
    rows = harness.run_convergence(
        spec,
        arms,
        schedule,
        trials=args.trials,
        test_size=args.test_size,
        progress=lambda arm: print(f"running arm {arm}", file=sys.stderr),
    )
    harness.write_report(rows, args.out)
    for arm, final_m, regret in harness.summarize_final_regret(rows):
        print(f"arm={arm} final_m={final_m} mean_regret={regret:.6f}")
    return 0


def cmd_kernels(args) -> int:
    if args.action == "list":
        for kind in kernels.KERNEL_KINDS:
            print(f"{kind}: {kernels.KERNEL_FORMULAS[kind]}")
        return 0
    if args.m is None:
        raise _UsageError("kernels check requires --m")
    if args.m < 2:
        raise _UsageError(f"--m must be at least 2, got {args.m}")
    # Every row is built before any is printed, so a refused kernel prints
    # only its error line.
    rows = ["kind,sepm,seap,maxsap,certified"]
    for kind in kernels.KERNEL_KINDS:
        cert = kernels.certify_lead(kernels.make_kernel(kind, args.m), args.m)
        flag = "true" if cert.certified else "false"
        rows.append(f"{kind},{cert.sepm:.6f},{cert.seap:.6f},{cert.maxsap:.6f},{flag}")
    print("\n".join(rows))
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "converge": cmd_converge,
    "kernels": cmd_kernels,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value that starts with "-" for an option: "--query -1.5,a" is one query.
    for i in reversed([i for i, arg in enumerate(argv[:-1]) if arg == "--query"]):
        argv[i:i + 2] = [f"--query={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
        # The predictors check their own results for overflow and raise
        # PredictorError; numpy's warnings would only print ahead of it.
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except (FieldpredError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal fault, not a usage problem
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
