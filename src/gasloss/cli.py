"""Command-line surface tying the analysis modules together.

Verbs: measure, approx, partition, factorize, hist, gen.  Reports go to
stdout (human-readable, or a JSON document with --json); warnings and
diagnostics go to stderr.  Exit codes: 0 success, 2 input error,
3 numerical failure, 4 capability limit.
"""

import argparse
import json
import sys

import numpy as np

from . import approx, factorize, formats, hist, model, partition
from .errors import InstanceError, NumericalFailure, TooManyResources

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_LIMIT = 4


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _vec(v) -> str:
    return "(" + ", ".join(_fmt(x) for x in np.asarray(v).ravel()) + ")"


def _emit_warnings(instance):
    for line in instance.warnings:
        print(f"warning: {line}", file=sys.stderr)
    if instance.excluded_resources:
        names = ", ".join(instance.excluded_resources)
        print(f"note: unpriced (excluded) resources: {names}",
              file=sys.stderr)


def _load(args):
    doc = formats.load_instance_doc(args.instance)
    excluded = []
    if args.exclude_resources:
        excluded = [s.strip() for s in args.exclude_resources.split(",")
                    if s.strip()]
    instance = doc.to_instance(extra_excluded=excluded)
    for note in doc.notes:
        print(f"note: {note}", file=sys.stderr)
    _emit_warnings(instance)
    return instance


def _print_json(payload):
    print(json.dumps(payload, indent=2))


def _instance_summary(instance):
    return {
        "operations": list(instance.operation_names),
        "resources": list(instance.resource_names),
        "excluded_resources": list(instance.excluded_resources),
        "warnings": list(instance.warnings),
    }


def cmd_measure(args) -> int:
    instance = _load(args)
    g = model.minimal_gas_measure(instance)
    attains = [instance.resource_names[int(j)]
               for j in np.argmax(instance.normalized_usage, axis=1)]
    if args.json:
        _print_json({
            "instance": _instance_summary(instance),
            "measure": {name: cost for name, cost
                        in zip(instance.operation_names, g.costs.tolist())},
            "attaining_resource": dict(zip(instance.operation_names, attains)),
        })
    else:
        for name, cost, res in zip(instance.operation_names, g.costs, attains):
            print(f"{name}: g = {_fmt(cost)}  (binding resource: {res})")
    return EXIT_OK


def cmd_approx(args) -> int:
    instance = _load(args)
    report = approx.approximability(instance, with_oracle=args.oracle)
    if args.json:
        payload = {
            "instance": _instance_summary(instance),
            "alpha": report.alpha,
            "game_value": report.game.value,
            "row_strategy": report.game.row_strategy.tolist(),
            "col_strategy": report.game.col_strategy.tolist(),
            "measure": report.measure.costs.tolist(),
            "witness_block": report.witness.tolist(),
        }
        if report.oracle_alpha is not None:
            payload["oracle_alpha"] = report.oracle_alpha
            payload["oracle_gap"] = abs(report.oracle_alpha - report.alpha)
        _print_json(payload)
    else:
        print(f"alpha = {_fmt(report.alpha)}  (game value "
              f"{_fmt(report.game.value)})")
        print(f"row strategy  x* = {_vec(report.game.row_strategy)}")
        print(f"col strategy  y* = {_vec(report.game.col_strategy)}")
        print(f"witness block    = {_vec(report.witness)} "
              f"(gas = {_fmt(model.gas_of(report.measure, report.witness))})")
        if report.oracle_alpha is not None:
            print(f"oracle alpha = {_fmt(report.oracle_alpha)}  "
                  f"(gap {_fmt(abs(report.oracle_alpha - report.alpha))})")
    return EXIT_OK


def _plan_payload(instance, plan):
    return {
        "groups": [[instance.resource_names[j] for j in group]
                   for group in plan.groups],
        "per_group_loss": plan.per_group_losses.tolist(),
        "loss": plan.loss,
    }


def cmd_partition(args) -> int:
    instance = _load(args)
    if args.mode == "exact":
        plan = partition.optimal_partition_exact(instance, args.k)
    else:
        plan = partition.optimal_partition_greedy(instance, args.k)
    if args.json:
        _print_json({"instance": _instance_summary(instance),
                     "mode": args.mode, **_plan_payload(instance, plan)})
    else:
        for group, loss in zip(plan.groups, plan.per_group_losses):
            names = ", ".join(instance.resource_names[j] for j in group)
            print(f"group {{{names}}}: loss = {_fmt(loss)}")
        print(f"overall loss = {_fmt(plan.loss)}")
    return EXIT_OK


def cmd_factorize(args) -> int:
    instance = _load(args)
    n = instance.num_resources
    if args.mode == "from-partition" and not 1 <= args.k <= n:
        raise InstanceError(f"k must be in 1..{n}")
    report = factorize.alternating_factorization(instance, args.k)
    for line in report.warnings:
        print(f"warning: {line}", file=sys.stderr)
    fact = report.factorization
    values = [None if np.isnan(v) else v
              for v in report.per_dimension_values]
    if args.json:
        _print_json({
            "instance": _instance_summary(instance),
            "mode": args.mode,
            "k": fact.k,
            "A": fact.A.tolist(),
            "R": None if fact.R is None else np.asarray(fact.R).tolist(),
            "per_dimension_value": values,
            "alpha": report.alpha,
            "represents": report.represents,
        })
    else:
        print(f"k = {fact.k}, alpha = {_fmt(report.alpha)}, "
              f"represents = {report.represents}")
        for ell, value in enumerate(values):
            shown = "skipped (all-zero)" if value is None else _fmt(value)
            print(f"dimension {ell}: game value = {shown}")
        print("A (operations x k):")
        for name, row in zip(instance.operation_names, fact.A):
            print(f"  {name}: {_vec(row)}")
        if fact.R is not None:
            print("R (k x resources):")
            for row in np.asarray(fact.R):
                print(f"  {_vec(row)}")
    return EXIT_OK


def cmd_hist(args) -> int:
    instance = _load(args)
    if args.freq:
        f = formats.load_profile(args.freq, instance)
        report = hist.hist_loss(instance, f)
        mode = "point"
    else:
        lo = formats.load_bounds(args.low, instance)
        hi_ = formats.load_bounds(args.high, instance)
        report = hist.hist_loss_range(instance, lo, hi_)
        mode = "range"
    best = instance.resource_names[report.best_reply_column]
    if args.json:
        _print_json({
            "instance": _instance_summary(instance),
            "mode": mode,
            "frequency": report.frequency.tolist(),
            "x_hist": report.x_hist.tolist(),
            "column_payoffs": report.column_payoffs.tolist(),
            "nu_hist": report.nu_hist,
            "alpha_hist": report.alpha_hist,
            "best_reply_resource": best,
        })
    else:
        if mode == "range":
            print(f"worst-case frequency f = {_vec(report.frequency)}")
        print(f"x_hist = {_vec(report.x_hist)}")
        print(f"column payoffs = {_vec(report.column_payoffs)} "
              f"(best reply: {best})")
        print(f"alpha_hist = {_fmt(report.alpha_hist)}  "
              f"(nu_hist = {_fmt(report.nu_hist)})")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "ecp":
        try:
            elements = [int(s) for s in args.set.split(",") if s.strip()]
        except ValueError as exc:
            raise InstanceError(str(exc)) from exc
        doc = formats.ecp_instance_doc(elements, args.epsilon)
    elif args.kind == "random":
        doc = formats.random_instance_doc(args.ops, args.resources,
                                          args.density, args.seed)
    else:
        doc = formats.preset_doc(args.preset)
    text = formats.serialize_instance(doc)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InstanceError(
                f"cannot write {args.out}: {exc.strerror}") from exc
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gasloss",
        description="Worst-case throughput loss of low-dimensional gas "
                    "measures for multi-resource block limits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance", help="instance file (JSON or CSV table)")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")
        p.add_argument("--exclude-resources", metavar="NAMES",
                       help="comma-separated resource names to treat as "
                            "non-congesting")

    p = sub.add_parser("measure", help="minimal single gas measure")
    common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("approx", help="single-dimensional worst-case loss")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="also solve the zero-sum game as an independent "
                        "check")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("partition", help="best k-group resource partition")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("factorize", help="k-dimensional measure via "
                                         "upper-bounding factorization")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["from-partition", "alternate"],
                   default="from-partition")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("hist", help="loss under a historical operation mix")
    common(p)
    p.add_argument("--freq", help="frequency profile file (point mode)")
    p.add_argument("--low", help="lower-bound profile file (range mode)")
    p.add_argument("--high", help="upper-bound profile file (range mode)")
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("gen", help="write instance fixtures")
    p.add_argument("kind", choices=["ecp", "random", "preset"])
    p.add_argument("--set", help="comma-separated positive integers (ecp)")
    p.add_argument("--epsilon", type=float, help="reduction epsilon (ecp)")
    p.add_argument("--ops", type=int, default=6)
    p.add_argument("--resources", type=int, default=4)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", help="table1 | table3 | figure1")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "hist":
        point = bool(args.freq)
        ranged = bool(args.low) and bool(args.high)
        if point == ranged:
            print("error: give either --freq or both --low and --high",
                  file=sys.stderr)
            return EXIT_INPUT
    if args.command == "gen":
        if args.kind == "ecp" and (not args.set or args.epsilon is None):
            print("error: gen ecp needs --set and --epsilon", file=sys.stderr)
            return EXIT_INPUT
        if args.kind == "preset" and not args.preset:
            print("error: gen preset needs --preset", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except TooManyResources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
