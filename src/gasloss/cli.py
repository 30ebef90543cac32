"""Command-line surface tying the analysis modules together.

Verbs: measure, approx, partition, factorize, hist, gen.  Each analysis
verb's handler (cmd_<verb>) returns one payload dict; _report prints that
payload to stdout as a JSON document under --json, or as the lines of the
verb's text renderer (_text_<verb>), which reads only the payload.
Warnings and diagnostics go to stderr.  Exit codes: 0 success, otherwise
the exit_code of the error class raised (2 input error, 3 numerical
failure, 4 capability limit).
"""

import argparse
import json
import sys

import numpy as np

from . import approx, factorize, formats, hist, model, partition
from .errors import GaslossError, InstanceError


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _vec(v) -> str:
    return "(" + ", ".join(_fmt(x) for x in np.asarray(v).ravel()) + ")"


def _load(args):
    doc = formats.load_instance_doc(args.instance)
    excluded = []
    if args.exclude_resources:
        excluded = [s.strip() for s in args.exclude_resources.split(",")
                    if s.strip()]
    instance = doc.to_instance(extra_excluded=excluded)
    for note in doc.notes:
        print(f"note: {note}", file=sys.stderr)
    for line in instance.warnings:
        print(f"warning: {line}", file=sys.stderr)
    if instance.excluded_resources:
        names = ", ".join(instance.excluded_resources)
        print(f"note: unpriced (excluded) resources: {names}",
              file=sys.stderr)
    return instance


def _report(args) -> int:
    """Run an analysis verb on its instance and print the verb's payload,
    as a JSON document under --json and through its text renderer
    otherwise."""
    instance = _load(args)
    payload = {"instance": {
        "operations": list(instance.operation_names),
        "resources": list(instance.resource_names),
        "excluded_resources": list(instance.excluded_resources),
        "warnings": list(instance.warnings),
    }}
    payload.update(args.handler(instance, args))
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in args.render(payload):
            print(line)
    return 0


def cmd_measure(instance, args) -> dict:
    g = model.minimal_gas_measure(instance)
    attains = [instance.resource_names[int(j)]
               for j in np.argmax(instance.normalized_usage, axis=1)]
    return {
        "measure": dict(zip(instance.operation_names, g.costs.tolist())),
        "attaining_resource": dict(zip(instance.operation_names, attains)),
    }


def _text_measure(p):
    for name, cost in p["measure"].items():
        yield (f"{name}: g = {_fmt(cost)}  "
               f"(binding resource: {p['attaining_resource'][name]})")


def cmd_approx(instance, args) -> dict:
    report = approx.approximability(instance, with_oracle=args.oracle)
    payload = {
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
    return payload


def _text_approx(p):
    gas = np.asarray(p["measure"]) @ np.asarray(p["witness_block"])
    yield f"alpha = {_fmt(p['alpha'])}  (game value {_fmt(p['game_value'])})"
    yield f"row strategy  x* = {_vec(p['row_strategy'])}"
    yield f"col strategy  y* = {_vec(p['col_strategy'])}"
    yield f"witness block    = {_vec(p['witness_block'])} (gas = {_fmt(gas)})"
    if "oracle_alpha" in p:
        yield (f"oracle alpha = {_fmt(p['oracle_alpha'])}  "
               f"(gap {_fmt(p['oracle_gap'])})")


def cmd_partition(instance, args) -> dict:
    if args.mode == "exact":
        plan = partition.optimal_partition_exact(instance, args.k)
    else:
        plan = partition.optimal_partition_greedy(instance, args.k)
    return {
        "mode": args.mode,
        "groups": [[instance.resource_names[j] for j in group]
                   for group in plan.groups],
        "per_group_loss": plan.per_group_losses.tolist(),
        "loss": plan.loss,
    }


def _text_partition(p):
    for group, loss in zip(p["groups"], p["per_group_loss"]):
        yield f"group {{{', '.join(group)}}}: loss = {_fmt(loss)}"
    yield f"overall loss = {_fmt(p['loss'])}"


def cmd_factorize(instance, args) -> dict:
    n = instance.num_resources
    if args.mode == "from-partition" and not 1 <= args.k <= n:
        raise InstanceError(f"k must be in 1..{n}")
    report = factorize.alternating_factorization(instance, args.k)
    for line in report.warnings:
        print(f"warning: {line}", file=sys.stderr)
    fact = report.factorization
    return {
        "mode": args.mode,
        "k": fact.k,
        "A": fact.A.tolist(),
        "R": None if fact.R is None else np.asarray(fact.R).tolist(),
        "per_dimension_value": [None if np.isnan(v) else v
                                for v in report.per_dimension_values],
        "alpha": report.alpha,
        "represents": report.represents,
    }


def _text_factorize(p):
    yield (f"k = {p['k']}, alpha = {_fmt(p['alpha'])}, "
           f"represents = {p['represents']}")
    for ell, value in enumerate(p["per_dimension_value"]):
        shown = "skipped (all-zero)" if value is None else _fmt(value)
        yield f"dimension {ell}: game value = {shown}"
    yield "A (operations x k):"
    for name, row in zip(p["instance"]["operations"], p["A"]):
        yield f"  {name}: {_vec(row)}"
    if p["R"] is not None:
        yield "R (k x resources):"
        for row in p["R"]:
            yield f"  {_vec(row)}"


def cmd_hist(instance, args) -> dict:
    if args.freq:
        f = formats.load_profile(args.freq, instance)
        report = hist.hist_loss(instance, f)
        mode = "point"
    else:
        lo = formats.load_bounds(args.low, instance)
        hi_ = formats.load_bounds(args.high, instance)
        report = hist.hist_loss_range(instance, lo, hi_)
        mode = "range"
    return {
        "mode": mode,
        "frequency": report.frequency.tolist(),
        "x_hist": report.x_hist.tolist(),
        "column_payoffs": report.column_payoffs.tolist(),
        "nu_hist": report.nu_hist,
        "alpha_hist": report.alpha_hist,
        "best_reply_resource":
            instance.resource_names[report.best_reply_column],
    }


def _text_hist(p):
    if p["mode"] == "range":
        yield f"worst-case frequency f = {_vec(p['frequency'])}"
    yield f"x_hist = {_vec(p['x_hist'])}"
    yield (f"column payoffs = {_vec(p['column_payoffs'])} "
           f"(best reply: {p['best_reply_resource']})")
    yield (f"alpha_hist = {_fmt(p['alpha_hist'])}  "
           f"(nu_hist = {_fmt(p['nu_hist'])})")


def cmd_gen(args) -> int:
    if args.kind == "ecp":
        if not args.set or args.epsilon is None:
            raise InstanceError("gen ecp needs --set and --epsilon")
        try:
            elements = [int(s) for s in args.set.split(",") if s.strip()]
        except ValueError as exc:
            raise InstanceError("--set must be comma-separated integers, "
                                f"got {args.set!r}") from exc
        doc = formats.ecp_instance_doc(elements, args.epsilon)
    elif args.kind == "random":
        doc = formats.random_instance_doc(args.ops, args.resources,
                                          args.density, args.seed)
    else:
        if not args.preset:
            raise InstanceError("gen preset needs --preset")
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
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gasloss",
        description="Worst-case throughput loss of low-dimensional gas "
                    "measures for multi-resource block limits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, handler, render, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("instance", help="instance file (JSON or CSV table)")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")
        p.add_argument("--exclude-resources", metavar="NAMES",
                       help="comma-separated resource names to treat as "
                            "non-congesting")
        p.set_defaults(func=_report, handler=handler, render=render)
        return p

    verb("measure", cmd_measure, _text_measure,
         help="minimal single gas measure")

    p = verb("approx", cmd_approx, _text_approx,
             help="single-dimensional worst-case loss")
    p.add_argument("--oracle", action="store_true",
                   help="also solve the zero-sum game as an independent "
                        "check")

    p = verb("partition", cmd_partition, _text_partition,
             help="best k-group resource partition")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")

    p = verb("factorize", cmd_factorize, _text_factorize,
             help="k-dimensional measure via upper-bounding factorization")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["from-partition", "alternate"],
                   default="from-partition")

    p = verb("hist", cmd_hist, _text_hist,
             help="loss under a historical operation mix")
    p.add_argument("--freq", help="frequency profile file (point mode)")
    p.add_argument("--low", help="lower-bound profile file (range mode)")
    p.add_argument("--high", help="upper-bound profile file (range mode)")

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
    args = _build_parser().parse_args(argv)
    try:
        # checked before the instance is loaded, so that the file's notes
        # and warnings do not reach stderr ahead of the error
        if args.command == "hist" and (
                bool(args.freq), bool(args.low), bool(args.high)) not in (
                (True, False, False), (False, True, True)):
            raise InstanceError(
                "give either --freq or both --low and --high")
        return args.func(args)
    except GaslossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
