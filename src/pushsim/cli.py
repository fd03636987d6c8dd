"""Command-line front end.

Exit codes: 0 success, 1 an invariant or acceptance check failed, 2 bad
config or unreadable input.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import adversary, graph as graphmod, harness, traceio
from .graph import positive_finite


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise harness.ConfigError(f"seeds: {exc}") from exc


def _config_from_args(args) -> harness.ExperimentConfig:
    overrides: dict = {
        "protocol": args.protocol,
        "rounds": args.rounds,
        "M": args.M,
        "c": args.c,
        "output_dir": args.output_dir,
        "attack_target": args.attack_target,
    }
    if args.seeds is not None:
        overrides["seeds"] = _parse_seeds(args.seeds)
    if args.graph is not None:
        overrides["graph"] = {"demo": True} if args.graph == "demo" else {"file": args.graph}
    return harness.load_config(args.config, overrides)


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="scenario config JSON; flags override its fields")
    sub.add_argument("--protocol", help="protocol tag")
    sub.add_argument("--rounds", type=int)
    sub.add_argument("--seeds", help="comma-separated seed list, e.g. 1,2,3")
    sub.add_argument("--M", type=float, help="masking spread")
    sub.add_argument("--c", type=float, help="exceedance threshold")
    sub.add_argument("--graph", help="digraph JSON file, or 'demo'")
    sub.add_argument("--attack-target", type=int, dest="attack_target")
    sub.add_argument("--output-dir", dest="output_dir")


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    summary = harness.run_scenario(cfg, verbose=True)
    print(f"wrote {cfg.resolved_output_dir()}/summary.json ({len(summary['runs'])} runs)")
    return 0


def cmd_attack(args) -> int:
    threshold = positive_finite(args.c, "c")
    report = adversary.attack_report(args.trace, args.target, threshold)
    if args.json_out:
        traceio.write_json(args.json_out, report)
    if args.csv_out:
        adversary.write_attack_csv(report, args.csv_out)
    final = report["final_error"]
    print(
        f"target {report['target']}: final error "
        + (f"{final:.3e}" if final is not None else "undefined")
        + f", {len(report['exceedance_rounds'])} exceedance round(s) above c={threshold}"
    )
    return 0


def cmd_check(args) -> int:
    report = harness.check_invariants(args.trace)
    for item in report.items:
        print(f"{item.status.upper():5s} {item.name}: {item.detail}")
    return 0 if report.ok else 1


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    tags = args.protocols.split(",") if args.protocols else None
    payload = harness.compare_protocols(cfg, tags)
    print(f"wrote {cfg.resolved_output_dir()}/compare.csv for protocols {', '.join(payload['protocols'])}")
    return 0


def cmd_gen_graph(args) -> int:
    if args.demo:
        g = graphmod.demo_digraph()
    else:
        g = graphmod.random_strongly_connected(args.n, args.extra_edge_prob, args.seed)
    graphmod.save_digraph(g, args.out)
    print(f"wrote {args.out}: n={g.n}, {len(g.edges)} edges")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pushsim argument parser, built on first use and then reused.

    Building it costs more than parsing one command line, and a process that
    calls main once per command (a test suite, a benchmark) would pay that
    each time.  parse_args fills a fresh Namespace per call and leaves the
    parser unchanged, so no value passes from one call to the next.  It is
    built lazily, so importing pushsim does not pay for it.
    """
    parser = argparse.ArgumentParser(prog="pushsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its output bundle")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_attack = sub.add_parser("attack", help="run the eavesdropper against a trace file")
    p_attack.add_argument("trace")
    p_attack.add_argument("--target", type=int, help="default: highest-numbered node")
    p_attack.add_argument("--c", type=float, default=500.0)
    p_attack.add_argument("--json", dest="json_out")
    p_attack.add_argument("--csv", dest="csv_out")
    p_attack.set_defaults(func=cmd_attack)

    p_check = sub.add_parser("check", help="check a trace file against the protocol invariants")
    p_check.add_argument("trace")
    p_check.set_defaults(func=cmd_check)

    p_cmp = sub.add_parser("compare", help="run protocols on shared seeds and tabulate MSE")
    _add_config_flags(p_cmp)
    p_cmp.add_argument("--protocols", help="comma-separated tags (default: push_sum,decomposed)")
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen-graph", help="write a digraph JSON file")
    p_gen.add_argument("--n", type=int, default=5)
    p_gen.add_argument("--extra-edge-prob", type=float, default=0.3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--demo", action="store_true", help="write the fixed 5-node demo digraph")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_graph)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError and TraceFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
