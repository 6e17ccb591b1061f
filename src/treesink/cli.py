"""Command-line surface: simulate / fit / validate / oracle.

Exit codes: 0 success, 1 validation or usage failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import synthetic
from .calibration import fit_topology
from .core import TreesinkError, ValidationError
from .engine import check_run_request, simulate
from .fileio import (parse_target_file, read_parameter_file,
                     write_fit_result, write_simulation_output)
from .oracle import simulate_naive

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error is a validation failure
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


class _Once(argparse.Action):
    """Store an option's value; giving the option twice is a usage
    error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


def _int_at_least(low):
    """An argparse type: an int of at least ``low``.  A value below it is a
    usage error naming the option, as a malformed one is."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}: {value}")
        return value
    parse.__name__ = "int"   # a malformed value reads "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treesink",
        description="Source-sink tree growth simulation and calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler):
        p.set_defaults(handler=handler)
        p.add_argument("--params", required=True,
                       help="parameter file (key = value text)")

    many = dict(action="append", default=[],
                help="target file (sectioned CSV); repeatable")
    one = dict(action=_Once, help="target file (sectioned CSV)")

    p_sim = sub.add_parser("simulate", help="run one growth simulation")
    script = p_sim.add_mutually_exclusive_group(required=True)
    add_common(p_sim, _cmd_simulate)
    script.add_argument("--target", **one)
    script.add_argument("--synthetic-script", choices=["tree1", "tree2"],
                        help="use a bundled trunk script instead of --target")
    p_sim.add_argument("--cycles", type=_int_at_least(1), default=None,
                       help="growth cycles (defaults to the script length)")
    p_sim.add_argument("--tree-index", type=_int_at_least(0), default=0,
                       help="which environment factor to use (0-based)")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_fit = sub.add_parser("fit", help="estimate parameters against targets")
    add_common(p_fit, _cmd_fit)
    p_fit.add_argument("--target", required=True, **many)
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="override the [fit] section's seed")

    p_val = sub.add_parser("validate",
                           help="check a parameter (and target) file")
    add_common(p_val, _cmd_validate)
    p_val.add_argument("--target", **many)

    p_orc = sub.add_parser("oracle",
                           help="run the enumerated-tree reference engine")
    add_common(p_orc, _cmd_simulate)
    p_orc.add_argument("--target", required=True, **one)
    p_orc.add_argument("--cycles", type=_int_at_least(1), default=None)
    p_orc.add_argument("--tree-index", type=_int_at_least(0), default=0)
    p_orc.add_argument("--out", required=True)
    return parser


def _load_dataset(args):
    if args.target:
        return parse_target_file(args.target)
    script = (synthetic.tree1_script() if args.synthetic_script == "tree1"
              else synthetic.tree2_script())
    return synthetic.script_only_dataset(script)


def _cmd_simulate(args: argparse.Namespace) -> int:
    params, zones, _ = read_parameter_file(args.params)
    run = simulate_naive if args.command == "oracle" else simulate
    output = run(params, zones, _load_dataset(args),
                 tree_index=args.tree_index, cycles=args.cycles)
    for path in write_simulation_output(args.out, output):
        print(path)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    params, zones, fit_spec = read_parameter_file(args.params)
    if fit_spec is None:
        raise ValidationError(
            f"{args.params} has no [fit] section; nothing to estimate")
    targets = [parse_target_file(path) for path in args.target]
    if len(params.v_env) != len(targets):
        raise ValidationError(
            f"parameter file carries {len(params.v_env)} v_env entries for "
            f"{len(targets)} targets")
    # a request that no candidate's run could take fails before any run
    for i, dataset in enumerate(targets):
        check_run_request(params, zones, dataset, i, None)
    if args.seed is not None:
        fit_spec = replace(fit_spec, seed=args.seed)
    result = fit_topology(fit_spec, params, zones, targets)
    for path in write_fit_result(args.out, result):
        print(path)
    print(f"objective: {result.objective!r} "
          f"({result.evaluations} evaluations)")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    read_parameter_file(args.params)   # raises unless the file validates
    print("parameters: pass")
    for path in args.target:
        parse_target_file(path)   # likewise
        print(f"target {path}: pass")
    return EXIT_OK


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    try:
        return args.handler(args)
    except ValidationError as exc:   # a ParseError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TreesinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:   # an output that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_RUNTIME


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # --help, or a usage error
        return exc.code
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
