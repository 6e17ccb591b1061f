"""Command-line surface: simulate / fit / validate / oracle.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

from . import synthetic
from .calibration import fit_topology
from .core import (ParseError, TreesinkError, ValidationError,
                   validate_parameters)
from .engine import simulate
from .fileio import (parse_target_file, read_parameter_file,
                     write_fit_result, write_simulation_output)
from .oracle import simulate_naive

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation of the tool."""

    command: str                       # simulate | fit | validate | oracle
    params_path: str
    target_paths: tuple[str, ...] = ()
    out_dir: str | None = None
    cycles: int | None = None
    tree_index: int = 0
    seed: int | None = None
    plots: bool = False
    synthetic_script: str | None = None  # tree1 | tree2

    def validate(self) -> None:
        if self.command not in ("simulate", "fit", "validate", "oracle"):
            raise ValidationError(f"unknown command {self.command!r}")
        if self.command == "fit" and not self.target_paths:
            raise ValidationError("fit needs at least one target file")
        if self.command == "simulate" and not self.target_paths \
                and self.synthetic_script is None:
            raise ValidationError(
                "simulate needs --target or --synthetic-script")
        if self.command == "oracle" and not self.target_paths:
            raise ValidationError("oracle needs a target file")
        if self.command in ("simulate", "fit", "oracle") \
                and self.out_dir is None:
            raise ValidationError(f"{self.command} needs an output directory")
        if self.plots:
            from . import plots
            plots.require_matplotlib()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesink",
        description="Source-sink tree growth simulation and calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, target_required):
        p.add_argument("--params", required=True,
                       help="parameter file (key = value text)")
        p.add_argument("--target", action="append", default=[],
                       required=target_required,
                       help="target file (sectioned CSV); repeatable")

    p_sim = sub.add_parser("simulate", help="run one growth simulation")
    add_common(p_sim, target_required=False)
    p_sim.add_argument("--synthetic-script", choices=["tree1", "tree2"],
                       help="use a bundled trunk script instead of --target")
    p_sim.add_argument("--cycles", type=int, default=None,
                       help="growth cycles (defaults to the script length)")
    p_sim.add_argument("--tree-index", type=int, default=0,
                       help="which environment factor to use (0-based)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--plots", action="store_true",
                       help="also write static SVG charts")

    p_fit = sub.add_parser("fit", help="estimate parameters against targets")
    add_common(p_fit, target_required=True)
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--seed", type=int, default=None,
                       help="override the [fit] section's seed")
    p_fit.add_argument("--plots", action="store_true")

    p_val = sub.add_parser("validate",
                           help="check a parameter (and target) file")
    add_common(p_val, target_required=False)

    p_orc = sub.add_parser("oracle",
                           help="run the enumerated-tree reference engine")
    add_common(p_orc, target_required=True)
    p_orc.add_argument("--cycles", type=int, default=None)
    p_orc.add_argument("--tree-index", type=int, default=0)
    p_orc.add_argument("--out", required=True)
    return parser


def _load_dataset(config: RunConfig):
    if config.target_paths:
        return parse_target_file(config.target_paths[0])
    script = (synthetic.tree1_script() if config.synthetic_script == "tree1"
              else synthetic.tree2_script())
    return synthetic.script_only_dataset(script)


def _cmd_simulate(config: RunConfig) -> int:
    params, zones, _ = read_parameter_file(config.params_path)
    run = simulate_naive if config.command == "oracle" else simulate
    output = run(params, zones, _load_dataset(config),
                 tree_index=config.tree_index, cycles=config.cycles)
    written = write_simulation_output(config.out_dir, output)
    if config.plots:
        from . import plots
        written += plots.write_simulation_plots(config.out_dir, output)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_fit(config: RunConfig) -> int:
    params, zones, fit_spec = read_parameter_file(config.params_path)
    if fit_spec is None:
        raise ValidationError(
            f"{config.params_path} has no [fit] section; nothing to estimate")
    targets = [parse_target_file(path) for path in config.target_paths]
    if len(params.v_env) != len(targets):
        raise ValidationError(
            f"parameter file carries {len(params.v_env)} v_env entries for "
            f"{len(targets)} targets")
    if config.seed is not None:
        try:
            fit_spec = replace(fit_spec, seed=config.seed)
        except ValueError as exc:
            raise ValidationError(f"--seed: {exc}") from None
    result = fit_topology(fit_spec, params, zones, targets)
    written = write_fit_result(config.out_dir, result)
    if config.plots:
        from . import plots
        written += plots.write_fit_plots(config.out_dir, result)
    for path in written:
        print(path)
    print(f"objective: {result.objective!r} "
          f"({result.evaluations} evaluations)")
    return EXIT_OK


def _cmd_validate(config: RunConfig) -> int:
    params, zones, _ = read_parameter_file(config.params_path)
    report = validate_parameters(params, zones)
    print(f"parameters: {report}")
    for path in config.target_paths:
        parse_target_file(path)   # raises unless the target validates
        print(f"target {path}: pass")
    return EXIT_OK if report.ok else EXIT_VALIDATION


_HANDLERS = {"simulate": _cmd_simulate, "fit": _cmd_fit,
             "validate": _cmd_validate, "oracle": _cmd_simulate}


def run(config: RunConfig) -> int:
    """Execute one invocation; returns the process exit code."""
    try:
        config.validate()
        return _HANDLERS[config.command](config)
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TreesinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:   # an output that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_RUNTIME


def config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        params_path=args.params,
        target_paths=tuple(args.target),
        out_dir=getattr(args, "out", None),
        cycles=getattr(args, "cycles", None),
        tree_index=getattr(args, "tree_index", 0),
        seed=getattr(args, "seed", None),
        plots=getattr(args, "plots", False),
        synthetic_script=getattr(args, "synthetic_script", None))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
