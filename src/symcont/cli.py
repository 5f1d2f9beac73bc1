"""Command-line front end.

Subcommands:
    analyze <spec-file>             classify the declared function
    zoo --all | --example <id>      run catalog entries and match expectations
    moduli <spec-file> --notion ... print an oscillation profile

Exit codes: 0 when everything computed (and, for zoo, matched), 1 on a zoo
mismatch, a consistency flag, or a failed witness re-verification, 2 on bad
input. Reports go to standard output; timing goes to standard error so that
identical runs stay byte-identical on standard output.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace

from .analysis import (
    DELTA_SCHEDULE_MAX,
    AnalysisConfig,
    check_consistency,
    check_wrt_subset,
    classify,
    modulus_profile,
    verify_witness,
)
from .errors import ParseError, SymcontError
from .exactnum import parse_quadext
from .functions import describe_function
from .report import (
    analyze_report,
    dump_json,
    moduli_report,
    render_analyze_text,
    render_moduli_text,
    render_zoo_text,
)
from .specfile import parse_spec


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--delta-schedule",
        metavar="D1,D2,...",
        help="comma-separated exact scales, strictly decreasing",
    )
    parser.add_argument("--grid-exponent", type=int, metavar="K")
    parser.add_argument("--max-pairs", type=int, metavar="N")
    parser.add_argument("--enum-limit", type=int, metavar="N")
    parser.add_argument("--seed", type=int, metavar="N")
    parser.add_argument("--format", choices=("text", "json"), dest="output_format")


def _apply_overrides(config: AnalysisConfig, args: argparse.Namespace) -> AnalysisConfig:
    changes: dict = {}
    if args.delta_schedule is not None:
        parts = args.delta_schedule.split(",")
        if len(parts) > DELTA_SCHEDULE_MAX:
            raise ParseError(f"--delta-schedule: at most {DELTA_SCHEDULE_MAX} entries")
        changes["delta_schedule"] = tuple(parse_quadext(part.strip()) for part in parts)
    if args.grid_exponent is not None:
        changes["grid_exponent"] = args.grid_exponent
    if args.max_pairs is not None:
        changes["max_pairs"] = args.max_pairs
    if args.enum_limit is not None:
        changes["enum_limit"] = args.enum_limit
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.output_format is not None:
        changes["output_format"] = args.output_format
    return replace(config, **changes) if changes else config


def _read_spec(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SymcontError(f"cannot read {path}: {exc.strerror}") from None
    return parse_spec(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = _read_spec(args.spec_file)
    config = _apply_overrides(spec.config, args)
    verdicts = classify(spec.domain, spec.function, config)
    consistency = check_consistency(verdicts)
    wrt_b = None
    if spec.subset_b is not None:
        wrt_b = check_wrt_subset(spec.domain, spec.function, spec.subset_b, config)
    witness_checks = None
    failed_witness = False
    if args.verify_witness:
        witness_checks = {}
        for notion, verdict in verdicts.items():
            errs = verify_witness(spec.domain, spec.function, verdict)
            witness_checks[notion] = errs
            failed_witness = failed_witness or bool(errs)
        if wrt_b is not None:
            errs = verify_witness(spec.domain, spec.function, wrt_b, spec.subset_b)
            witness_checks["USC_wrt_B"] = errs
            failed_witness = failed_witness or bool(errs)
    report = analyze_report(
        spec.domain.describe(),
        describe_function(spec.function),
        config,
        verdicts,
        consistency,
        wrt_b,
        witness_checks,
    )
    if config.output_format == "json":
        sys.stdout.write(dump_json(report))
    else:
        sys.stdout.write(render_analyze_text(report))
    return 1 if (consistency or failed_witness) else 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    # the catalog is compiled only for this command
    from .zoo import list_ids, run_all, run_example

    config = _apply_overrides(AnalysisConfig(), args)
    if args.all:
        zoo_report = run_all(config)
        report = {"command": "zoo", **zoo_report.to_json()}
    elif args.example:
        if args.example not in list_ids():
            raise SymcontError(
                f"unknown example id {args.example!r}; "
                f"known ids: {', '.join(list_ids())}"
            )
        cases = run_example(args.example, config)
        report = {
            "command": "zoo",
            "cases": [c.to_json() for c in cases],
            "relations": [],
            "ok": all(c.ok for c in cases),
        }
    else:
        raise SymcontError("zoo needs --all or --example <id>")
    if config.output_format == "json":
        sys.stdout.write(dump_json(report))
    else:
        sys.stdout.write(render_zoo_text(report))
    return 0 if report["ok"] else 1


def _cmd_moduli(args: argparse.Namespace) -> int:
    spec = _read_spec(args.spec_file)
    config = _apply_overrides(spec.config, args)
    profile = modulus_profile(spec.domain, spec.function, config, notion=args.notion)
    report = moduli_report(
        spec.domain.describe(), describe_function(spec.function), config, profile
    )
    if config.output_format == "json":
        sys.stdout.write(dump_json(report))
    else:
        sys.stdout.write(render_moduli_text(report))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; every main call
    parses with it."""
    parser = argparse.ArgumentParser(
        prog="symcont",
        description="classify exact functions by pointwise, uniform, "
        "symmetric, and uniform symmetric continuity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="classify the function in a spec file")
    p_analyze.add_argument("spec_file")
    p_analyze.add_argument(
        "--verify-witness",
        action="store_true",
        help="re-verify every reported witness point by point",
    )
    _add_config_flags(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_zoo = sub.add_parser("zoo", help="run catalog entries")
    p_zoo.add_argument("--all", action="store_true", help="run every entry")
    p_zoo.add_argument("--example", metavar="ID", help="run one entry by id")
    _add_config_flags(p_zoo)
    p_zoo.set_defaults(func=_cmd_zoo)

    p_moduli = sub.add_parser("moduli", help="print an oscillation profile")
    p_moduli.add_argument("spec_file")
    p_moduli.add_argument(
        "--notion",
        choices=("uc", "usc"),
        required=True,
        help="usc values f only on the listed points its pair survey reaches",
    )
    _add_config_flags(p_moduli)
    p_moduli.set_defaults(func=_cmd_moduli)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    start = time.perf_counter()
    try:
        status = args.func(args)
    except SymcontError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
