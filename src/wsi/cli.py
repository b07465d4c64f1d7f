"""Command line entry point.

Subcommands mirror the pipeline stages (``ingest``, ``classify``, ``index``,
``granger``, ``report``), ``run`` executes all of them, and ``synth``
generates a synthetic corpus with a known causal lead. Stage commands share
one JSON config file (see README for the schema); later stages read the
artifacts earlier stages wrote under ``out/<run-id>/``. The analysis
settings, ``max_lag`` included, come from the config file alone, so each
stage command lands in the run directory the earlier ones wrote.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .corpus import MonthKey
from .pipeline import (
    ConfigError,
    RunConfig,
    StageError,
    run,
    stage_classify,
    stage_granger,
    stage_index,
    stage_ingest,
    stage_report,
)
from .synthetic import SyntheticSpec, generate_synthetic


def _add_config_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON run configuration file")


def _month(text: str) -> MonthKey:
    try:
        return MonthKey.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _at_least(floor: int):
    """An ``int`` argument type that rejects values below ``floor``."""
    def parse(text: str) -> int:
        if int(text) < floor:
            raise argparse.ArgumentTypeError(f"invalid value {text}: must be >= {floor}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsi", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with a known lead")
    p.add_argument("--months", type=_at_least(1), default=120)
    p.add_argument("--lead", type=_at_least(0), default=2, help="months sentiment leads wages")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--comments-per-month", type=_at_least(1), default=120)
    p.add_argument("--start", type=_month, default="200001", help="first month, yyyymm")
    p.add_argument("--out", default="synthetic", help="output directory")

    for name, description in (
        ("ingest", "load, validate, and translate the inputs"),
        ("index", "compute index series from classified comments"),
        ("granger", "run the Granger sweeps"),
        ("report", "render charts, tables, and the manifest"),
        ("run", "execute every stage"),
    ):
        p = sub.add_parser(name, help=description)
        _add_config_argument(p)

    p = sub.add_parser("classify", help="classify comments for one or all backends")
    _add_config_argument(p)
    p.add_argument("--backend", help="classify only this backend id")

    return parser


def _command(args: argparse.Namespace) -> list[str]:
    """Run the command ``args`` names; returns the lines it prints."""
    if args.command == "synth":
        try:
            spec = SyntheticSpec(
                months=args.months,
                start=args.start,
                comments_per_month=args.comments_per_month,
                lead_months=args.lead,
            )
        except ValueError as exc:  # argparse checks each argument alone, the spec them together
            raise ConfigError(str(exc)) from exc
        survey_paths, wage_path = generate_synthetic(spec, args.seed, args.out)
        return [f"wrote {len(survey_paths)} survey files and {wage_path}"]

    config = RunConfig.from_file(args.config)
    if args.command == "ingest":
        result = stage_ingest(config)
        return [f"ingested {len(result.corpus)} records "
                f"({result.stats['row_errors']} rejected rows, "
                f"{result.stats['skipped_empty']} empty comments skipped)"]
    if args.command == "classify":
        results, wire = stage_classify(config, only_backend=args.backend)
        return [f"{backend_id}: {len(classified)} comments over {len(classified.months)} "
                f"months ({wire.get(backend_id, 0)} wire calls)"
                for backend_id, classified in results.items()]
    if args.command == "index":
        series = stage_index(config)
        return [f"{backend_id}: {len(result.points)} index points"
                for backend_id, result in series.items()]
    if args.command == "granger":
        sweeps, failures = stage_granger(config)
        return [*(f"{backend_id}/{kind}: {len(results)} lags, "
                  f"{sum(1 for r in results if r.stars)} significant"
                  for (backend_id, kind), results in sorted(sweeps.items())),
                *(f"{key}: FAILED ({reason})" for key, reason in failures.items())]
    if args.command == "report":
        bundle = stage_report(config)
        out = Path(config.output_dir) / bundle.run_id
        return [f"report written to {out} (run {bundle.run_id})"]
    result = run(config)  # "run"
    return [f"run {result.bundle.run_id} complete: {result.out_dir}",
            json.dumps(result.stats, indent=2, sort_keys=True)]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        lines = _command(args)
    except (ConfigError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of standard output has gone (``wsi run | head -1``); the
        # command is done, and the interpreter's last flush must not fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
