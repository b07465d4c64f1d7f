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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsi", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with a known lead")
    p.add_argument("--months", type=int, default=120)
    p.add_argument("--lead", type=int, default=2, help="months sentiment leads wages")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--comments-per-month", type=int, default=120)
    p.add_argument("--start", default="200001", help="first month, yyyymm")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "synth":
            spec = SyntheticSpec(
                months=args.months,
                start=MonthKey.parse(args.start),
                comments_per_month=args.comments_per_month,
                lead_months=args.lead,
            )
            survey_paths, wage_path = generate_synthetic(spec, args.seed, args.out)
            print(f"wrote {len(survey_paths)} survey files and {wage_path}")
            return 0

        config = RunConfig.from_file(args.config)
        if args.command == "ingest":
            result = stage_ingest(config)
            print(f"ingested {len(result.records)} records "
                  f"({result.row_errors} rejected rows, "
                  f"{result.skipped_empty} empty comments skipped)")
        elif args.command == "classify":
            results, wire = stage_classify(config, only_backend=args.backend)
            for backend_id, by_month in results.items():
                total = sum(len(v) for v in by_month.values())
                print(f"{backend_id}: {total} comments over {len(by_month)} months "
                      f"({wire.get(backend_id, 0)} wire calls)")
        elif args.command == "index":
            series = stage_index(config)
            for backend_id, result in series.items():
                print(f"{backend_id}: {len(result.points)} index points")
        elif args.command == "granger":
            sweeps, failures = stage_granger(config)
            for (backend_id, kind), results in sorted(sweeps.items()):
                significant = sum(1 for r in results if r.stars)
                print(f"{backend_id}/{kind}: {len(results)} lags, "
                      f"{significant} significant")
            for key, reason in failures.items():
                print(f"{key}: FAILED ({reason})")
        elif args.command == "report":
            bundle = stage_report(config)
            out = Path(config.output_dir) / bundle.run_id
            print(f"report written to {out} (run {bundle.run_id})")
        elif args.command == "run":
            result = run(config)
            print(f"run {result.bundle.run_id} complete: {result.out_dir}")
            print(json.dumps(result.stats, indent=2, sort_keys=True))
        return 0
    except (ConfigError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
