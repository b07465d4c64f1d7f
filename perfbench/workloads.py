"""Workload table and the deterministic input generator.

Each workload fixes an input shape and its backends. Inputs come from the
public ``wsi.synthetic.synthesize`` for the workload seed; the
vocabulary-extended workloads append ``extra_terms`` words drawn from a
synthetic vocabulary of ``VOCABULARY`` terms to every comment, which makes
nearly every comment unique. The pipeline receives only the CSV files
written here.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# At 150 comments a month with 6 extra terms each, every vocabulary term
# averages 6 occurrences a month and passes the lexicon's default frequency
# filter (5), so lexicon-wide scans every term.
VOCABULARY = 150
VOCABULARY_STREAM = 1  # second RNG stream, so the synthesize() stream is untouched


@dataclass(frozen=True)
class Workload:
    name: str
    months: int
    comments_per_month: int
    extra_terms: int
    backends: tuple[str, ...]  # "keyword", "lexicon" or "remote"
    warm_cache: bool = False

    @property
    def remote(self) -> bool:
        return "remote" in self.backends


WORKLOADS = {w.name: w for w in (
    Workload("keyword-scale", months=120, comments_per_month=300, extra_terms=0,
             backends=("keyword",)),
    Workload("lexicon-wide", months=72, comments_per_month=150, extra_terms=6,
             backends=("lexicon", "keyword")),
    Workload("remote-warm", months=60, comments_per_month=40, extra_terms=6,
             backends=("remote",), warm_cache=True),
)}


def import_wsi():
    """Import ``wsi`` from this checkout's ``src``, never from elsewhere."""
    src = REPO_ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wsi
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import wsi from {src}: {exc}")
    if Path(wsi.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: wsi resolved to {wsi.__file__}, not {src}")
    return wsi


def vocabulary_term(i: int) -> str:
    return f"term{i:03d}"


def generate(workload: Workload, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write one survey CSV per month plus the wage CSV; same seed, same bytes."""
    import_wsi()
    import numpy as np
    from wsi.corpus import write_survey, write_wages
    from wsi.synthetic import SyntheticSpec, synthesize

    spec = SyntheticSpec(months=workload.months,
                         comments_per_month=workload.comments_per_month)
    corpus = synthesize(spec, seed)
    records = corpus.records
    if workload.extra_terms:
        rng = np.random.default_rng([seed, VOCABULARY_STREAM])
        draws = rng.integers(0, VOCABULARY, size=(len(records), workload.extra_terms))
        records = [
            replace(r, comment=r.comment + " " + " ".join(vocabulary_term(i) for i in row))
            for r, row in zip(records, draws.tolist())
        ]
    survey_dir = out_dir / "surveys"
    by_month: dict = {}
    for record in records:
        by_month.setdefault(record.month, []).append(record)
    for month, month_records in by_month.items():
        write_survey(month_records, survey_dir / f"{month}.csv")
    wage_path = out_dir / "wages.csv"
    write_wages(corpus.wage_levels, wage_path)
    return survey_dir, wage_path
