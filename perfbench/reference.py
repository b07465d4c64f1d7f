"""Reference artifacts the benchmark checks the pipeline's outputs against.

Both are computed in process from the generated inputs, away from the code
paths they check. The keyword reference classifies with the stub's copy of
the rule table. The lexicon reference re-derives the rolling lexicon (term
counts, frequency filter, Pearson correlation with wage growth) with numpy
over a term-by-month count matrix, as the module docstring of
``wsi.lexicon`` describes it, under the default policy: expanding window,
minimum mean frequency 5, ten terms per polarity, Laplace smoothing.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

import stub
import workloads

_TOKEN_RE = re.compile(r"[a-z0-9]+")
MIN_MEAN_FREQUENCY = 5.0
MAX_TERMS = 10
LAG = 2  # months between the end of a correlation window and its target


def series_csv(classified) -> str:
    from wsi.index import build_series, series_csv_rows

    series = build_series(classified)  # the default normalization, as the benchmark runs it
    return "\n".join(series_csv_rows(series.points)) + "\n"


def keyword_series(records: Sequence, backend_id: str) -> str:
    """Series CSV of the records classified by the stub's keyword rules."""
    from wsi.classify import KeywordClassifier, classify_month
    from wsi.corpus import group_by_month

    classifier = KeywordClassifier(stub.RULES, backend_id=backend_id)
    return series_csv({month: classify_month(month_records, classifier)
                       for month, month_records in group_by_month(records).items()})


def stop_words() -> frozenset[str]:
    path = workloads.REPO_ROOT / "src" / "wsi" / "assets" / "stopwords_en.txt"
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


def _ordinal(month) -> int:
    return month.year * 12 + month.month - 1


AuditRow = tuple[str, str, int, str, float]  # as_of, polarity, rank, term, correlation


class LexiconReference:
    """The rolling lexicon's eligible terms and correlations, per target month.

    :meth:`audit_error` checks the lexicon the pipeline chose (its
    ``stages/lexicon_audit.csv`` rows) against them: every listed term is
    eligible and carries its correlation, each list is in rank order, and no
    term left out ranks above the last one kept. Correlations that agree
    within ``tolerance`` count as ties, so the pipeline may order or cut a
    tie either way. :meth:`series` then classifies the records with the
    pipeline's chosen terms, which checks classification and indexing exactly.
    :meth:`expected_series` does both for one audit file's text.
    """

    def __init__(self, records: Sequence, wages, backend_id: str, tolerance: float):
        from wsi.corpus import group_by_month

        self.backend_id = backend_id
        self.tolerance = tolerance
        self._checked: dict[str, str] = {}  # audit text -> expected series
        stops = stop_words()
        self.grouped = group_by_month(records)
        self.tokens = {id(r): [t for t in _TOKEN_RE.findall(r.text.lower()) if t not in stops]
                       for r in records}
        terms = sorted({t for toks in self.tokens.values() for t in toks})
        column = {t: i for i, t in enumerate(terms)}
        first = _ordinal(min(self.grouped))
        counts = np.zeros((len(terms), _ordinal(max(self.grouped)) - first + 1))
        for month, month_records in self.grouped.items():
            for record in month_records:
                for token in self.tokens[id(record)]:
                    counts[column[token], _ordinal(month) - first] += 1

        growth_at = {_ordinal(m): g for m, g in wages.yoy_map.items()}
        start = max(first, min(growth_at))
        # target month (as written in the audit) -> eligible term -> correlation
        self.correlations: dict[str, dict[str, float]] = {}
        for as_of in self.grouped:
            window = range(start, _ordinal(as_of) - LAG + 1)
            if len(window) < 2 or any(o not in growth_at for o in window):
                continue
            freqs = counts[:, [o - first for o in window]]
            keep = freqs.mean(axis=1) >= MIN_MEAN_FREQUENCY
            centred = freqs[keep] - freqs[keep].mean(axis=1, keepdims=True)
            growth = np.array([growth_at[o] for o in window])
            growth -= growth.mean()
            sxx = (centred * centred).sum(axis=1)
            syy = float(growth @ growth)
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = np.clip((centred @ growth) / np.sqrt(sxx * syy), -1.0, 1.0)
            self.correlations[str(as_of)] = {
                str(t): float(c) for t, c, s in zip(np.array(terms)[keep], corr, sxx)
                if s > 0 and syy > 0}

    def expected_series(self, audit_text: str) -> str:
        """The series the pipeline must write with the lexicon its audit
        lists; raises ValueError when that lexicon is wrong."""
        if audit_text not in self._checked:
            rows = [(as_of, polarity, int(rank), term, float(corr))
                    for as_of, polarity, rank, term, corr in
                    (line.split(",") for line in audit_text.splitlines()[1:])]
            error = self.audit_error(rows)
            if error is not None:
                raise ValueError(error)
            self._checked[audit_text] = self.series(rows)
        return self._checked[audit_text]

    def audit_error(self, rows: Sequence[AuditRow]) -> str | None:
        """Why the chosen lexicon is wrong, or None when it is right."""
        chosen: dict[tuple[str, str], list[AuditRow]] = {}
        for row in rows:
            chosen.setdefault(row[:2], []).append(row)
        unknown = {as_of for as_of, _ in chosen} - set(self.correlations)
        if unknown:
            return f"lexicons for months without one: {sorted(unknown)}"
        tol = self.tolerance
        for as_of, eligible in self.correlations.items():
            for polarity, sign in (("positive", 1.0), ("negative", -1.0)):
                listed = chosen.get((as_of, polarity), [])
                where = f"{as_of} {polarity}"
                if [r[2] for r in listed] != list(range(1, len(listed) + 1)):
                    return f"{where}: ranks are not 1..{len(listed)}"
                terms = [r[3] for r in listed]
                if len(set(terms)) != len(terms):
                    return f"{where}: a term is listed twice"
                for _, _, rank, term, corr in listed:
                    if term not in eligible or abs(eligible[term] - corr) > tol:
                        return f"{where} rank {rank}: {term} {corr!r}, reference " \
                               f"{eligible.get(term)!r}"
                scores = [sign * r[4] for r in listed]
                if any(later > earlier + tol for earlier, later in zip(scores, scores[1:])):
                    return f"{where}: not in rank order"
                left_out = [sign * c for t, c in eligible.items()
                            if sign * c > tol and t not in terms]
                if len(listed) < MAX_TERMS and left_out:
                    return f"{where}: {len(listed)} terms listed, more are eligible"
                if len(listed) > MAX_TERMS or (left_out and scores
                                               and max(left_out) > scores[-1] + tol):
                    return f"{where}: the chosen terms are not the top {MAX_TERMS}"
        return None

    def series(self, rows: Sequence[AuditRow]) -> str:
        """Series CSV of the records classified with the chosen lexicons."""
        from wsi.classify import ClassifiedComment, ClassProbabilities, UNRELATED

        terms: dict[tuple[str, str], set[str]] = {}
        for as_of, polarity, _, term, _ in rows:
            terms.setdefault((as_of, polarity), set()).add(term)
        classified = {}
        for as_of, month_records in self.grouped.items():
            if str(as_of) not in self.correlations:
                continue
            pos = terms.get((str(as_of), "positive"), set())
            neg = terms.get((str(as_of), "negative"), set())
            month_classified = []
            for record in month_records:
                p = sum(t in pos for t in self.tokens[id(record)])
                n = sum(t in neg for t in self.tokens[id(record)])
                probs = (ClassProbabilities(p / (p + n + 1), n / (p + n + 1), 1 / (p + n + 1))
                         if p + n else UNRELATED)  # Laplace smoothing
                month_classified.append(ClassifiedComment(
                    record=record, probs=probs, backend_id=self.backend_id,
                    hard_label=probs.hard_label(), failed=False))
            classified[as_of] = month_classified
        return series_csv(classified)
