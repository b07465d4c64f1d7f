"""Pipeline orchestration: configuration, result caching, stage sequencing.

Stages run ingest -> translate -> classify -> index -> granger -> report.
Each stage persists its artifacts under ``out/<run-id>/`` so stages can also
be re-run individually from the CLI. The run id is a digest of the semantic
configuration, the input file digests, and the code version; execution
knobs (parallelism, directories) deliberately do not change it, so reruns
of the same analysis land in the same place with identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .classify import (
    BackendSpec,
    BatchResult,
    ClassProbabilities,
    ClassifiedComment,
    KeywordClassifier,
    RemoteClassifier,
    PROMPT_VERSION,
    classify_month,
    default_keyword_classifier,
)
from .corpus import (
    LoadError,
    MonthKey,
    SurveyRecord,
    WageSeries,
    group_by_month,
    load_surveys,
    load_wages,
    write_survey,
    write_wages,
)
from .econometrics import AlignedPair, GrangerResult, granger_sweep
from .index import Normalization, SeriesResult, build_series, series_csv_rows
from . import lexicon
from .lexicon import (
    LexiconBackend,
    LexiconPolicy,
    audit_rows,
    occurrence_counts,
    rolling_lexicons,
    tokenize,  # noqa: F401  (re-exported; the benchmark's tracer wraps it here)
)
from .report import (
    ChartError,
    ReportBundle,
    granger_csv_rows,
    render_granger_grid,
    render_series_chart,
    summarize_corpus,
)
from .translate import (
    IdentityTranslator,
    RemoteTranslator,
    TranslationCache,
    translate_all,
)
from .wire import ContentCache, atomic_write, endpoint_identity

log = logging.getLogger("wsi")

CACHE_DIR_ENV = "WSI_CACHE_DIR"
INDEX_KINDS = ("standard", "weighted")


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: str):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage} failed: {cause}")


class ConfigError(ValueError):
    """The run configuration is invalid."""


class ClassificationCache(ContentCache):
    """Per-comment classification results keyed by (comment, endpoint, model, prompt version).

    The endpoint enters the key as ``wire.endpoint_identity`` spells it.
    """

    def get(self, comment: str, endpoint: str, model_id: str,
            prompt_version: str = PROMPT_VERSION,
            fallback_model_id: str | None = None) -> ClassProbabilities | None:
        """The entry under ``model_id``, else the one under ``fallback_model_id``."""
        endpoint = endpoint_identity(endpoint)
        for model in (model_id, fallback_model_id):
            if model is not None:
                probs = self.read((comment, endpoint, model, prompt_version),
                                  lambda e: ClassProbabilities(e["u"], e["v"], e["w"]))
                if probs is not None:
                    return probs
        return None

    def put(self, comment: str, endpoint: str, model_id: str, probs: ClassProbabilities,
            prompt_version: str = PROMPT_VERSION) -> None:
        self.write((comment, endpoint_identity(endpoint), model_id, prompt_version),
                   json.dumps({"u": probs.u, "v": probs.v, "w": probs.w}, sort_keys=True))


class CachedRemoteClassifier:
    """Remote classifier that consults the cache before the wire.

    Failures are never cached; duplicate comment texts hit the wire once.
    Each answer is stored under the endpoint and the model that gave it,
    and a read tries the primary model's entry before the fallback model's.
    ``wire_calls_total`` accumulates across batches for reporting.
    """

    def __init__(self, inner: RemoteClassifier, cache: ClassificationCache,
                 prompt_version: str = PROMPT_VERSION):
        self.inner = inner
        self.cache = cache
        self.prompt_version = prompt_version
        self.backend_id = inner.backend_id
        self.wire_calls_total = 0
        self._calls_lock = threading.Lock()

    def classify_batch(self, comments: Sequence[str]) -> BatchResult:
        spec = self.inner.spec
        probs: list[ClassProbabilities | None] = [
            self.cache.get(c, spec.endpoint, spec.model_id, self.prompt_version,
                           spec.fallback_model_id)
            for c in comments
        ]
        failed = [False] * len(comments)
        pending: dict[str, list[int]] = {}
        for i, p in enumerate(probs):
            if p is None:
                pending.setdefault(comments[i], []).append(i)
        wire_calls = 0
        if pending:
            texts = list(pending)
            result = self.inner.classify_batch(texts)
            wire_calls = result.wire_calls
            for text, p, was_failed, model in zip(texts, result.probs, result.failed,
                                                  result.models):
                for i in pending[text]:
                    probs[i] = p
                    failed[i] = was_failed
                if not was_failed:
                    self.cache.put(text, spec.endpoint, model, p, self.prompt_version)
        with self._calls_lock:
            self.wire_calls_total += wire_calls
        final = [p if p is not None else ClassProbabilities(0.0, 0.0, 0.0) for p in probs]
        return BatchResult(probs=final, failed=failed, wire_calls=wire_calls)


@dataclass(frozen=True)
class BackendConfig:
    """One configured classifier backend.

    ``kind`` is one of "keyword" (deterministic mock), "lexicon" (the
    rolling correlation baseline), "http", or "subprocess" (remote wire
    protocol backends).
    """

    backend_id: str
    kind: str
    endpoint: str | None = None
    model_id: str | None = None
    fallback_model_id: str | None = None
    batch_size: int = 32
    max_retries: int = 2
    timeout: float = 30.0
    rules: tuple | None = None  # keyword kind only

    def __post_init__(self) -> None:
        if self.kind not in ("keyword", "lexicon", "http", "subprocess"):
            raise ConfigError(f"unknown backend kind: {self.kind}")
        if self.kind in ("http", "subprocess") and not self.endpoint:
            raise ConfigError(f"backend {self.backend_id}: kind {self.kind} needs an endpoint")

    def to_spec(self) -> BackendSpec:
        return BackendSpec(
            endpoint=self.endpoint or "",
            model_id=self.model_id or self.backend_id,
            fallback_model_id=self.fallback_model_id,
            batch_size=self.batch_size,
            max_retries=self.max_retries,
            timeout=self.timeout,
        )

    def identity(self) -> dict:
        out = {"id": self.backend_id, "kind": self.kind}
        if self.kind in ("http", "subprocess"):
            out.update(model=self.model_id, fallback=self.fallback_model_id)
        if self.rules is not None:
            out["rules"] = [[sorted(k), list(t)] for k, t in self.rules]
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "BackendConfig":
        rules = raw.get("rules")
        if rules is not None:
            rules = tuple((tuple(keywords), tuple(triple)) for keywords, triple in rules)
        return cls(
            backend_id=raw["id"],
            kind=raw.get("kind", "keyword"),
            endpoint=raw.get("endpoint"),
            model_id=raw.get("model"),
            fallback_model_id=raw.get("fallback_model"),
            batch_size=int(raw.get("batch_size", 32)),
            max_retries=int(raw.get("max_retries", 2)),
            timeout=float(raw.get("timeout", 30.0)),
            rules=rules,
        )


@dataclass
class RunConfig:
    """Everything one evaluation run depends on, plus execution knobs."""

    survey_paths: list[str]
    wage_path: str
    backends: list[BackendConfig]
    normalization: str = "per_comment"
    max_lag: int = 24
    lexicon: LexiconPolicy = field(default_factory=LexiconPolicy)
    translation_backend: str = "identity"  # "identity", "http:<url>", "cmd:<command>"
    translation_source: str = "ja"
    translation_target: str = "en"
    translation_parallelism: int = 4
    translation_batch_size: int = 50
    classify_parallelism: int = 4
    output_dir: str = "out"
    cache_dir: str = ".wsi-cache"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.backends:
            raise ConfigError("at least one backend must be configured")
        if self.max_lag < 1:
            raise ConfigError("max_lag must be >= 1")
        if self.normalization not in ("per_comment", "raw_sum"):
            raise ConfigError(f"unknown normalization: {self.normalization}")
        ids = [b.backend_id for b in self.backends]
        if len(ids) != len(set(ids)):
            raise ConfigError("backend ids must be unique")
        env_cache = os.environ.get(CACHE_DIR_ENV)
        if env_cache:
            self.cache_dir = env_cache

    @property
    def normalization_mode(self) -> Normalization:
        return Normalization(self.normalization)

    def identity_dict(self) -> dict:
        """Semantic configuration only; execution knobs excluded on purpose."""
        return {
            "backends": [b.identity() for b in self.backends],
            "normalization": self.normalization,
            "max_lag": self.max_lag,
            "lexicon": {
                "window": self.lexicon.window,
                "min_mean_frequency": self.lexicon.min_mean_frequency,
                "max_terms": self.lexicon.max_terms,
                "smoothing": self.lexicon.smoothing,
            },
            "translation": {
                "backend": self.translation_backend,
                "source": self.translation_source,
                "target": self.translation_target,
            },
            "seed": self.seed,
            "version": __version__,
        }

    @classmethod
    def from_dict(cls, raw: Mapping) -> "RunConfig":
        surveys = raw.get("surveys", [])
        if isinstance(surveys, str):
            surveys = [surveys]
        lexicon_raw = raw.get("lexicon", {})
        translation_raw = raw.get("translation", {})
        return cls(
            survey_paths=list(surveys),
            wage_path=raw.get("wages", ""),
            backends=[BackendConfig.from_dict(b) for b in raw.get("backends", [])],
            normalization=raw.get("normalization", "per_comment"),
            max_lag=int(raw.get("max_lag", 24)),
            lexicon=LexiconPolicy(
                window=lexicon_raw.get("window", "expanding"),
                min_mean_frequency=float(lexicon_raw.get("min_mean_frequency", 5.0)),
                max_terms=int(lexicon_raw.get("max_terms", 10)),
                smoothing=lexicon_raw.get("smoothing", "laplace"),
            ),
            translation_backend=translation_raw.get("backend", "identity"),
            translation_source=translation_raw.get("source", "ja"),
            translation_target=translation_raw.get("target", "en"),
            translation_parallelism=int(translation_raw.get("parallelism", 4)),
            translation_batch_size=int(translation_raw.get("batch_size", 50)),
            classify_parallelism=int(raw.get("classify_parallelism", 4)),
            output_dir=raw.get("output_dir", "out"),
            cache_dir=raw.get("cache_dir", ".wsi-cache"),
            seed=int(raw.get("seed", 0)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def expand_survey_paths(paths: Sequence[str]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(p.glob("*.csv")))
        else:
            out.append(p)
    return out


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def compute_run_id(config: RunConfig) -> str:
    surveys = expand_survey_paths(config.survey_paths)
    if not surveys:
        raise LoadError("no survey files found")
    for p in [*surveys, Path(config.wage_path)]:
        if not p.is_file():
            raise LoadError(f"input file not found: {p}")
    digests = sorted(_file_digest(p) for p in surveys)
    digests.append(_file_digest(Path(config.wage_path)))
    payload = json.dumps({"config": config.identity_dict(), "inputs": digests},
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_dir(config: RunConfig) -> Path:
    return Path(config.output_dir) / compute_run_id(config)


def _write_failed_marker(out: Path, stage: str, cause: str) -> None:
    try:
        atomic_write(out / "FAILED", f"stage: {stage}\ncause: {cause}\n")
    except OSError:
        pass


@contextmanager
def _stage(out: Path, name: str):
    """Convert any stage exception into StageError and leave a FAILED marker."""
    try:
        yield
    except StageError as exc:
        _write_failed_marker(out, exc.stage, exc.cause)
        raise
    except BaseException as exc:
        _write_failed_marker(out, name, str(exc))
        raise StageError(name, str(exc)) from exc


def _write_json(path: Path, data) -> None:
    atomic_write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _translator(config: RunConfig):
    spec = config.translation_backend
    if spec == "identity":
        return IdentityTranslator()
    if spec.startswith(("http://", "https://", "cmd:")):
        return RemoteTranslator(spec)
    raise ConfigError(f"unknown translation backend: {spec}")


@dataclass
class IngestResult:
    records: list[SurveyRecord]
    wages: WageSeries
    row_errors: int
    skipped_empty: int
    translation_failed: int
    translation_calls: int


ClassifiedMap = dict[MonthKey, list[ClassifiedComment]]
IndexByKind = dict[str, dict[MonthKey, float]]  # index kind -> value by month


class StagedRun:
    """One run directory and its staged artifacts, each loaded at most once.

    A stage asks for what it needs (the records and wages ingest wrote, the
    records grouped by month, one backend's classified comments, the index
    series). Each comes from memory when a stage sharing this object has
    produced or loaded it, and is otherwise read from ``out/<run-id>/`` on
    first use; a missing file fails the stage that asked for it. ``run``
    passes one instance through every stage, and ``stage_report`` hands its
    own to the ``stage_index`` and ``stage_granger`` it calls. Every stage
    enters through ``for_stage``, the one place where data a caller passes
    in memory (``ingest=``, ``classified=``, ``series=``, ``wages=``) is
    taken in.
    """

    def __init__(self, config: RunConfig, run_id: str):
        self.config = config
        self.run_id = run_id
        self.out = Path(config.output_dir) / run_id
        self.records: list[SurveyRecord] | None = None
        self.wages: WageSeries | None = None
        self.grouped: dict[MonthKey, list[SurveyRecord]] | None = None
        self.classified: dict[str, ClassifiedMap] = {}
        self.series: dict[str, SeriesResult] | None = None

    @classmethod
    def for_stage(cls, config: RunConfig, stage: str, staged: StagedRun | None,
                  *, ingest: IngestResult | None = None,
                  classified: dict[str, ClassifiedMap] | None = None,
                  series: dict[str, SeriesResult] | None = None,
                  wages: WageSeries | None = None) -> StagedRun:
        """``staged``, else the run directory ``config`` names (unreadable
        inputs fail ``stage``), holding what the caller passed in memory;
        a passed value replaces whatever ``staged`` held or would load."""
        if staged is None:
            try:
                staged = cls(config, compute_run_id(config))
            except (LoadError, OSError) as exc:
                raise StageError(stage, str(exc)) from exc
        if ingest is not None:
            staged.keep_ingest(ingest)
        if wages is not None:
            staged.wages = wages
        if classified is not None:
            staged.classified.update(classified)
        if series is not None:
            staged.series = series
        return staged

    def keep_ingest(self, ingest: IngestResult) -> None:
        """Use the records and wages of an ingest held in memory."""
        self.records, self.wages, self.grouped = ingest.records, ingest.wages, None

    def _ingest_file(self, name: str, stage: str) -> Path:
        path = self.out / "stages" / name
        if not path.exists():
            raise StageError(stage, "ingest artifacts missing; run `wsi ingest` first")
        return path

    def get_wages(self, stage: str) -> WageSeries:
        if self.wages is None:
            self.wages = load_wages(self._ingest_file("wages.csv", stage))
        return self.wages

    def get_grouped(self, stage: str) -> dict[MonthKey, list[SurveyRecord]]:
        """The ingested records by month, ascending."""
        if self.grouped is None:
            if self.records is None:
                self.records = load_surveys([self._ingest_file("records.csv", stage)]).records
            self.grouped = group_by_month(self.records)
        return self.grouped

    def get_classified(self, backend_id: str, stage: str) -> ClassifiedMap:
        if backend_id not in self.classified:
            path = self.out / "stages" / "classified" / f"{backend_id}.csv"
            if not path.exists():
                raise StageError(stage, f"no classified comments for {backend_id};"
                                        " run `wsi classify` first")
            self.classified[backend_id] = _read_classified_csv(
                path, self.get_grouped(stage), backend_id)
        return self.classified[backend_id]

    def get_index(self, stage: str) -> dict[str, IndexByKind]:
        """Each indexed backend's series by kind; a recorded index failure is left out."""
        if self.series is not None:
            return _by_kind(self.series)
        index_json = self.out / "stages" / "index.json"
        index_failures = (_read_json(index_json).get("failures", {})
                          if index_json.exists() else {})
        index: dict[str, IndexByKind] = {}
        for backend in self.config.backends:
            path = self.out / "series" / f"{backend.backend_id}.csv"
            if not path.exists():
                if backend.backend_id in index_failures:
                    continue  # recorded index failure, nothing to sweep
                raise StageError(stage, f"no series for {backend.backend_id};"
                                        " run `wsi index` first")
            index[backend.backend_id] = _read_series_csv(path)
        return index


def stage_ingest(config: RunConfig, *, staged: StagedRun | None = None) -> IngestResult:
    """Load surveys and wages, translate comments, persist normalized inputs."""
    staged = StagedRun.for_stage(config, "ingest", staged)
    out = staged.out
    with _stage(out, "ingest"):
        surveys = expand_survey_paths(config.survey_paths)
        if not surveys:
            raise LoadError("no survey files found")
        load = load_surveys(surveys)
        if not load.records:
            raise LoadError("no valid survey records")
        wages = load_wages(config.wage_path)
        for error in load.errors[:20]:
            log.warning("rejected row %s:%d: %s", error.path, error.line, error.reason)

        translator = _translator(config)
        cache = None
        if not isinstance(translator, IdentityTranslator):
            cache = TranslationCache(Path(config.cache_dir) / "translate")
        try:
            report = translate_all(
                load.records, translator,
                parallelism=config.translation_parallelism,
                cache=cache,
                source=config.translation_source,
                target=config.translation_target,
                batch_size=config.translation_batch_size,
            )
        finally:
            if isinstance(translator, RemoteTranslator):
                translator.close()
        records = report.records
        write_survey(records, out / "stages" / "records.csv")
        write_wages(wages.levels, out / "stages" / "wages.csv")
        summary = summarize_corpus(records)
        atomic_write(out / "summary" / "judgment.csv", summary.judgment_csv())
        atomic_write(out / "summary" / "region.csv", summary.region_csv())
        atomic_write(out / "summary" / "month.csv", summary.month_csv())
        _write_json(out / "stages" / "ingest.json", {
            "records": len(records),
            "row_errors": len(load.errors),
            "skipped_empty": load.skipped_empty,
            "translation_failed": len(report.failed_indices),
        })
        result = IngestResult(
            records=records,
            wages=wages,
            row_errors=len(load.errors),
            skipped_empty=load.skipped_empty,
            translation_failed=len(report.failed_indices),
            translation_calls=report.backend_calls,
        )
        staged.keep_ingest(result)
        return result


def _build_classifier(backend: BackendConfig, cache_dir: Path):
    if backend.kind == "keyword":
        if backend.rules is not None:
            return KeywordClassifier(backend.rules, backend_id=backend.backend_id)
        return default_keyword_classifier(backend_id=backend.backend_id)
    if backend.kind in ("http", "subprocess"):
        remote = RemoteClassifier(backend.to_spec(), backend_id=backend.backend_id)
        cache = ClassificationCache(cache_dir / "classify")
        return CachedRemoteClassifier(remote, cache)
    raise ConfigError(f"no classifier for kind {backend.kind}")


def _classify_backend(backend: BackendConfig, grouped: Mapping[MonthKey, list[SurveyRecord]],
                      wages: WageSeries, config: RunConfig) -> tuple[ClassifiedMap, int, dict]:
    """Classify every month for one backend; returns (by month, wire calls, extras)."""
    extras: dict = {}
    if backend.kind == "lexicon":
        # Called on the module, where the benchmark's tracer wraps it.
        counts = lexicon.monthly_term_counts(grouped)
        lexicons = rolling_lexicons(grouped, wages, sorted(grouped), config.lexicon,
                                    term_counts=counts)
        classified: ClassifiedMap = {}
        # Month-level word-count aggregate logged alongside the per-comment
        # classification for comparison; both use the same occurrence counts.
        wordcount_rows = ["as_of,positive_occurrences,negative_occurrences,wordcount_index"]
        for month in sorted(lexicons):
            records = grouped[month]
            occurrences = {text: occurrence_counts(counts.tokens[text], lexicons[month])
                           for text in {r.text for r in records}}
            adapter = LexiconBackend(occurrences, config.lexicon.smoothing,
                                     backend_id=backend.backend_id)
            classified[month] = classify_month(records, adapter)
            p_total = sum(occurrences[r.text][0] for r in records)
            n_total = sum(occurrences[r.text][1] for r in records)
            ratio = ((p_total - n_total) / (p_total + n_total) * 100.0
                     if p_total + n_total else 0.0)
            wordcount_rows.append(f"{month},{p_total},{n_total},{ratio!r}")
        extras["lexicon_audit"] = audit_rows(lexicons)
        extras["lexicon_wordcounts"] = wordcount_rows
        return classified, 0, extras

    classifier = _build_classifier(backend, Path(config.cache_dir))
    months = sorted(grouped)
    try:
        if config.classify_parallelism > 1 and len(months) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=config.classify_parallelism) as pool:
                results = list(pool.map(lambda m: classify_month(grouped[m], classifier),
                                        months))
        else:
            results = [classify_month(grouped[month], classifier) for month in months]
    finally:
        if isinstance(classifier, CachedRemoteClassifier):
            classifier.inner.transport.close()
    classified = dict(zip(months, results))
    # Local classifiers never touch the wire; remote ones accumulate a total.
    return classified, getattr(classifier, "wire_calls_total", 0), extras


CLASSIFIED_HEADER = "yyyymm,ordinal,u,v,w,label,failed"


def _classified_csv(classified: ClassifiedMap) -> str:
    rows = [CLASSIFIED_HEADER]
    for month in sorted(classified):
        for i, c in enumerate(classified[month]):
            rows.append(
                f"{month},{i},{c.probs.u!r},{c.probs.v!r},{c.probs.w!r},"
                f"{c.hard_label},{int(c.failed)}"
            )
    return "\n".join(rows) + "\n"


def _read_classified_csv(path: Path, grouped: Mapping[MonthKey, list[SurveyRecord]],
                         backend_id: str) -> ClassifiedMap:
    classified: ClassifiedMap = {}
    # yyyymm text -> (that month's records, its classified comments)
    months: dict[str, tuple[list[SurveyRecord], list[ClassifiedComment]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CLASSIFIED_HEADER.split(","):
            raise ValueError(f"{path}: header is not {CLASSIFIED_HEADER}")
        for raw_month, ordinal, u, v, w, label, failed in reader:
            month_of = months.get(raw_month)
            if month_of is None:
                month = MonthKey.parse(raw_month)
                month_of = months[raw_month] = (grouped[month], classified.setdefault(month, []))
            records, comments = month_of
            comments.append(
                ClassifiedComment(
                    record=records[int(ordinal)],
                    probs=ClassProbabilities(float(u), float(v), float(w)),
                    backend_id=backend_id,
                    hard_label=label,
                    failed=bool(int(failed)),
                )
            )
    return classified


def _read_series_csv(path: Path) -> IndexByKind:
    index: IndexByKind = {kind: {} for kind in INDEX_KINDS}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            month = MonthKey.parse(row["yyyymm"])
            for kind in INDEX_KINDS:
                index[kind][month] = float(row[f"wsi_{kind}"])
    return index


def _by_kind(series: Mapping[str, SeriesResult]) -> dict[str, IndexByKind]:
    return {backend_id: {"standard": result.standard_by_month(),
                         "weighted": result.weighted_by_month()}
            for backend_id, result in series.items()}


def stage_classify(config: RunConfig, ingest: IngestResult | None = None,
                   only_backend: str | None = None, *, staged: StagedRun | None = None
                   ) -> tuple[dict[str, ClassifiedMap], dict[str, int]]:
    """Classify all months for every configured backend (or one of them).

    Returns the classified comments per backend plus the wire-call counts.
    Wire calls are reported in memory only; the persisted artifacts stay
    byte-identical between cold-cache and warm-cache runs.
    """
    staged = StagedRun.for_stage(config, "classify", staged, ingest=ingest)
    out = staged.out
    with _stage(out, "classify"):
        grouped = staged.get_grouped("classify")
        wages = staged.get_wages("classify")
        stats: dict = {}
        if (out / "stages" / "classify.json").exists():
            stats = _read_json(out / "stages" / "classify.json")
        results: dict[str, ClassifiedMap] = {}
        wire_stats: dict[str, int] = {}
        for backend in config.backends:
            if only_backend is not None and backend.backend_id != only_backend:
                continue
            classified, wire_calls, extras = _classify_backend(backend, grouped, wages, config)
            results[backend.backend_id] = staged.classified[backend.backend_id] = classified
            wire_stats[backend.backend_id] = wire_calls
            failed = sum(c.failed for month in classified.values() for c in month)
            excluded = sum(c.excluded for month in classified.values() for c in month)
            stats[backend.backend_id] = {
                "kind": backend.kind,
                "months": len(classified),
                "comments": sum(len(v) for v in classified.values()),
                "failed_comments": failed,
                "excluded_comments": excluded,
            }
            atomic_write(out / "stages" / "classified" / f"{backend.backend_id}.csv",
                         _classified_csv(classified))
            if "lexicon_audit" in extras:
                atomic_write(out / "stages" / "lexicon_audit.csv",
                             "\n".join(extras["lexicon_audit"]) + "\n")
                atomic_write(out / "stages" / "lexicon_wordcounts.csv",
                             "\n".join(extras["lexicon_wordcounts"]) + "\n")
            log.info("classified %s: %d months, %d failures",
                     backend.backend_id, len(classified), failed)
        _write_json(out / "stages" / "classify.json", stats)
        return results, wire_stats


def stage_index(config: RunConfig, classified: dict[str, ClassifiedMap] | None = None,
                *, staged: StagedRun | None = None) -> dict[str, SeriesResult]:
    """Build per-backend index series and export the series CSVs.

    A backend that classified nothing (for example a lexicon baseline on a
    corpus too short for any selection window) is recorded as a failure
    rather than aborting the other backends.
    """
    staged = StagedRun.for_stage(config, "index", staged, classified=classified)
    out = staged.out
    with _stage(out, "index"):
        backend_ids = (list(classified) if classified is not None
                       else [backend.backend_id for backend in config.backends])
        classified = {b: staged.get_classified(b, "index") for b in backend_ids}
        series: dict[str, SeriesResult] = {}
        stats: dict[str, dict] = {}
        failures: dict[str, str] = {}
        for backend_id, by_month in classified.items():
            if not by_month:
                failures[backend_id] = "no classifiable months"
                log.warning("%s: nothing to index", backend_id)
                continue
            result = build_series(by_month, config.normalization_mode)
            if not result.points:
                failures[backend_id] = "every month had only excluded comments"
                log.warning("%s: every month empty after exclusions", backend_id)
                continue
            series[backend_id] = result
            atomic_write(out / "series" / f"{backend_id}.csv",
                         "\n".join(series_csv_rows(result.points)) + "\n")
            stats[backend_id] = {
                "points": len(result.points),
                "skipped_months": [str(m) for m in result.skipped_months],
            }
            if result.skipped_months:
                log.warning("%s: %d months had no classifiable comments",
                            backend_id, len(result.skipped_months))
        _write_json(out / "stages" / "index.json",
                    {"series": stats, "failures": failures})
        staged.series = series
        return series


SweepMap = dict[tuple[str, str], list[GrangerResult]]


def stage_granger(config: RunConfig, series: dict[str, SeriesResult] | None = None,
                  wages: WageSeries | None = None, max_lag: int | None = None,
                  *, staged: StagedRun | None = None) -> tuple[SweepMap, dict[str, str]]:
    """Granger sweeps for every backend and index kind against wage growth."""
    staged = StagedRun.for_stage(config, "granger", staged, series=series, wages=wages)
    out = staged.out
    with _stage(out, "granger"):
        yoy_map = staged.get_wages("granger").yoy_map
        if max_lag is None:
            max_lag = config.max_lag
        per_backend = staged.get_index("granger")
        sweeps: SweepMap = {}
        failures: dict[str, str] = {}
        stats = {}
        for backend_id, kinds in per_backend.items():
            for kind in INDEX_KINDS:
                try:
                    pair = AlignedPair.from_series(kinds[kind], yoy_map)
                    results = granger_sweep(pair, max_lag)
                    if not results:
                        raise ValueError("no feasible lag")
                except (ValueError, ArithmeticError) as exc:
                    failures[f"{backend_id}_{kind}"] = str(exc)
                    log.warning("granger %s/%s failed: %s", backend_id, kind, exc)
                    continue
                sweeps[(backend_id, kind)] = results
                atomic_write(out / "granger" / f"{backend_id}_{kind}.csv",
                             "\n".join(granger_csv_rows(backend_id, kind, results)) + "\n")
                stats[f"{backend_id}_{kind}"] = {
                    "lags": len(results),
                    "span": [str(pair.months[0]), str(pair.months[-1])],
                }
        _write_json(out / "stages" / "granger.json",
                    {"sweeps": stats, "failures": failures})
        return sweeps, failures


def stage_report(config: RunConfig, ingest: IngestResult | None = None,
                 series: dict[str, SeriesResult] | None = None,
                 sweeps: SweepMap | None = None,
                 failures: dict[str, str] | None = None,
                 *, staged: StagedRun | None = None) -> ReportBundle:
    """Render charts and comparison tables, then write the manifest."""
    staged = StagedRun.for_stage(config, "report", staged, ingest=ingest, series=series)
    out = staged.out
    with _stage(out, "report"):
        grouped = staged.get_grouped("report")
        wages = staged.get_wages("report")
        yoy_map = wages.yoy_map
        series = staged.series
        if series is None:
            series = stage_index(config, staged=staged)
        if sweeps is None or failures is None:
            sweeps, failures = stage_granger(config, staged=staged)

        chart_failures: dict[str, str] = dict(failures)
        index_json = out / "stages" / "index.json"
        if index_json.exists():
            chart_failures.update(_read_json(index_json).get("failures", {}))
        for backend_id, result in series.items():
            try:
                svg = render_series_chart(result.points, yoy_map,
                                          title=f"{backend_id}: sentiment vs wage growth")
            except ChartError as exc:
                chart_failures[f"{backend_id}_chart"] = str(exc)
                continue
            atomic_write(out / "charts" / f"{backend_id}.svg", svg)

        for fmt, suffix in (("markdown", "md"), ("latex", "tex")):
            sections = []
            for kind in INDEX_KINDS:
                by_backend = {b: r for (b, k), r in sweeps.items() if k == kind}
                if not by_backend:
                    continue
                title = f"Granger causality on the {kind} sentiment index"
                sections.append(render_granger_grid(by_backend, title, fmt))
            atomic_write(out / "tables" / f"granger.{suffix}", "\n".join(sections))

        ingest_stats = _read_json(out / "stages" / "ingest.json") \
            if (out / "stages" / "ingest.json").exists() else {}
        classify_stats = _read_json(out / "stages" / "classify.json") \
            if (out / "stages" / "classify.json").exists() else {}
        index_stats = _read_json(out / "stages" / "index.json") \
            if (out / "stages" / "index.json").exists() else {}
        granger_stats = _read_json(out / "stages" / "granger.json") \
            if (out / "stages" / "granger.json").exists() else {}

        record_months = list(grouped)  # ascending
        metadata = {
            "run_id": staged.run_id,
            "code_version": __version__,
            "config": config.identity_dict(),
            "config_digest": hashlib.sha256(
                json.dumps(config.identity_dict(), sort_keys=True).encode()).hexdigest(),
            "spans": {
                "records": [str(record_months[0]), str(record_months[-1])],
                "wages": [str(wages.months[0]), str(wages.months[-1])],
                "yoy": [str(min(yoy_map)), str(max(yoy_map))] if yoy_map else [],
            },
            "backends": [b.backend_id for b in config.backends],
        }
        manifest = dict(metadata)
        manifest.update({
            "ingest": ingest_stats,
            "classify": classify_stats,
            "index": index_stats,
            "granger": granger_stats,
            "failures": chart_failures,
        })
        _write_json(out / "manifest.json", manifest)

        bundle = ReportBundle(
            run_id=staged.run_id,
            metadata=metadata,
            series={b: r.points for b, r in series.items()},
            sweeps={key: results for key, results in sweeps.items()},
            failures={k: {"reason": v} for k, v in chart_failures.items()},
        )
        return bundle


@dataclass
class RunResult:
    bundle: ReportBundle
    out_dir: Path
    stats: dict = field(default_factory=dict)


def run(config: RunConfig) -> RunResult:
    """Execute every stage; artifacts land under out/<run-id>/."""
    staged = StagedRun(config, compute_run_id(config))
    out = staged.out
    out.mkdir(parents=True, exist_ok=True)
    failed_marker = out / "FAILED"
    if failed_marker.exists():
        failed_marker.unlink()
    ingest = stage_ingest(config, staged=staged)
    _, wire_stats = stage_classify(config, staged=staged)
    stage_index(config, staged=staged)
    sweeps, failures = stage_granger(config, staged=staged)
    bundle = stage_report(config, sweeps=sweeps, failures=failures, staged=staged)
    stats = {
        "translation_calls": ingest.translation_calls,
        "translation_failed": ingest.translation_failed,
        "wire_calls": wire_stats,
        "classify": _read_json(out / "stages" / "classify.json"),
    }
    return RunResult(bundle=bundle, out_dir=out, stats=stats)
