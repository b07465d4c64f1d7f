"""Pipeline orchestration: configuration, result caching, stage sequencing.

Stages run ingest -> translate -> classify -> index -> granger -> report.
Each stage persists its artifacts under ``out/<run-id>/`` so stages can also
be re-run individually from the CLI. Every ``stage_*`` takes the config and
an optional ``StagedRun``, the one hand-over between stages: results a stage
produced stay on it for the next, and a stage called without one reads what
it needs back from ``out/<run-id>/``. The run id is a digest of the semantic
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
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter
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
    classify_records,
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

    One cache pass over the comments, then the misses go to the inner
    client in its fixed batches, ``parallelism`` batches at a time; the
    caller passes distinct texts. Failures are never cached. Each answer is
    stored under the endpoint and the model that gave it, and a read tries
    the primary model's entry before the fallback model's.
    """

    def __init__(self, inner: RemoteClassifier, cache: ClassificationCache,
                 prompt_version: str = PROMPT_VERSION, parallelism: int = 1):
        self.inner = inner
        self.cache = cache
        self.prompt_version = prompt_version
        self.parallelism = parallelism
        self.backend_id = inner.backend_id

    def classify_batch(self, comments: Sequence[str]) -> BatchResult:
        spec = self.inner.spec
        probs: list[ClassProbabilities | None] = [
            self.cache.get(c, spec.endpoint, spec.model_id, self.prompt_version,
                           spec.fallback_model_id)
            for c in comments
        ]
        misses = [i for i, p in enumerate(probs) if p is None]
        failed = [False] * len(comments)
        result = self.inner.classify_batch([comments[i] for i in misses], self.parallelism)
        for i, p, was_failed, model in zip(misses, result.probs, result.failed, result.models):
            probs[i], failed[i] = p, was_failed
            if not was_failed:
                self.cache.put(comments[i], spec.endpoint, model, p, self.prompt_version)
        return BatchResult(probs=probs, failed=failed, wire_calls=result.wire_calls)


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
        try:
            self.to_spec()  # batch_size, max_retries and timeout
        except ValueError as exc:
            raise ConfigError(f"backend {self.backend_id}: {exc}") from exc

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
        if "id" not in raw:
            raise ConfigError(f"backend entry has no \"id\": {dict(raw)}")
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
        for knob in ("classify_parallelism", "translation_parallelism",
                     "translation_batch_size"):
            if getattr(self, knob) < 1:
                raise ConfigError(f"{knob} must be >= 1")
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
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)


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


def _read_stage_stats(out: Path, stage: str) -> dict:
    """``stages/<stage>.json``, empty when that stage has not run."""
    path = out / "stages" / f"{stage}.json"
    return _read_json(path) if path.exists() else {}


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
    row_errors: int
    skipped_empty: int
    translation_failed: int
    translation_calls: int


ClassifiedMap = dict[MonthKey, list[ClassifiedComment]]
IndexByKind = dict[str, dict[MonthKey, float]]  # index kind -> value by month
SweepMap = dict[tuple[str, str], list[GrangerResult]]


class StagedRun:
    """One run directory and the results its stages hand to each other.

    This is the only way results travel from one stage to the next. Each
    stage records what it produced here (ingest the records by month and
    the wages, classify each backend's comments, index the series and
    ``stages/index.json``, granger the sweeps and their failures). A later
    stage gets what it needs from memory when a stage sharing this object
    produced or loaded it, else from ``out/<run-id>/`` on first use; a
    missing file fails the stage that asked. Of the later stages, only
    classify reads ``stages/records.csv``. ``run`` passes one instance
    through every stage; ``stage_report`` runs index or granger on its own
    instance only when it lacks their results.
    """

    def __init__(self, config: RunConfig, run_id: str):
        self.config = config
        self.run_id = run_id
        self.out = Path(config.output_dir) / run_id
        self.wages: WageSeries | None = None
        self.grouped: dict[MonthKey, list[SurveyRecord]] | None = None
        self.classified: dict[str, ClassifiedMap] = {}
        self.series: dict[str, SeriesResult] | None = None
        self.index_stats: dict | None = None
        self.sweeps: SweepMap | None = None
        self.granger_failures: dict[str, str] | None = None

    @classmethod
    def for_stage(cls, config: RunConfig, stage: str, staged: StagedRun | None) -> StagedRun:
        """``staged``, else one opened for the run directory ``config``
        names; inputs the run id cannot be computed from fail ``stage``."""
        if staged is not None:
            return staged
        try:
            return cls(config, compute_run_id(config))
        except (LoadError, OSError) as exc:
            raise StageError(stage, str(exc)) from exc

    def _ingest_file(self, name: str, stage: str) -> Path:
        path = self.out / name
        if not path.exists():
            raise StageError(stage, "ingest artifacts missing; run `wsi ingest` first")
        return path

    def get_wages(self, stage: str) -> WageSeries:
        if self.wages is None:
            self.wages = load_wages(self._ingest_file("stages/wages.csv", stage))
        return self.wages

    def get_grouped(self, stage: str) -> dict[MonthKey, list[SurveyRecord]]:
        """The ingested records by month, ascending."""
        if self.grouped is None:
            self.grouped = group_by_month(
                load_surveys([self._ingest_file("stages/records.csv", stage)]).records)
        return self.grouped

    def get_classified(self, backend_id: str, stage: str) -> ClassifiedMap:
        if backend_id not in self.classified:
            path = self.out / "stages" / "classified" / f"{backend_id}.csv"
            if not path.exists():
                raise StageError(stage, f"no classified comments for {backend_id};"
                                        " run `wsi classify` first")
            self.classified[backend_id] = _read_classified_csv(path, backend_id)
        return self.classified[backend_id]

    def get_index_stats(self) -> dict:
        """``stages/index.json``, empty before the index stage has run."""
        if self.index_stats is None:
            self.index_stats = _read_stage_stats(self.out, "index")
        return self.index_stats

    def get_index(self, stage: str) -> dict[str, IndexByKind]:
        """Each indexed backend's series by kind; a recorded index failure is left out."""
        if self.series is not None:
            return _by_kind(self.series)
        index_failures = self.get_index_stats().get("failures", {})
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
        staged.wages, staged.grouped = wages, group_by_month(records)
        return IngestResult(
            records=records,
            row_errors=len(load.errors),
            skipped_empty=load.skipped_empty,
            translation_failed=len(report.failed_indices),
            translation_calls=report.backend_calls,
        )


def _build_classifier(backend: BackendConfig, config: RunConfig):
    if backend.kind == "keyword":
        if backend.rules is not None:
            return KeywordClassifier(backend.rules, backend_id=backend.backend_id)
        return default_keyword_classifier(backend_id=backend.backend_id)
    if backend.kind in ("http", "subprocess"):
        remote = RemoteClassifier(backend.to_spec(), backend_id=backend.backend_id)
        cache = ClassificationCache(Path(config.cache_dir) / "classify")
        return CachedRemoteClassifier(remote, cache, parallelism=config.classify_parallelism)
    raise ConfigError(f"no classifier for kind {backend.kind}")


def _classify_backend(backend: BackendConfig, grouped: Mapping[MonthKey, list[SurveyRecord]],
                      wages: WageSeries, config: RunConfig) -> tuple[ClassifiedMap, int, dict]:
    """Classify every month for one backend; returns (by month, wire calls, extras).

    A lexicon backend classifies month by month, under each month's lexicon;
    any other classifies the whole corpus through ``classify_records``, each
    distinct text once in one fixed batch order (month, then ordinal).
    """
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

    classifier = _build_classifier(backend, config)
    months = sorted(grouped)
    try:
        comments, wire_calls = classify_records(
            [r for month in months for r in grouped[month]], classifier)
    finally:
        if isinstance(classifier, CachedRemoteClassifier):
            classifier.inner.transport.close()
    answers = iter(comments)
    return ({month: list(islice(answers, len(grouped[month]))) for month in months},
            wire_calls, extras)


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


def _read_classified_csv(path: Path, backend_id: str) -> ClassifiedMap:
    """The comments ``_classified_csv`` wrote, by month; a row whose ordinal
    is not its position within its month raises ValueError."""
    classified: ClassifiedMap = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CLASSIFIED_HEADER.split(","):
            raise ValueError(f"{path}: header is not {CLASSIFIED_HEADER}")
        for raw_month, rows in groupby(reader, itemgetter(0)):
            comments = classified.setdefault(MonthKey.parse(raw_month), [])
            for _, ordinal, u, v, w, label, failed in rows:
                if int(ordinal) != len(comments):
                    raise ValueError(f"{path}:{reader.line_num}: ordinal {ordinal} out of order")
                comments.append(ClassifiedComment(
                    ClassProbabilities(float(u), float(v), float(w)),
                    backend_id, label, bool(int(failed))))
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


def stage_classify(config: RunConfig, only_backend: str | None = None, *,
                   staged: StagedRun | None = None
                   ) -> tuple[dict[str, ClassifiedMap], dict[str, int]]:
    """Classify all months for every configured backend (or one of them).

    Returns the classified comments per backend plus the wire-call counts.
    Wire calls are reported in memory only; the persisted artifacts stay
    byte-identical between cold-cache and warm-cache runs.
    """
    staged = StagedRun.for_stage(config, "classify", staged)
    out = staged.out
    with _stage(out, "classify"):
        grouped = staged.get_grouped("classify")
        wages = staged.get_wages("classify")
        stats = _read_stage_stats(out, "classify")
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


def stage_index(config: RunConfig, *, staged: StagedRun | None = None
                ) -> dict[str, SeriesResult]:
    """Build per-backend index series and export the series CSVs.

    A backend that classified nothing (for example a lexicon baseline on a
    corpus too short for any selection window) is recorded as a failure
    rather than aborting the other backends.
    """
    staged = StagedRun.for_stage(config, "index", staged)
    out = staged.out
    with _stage(out, "index"):
        classified = {b.backend_id: staged.get_classified(b.backend_id, "index")
                      for b in config.backends}
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
        staged.index_stats = {"series": stats, "failures": failures}
        _write_json(out / "stages" / "index.json", staged.index_stats)
        staged.series = series
        return series


def stage_granger(config: RunConfig, *, staged: StagedRun | None = None
                  ) -> tuple[SweepMap, dict[str, str]]:
    """Granger sweeps for every backend and index kind against wage growth."""
    staged = StagedRun.for_stage(config, "granger", staged)
    out = staged.out
    with _stage(out, "granger"):
        yoy_map = staged.get_wages("granger").yoy_map
        per_backend = staged.get_index("granger")
        sweeps: SweepMap = {}
        failures: dict[str, str] = {}
        stats = {}
        for backend_id, kinds in per_backend.items():
            for kind in INDEX_KINDS:
                try:
                    pair = AlignedPair.from_series(kinds[kind], yoy_map)
                    results = granger_sweep(pair, config.max_lag)
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
        staged.sweeps, staged.granger_failures = sweeps, failures
        return sweeps, failures


def stage_report(config: RunConfig, *, staged: StagedRun | None = None) -> ReportBundle:
    """Render charts and comparison tables, then write the manifest.

    Index and granger run first when ``staged`` lacks their results.
    """
    staged = StagedRun.for_stage(config, "report", staged)
    out = staged.out
    with _stage(out, "report"):
        with open(staged._ingest_file("summary/month.csv", "report"), encoding="utf-8") as fh:
            record_months = [line.partition(",")[0] for line in fh.read().splitlines()[1:]]
        wages = staged.get_wages("report")
        yoy_map = wages.yoy_map
        if staged.series is None:
            stage_index(config, staged=staged)
        if staged.sweeps is None:
            stage_granger(config, staged=staged)
        series, sweeps = staged.series, staged.sweeps

        index_stats = staged.get_index_stats()
        chart_failures: dict[str, str] = dict(staged.granger_failures)
        chart_failures.update(index_stats.get("failures", {}))
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

        metadata = {
            "run_id": staged.run_id,
            "code_version": __version__,
            "config": config.identity_dict(),
            "config_digest": hashlib.sha256(
                json.dumps(config.identity_dict(), sort_keys=True).encode()).hexdigest(),
            "spans": {
                "records": [record_months[0], record_months[-1]],  # ascending
                "wages": [str(wages.months[0]), str(wages.months[-1])],
                "yoy": [str(min(yoy_map)), str(max(yoy_map))] if yoy_map else [],
            },
            "backends": [b.backend_id for b in config.backends],
        }
        manifest = dict(metadata)
        manifest.update({
            "ingest": _read_stage_stats(out, "ingest"),
            "classify": _read_stage_stats(out, "classify"),
            "index": index_stats,
            "granger": _read_stage_stats(out, "granger"),
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
    staged = StagedRun.for_stage(config, "ingest", None)
    out = staged.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "FAILED").unlink(missing_ok=True)
    ingest = stage_ingest(config, staged=staged)
    _, wire_stats = stage_classify(config, staged=staged)
    stage_index(config, staged=staged)
    stage_granger(config, staged=staged)
    bundle = stage_report(config, staged=staged)
    stats = {
        "translation_calls": ingest.translation_calls,
        "translation_failed": ingest.translation_failed,
        "wire_calls": wire_stats,
        "classify": _read_json(out / "stages" / "classify.json"),
    }
    return RunResult(bundle=bundle, out_dir=out, stats=stats)
