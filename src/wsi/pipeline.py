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
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .classify import (
    BatchResult,
    ClassProbabilities,
    ClassifiedComment,
    KeywordClassifier,
    RemoteClassifier,
    PROMPT_VERSION,
    classify_texts,
    default_keyword_classifier,
)
from .corpus import (
    Corpus,
    LoadError,
    MonthKey,
    WageSeries,
    load_surveys,
    load_wages,
    write_survey,
    write_wages,
)
from .econometrics import AlignedPair, GrangerResult, granger_sweep
from .index import (
    IndexPoint,
    MonthlyCounts,
    Normalization,
    SeriesResult,
    build_series,
    series_csv_rows,
)
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
# One day; the transports fail on timeouts past about 2.1e6 s (the selector's limit).
MAX_TIMEOUT = 86400.0


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

    The endpoint enters the key as ``wire.endpoint_identity`` spells it, the
    prompt version as ``PROMPT_VERSION``.
    """

    def get(self, comment: str, endpoint: str, model_id: str,
            fallback_model_id: str | None = None) -> ClassProbabilities | None:
        """The entry under ``model_id``, else the one under ``fallback_model_id``."""
        endpoint = endpoint_identity(endpoint)
        for model in (model_id, fallback_model_id):
            if model is not None:
                probs = self.read((comment, endpoint, model, PROMPT_VERSION),
                                  lambda e: ClassProbabilities(e["u"], e["v"], e["w"]))
                if probs is not None:
                    return probs
        return None

    def put(self, comment: str, endpoint: str, model_id: str, probs: ClassProbabilities) -> None:
        self.write((comment, endpoint_identity(endpoint), model_id, PROMPT_VERSION),
                   json.dumps({"u": probs.u, "v": probs.v, "w": probs.w}, sort_keys=True))


class CachedRemoteClassifier:
    """Remote classifier that consults the cache before the wire.

    One cache pass over the comments, then the misses go to the inner
    client in its fixed batches, ``parallelism`` batches at a time; the
    caller passes distinct texts. Failures are never cached. Each answer is
    stored under the inner client's endpoint and the model that gave it,
    and a read tries the primary model's entry before the fallback model's.
    """

    def __init__(self, inner: RemoteClassifier, cache: ClassificationCache,
                 parallelism: int = 1):
        self.inner = inner
        self.cache = cache
        self.parallelism = parallelism
        self.backend_id = inner.backend_id

    def classify_batch(self, comments: Sequence[str]) -> BatchResult:
        endpoint = self.inner.backend.endpoint
        probs: list[ClassProbabilities | None] = [
            self.cache.get(c, endpoint, *self.inner.models) for c in comments]
        misses = [i for i, p in enumerate(probs) if p is None]
        failed = [False] * len(comments)
        result = self.inner.classify_batch([comments[i] for i in misses], self.parallelism)
        for i, p, was_failed, model in zip(misses, result.probs, result.failed, result.models):
            probs[i], failed[i] = p, was_failed
            if not was_failed:
                self.cache.put(comments[i], endpoint, model, p)
        return BatchResult(probs=probs, failed=failed, wire_calls=result.wire_calls)


@dataclass(frozen=True)
class BackendConfig:
    """One configured classifier backend.

    ``kind`` is one of "keyword" (deterministic mock), "lexicon" (the
    rolling correlation baseline), "http", or "subprocess" (remote wire
    protocol backends). A remote kind's entry is all its ``RemoteClassifier``
    reads: the endpoint, the model (``backend_id`` when ``model_id`` is
    unset), the fallback model, and the batch size, retry bound and
    timeout (seconds, at most ``MAX_TIMEOUT``), whose ranges are checked
    here. A keyword kind may carry its ``rules``, each (keywords, (u, v, w))
    as ``KeywordClassifier`` takes them.
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
        if self.batch_size < 1:
            raise ConfigError(f"backend {self.backend_id}: batch_size must be >= 1")
        if not 0 < self.timeout <= MAX_TIMEOUT:  # NaN too
            raise ConfigError(f"backend {self.backend_id}: timeout must be positive and "
                              f"at most {MAX_TIMEOUT:g} seconds, got {self.timeout!r}")
        if self.max_retries < 0:
            raise ConfigError(f"backend {self.backend_id}: max_retries must be >= 0")

    def identity(self) -> dict:
        out = {"id": self.backend_id, "kind": self.kind}
        if self.kind in ("http", "subprocess"):
            out.update(model=self.model_id, fallback=self.fallback_model_id)
        if self.rules is not None:
            out["rules"] = [[sorted(k), list(t)] for k, t in self.rules]
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "BackendConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError(f"backends entry must be a JSON object, got {raw!r:.60}")
        if "id" not in raw:
            raise ConfigError(f"backend entry has no \"id\": {dict(raw)}")
        where = f"backend {raw['id']}: "
        return cls(
            backend_id=raw["id"],
            kind=_setting(raw, "kind", "keyword", str, where),
            endpoint=_setting(raw, "endpoint", None, str, where),
            model_id=_setting(raw, "model", None, str, where),
            fallback_model_id=_setting(raw, "fallback_model", None, str, where),
            batch_size=_setting(raw, "batch_size", 32, int, where),
            max_retries=_setting(raw, "max_retries", 2, int, where),
            timeout=_setting(raw, "timeout", 30.0, float, where),
            rules=_keyword_rules(raw, where),
        )


def _keyword_rules(raw: Mapping, where: str) -> tuple | None:
    """``raw["rules"]`` as a tuple of (keywords, triple) tuples, or None when
    absent; anything but a list of [[keyword, ...], [u, v, w]] pairs with a
    valid probability triple is a ConfigError naming ``where + "rules"``."""
    rules = _setting(raw, "rules", None, list, where)
    if rules is None:
        return None
    for i, rule in enumerate(rules):
        try:
            keywords, triple = rule
            if not (isinstance(keywords, list) and all(isinstance(k, str) for k in keywords)
                    and isinstance(triple, list)):
                raise TypeError("keywords and triple must be lists, keywords strings")
            ClassProbabilities(*triple)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}rules[{i}] must be [[keyword, ...], [u, v, w]], "
                              f"got {rule!r:.60} ({exc})") from exc
    return tuple((tuple(keywords), tuple(triple)) for keywords, triple in rules)


_EXPECTED = {int: "an integer", float: "a number", str: "a string", list: "a JSON list",
             Mapping: "a JSON object"}


def _setting(raw: Mapping, key: str, default, expected: type, where: str = ""):
    """``raw[key]``, or ``default`` when absent, as ``expected`` (a key of
    ``_EXPECTED``); null where ``default`` is None stays None, and any other
    value is a ConfigError naming ``where + key``."""
    value = raw.get(key, default)
    if expected in (int, float):
        try:
            return expected(value)
        except (TypeError, ValueError, OverflowError):
            pass
    elif isinstance(value, expected) or value is None and default is None:
        return value
    raise ConfigError(f"{where}{key} must be {_EXPECTED[expected]}, got {value!r:.60}")


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
        if not (self.translation_backend == "identity"
                or self.translation_backend.startswith(("http://", "https://", "cmd:"))):
            raise ConfigError("translation.backend must be identity, http(s)://<url> or "
                              f"cmd:<command>, got {self.translation_backend!r:.60}")
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
        if not isinstance(raw, Mapping):
            raise ConfigError(f"the config must be a JSON object, got {raw!r:.60}")
        surveys = raw.get("surveys", [])
        if isinstance(surveys, str):
            surveys = [surveys]
        if not isinstance(surveys, list) or not all(isinstance(p, str) for p in surveys):
            raise ConfigError(
                f"surveys must be a path or a JSON list of paths, got {surveys!r:.60}")
        lexicon_raw = _setting(raw, "lexicon", {}, Mapping)
        lexicon_settings = dict(
            window=_setting(lexicon_raw, "window", "expanding", str, "lexicon."),
            min_mean_frequency=_setting(lexicon_raw, "min_mean_frequency", 5.0, float,
                                        "lexicon."),
            max_terms=_setting(lexicon_raw, "max_terms", 10, int, "lexicon."),
            smoothing=_setting(lexicon_raw, "smoothing", "laplace", str, "lexicon."),
        )
        try:
            policy = LexiconPolicy(**lexicon_settings)
        except ValueError as exc:
            raise ConfigError(f"lexicon.{exc}") from exc
        translation_raw = _setting(raw, "translation", {}, Mapping)
        return cls(
            survey_paths=list(surveys),
            wage_path=_setting(raw, "wages", "", str),
            backends=[BackendConfig.from_dict(b) for b in _setting(raw, "backends", [], list)],
            normalization=_setting(raw, "normalization", "per_comment", str),
            max_lag=_setting(raw, "max_lag", 24, int),
            lexicon=policy,
            translation_backend=_setting(translation_raw, "backend", "identity", str,
                                         "translation."),
            translation_source=_setting(translation_raw, "source", "ja", str, "translation."),
            translation_target=_setting(translation_raw, "target", "en", str, "translation."),
            translation_parallelism=_setting(translation_raw, "parallelism", 4, int,
                                             "translation."),
            translation_batch_size=_setting(translation_raw, "batch_size", 50, int,
                                            "translation."),
            classify_parallelism=_setting(raw, "classify_parallelism", 4, int),
            output_dir=_setting(raw, "output_dir", "out", str),
            cache_dir=_setting(raw, "cache_dir", ".wsi-cache", str),
            seed=_setting(raw, "seed", 0, int),
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


@contextmanager
def _stage(out: Path, name: str):
    """Convert any stage exception into StageError and leave a FAILED marker
    naming the stage that failed; a success removes a marker naming ``name``."""
    marker = out / "FAILED"
    try:
        yield
    except BaseException as exc:
        error = exc if isinstance(exc, StageError) else StageError(name, str(exc))
        with suppress(OSError):
            atomic_write(marker, f"stage: {error.stage}\ncause: {error.cause}\n")
        if error is exc:
            raise
        raise error from exc
    with suppress(OSError):  # no marker
        if marker.read_text(encoding="utf-8").startswith(f"stage: {name}\n"):
            marker.unlink()


def _write_json(path: Path, data) -> None:
    atomic_write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _translator(config: RunConfig) -> IdentityTranslator | RemoteTranslator:
    if config.translation_backend == "identity":
        return IdentityTranslator()
    return RemoteTranslator(config.translation_backend)


@dataclass
class IngestResult:
    corpus: Corpus
    stats: dict  # what stages/ingest.json records
    translation_calls: int


ClassifiedMap = dict[MonthKey, list[ClassifiedComment]]
SweepMap = dict[tuple[str, str], list[GrangerResult]]


class StagedRun:
    """One run directory and the results its stages hand to each other.

    This is the only way results travel from one stage to the next. Each
    stage records what it produced here (ingest the corpus and the wages,
    classify each backend's comments, index the series, granger the
    sweeps) and its stats, which ``put_stats`` also writes to
    ``stages/<stage>.json``. A later stage gets what it needs from memory
    when a stage sharing this object produced or loaded it, else from
    ``out/<run-id>/`` on first use; a missing file fails the stage that
    asked. Of the later stages, only classify reads ``stages/records.csv``,
    and only ``get_stats`` reads a ``stages/<stage>.json``. ``run`` passes
    one instance through every stage; ``stage_report`` runs index or
    granger on its own instance only when it lacks their results.
    """

    def __init__(self, config: RunConfig, run_id: str):
        self.config = config
        self.run_id = run_id
        self.out = Path(config.output_dir) / run_id
        self.wages: WageSeries | None = None
        self.corpus: Corpus | None = None
        self.classified: dict[str, ClassifiedMap] = {}
        self.series: dict[str, SeriesResult] | None = None
        self.sweeps: SweepMap | None = None
        self.stats: dict[str, dict] = {}

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

    def get_corpus(self, stage: str) -> Corpus:
        """The ingested records, in month order."""
        if self.corpus is None:
            self.corpus = load_surveys([self._ingest_file("stages/records.csv", stage)]).corpus
        return self.corpus

    def get_classified(self, backend_id: str, stage: str) -> ClassifiedMap:
        if backend_id not in self.classified:
            path = self.out / "stages" / "classified" / f"{backend_id}.csv"
            if not path.exists():
                raise StageError(stage, f"no classified comments for {backend_id};"
                                        " run `wsi classify` first")
            self.classified[backend_id] = _read_classified_csv(path, backend_id)
        return self.classified[backend_id]

    def get_stats(self, stage: str) -> dict:
        """What ``stage`` recorded, else its ``stages/<stage>.json``, else empty."""
        if stage not in self.stats:
            path = self.out / "stages" / f"{stage}.json"
            self.stats[stage] = _read_json(path) if path.exists() else {}
        return self.stats[stage]

    def put_stats(self, stage: str, stats: dict) -> None:
        self.stats[stage] = stats
        _write_json(self.out / "stages" / f"{stage}.json", stats)

    def get_series(self, stage: str) -> dict[str, SeriesResult]:
        """Each indexed backend's series; a recorded index failure is left out."""
        if self.series is None:
            index = self.get_stats("index")
            series: dict[str, SeriesResult] = {}
            for backend_id in [b.backend_id for b in self.config.backends]:
                path = self.out / "series" / f"{backend_id}.csv"
                if not path.exists():
                    if backend_id in index.get("failures", {}):
                        continue  # recorded index failure, nothing to sweep
                    raise StageError(stage, f"no series for {backend_id}; run `wsi index` first")
                skipped = index.get("series", {}).get(backend_id, {}).get("skipped_months", [])
                series[backend_id] = _read_series_csv(path, [MonthKey.parse(m) for m in skipped])
            self.series = series
        return self.series


def stage_ingest(config: RunConfig, *, staged: StagedRun | None = None) -> IngestResult:
    """Load surveys and wages, translate comments, persist normalized inputs."""
    staged = StagedRun.for_stage(config, "ingest", staged)
    out = staged.out
    with _stage(out, "ingest"):
        # the run id, computed first, has found every survey file
        load = load_surveys(expand_survey_paths(config.survey_paths))
        if not load.corpus:
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
                load.corpus, translator,
                parallelism=config.translation_parallelism,
                cache=cache,
                source=config.translation_source,
                target=config.translation_target,
                batch_size=config.translation_batch_size,
            )
        finally:
            if isinstance(translator, RemoteTranslator):
                translator.close()
        corpus = report.corpus
        write_survey(corpus, out / "stages" / "records.csv")
        write_wages(wages.levels, out / "stages" / "wages.csv")
        summary = summarize_corpus(corpus)
        atomic_write(out / "summary" / "judgment.csv", summary.judgment_csv())
        atomic_write(out / "summary" / "region.csv", summary.region_csv())
        atomic_write(out / "summary" / "month.csv", summary.month_csv())
        stats = {
            "records": len(corpus),
            "row_errors": len(load.errors),
            "skipped_empty": load.skipped_empty,
            "translation_failed": len(report.failed_indices),
        }
        staged.put_stats("ingest", stats)
        staged.wages, staged.corpus = wages, corpus
        return IngestResult(corpus, stats, report.backend_calls)


def _build_classifier(backend: BackendConfig, config: RunConfig):
    if backend.kind == "keyword":
        if backend.rules is not None:
            return KeywordClassifier(backend.rules, backend_id=backend.backend_id)
        return default_keyword_classifier(backend_id=backend.backend_id)
    if backend.kind in ("http", "subprocess"):
        remote = RemoteClassifier(backend)
        cache = ClassificationCache(Path(config.cache_dir) / "classify")
        return CachedRemoteClassifier(remote, cache, parallelism=config.classify_parallelism)
    raise ConfigError(f"no classifier for kind {backend.kind}")


def _classify_backend(backend: BackendConfig, corpus: Corpus, wages: WageSeries,
                      config: RunConfig, out: Path) -> tuple[ClassifiedMap, int]:
    """Classify every month for one backend; returns (by month, wire calls).

    A lexicon backend classifies month by month, under each month's lexicon,
    and writes its audit files to ``out/stages``; any other classifies the
    corpus's text table through ``classify_texts``, each distinct text once
    in one fixed batch order (first appearance in month order), and each
    record takes its text id's answer.
    """
    texts = corpus.texts
    if backend.kind == "lexicon":
        by_month = {month: [texts[t] for t in corpus.text_ids[records]]
                    for month, records in corpus.month_slices()}
        # Called on the module, where the benchmark's tracer wraps it.
        counts = lexicon.monthly_term_counts(by_month)
        lexicons = rolling_lexicons(counts, wages, list(by_month), config.lexicon)
        classified: ClassifiedMap = {}
        # Month-level word-count aggregate logged alongside the per-comment
        # classification for comparison; both use the same occurrence counts.
        wordcount_rows = ["as_of,positive_occurrences,negative_occurrences,wordcount_index"]
        for month in sorted(lexicons):
            month_texts = by_month[month]
            occurrences = {text: occurrence_counts(counts.tokens[text], lexicons[month])
                           for text in set(month_texts)}
            adapter = LexiconBackend(occurrences, config.lexicon.smoothing,
                                     backend_id=backend.backend_id)
            classified[month] = classify_texts(month_texts, adapter)[0]
            p_total = sum(occurrences[text][0] for text in month_texts)
            n_total = sum(occurrences[text][1] for text in month_texts)
            ratio = ((p_total - n_total) / (p_total + n_total) * 100.0
                     if p_total + n_total else 0.0)
            wordcount_rows.append(f"{month},{p_total},{n_total},{ratio!r}")
        atomic_write(out / "stages" / "lexicon_audit.csv", "\n".join(audit_rows(lexicons)) + "\n")
        atomic_write(out / "stages" / "lexicon_wordcounts.csv", "\n".join(wordcount_rows) + "\n")
        return classified, 0

    classifier = _build_classifier(backend, config)
    try:
        answers, wire_calls = classify_texts(texts, classifier)
    finally:
        if isinstance(classifier, CachedRemoteClassifier):
            classifier.inner.transport.close()
    by_record = [answers[t] for t in corpus.text_ids]
    return {month: by_record[records] for month, records in corpus.month_slices()}, wire_calls


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
    is not its position within its month raises ValueError.

    Rows with one (u, v, w, label, failed) share one ``ClassifiedComment``,
    as the classify stage's records with one text do, so reading a corpus
    builds one object per distinct classification, not one per record.
    """
    classified: ClassifiedMap = {}
    shared: dict[tuple[str, ...], ClassifiedComment] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CLASSIFIED_HEADER.split(","):
            raise ValueError(f"{path}: header is not {CLASSIFIED_HEADER}")
        for raw_month, rows in groupby(reader, itemgetter(0)):
            comments = classified.setdefault(MonthKey.parse(raw_month), [])
            for _, ordinal, u, v, w, label, failed in rows:
                if int(ordinal) != len(comments):
                    raise ValueError(f"{path}:{reader.line_num}: ordinal {ordinal} out of order")
                key = (u, v, w, label, failed)
                comment = shared.get(key)
                if comment is None:
                    comment = shared[key] = ClassifiedComment(
                        ClassProbabilities(float(u), float(v), float(w)),
                        backend_id, label, bool(int(failed)))
                comments.append(comment)
    return classified


def _read_series_csv(path: Path, skipped_months: list[MonthKey]) -> SeriesResult:
    """The series ``series_csv_rows`` wrote; its last column, the count of
    included comments, is the sum of the label counts before it."""
    points = []
    with open(path, newline="", encoding="utf-8") as fh:
        for raw_month, standard, weighted, *counts, _ in islice(csv.reader(fh), 1, None):
            month = MonthKey.parse(raw_month)
            points.append(IndexPoint(month, float(standard), float(weighted),
                                     MonthlyCounts(month, *map(int, counts))))
    return SeriesResult(points, skipped_months)


def stage_classify(config: RunConfig, only_backend: str | None = None, *,
                   staged: StagedRun | None = None
                   ) -> tuple[dict[str, ClassifiedMap], dict[str, int]]:
    """Classify all months for every configured backend (or one of them).

    Returns the classified comments per backend plus the wire-call counts.
    Wire calls are reported in memory only; the persisted artifacts stay
    byte-identical between cold-cache and warm-cache runs.
    """
    if only_backend is not None and only_backend not in {b.backend_id for b in config.backends}:
        raise ConfigError(f"no backend with id {only_backend!r} is configured")
    staged = StagedRun.for_stage(config, "classify", staged)
    out = staged.out
    with _stage(out, "classify"):
        corpus = staged.get_corpus("classify")
        wages = staged.get_wages("classify")
        # one backend's entry replaces its own; the others' stay as recorded
        stats = dict(staged.get_stats("classify")) if only_backend is not None else {}
        results: dict[str, ClassifiedMap] = {}
        wire_stats: dict[str, int] = {}
        for backend in config.backends:
            if only_backend is not None and backend.backend_id != only_backend:
                continue
            classified, wire_calls = _classify_backend(backend, corpus, wages, config, out)
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
            log.info("classified %s: %d months, %d failures",
                     backend.backend_id, len(classified), failed)
        staged.put_stats("classify", stats)
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
        staged.put_stats("index", {"series": stats, "failures": failures})
        staged.series = series
        return series


def stage_granger(config: RunConfig, *, staged: StagedRun | None = None
                  ) -> tuple[SweepMap, dict[str, str]]:
    """Granger sweeps for every backend and index kind against wage growth."""
    staged = StagedRun.for_stage(config, "granger", staged)
    out = staged.out
    with _stage(out, "granger"):
        yoy_map = staged.get_wages("granger").yoy_map
        sweeps: SweepMap = {}
        failures: dict[str, str] = {}
        stats = {}
        for backend_id, series in staged.get_series("granger").items():
            for kind in INDEX_KINDS:
                try:
                    pair = AlignedPair.from_series(getattr(series, f"{kind}_by_month")(),
                                                   yoy_map)
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
        staged.put_stats("granger", {"sweeps": stats, "failures": failures})
        staged.sweeps = sweeps
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

        chart_failures: dict[str, str] = dict(staged.get_stats("granger")["failures"])
        chart_failures.update(staged.get_stats("index").get("failures", {}))
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
        manifest = {**metadata, "failures": chart_failures,
                    **{stage: staged.get_stats(stage)
                       for stage in ("ingest", "classify", "index", "granger")}}
        _write_json(out / "manifest.json", manifest)

        return ReportBundle(
            run_id=staged.run_id,
            metadata=metadata,
            series={b: r.points for b, r in series.items()},
            sweeps=dict(sweeps),
            failures={k: {"reason": v} for k, v in chart_failures.items()},
        )


@dataclass
class RunResult:
    bundle: ReportBundle
    out_dir: Path
    stats: dict = field(default_factory=dict)


def run(config: RunConfig) -> RunResult:
    """Execute every stage; artifacts land under out/<run-id>/."""
    staged = StagedRun.for_stage(config, "ingest", None)
    ingest = stage_ingest(config, staged=staged)
    _, wire_stats = stage_classify(config, staged=staged)
    stage_index(config, staged=staged)
    stage_granger(config, staged=staged)
    bundle = stage_report(config, staged=staged)
    stats = {
        "translation_calls": ingest.translation_calls,
        "translation_failed": ingest.stats["translation_failed"],
        "wire_calls": wire_stats,
        "classify": staged.get_stats("classify"),
    }
    return RunResult(bundle=bundle, out_dir=staged.out, stats=stats)
