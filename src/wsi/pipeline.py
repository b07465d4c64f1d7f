"""Pipeline orchestration: configuration, result caching, stage sequencing.

Stages run ingest -> translate -> classify -> index -> granger -> report.
Each stage persists its artifacts under ``out/<run-id>/`` so stages can also
be re-run individually from the CLI. Every ``stage_*`` takes the config and
an optional ``StagedRun``, the one hand-over between stages: results a stage
produced stay on it for the next. A stage called without one reads the
ingest and classify artifacts it needs back from ``out/<run-id>/`` and
recomputes the index series and Granger sweeps, which are never read back.
The run id is a digest of the semantic configuration, the input file
digests, and the code version; execution knobs (parallelism, directories)
deliberately do not change it, so reruns of the same analysis land in the
same place with identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from contextlib import closing, contextmanager, suppress
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .classify import (
    LABELS,
    ClassificationCache,
    Classified,
    ClassProbabilities,
    HardLabel,
    KeywordClassifier,
    RemoteClassifier,
    classify_texts,
    default_keyword_classifier,
)
from .corpus import (
    Codes,
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
    RemoteTranslator,
    TranslationCache,
    TranslationReport,
    translate_all,
)
from .wire import atomic_write

log = logging.getLogger("wsi")

INDEX_KINDS = ("standard", "weighted")
# One day; the transports fail on timeouts past about 2.1e6 s (the selector's limit).
MAX_TIMEOUT = 86400.0
# wire.retry's backoff doubles: 10 retries sleep 0.1 s * (2^10 - 1), about 102 s per batch.
MAX_RETRIES = 10


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: str):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage} failed: {cause}")


class ConfigError(ValueError):
    """The run configuration is invalid."""


# The benchmark's tracer wraps ``CachedRemoteClassifier.classify_batch`` by this name.
CachedRemoteClassifier = RemoteClassifier


REMOTE_KINDS = ("http", "subprocess")
BACKEND_ID = r"[A-Za-z0-9][A-Za-z0-9._-]*"  # it names files under out/<run-id>/


def setting(default=MISSING, **row):
    """A dataclass field that is one row of its config section's table.

    The row may hold ``key`` (the JSON key, else the field name;
    ``section.name`` inside a section object), ``parse(value, name)`` (for a
    value its annotation cannot check), ``at_least`` or ``check`` (a
    predicate and what the value must be), ``knob`` (true to leave it out of
    the run id, as a false ``when(entry)`` does), and ``digest`` and
    ``digest_key`` (how and under what key the run id spells it)."""
    return field(default=default, metadata=row)


def _expect(ok: bool, name: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r:.60}")


_JSON_TYPES = {  # annotation, or JSON type: (the types it takes, as messages name them)
    "int": ((int,), "an integer"), "float": ((int, float), "a number"),
    "str": ((str,), "a string"), "str | None": ((str, type(None)), "a string"),
    "list": ((list,), "a JSON list"), "object": ((dict,), "a JSON object")}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object's pairs as a dict; a key given twice is a ConfigError."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{key} is given twice in one JSON object")
        obj[key] = value
    return obj


def _typed(value, name: str, expected: str):
    """``value`` when it has one of the ``expected`` types (a bool is no number)."""
    types, what = _JSON_TYPES[expected]
    _expect(type(value) in types, name, what, value)
    return value


def _from_json(cls, raw: dict, where: str = ""):
    """A ``cls`` from its JSON object, an absent key left at its default; a key
    no row names, or a missing one without a default, is a ConfigError."""
    sections: dict[str | None, dict] = {None: {}}
    for f in fields(cls):
        section, _, key = f.metadata.get("key", f.name).rpartition(".")
        sections.setdefault(section or None, {})[key] = f
    values = {}
    for section, rows in sections.items():
        obj = raw if section is None else _typed(raw.get(section, {}), where + section, "object")
        prefix = where if section is None else f"{where}{section}."
        for key in obj:
            if key not in rows and (section is not None or key not in sections):
                raise ConfigError(f"{prefix}{key} is not a known setting")
        for key, f in rows.items():
            if key not in obj:
                if f.default is MISSING:
                    raise ConfigError(f"{prefix}{key} is required")
                continue
            parse = f.metadata.get("parse")
            name = prefix + key
            value = parse(obj[key], name) if parse else _typed(obj[key], name, f.type)
            if f.type == "float":  # an integer past the float range reads as infinite
                value = math.copysign(math.inf, value) if abs(value) >= 2**1024 else float(value)
            values[f.name] = value
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:  # a LexiconPolicy's checks, which raise ValueError
        raise ConfigError(f"{where}{exc}") from exc


def _check(entry, where: str = "") -> None:
    """Each row's ``at_least`` and ``check`` on its value in ``entry``."""
    for f in fields(entry):
        row, value = f.metadata, getattr(entry, f.name)
        name = where + row.get("key", f.name)
        if "at_least" in row:
            _expect(value >= row["at_least"], name, f">= {row['at_least']}", value)
        if "check" in row:
            _expect(row["check"][0](value), name, row["check"][1], value)


def _identity(entry) -> dict:
    """What the run id digests of ``entry``, a section's dataclass; see ``setting``."""
    out: dict = {}
    for f in fields(entry):
        row, value = f.metadata, getattr(entry, f.name)
        if row.get("knob") or "when" in row and not row["when"](entry):
            continue
        if "digest" in row:
            value = row["digest"](value)
        section, _, key = row.get("key", f.name).rpartition(".")
        (out.setdefault(section, {}) if section else out)[row.get("digest_key", key)] = value
    return out


def _keyword_rules(value, name: str) -> tuple | None:
    """A list of [[keyword, ...], [u, v, w]] pairs, each triple a valid
    probability triple, as a tuple of (keywords, triple) tuples."""
    if value is None:
        return None
    for i, rule in enumerate(_typed(value, name, "list")):
        try:
            keywords, triple = rule
            if not (isinstance(keywords, list) and all(isinstance(k, str) for k in keywords)
                    and isinstance(triple, list)):
                raise TypeError("keywords and triple must be lists, keywords strings")
            ClassProbabilities(*triple)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}[{i}] must be [[keyword, ...], [u, v, w]], "
                              f"got {rule!r:.60} ({exc})") from exc
    return tuple((tuple(keywords), tuple(triple)) for keywords, triple in value)


def _remote(backend: "BackendConfig") -> bool:
    return backend.kind in REMOTE_KINDS


@dataclass(frozen=True)
class BackendConfig:
    """One configured classifier backend: "keyword" (deterministic mock, with
    its ``rules`` as ``KeywordClassifier`` takes them), "lexicon" (the rolling
    correlation baseline), "http" or "subprocess" (remote wire protocol
    backends, whose ``RemoteClassifier`` reads all it needs from this entry;
    the model is ``backend_id`` when ``model_id`` is unset)."""

    backend_id: str = setting(key="id", check=(lambda value: re.fullmatch(BACKEND_ID, value),
                                               f"a name matching {BACKEND_ID}"))
    kind: str = setting("keyword", check=(("keyword", "lexicon", *REMOTE_KINDS).__contains__,
                                          "keyword, lexicon, http or subprocess"))
    # Not in the run id, so two runs that differ only here share one out/<run-id>/.
    endpoint: str | None = setting(None, knob=True)
    model_id: str | None = setting(None, key="model", when=_remote)
    fallback_model_id: str | None = setting(None, key="fallback_model", when=_remote,
                                            digest_key="fallback")
    batch_size: int = setting(32, knob=True, at_least=1)
    max_retries: int = setting(2, knob=True, at_least=0, check=(
        lambda value: value <= MAX_RETRIES, f"at most {MAX_RETRIES}"))
    timeout: float = setting(30.0, knob=True, check=(  # NaN fails too
        lambda value: 0 < value <= MAX_TIMEOUT, f"positive and at most {MAX_TIMEOUT:g} seconds"))
    rules: tuple | None = setting(
        None, parse=_keyword_rules, when=lambda backend: backend.rules is not None,
        digest=lambda rules: [[sorted(keywords), list(triple)] for keywords, triple in rules])

    def __post_init__(self) -> None:
        _check(self, f"backend {self.backend_id}: ")
        if _remote(self) and not self.endpoint:
            raise ConfigError(f"backend {self.backend_id}: kind {self.kind} needs an endpoint")

    @classmethod
    def from_dict(cls, raw: dict) -> "BackendConfig":
        if "id" not in _typed(raw, "backends entry", "object"):
            raise ConfigError(f"backend entry has no \"id\": {raw}")
        return _from_json(cls, raw, f"backend {raw['id']}: ")


def _survey_paths(value, name: str) -> list[str]:
    paths = [value] if isinstance(value, str) else value
    _expect(isinstance(paths, list) and all(isinstance(p, str) for p in paths),
            name, "a path or a JSON list of paths", value)
    return paths


@dataclass
class RunConfig:
    """Everything one evaluation run depends on, plus execution knobs; each
    field is a row of the config's settings table (see ``setting``)."""

    # knobs, since the run id digests the bytes of the files they name
    survey_paths: list[str] = setting(key="surveys", knob=True, parse=_survey_paths)
    wage_path: str = setting(key="wages", knob=True)
    backends: list[BackendConfig] = setting(
        parse=lambda value, name: list(map(BackendConfig.from_dict, _typed(value, name, "list"))),
        digest=lambda backends: list(map(_identity, backends)))
    normalization: str = setting("per_comment", check=(
        ("per_comment", "raw_sum").__contains__, "per_comment or raw_sum"))
    max_lag: int = setting(24, at_least=1)
    lexicon: LexiconPolicy = setting(LexiconPolicy(), digest=_identity, parse=lambda value, name:
                                     _from_json(LexiconPolicy, _typed(value, name, "object"),
                                                f"{name}."))
    translation_backend: str = setting("identity", key="translation.backend", check=(
        lambda value: value == "identity" or value.startswith(("http://", "https://", "cmd:")),
        "identity, http(s)://<url> or cmd:<command>"))
    translation_source: str = setting("ja", key="translation.source")
    translation_target: str = setting("en", key="translation.target")
    translation_parallelism: int = setting(4, key="translation.parallelism", knob=True, at_least=1)
    translation_batch_size: int = setting(50, key="translation.batch_size", knob=True, at_least=1)
    classify_parallelism: int = setting(4, knob=True, at_least=1)
    output_dir: str = setting("out", knob=True)
    cache_dir: str = setting(".wsi-cache", knob=True)
    seed: int = setting(0)

    def __post_init__(self) -> None:
        _check(self)
        if not self.backends:
            raise ConfigError("at least one backend must be configured")
        ids = [b.backend_id for b in self.backends]
        if len(ids) != len(set(ids)):
            raise ConfigError("backend ids must be unique")

    @property
    def normalization_mode(self) -> Normalization:
        return Normalization(self.normalization)

    def identity_dict(self) -> dict:
        """Semantic configuration only; execution knobs excluded on purpose."""
        return {**_identity(self), "version": __version__}

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return _from_json(cls, _typed(raw, "the config", "object"))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"),
                             object_pairs_hook=_unique_keys)
        except ConfigError:
            raise
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
def _stage(config: RunConfig, name: str, staged: StagedRun | None):
    """Enter stage ``name`` with ``staged``, else a ``StagedRun`` for the run
    directory ``config`` names. Any exception becomes a StageError naming
    ``name``, unless it is one (from a stage this one ran), and leaves a
    FAILED marker naming the stage that failed; a success removes a marker
    naming ``name``."""
    if staged is None:
        try:
            staged = StagedRun(config, compute_run_id(config))
        except (LoadError, OSError) as exc:
            raise StageError(name, str(exc)) from exc
    marker = staged.out / "FAILED"
    try:
        yield staged
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


@dataclass
class IngestResult:
    corpus: Corpus
    stats: dict  # what stages/ingest.json records
    translation_calls: int


SweepMap = dict[tuple[str, str], list[GrangerResult]]


class StagedRun:
    """One run directory and the results its stages hand to each other.

    This is the only way results travel from one stage to the next. Each
    stage records what it produced here (ingest the corpus and the wages,
    classify each backend's ``Classified`` arrays, index the series,
    granger the sweeps) and its stats, which ``put_stats`` also writes to
    ``stages/<stage>.json``. A later stage gets what it needs from memory
    when a stage sharing this object produced or loaded it. Otherwise an
    ingest or classify result is read from ``out/<run-id>/`` on first use,
    and a missing file fails the stage that asked; the series and sweeps
    come from running index or granger on this instance (``get_series``,
    ``get_sweeps``). Of the later stages, only classify reads
    ``stages/records.csv``, and only ``get_stats`` reads a
    ``stages/<stage>.json``. ``run`` passes one instance through every
    stage.
    """

    def __init__(self, config: RunConfig, run_id: str):
        self.config = config
        self.run_id = run_id
        self.out = Path(config.output_dir) / run_id
        self.wages: WageSeries | None = None
        self.corpus: Corpus | None = None
        self.classified: dict[str, Classified] = {}
        self.series: dict[str, SeriesResult] | None = None
        self.sweeps: SweepMap | None = None
        self.stats: dict[str, dict] = {}

    def _ingest_file(self, name: str) -> Path:
        """``out/<run-id>/<name>``; FileNotFoundError when ingest has not written it."""
        path = self.out / name
        if not path.exists():
            raise FileNotFoundError("ingest artifacts missing; run `wsi ingest` first")
        return path

    def get_wages(self) -> WageSeries:
        if self.wages is None:
            self.wages = load_wages(self._ingest_file("stages/wages.csv"))
        return self.wages

    def get_corpus(self) -> Corpus:
        """The ingested records, in month order."""
        if self.corpus is None:
            self.corpus = load_surveys([self._ingest_file("stages/records.csv")]).corpus
        return self.corpus

    def get_classified(self, backend_id: str) -> Classified:
        if backend_id not in self.classified:
            path = self.out / "stages" / "classified" / f"{backend_id}.csv"
            if not path.exists():
                raise FileNotFoundError(f"no classified comments for {backend_id};"
                                        " run `wsi classify` first")
            self.classified[backend_id] = _read_classified_csv(path)
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

    def get_series(self) -> dict[str, SeriesResult]:
        """Each indexed backend's series, an index failure left out; from
        memory, else from ``stage_index`` run on this instance."""
        if self.series is None:
            stage_index(self.config, staged=self)  # the global, which the tracer wraps
        return self.series

    def get_sweeps(self) -> SweepMap:
        """Each feasible (backend, index kind) sweep; from memory, else from
        ``stage_granger`` run on this instance."""
        if self.sweeps is None:
            stage_granger(self.config, staged=self)  # the global, which the tracer wraps
        return self.sweeps


def stage_ingest(config: RunConfig, *, staged: StagedRun | None = None) -> IngestResult:
    """Load surveys and wages, translate comments, persist normalized inputs."""
    with _stage(config, "ingest", staged) as staged:
        out = staged.out
        # the run id, computed first, has found every survey file
        load = load_surveys(expand_survey_paths(config.survey_paths))
        if not load.corpus:
            raise LoadError("no valid survey records")
        wages = load_wages(config.wage_path)
        for error in load.errors[:20]:
            log.warning("rejected row %s:%d: %s", error.path, error.line, error.reason)

        if config.translation_backend == "identity":  # each comment is its own translation
            corpus = replace(load.corpus, translations=list(load.corpus.comments))
            report = TranslationReport(corpus, failed_indices=[], backend_calls=0)
        else:
            with closing(RemoteTranslator(config.translation_backend)) as translator, \
                    closing(TranslationCache(config.cache_dir)) as cache:
                report = translate_all(
                    load.corpus, translator, config.translation_parallelism, cache=cache,
                    source=config.translation_source, target=config.translation_target,
                    batch_size=config.translation_batch_size)
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


def _classify_backend(backend: BackendConfig, corpus: Corpus, wages: WageSeries,
                      config: RunConfig, out: Path) -> tuple[Classified, int]:
    """Classify every month for one backend; returns (answers, wire calls).

    A lexicon backend classifies month by month, under each month's lexicon,
    and writes its audit files to ``out/stages``. Its answer depends only
    on a record's (positive, negative) occurrence counts, so its table has
    one row per distinct pair. Any other backend classifies the corpus's
    text table through ``classify_texts``, each distinct text once in one
    fixed batch order (first appearance in month order), and each record
    takes its text id's answer.
    """
    texts = corpus.texts
    slices = corpus.month_slices()
    if backend.kind == "lexicon":
        by_month = {month: [texts[t] for t in corpus.text_ids[records]]
                    for month, records in slices}
        # Called on the module, where the benchmark's tracer wraps it.
        counts = lexicon.monthly_term_counts(by_month)
        lexicons = rolling_lexicons(counts, wages, list(by_month), config.lexicon)
        pairs = Codes()  # (p, n) -> answer code
        months, segments = [], []
        # Month-level word-count aggregate logged alongside the per-comment
        # classification for comparison; both use the same occurrence counts.
        wordcount_rows = ["as_of,positive_occurrences,negative_occurrences,wordcount_index"]
        for month, records in slices:
            if month not in lexicons:
                continue
            distinct, inverse = np.unique(corpus.text_ids[records], return_inverse=True)
            occurrences = [occurrence_counts(counts.tokens[texts[t]], lexicons[month])
                           for t in distinct.tolist()]
            months.append(month)
            pair_codes = np.array([pairs[pair] for pair in occurrences], dtype=np.intp)
            segments.append(pair_codes[inverse])
            p_total, n_total = (np.bincount(inverse) @ np.array(occurrences)).tolist()
            ratio = ((p_total - n_total) / (p_total + n_total) * 100.0
                     if p_total + n_total else 0.0)
            wordcount_rows.append(f"{month},{p_total},{n_total},{ratio!r}")
        atomic_write(out / "stages" / "lexicon_audit.csv", "\n".join(audit_rows(lexicons)) + "\n")
        atomic_write(out / "stages" / "lexicon_wordcounts.csv", "\n".join(wordcount_rows) + "\n")
        answers = LexiconBackend(config.lexicon.smoothing,
                                 backend_id=backend.backend_id).classify_batch(pairs.table)
        bounds = np.cumsum([0, *map(len, segments)])
        codes = np.concatenate([np.empty(0, dtype=np.intp), *segments])
        return Classified.from_answers(answers.probs, answers.failed, codes, months, bounds), 0

    if backend.kind == "keyword":
        if backend.rules is not None:
            classifier = KeywordClassifier(backend.rules, backend_id=backend.backend_id)
        else:
            classifier = default_keyword_classifier(backend_id=backend.backend_id)
        answers, text_codes = classify_texts(texts, classifier)
    else:
        with closing(RemoteClassifier(backend, ClassificationCache(config.cache_dir),
                                      config.classify_parallelism)) as remote:
            answers, text_codes = classify_texts(texts, remote)
    codes = np.fromiter(map(text_codes.__getitem__, corpus.text_ids), dtype=np.intp,
                        count=len(corpus))
    bounds = [0, *(records.stop for _, records in slices)]
    return (Classified.from_answers(answers.probs, answers.failed, codes,
                                    [month for month, _ in slices], bounds),
            answers.wire_calls)


CLASSIFIED_HEADER = "yyyymm,ordinal,u,v,w,label,failed"


def _classified_csv(classified: Classified) -> str:
    """One ``yyyymm,ordinal,u,v,w,label,failed`` row per record; each
    answer's ``u,v,w,label,failed`` is formatted once, and each month's
    rows are joined on their own, so one month's row strings are held at
    a time."""
    tails = [f"{u!r},{v!r},{w!r},{LABELS[label]},{int(failed)}"
             for u, v, w, label, failed in zip(classified.u.tolist(), classified.v.tolist(),
                                                classified.w.tolist(), classified.label.tolist(),
                                                classified.failed.tolist())]
    chunks = [CLASSIFIED_HEADER + "\n"]
    for month, codes in classified.month_segments():
        yyyymm = str(month)
        chunks.append("".join([f"{yyyymm},{i},{tails[code]}\n"
                               for i, code in enumerate(codes.tolist())]))
    return "".join(chunks)


def _answer(tail: str) -> tuple[ClassProbabilities, bool]:
    """The triple and failed flag of one ``u,v,w,label,failed`` row tail as
    ``_classified_csv`` writes it: a triple ``ClassProbabilities`` accepts,
    a failed flag of 0 or 1, and the label Unrelated when failed, else the
    triple's ``hard_label()``, as ``Classified.from_answers`` labels them;
    ValueError otherwise."""
    u, v, w, label, failed = tail.removesuffix("\n").split(",")
    probs = ClassProbabilities(float(u), float(v), float(w))
    if failed not in ("0", "1"):
        raise ValueError(f"failed flag {failed!r} is not 0 or 1")
    expected = HardLabel.UNRELATED if failed == "1" else probs.hard_label()
    if label != expected:
        raise ValueError(f"label {label!r} is not {expected}")
    return probs, failed == "1"


def _read_classified_csv(path: Path) -> Classified:
    """The classified comments ``_classified_csv`` wrote, with one answer
    per distinct row tail (``u,v,w,label,failed``), numbered in order of
    first appearance.

    Each row must start with its month as ``yyyymm`` and its position within
    that month, months ascending, and each distinct tail is checked once
    (see ``_answer``); any other row raises ValueError naming ``path:line``.
    The file is read one month at a time.
    """
    months: list[MonthKey] = []
    bounds = [0]
    segments = [np.empty(0, dtype=np.intp)]
    answers = Codes()  # tail -> code
    ordinals: list[str] = []  # ",i," by i
    with open(path, encoding="utf-8") as fh:
        if fh.readline().removesuffix("\n") != CLASSIFIED_HEADER:
            raise ValueError(f"{path}: header is not {CLASSIFIED_HEADER}")
        for yyyymm, run in groupby(fh, itemgetter(slice(6))):
            line = bounds[-1] + 2
            try:
                month = MonthKey.parse(yyyymm)
            except ValueError:
                month = None
            if str(month) != yyyymm:
                raise ValueError(f"{path}:{line}: row does not start with a yyyymm month")
            if months and not months[-1] < month:
                raise ValueError(f"{path}:{line}: month {yyyymm} out of order")
            rows = list(run)
            ordinals.extend(f",{i}," for i in range(len(ordinals), len(rows)))
            prefixes = list(map(yyyymm.__add__, ordinals[:len(rows)]))
            if not all(map(str.startswith, rows, prefixes)):
                at = next(i for i, row in enumerate(rows) if not row.startswith(prefixes[i]))
                ordinal = rows[at][7:].partition(",")[0]
                raise ValueError(f"{path}:{line + at}: ordinal {ordinal} out of order")
            segments.append(np.fromiter(map(answers.__getitem__,
                                            map(str.removeprefix, rows, prefixes)),
                                        dtype=np.intp, count=len(rows)))
            months.append(month)
            bounds.append(bounds[-1] + len(rows))
    codes = np.concatenate(segments)
    table = []
    for code, tail in enumerate(answers.table):
        try:
            table.append(_answer(tail))
        except ValueError as exc:
            line = int(np.argmax(codes == code)) + 2
            raise ValueError(f"{path}:{line}: bad answer {tail.rstrip()!r}: {exc}") from exc
    return Classified.from_answers([probs for probs, _ in table],
                                   [failed for _, failed in table], codes, months, bounds)


def stage_classify(config: RunConfig, only_backend: str | None = None, *,
                   staged: StagedRun | None = None
                   ) -> tuple[dict[str, Classified], dict[str, int]]:
    """Classify all months for every configured backend (or one of them).

    Returns each backend's ``Classified`` arrays plus the wire-call counts.
    Wire calls are reported in memory only; the persisted artifacts stay
    byte-identical between cold-cache and warm-cache runs.
    """
    if only_backend is not None and only_backend not in {b.backend_id for b in config.backends}:
        raise ConfigError(f"no backend with id {only_backend!r} is configured")
    with _stage(config, "classify", staged) as staged:
        out = staged.out
        corpus = staged.get_corpus()
        wages = staged.get_wages()
        # one backend's entry replaces its own; the others' stay as recorded
        stats = dict(staged.get_stats("classify")) if only_backend is not None else {}
        results: dict[str, Classified] = {}
        wire_stats: dict[str, int] = {}
        for backend in config.backends:
            if only_backend is not None and backend.backend_id != only_backend:
                continue
            classified, wire_calls = _classify_backend(backend, corpus, wages, config, out)
            results[backend.backend_id] = staged.classified[backend.backend_id] = classified
            wire_stats[backend.backend_id] = wire_calls
            failed = int(np.count_nonzero(classified.failed[classified.codes]))
            stats[backend.backend_id] = {
                "kind": backend.kind,
                "months": len(classified.months),
                "comments": len(classified),
                "failed_comments": failed,
                "excluded_comments": int(np.count_nonzero(
                    classified.excluded[classified.codes])),
            }
            atomic_write(out / "stages" / "classified" / f"{backend.backend_id}.csv",
                         _classified_csv(classified))
            log.info("classified %s: %d months, %d failures",
                     backend.backend_id, len(classified.months), failed)
        staged.put_stats("classify", stats)
        return results, wire_stats


def stage_index(config: RunConfig, *, staged: StagedRun | None = None
                ) -> dict[str, SeriesResult]:
    """Build per-backend index series and export the series CSVs.

    A backend that classified nothing (for example a lexicon baseline on a
    corpus too short for any selection window) is recorded as a failure
    rather than aborting the other backends.
    """
    with _stage(config, "index", staged) as staged:
        out = staged.out
        classified = {b.backend_id: staged.get_classified(b.backend_id)
                      for b in config.backends}
        series: dict[str, SeriesResult] = {}
        stats: dict[str, dict] = {}
        failures: dict[str, str] = {}
        for backend_id, answers in classified.items():
            if not answers.months:
                failures[backend_id] = "no classifiable months"
                log.warning("%s: nothing to index", backend_id)
                continue
            result = build_series(answers, config.normalization_mode)
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
    with _stage(config, "granger", staged) as staged:
        out = staged.out
        yoy_map = staged.get_wages().yoy_map
        sweeps: SweepMap = {}
        failures: dict[str, str] = {}
        stats = {}
        # every pair's y is wage growth, so pairs over one span share each
        # lag's restricted fit: {months: {lag: restricted RSS}}
        restricted: dict[tuple, dict[int, float]] = {}
        for backend_id, series in staged.get_series().items():
            for kind in INDEX_KINDS:
                try:
                    pair = AlignedPair.from_series(getattr(series, f"{kind}_by_month")(),
                                                   yoy_map)
                    results = granger_sweep(pair, config.max_lag,
                                            restricted=restricted.setdefault(pair.months, {}))
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

    The series and sweeps come from ``staged``, which runs index and
    granger when it lacks them.
    """
    with _stage(config, "report", staged) as staged:
        out = staged.out
        with open(staged._ingest_file("summary/month.csv"), encoding="utf-8") as fh:
            record_months = [line.partition(",")[0] for line in fh.read().splitlines()[1:]]
        wages = staged.get_wages()
        yoy_map = wages.yoy_map
        series, sweeps = staged.get_series(), staged.get_sweeps()

        chart_failures: dict[str, str] = dict(staged.get_stats("granger")["failures"])
        chart_failures.update(staged.get_stats("index")["failures"])
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
    with _stage(config, "ingest", None) as staged:  # opens the run directory
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
