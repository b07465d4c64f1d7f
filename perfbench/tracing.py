"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public wsi functions and methods with timing
wrappers where their callers look them up (``wsi.pipeline.tokenize`` and
``wsi.lexicon.tokenize`` are two names for one function, each wrapped), and
puts the originals back when it is closed. Stage-level and batch-level calls
become spans (name, start, end, parent, run id, phase); per-comment calls
only add to a call count and a summed time. Self time is a call's duration
minus the time spent in wrapped calls it made on the same thread; calls on
the pipeline's worker threads are summed across threads. Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# Per-layer metrics: name -> (unit, which direction is better). Input
# properties such as corpus.records_in have no better direction and are
# marked "higher" only because a direction is required. Counts and time sums
# cover one traced ``pipeline.run`` plus the ``stage_report`` rerun after it;
# the ``pipeline.stage_*`` times are the run's own stage spans.
LAYER_METRICS = {
    "pipeline.stage_ingest_s": ("s", "lower"),
    "pipeline.stage_classify_s": ("s", "lower"),
    "pipeline.stage_index_s": ("s", "lower"),
    "pipeline.stage_granger_s": ("s", "lower"),
    "pipeline.stage_report_s": ("s", "lower"),
    "pipeline.stage_sum_gap": ("ratio", "lower"),
    "pipeline.cache_gets": ("count", "lower"),
    "pipeline.cache_get_s": ("s", "lower"),
    "pipeline.cache_hit_ratio": ("ratio", "higher"),
    "pipeline.cache_puts": ("count", "lower"),
    "pipeline.cache_put_s": ("s", "lower"),
    "pipeline.cache_files": ("count", "lower"),
    "pipeline.cache_bytes": ("B", "lower"),
    "pipeline.out_bytes": ("B", "lower"),
    "pipeline.run_id_calls": ("count", "lower"),
    "pipeline.run_id_s": ("s", "lower"),
    "pipeline.failed_share": ("ratio", "lower"),
    "corpus.load_surveys_calls": ("count", "lower"),
    "corpus.load_surveys_s": ("s", "lower"),
    "corpus.records_in": ("count", "higher"),
    "corpus.rows_rejected": ("count", "lower"),
    "corpus.write_survey_s": ("s", "lower"),
    "corpus.distinct_text_share": ("ratio", "higher"),
    "translate.translate_all_s": ("s", "lower"),
    "translate.backend_calls": ("count", "lower"),
    "translate.backend_s": ("s", "lower"),
    "translate.retries": ("count", "lower"),
    "translate.failed": ("count", "lower"),
    "translate.cache_get_s": ("s", "lower"),
    "translate.cache_hit_ratio": ("ratio", "higher"),
    "translate.cache_put_s": ("s", "lower"),
    "classify.classify_batch_s": ("s", "lower"),
    "classify.wire_calls": ("count", "lower"),
    "classify.wire_s": ("s", "lower"),
    "classify.retries": ("count", "lower"),
    "classify.fallbacks": ("count", "lower"),
    "classify.failed": ("count", "lower"),
    "lexicon.rolling_lexicons_s": ("s", "lower"),
    "lexicon.term_counts_s": ("s", "lower"),
    "lexicon.terms": ("count", "higher"),
    "lexicon.pearson_calls": ("count", "lower"),
    "lexicon.pearson_s": ("s", "lower"),
    "lexicon.tokenize_calls": ("count", "lower"),
    "lexicon.tokenize_s": ("s", "lower"),
    "lexicon.tokenize_per_comment": ("count", "lower"),
    "lexicon.backend_classify_s": ("s", "lower"),
    "index.build_series_s": ("s", "lower"),
    "econometrics.granger_sweep_s": ("s", "lower"),
    "econometrics.granger_tests": ("count", "higher"),
    "report.summarize_corpus_s": ("s", "lower"),
    "report.render_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# A warm workload's measured runs find every entry cached, so its cold path
# (wire calls, retries, the translator child, cache puts) is read from one
# traced run into empty caches instead and reported under a "cold." prefix,
# with cold.run_s that run's wall time. Other workloads read 0 there.
COLD_LAYERS = (
    "pipeline.stage_ingest_s", "pipeline.stage_classify_s",
    "pipeline.cache_puts", "pipeline.cache_put_s",
    "translate.backend_calls", "translate.backend_s", "translate.retries",
    "translate.failed", "translate.cache_put_s",
    "classify.classify_batch_s", "classify.wire_calls", "classify.wire_s",
    "classify.retries", "classify.fallbacks", "classify.failed",
)
LAYER_METRICS["cold.run_s"] = ("s", "lower")
LAYER_METRICS.update({f"cold.{name}": LAYER_METRICS[name] for name in COLD_LAYERS})

STAGES = ("ingest", "classify", "index", "granger", "report")


class Tracer:
    """Wraps wsi's layers for one traced run; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "run"
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.hits: dict[str, int] = defaultdict(int)
        self.bodies: dict[str, list] = defaultdict(list)
        self.values: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._open_stage: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, span: bool = False,
             stage: bool = False, observe=None) -> None:
        """Replace ``owner.attr``; ``observe(args, result)`` sees every call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids) if span else None
            parent = next((f[1] for f in reversed(stack) if f[1] is not None),
                          tracer._open_stage)
            frame = [0.0, span_id]  # time in wrapped callees, span id
            stack.append(frame)
            if stage:
                tracer._open_stage = span_id
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stage:
                    tracer._open_stage = parent
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += elapsed - frame[0]
                    if span:
                        tracer.spans.append({
                            "id": span_id, "parent": parent, "name": name,
                            "start": start, "end": end, "run_id": tracer.run_id,
                            "phase": tracer.phase,
                            "thread": threading.current_thread().name,
                        })
                    if observe is not None:
                        observe(args, result)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Put every wrapped name back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run_id": self.run_id, "spans": self.spans}) + "\n",
                        encoding="utf-8")

    # -- observers (called under the tracer lock) -------------------------

    def _hit(self, name: str):
        def observe(args, result):
            self.hits[name] += result is not None
        return observe

    def _body(self, name: str, key):
        def observe(args, result):
            self.bodies[name].append(key(args))
        return observe

    def _sum(self, name: str, value):
        def observe(args, result):
            if result is not None:
                self.values[name] = self.values.get(name, 0) + value(result)
        return observe

    def _first_load(self, args, load) -> None:
        if load is not None and "corpus.records_in" not in self.values:
            self.values["corpus.records_in"] = len(load.records)
            self.values["corpus.rows_rejected"] = len(load.errors)
            self.values["corpus.distinct_texts"] = len({r.comment for r in load.records})


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import wsi.classify as C
    import wsi.lexicon as L
    import wsi.pipeline as P
    import wsi.translate as T

    for stage in STAGES:
        tracer.wrap(P, f"stage_{stage}", f"pipeline.stage_{stage}", span=True, stage=True)
    tracer.wrap(P, "compute_run_id", "pipeline.run_id")
    tracer.wrap(P.ClassificationCache, "get", "pipeline.cache_get",
                observe=tracer._hit("pipeline.cache_get"))
    tracer.wrap(P.ClassificationCache, "put", "pipeline.cache_put")

    tracer.wrap(P, "load_surveys", "corpus.load_surveys", observe=tracer._first_load)
    tracer.wrap(P, "write_survey", "corpus.write_survey")

    tracer.wrap(P, "translate_all", "translate.translate_all", span=True,
                observe=tracer._sum("translate.failed", lambda r: len(r.failed_indices)))
    tracer.wrap(T.SubprocessTranslator, "translate", "translate.backend",
                observe=tracer._body("translate.backend", lambda a: hash(tuple(a[1]))))
    tracer.wrap(T.TranslationCache, "get", "translate.cache_get",
                observe=tracer._hit("translate.cache_get"))
    tracer.wrap(T.TranslationCache, "put", "translate.cache_put")

    for cls in (C.KeywordClassifier, C.RemoteClassifier, P.CachedRemoteClassifier):
        tracer.wrap(cls, "classify_batch", "classify.classify_batch", span=True)
    tracer.wrap(C.HttpTransport, "__call__", "classify.wire",
                observe=tracer._body("classify.wire", lambda a: (
                    a[1]["model"], hash(tuple(a[1]["comments"])))))

    tracer.wrap(P, "rolling_lexicons", "lexicon.rolling_lexicons", span=True)
    tracer.wrap(L, "monthly_term_counts", "lexicon.term_counts",
                observe=tracer._sum("lexicon.terms", len))
    tracer.wrap(L, "pearson", "lexicon.pearson")
    tracer.wrap(P, "tokenize", "lexicon.tokenize")
    tracer.wrap(L, "tokenize", "lexicon.tokenize")
    tracer.wrap(L.LexiconBackend, "classify_batch", "lexicon.backend_classify", span=True)

    tracer.wrap(P, "build_series", "index.build_series", span=True)
    tracer.wrap(P, "granger_sweep", "econometrics.granger_sweep", span=True,
                observe=tracer._sum("econometrics.granger_tests", len))
    tracer.wrap(P, "summarize_corpus", "report.summarize_corpus", span=True)
    tracer.wrap(P, "render_series_chart", "report.render")
    tracer.wrap(P, "render_granger_grid", "report.render")


def _tree_size(root: Path) -> tuple[int, int]:
    files = size = 0
    if root.exists():
        for path in root.rglob("*"):
            if path.is_file():
                files += 1
                size += path.stat().st_size
    return files, size


def layer_metrics(tracer: Tracer, *, run_s: float, out_dir: Path, cache_dir: Path,
                  fallback_model: str | None, classify_failed: int,
                  failed_share: float) -> dict[str, float]:
    """Every LAYER_METRICS value except ``trace.overhead_s``."""
    calls, self_s, hits, bodies = tracer.calls, tracer.self_s, tracer.hits, tracer.bodies
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"pipeline.stage_{stage}_s"] = sum(
            s["end"] - s["start"] for s in tracer.spans
            if s["phase"] == "run" and s["name"] == f"pipeline.stage_{stage}")
    m["pipeline.stage_sum_gap"] = (run_s - sum(m[f"pipeline.stage_{s}_s"] for s in STAGES)) / run_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m["pipeline.cache_gets"] = calls["pipeline.cache_get"]
    m["pipeline.cache_get_s"] = self_s["pipeline.cache_get"]
    m["pipeline.cache_hit_ratio"] = ratio(hits["pipeline.cache_get"], calls["pipeline.cache_get"])
    m["pipeline.cache_puts"] = calls["pipeline.cache_put"]
    m["pipeline.cache_put_s"] = self_s["pipeline.cache_put"]
    m["pipeline.cache_files"], m["pipeline.cache_bytes"] = _tree_size(cache_dir)
    m["pipeline.out_bytes"] = _tree_size(out_dir)[1]
    m["pipeline.run_id_calls"] = calls["pipeline.run_id"]
    m["pipeline.run_id_s"] = self_s["pipeline.run_id"]
    m["pipeline.failed_share"] = failed_share

    records = tracer.values.get("corpus.records_in", 0)
    m["corpus.load_surveys_calls"] = calls["corpus.load_surveys"]
    m["corpus.load_surveys_s"] = self_s["corpus.load_surveys"]
    m["corpus.records_in"] = records
    m["corpus.rows_rejected"] = tracer.values.get("corpus.rows_rejected", 0)
    m["corpus.write_survey_s"] = self_s["corpus.write_survey"]
    m["corpus.distinct_text_share"] = ratio(tracer.values.get("corpus.distinct_texts", 0), records)

    m["translate.translate_all_s"] = self_s["translate.translate_all"]
    m["translate.backend_calls"] = calls["translate.backend"]
    m["translate.backend_s"] = self_s["translate.backend"]
    m["translate.retries"] = len(bodies["translate.backend"]) - len(set(bodies["translate.backend"]))
    m["translate.failed"] = tracer.values.get("translate.failed", 0)
    m["translate.cache_get_s"] = self_s["translate.cache_get"]
    m["translate.cache_hit_ratio"] = ratio(hits["translate.cache_get"], calls["translate.cache_get"])
    m["translate.cache_put_s"] = self_s["translate.cache_put"]

    wire = bodies["classify.wire"]
    m["classify.classify_batch_s"] = self_s["classify.classify_batch"]
    m["classify.wire_calls"] = calls["classify.wire"]
    m["classify.wire_s"] = self_s["classify.wire"]
    m["classify.retries"] = len(wire) - len(set(wire))
    m["classify.fallbacks"] = len({b for b in wire if b[0] == fallback_model})
    m["classify.failed"] = classify_failed

    m["lexicon.rolling_lexicons_s"] = self_s["lexicon.rolling_lexicons"]
    m["lexicon.term_counts_s"] = self_s["lexicon.term_counts"]
    m["lexicon.terms"] = tracer.values.get("lexicon.terms", 0)
    m["lexicon.pearson_calls"] = calls["lexicon.pearson"]
    m["lexicon.pearson_s"] = self_s["lexicon.pearson"]
    m["lexicon.tokenize_calls"] = calls["lexicon.tokenize"]
    m["lexicon.tokenize_s"] = self_s["lexicon.tokenize"]
    m["lexicon.tokenize_per_comment"] = ratio(calls["lexicon.tokenize"], records)
    m["lexicon.backend_classify_s"] = self_s["lexicon.backend_classify"]

    m["index.build_series_s"] = self_s["index.build_series"]
    m["econometrics.granger_sweep_s"] = self_s["econometrics.granger_sweep"]
    m["econometrics.granger_tests"] = tracer.values.get("econometrics.granger_tests", 0)
    m["report.summarize_corpus_s"] = self_s["report.summarize_corpus"]
    m["report.render_s"] = self_s["report.render"]
    return m
