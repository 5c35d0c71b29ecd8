"""Span wrappers around the program's public entry points.

The traced run installs :func:`install` before a workload starts.  Each
entry point in :data:`ENTRY_POINTS` is replaced by a wrapper that times
the call as a span of its layer; the program itself is not modified.
Class methods are patched on the class.  Plain functions are patched in
their defining module *and* in every loaded ``repro`` module that bound
the same object with ``from x import f``, because such a binding is made
once at import time.

A span's self time is its duration minus the time of the spans it
encloses, so summing self time per layer never counts a nested call
twice.  Metric groups (``similarity.pair_matrix_s`` covers three entry
points that call one another) add only their outermost span.  Spans are
aggregated in memory per name — count, total, self, max — and returned by
:meth:`Tracer.report` when the workload ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

Hook = Callable[["Tracer", Any, tuple, dict, Any], None]

LAYERS = (
    "data", "graphs", "text", "similarity", "model", "core", "io",
    "service", "eval",
)


class Tracer:
    """Aggregating span recorder; safe to use from several threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: span name -> [count, total_s, self_s, max_s]
        self.spans: dict[str, list[float]] = {}
        self.layer_of: dict[str, str] = {}
        #: metric group -> outermost total seconds
        self.groups: dict[str, float] = {}
        self.counters: dict[str, float] = {}

    def _frames(self):
        local = self._local
        try:
            return local.stack, local.depth
        except AttributeError:
            local.stack, local.depth = [], {}
            return local.stack, local.depth

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        group: str | None,
        pre: Callable[[tuple, dict], Any] | None = None,
        post: Hook | None = None,
    ) -> Callable:
        self.layer_of[name] = layer
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack, depth = tracer._frames()
            token = pre(args, kwargs) if pre is not None else None
            outer = group is not None and not depth.get(group)
            if group is not None:
                depth[group] = depth.get(group, 0) + 1
            frame = [0.0]  # child seconds
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if group is not None:
                    depth[group] -= 1
                with tracer._lock:
                    agg = tracer.spans.get(name)
                    if agg is None:
                        agg = tracer.spans[name] = [0, 0.0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[0]
                    if elapsed > agg[3]:
                        agg[3] = elapsed
                    if outer:
                        tracer.groups[group] = (
                            tracer.groups.get(group, 0.0) + elapsed
                        )
            if post is not None:
                post(tracer, token, args, kwargs, result)
            return result

        return span

    def report(self) -> dict[str, Any]:
        with self._lock:
            layers = {layer: 0.0 for layer in LAYERS}
            for name, agg in self.spans.items():
                layers[self.layer_of[name]] += agg[2]
            return {
                "spans": {
                    name: {
                        "layer": self.layer_of[name],
                        "count": int(agg[0]),
                        "total_s": agg[1],
                        "self_s": agg[2],
                        "max_s": agg[3],
                    }
                    for name, agg in sorted(self.spans.items())
                },
                "layer_self_s": layers,
                "groups": dict(self.groups),
                "counters": dict(self.counters),
            }


def merge_reports(*reports: dict[str, Any]) -> dict[str, Any]:
    """Sum several processes' reports (client + server of serve-mixed)."""
    out: dict[str, Any] = {
        "spans": {}, "layer_self_s": {layer: 0.0 for layer in LAYERS},
        "groups": {}, "counters": {},
    }
    for report in reports:
        for name, span in report["spans"].items():
            into = out["spans"].setdefault(
                name, {"layer": span["layer"], "count": 0, "total_s": 0.0,
                       "self_s": 0.0, "max_s": 0.0},
            )
            into["count"] += span["count"]
            into["total_s"] += span["total_s"]
            into["self_s"] += span["self_s"]
            into["max_s"] = max(into["max_s"], span["max_s"])
        for key in ("layer_self_s", "groups", "counters"):
            for name, value in report[key].items():
                out[key][name] = out[key].get(name, 0) + value
    return out


# --------------------------------------------------------------------- #
# hooks: counts measured where the work happens
# --------------------------------------------------------------------- #
def _pairs_scored(tracer, _token, args, kwargs, _result) -> None:
    # Counted at the two leaf paths: pair_matrix dispatches every list
    # to exactly one of them, so each scored pair is counted once.
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    tracer.count("similarity.pairs_scored", len(pairs))


def _profile_cached(args, kwargs) -> bool:
    computer, vid = args[0], (args[1] if len(args) > 1 else kwargs["vid"])
    return computer.is_cached(vid)


def _profile_hit(tracer, cached, _args, _kwargs, _result) -> None:
    tracer.count("similarity.profile_calls")
    if cached:
        tracer.count("similarity.profile_hits")


def _em_iterations(tracer, _token, _args, _kwargs, report) -> None:
    tracer.count("model.em_iterations", report.n_iterations)


def _merges(tracer, _token, _args, _kwargs, outcome) -> None:
    tracer.count("core.merges", outcome.n_merges)


def _burst(tracer, _token, args, _kwargs, _result) -> None:
    stats = args[0].last_batch
    tracer.count("core.bursts")
    tracer.count("core.burst_papers", stats.n_papers)
    tracer.count("core.scored_pairs", stats.n_scored_pairs)
    tracer.count("core.patched_pairs", stats.n_patched_pairs)


def _log_size(args, kwargs) -> int:
    path = args[0] if args else kwargs["log_path"]
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _delta_bytes(tracer, before, args, kwargs, _result) -> None:
    tracer.count("io.delta_bytes", _log_size(args, kwargs) - before)


def _chain_record(tracer, _token, _args, _kwargs, _result) -> None:
    tracer.count("io.chain_records")


def _publish(tracer, _token, args, kwargs, _result) -> None:
    generation = args[2] if len(args) > 2 else kwargs.get("generation", 0)
    if generation:
        tracer.count("service.swaps")


@dataclass(frozen=True)
class EntryPoint:
    """``module:Class.attr`` or ``module:function``, and how to time it."""

    target: str
    layer: str
    group: str | None = None
    pre: Callable | None = None
    post: Hook | None = None


ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("repro.data.synthetic:SyntheticDBLP.generate", "data",
               "data.generate_s"),
    EntryPoint("repro.data.testing:build_testing_dataset", "data"),
    EntryPoint("repro.graphs.scn:SCNBuilder.build", "graphs",
               "graphs.scn_build_s"),
    EntryPoint("repro.text.embeddings:train_title_embeddings", "text",
               "text.embed_train_s"),
    EntryPoint("repro.similarity.profile:SimilarityComputer.pair_matrix",
               "similarity", "similarity.pair_matrix_s"),
    EntryPoint(
        "repro.similarity.profile:SimilarityComputer.pair_matrix_batched",
        "similarity", "similarity.pair_matrix_s", post=_pairs_scored,
    ),
    EntryPoint(
        "repro.similarity.profile:SimilarityComputer.pair_matrix_perpair",
        "similarity", "similarity.pair_matrix_s", post=_pairs_scored,
    ),
    EntryPoint("repro.similarity.profile:SimilarityComputer.profile",
               "similarity", pre=_profile_cached, post=_profile_hit),
    EntryPoint("repro.model.mixture:MatchMixture.fit", "model",
               "model.em_s", post=_em_iterations),
    EntryPoint("repro.model.scoring:match_scores", "model",
               "model.match_scores_s"),
    EntryPoint("repro.core.iuad:IUAD.fit", "core", "core.iuad_fit_s"),
    EntryPoint("repro.core.iuad:run_merge_rounds", "core",
               "core.merge_rounds_s", post=_merges),
    EntryPoint("repro.core.balance:split_prolific_vertices", "core",
               "core.split_balance_s"),
    EntryPoint("repro.core.sharding:ShardedIUAD.fit", "core",
               "core.sharded_fit_s"),
    EntryPoint("repro.core.sharding:ShardIndex.route_papers", "core",
               "core.route_s"),
    EntryPoint("repro.core.incremental:IncrementalDisambiguator.add_paper",
               "core"),
    EntryPoint("repro.core.streaming:StreamingIngestor.add_papers", "core",
               "core.add_papers_s", post=_burst),
    EntryPoint("repro.core.streaming:StreamingIngestor.checkpoint", "core",
               "core.checkpoint_s"),
    EntryPoint("repro.core.streaming:StreamingIngestor.resume", "core",
               "core.resume_s"),
    EntryPoint("repro.io.snapshot:Snapshot.save", "io",
               "io.snapshot_save_s"),
    EntryPoint("repro.io.snapshot:Snapshot.to_document", "io",
               "io.snapshot_save_s"),
    EntryPoint("repro.io.adapters:write_document", "io",
               "io.snapshot_save_s"),
    EntryPoint("repro.io.snapshot:Snapshot.load", "io",
               "io.snapshot_load_s"),
    EntryPoint("repro.io.snapshot:Snapshot.from_document", "io",
               "io.snapshot_load_s"),
    EntryPoint("repro.io.adapters:read_document", "io",
               "io.snapshot_load_s"),
    EntryPoint("repro.io.snapshot:Snapshot.restore", "io", "io.restore_s"),
    EntryPoint("repro.io.delta:document_fingerprint", "io"),
    EntryPoint("repro.io.delta:append_record", "io", "io.delta_append_s",
               pre=_log_size, post=_delta_bytes),
    EntryPoint("repro.io.delta:read_chain", "io", "io.chain_replay_s"),
    EntryPoint("repro.io.delta:replay_record", "io", "io.chain_replay_s",
               post=_chain_record),
    EntryPoint("repro.service.view:FittedView.of", "service",
               "service.publish_s", post=_publish),
    EntryPoint("repro.service.view:FittedView.who_is", "service",
               "service.query_s"),
    EntryPoint("repro.service.view:FittedView.resolve", "service",
               "service.query_s"),
    EntryPoint("repro.service.view:FittedView.cluster_of", "service",
               "service.query_s"),
    EntryPoint("repro.service.view:FittedView.as_clusters_dict", "service",
               "service.query_s"),
    EntryPoint("repro.eval.metrics:micro_metrics", "eval"),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` (once per process)."""
    for point in ENTRY_POINTS:
        module_name, _, qualname = point.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(
                    raw.__func__, qualname, point.layer, point.group,
                    point.pre, point.post,
                ))
            else:
                wrapped = tracer.wrap(
                    raw, qualname, point.layer, point.group, point.pre,
                    point.post,
                )
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(
            original, qualname, point.layer, point.group, point.pre,
            point.post,
        )
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
