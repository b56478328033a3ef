"""Outside-in layer tracing: wrap the layers' public entry points.

Nothing under ``src/`` knows about this module.  :func:`install_layer_spans`
replaces each layer function at the import sites the program calls it
through, records one span per call (name, start, end, parent span, request
id) in memory, and :meth:`Tracer.uninstall` puts the originals back.

Forked pool workers inherit the wrappers.  Their spans are shipped back to
the parent as JSON lines, one file per worker process, written after each
solved chunk; :meth:`Tracer.collect_workers` merges them.
"""

import functools
import importlib
import json
import os
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "detail")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.detail = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, worker_dir=None):
        self.spans = []
        self.counters = {}
        #: Directory forked workers write their spans to (None = no pool).
        self.worker_dir = worker_dir
        self._local = threading.local()
        self._patches = []
        self._in_worker = False
        self._fork_hook = False

    # -- recording ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self):
        return getattr(self._local, "request", None)

    def set_request(self, request):
        self._local.request = request

    def count(self, name, amount=1):
        key = (self.current_request(), name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, detail=None, after=None):
        """``fn`` recording a ``name`` span per call.  ``detail(args,
        result)`` stores per-call data on the span; ``after()`` runs once
        the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                name,
                time.perf_counter(),
                stack[-1] if stack else None,
                tracer.current_request(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if detail is not None:
                    span.detail = detail(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
                if after is not None:
                    after()

        return traced

    def patch(self, owner, attribute, name, detail=None, after=None):
        """Replace ``owner.attribute`` (a module or class) with a traced
        wrapper of its current value."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        setattr(owner, attribute, self.wrap(original, name, detail, after))
        self._patches.append((owner, attribute, original))

    def patch_counter(self, owner, attribute, name):
        """Count calls of ``owner.attribute`` and its truthy results as
        ``name`` and ``name.true`` (no span: too fine-grained)."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.count(name)
            if result:
                tracer.count(name + ".true")
            return result

        setattr(owner, attribute, counted)
        self._patches.append((owner, attribute, original))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- forked workers -----------------------------------------------------------

    def watch_forks(self):
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True

    def _after_fork(self):
        # The child starts with the parent's open stack and spans; it
        # records only its own work from here on.
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._in_worker = True

    def flush_worker(self):
        """In a forked worker: append this process's spans to its file."""
        if not self._in_worker or self.worker_dir is None:
            return
        path = os.path.join(self.worker_dir, "worker-%d.jsonl" % os.getpid())
        spans, self.spans = self.spans, []
        counters, self.counters = self.counters, {}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(export_trace(spans, counters)) + "\n")

    def collect_workers(self):
        """``(spans, counters)`` shipped back by forked workers."""
        spans, counters = [], {}
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return spans, counters
        for entry in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, entry)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    batch_spans, batch_counters = import_trace(json.loads(line))
                    spans.extend(batch_spans)
                    for key, value in batch_counters.items():
                        counters[key] = counters.get(key, 0) + value
        return spans, counters


def export_trace(spans, counters):
    """Spans and counters as JSON-ready data.  A span is a row ``[name,
    start, end, parent row, request, detail]``; a counter is a row
    ``[request, name, value]``."""
    index = {id(span): position for position, span in enumerate(spans)}
    return {
        "spans": [
            [
                span.name,
                span.start,
                span.end,
                index[id(span.parent)] if span.parent is not None else None,
                span.request,
                span.detail,
            ]
            for span in spans
        ],
        "counters": [
            [request, name, value]
            for (request, name), value in counters.items()
        ],
    }


def import_trace(data):
    """Inverse of :func:`export_trace`: ``(spans, counters)``."""
    spans = []
    for name, start, end, _, request, detail in data["spans"]:
        span = Span(name, start, None, request)
        span.end = end
        span.detail = detail
        spans.append(span)
    for span, row in zip(spans, data["spans"]):
        if row[3] is not None:
            span.parent = spans[row[3]]
    counters = {
        (request, name): value for request, name, value in data["counters"]
    }
    return spans, counters


def self_times(spans):
    """``{id(span): self seconds}``: each span's duration minus the time
    its direct children cover.  Children of one span run on the span's
    own thread, one after another, so their durations do not overlap."""
    covered = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            covered[key] = covered.get(key, 0.0) + span.duration
    return {id(span): span.duration - covered.get(id(span), 0.0) for span in spans}


def has_ancestor(span, name):
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def _bp_detail(args, result):
    return [len(args[0].names), int(result.iterations)]


def _chunk_detail(args, result):
    return {"pid": os.getpid(), "methods": len(args[0])}


def install_layer_spans(tracer):
    """Wrap every traced layer at the sites the program calls it through."""
    from repro.cache.store import ArtifactStore
    from repro.core import parallel
    from repro.core.infer import AnekInference
    from repro.core.summaries import SummaryStore
    from repro.factorgraph.compiled import CompiledGraph

    tracer.watch_forks()
    for owner, attribute, name in (
        ("repro.java.parser", "parse_compilation_unit", "java.parse"),
        ("repro.core.pipeline", "parse_compilation_unit", "java.parse"),
        ("repro.serve.server", "parse_compilation_unit", "java.parse"),
        ("repro.core.pipeline", "resolve_program", "java.resolve"),
        ("repro.serve.server", "resolve_program", "java.resolve"),
        ("repro.analysis.ir", "lower_method", "analysis.lower"),
        ("repro.analysis.callgraph", "lower_method", "analysis.lower"),
        ("repro.core.pfg_builder", "build_cfg", "analysis.cfg"),
        ("repro.plural.checker", "build_cfg", "analysis.cfg"),
        ("repro.plural.bitvector", "build_cfg", "analysis.cfg"),
        ("repro.core.infer", "build_call_graph", "analysis.callgraph"),
        ("repro.core.infer", "method_call_targets", "analysis.callgraph"),
        ("repro.core.infer", "build_pfg", "pfg.build"),
        ("repro.core.parallel", "build_pfg", "pfg.build"),
        ("repro.core.pfgstore", "build_pfg", "pfg.build"),
        ("repro.core.pipeline", "apply_specs", "apply"),
        ("repro.core.pipeline", "render_annotated_sources", "apply"),
        ("repro.core.pipeline", "run_check", "check"),
        ("repro.serve.server", "run_check", "check"),
    ):
        tracer.patch(owner, attribute, name)
    tracer.patch(AnekInference, "run", "infer.run")
    tracer.patch(AnekInference, "extract_specs", "extract")
    tracer.patch(CompiledGraph, "run", "bp.run", detail=_bp_detail)
    tracer.patch(ArtifactStore, "load", "cache.load")
    tracer.patch(ArtifactStore, "save", "cache.save")
    tracer.patch(parallel._ProcessBackend, "solve_level", "parallel.level")
    tracer.patch(
        parallel,
        "_process_solve_chunk",
        "parallel.chunk",
        detail=_chunk_detail,
        after=tracer.flush_worker,
    )
    tracer.patch_counter(SummaryStore, "update", "summaries.updates")
