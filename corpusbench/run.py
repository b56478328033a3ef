#!/usr/bin/env python3
"""The repository benchmark: ANEK on the paper's corpus.

    python3 corpusbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``notes.json``):

* ``cold-f1``    whole-program inference + check of the Table 1 corpus,
                 in process, CLI defaults, no cache; the seed permutes
                 the unit order.  Its traced run also traces the same
                 pipeline with ``--jobs 2`` (process executor) on the
                 seeded call-chain form of the factor-1 corpus
                 (``sched-j2``), the only input that runs
                 ``core.parallel``.
* ``serve-edit`` a warm ``repro serve`` daemon driven by one closed-loop
                 client sending a seeded edit/repeat sequence.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds
with tracing off.  ``--trace 1`` runs fixed work twice, untraced and
with the layer spans of ``tracer.py`` installed, and reports the
per-layer metrics.  Every answer is checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, whose names and units come from ``BENCHMARK.json``.
"""

import argparse
import collections
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")
LEDGER = os.path.join(WORK, "count_ledger.json")

#: Fresh-interpreter set-ups per batch run, and fresh daemons per
#: serve-edit run; setup_s is their median.
BATCH_SETUPS = 7
SERVE_SETUPS = 3
#: serve-edit drives the daemon from one closed-loop client: with two,
#: each request's latency depended on whether the other client's request
#: shared its dispatch wave and the interpreter lock (1.7 to 3.4 s for the
#: same edit work), so run medians spread with the interleaving.
#: Untimed requests before serve-edit's measured window (one cycle): the
#: first requests to a fresh daemon run slower.
WARMUP_REQUESTS = 4
#: Requests in the traced serve-edit prefix (three cycles).
TRACE_PREFIX = 12
#: The traced-only process-executor configuration of cold-f1's traced run.
PARALLEL = "sched-j2"
#: The per-layer metrics taken from the ``PARALLEL`` op of that run.
PARALLEL_METRICS = (
    "parallel.levels",
    "parallel.rounds",
    "parallel.level_s",
    "parallel.dispatch_s",
    "parallel.solves",
    "parallel.oracle_mismatches",
)
#: Counts the exact-count ledger pins per configuration, seed and digest
#: of the program's source tree.
#: Under the process executor the model and BP counts depend on which pool
#: worker picks up which chunk (worker-local model reuse), so that
#: configuration pins ``parallel.solves`` instead.
SCHEDULE_DEPENDENT = (
    "bp.runs",
    "bp.small_runs",
    "model.builds",
    "model.reuses",
    "model.skips",
)
LEDGER_COUNTS = (
    "analysis.lower_calls",
    "analysis.cfg_builds",
    "pfg.builds",
    "bp.runs",
    "bp.small_runs",
    "model.builds",
    "model.reuses",
    "model.skips",
    "model.replays",
    "check.tier1_methods",
    "check.tier1_sites",
    "parallel.levels",
    "parallel.rounds",
    "cache.hits",
    "cache.misses",
    "parallel.solves",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad set-up)."""


def _prepare_imports():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            "no program sources at %s: run from a repository checkout" % SRC
        )
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError("imported repro from %s, not %s" % (repro.__file__, SRC))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def result_line(section, values, correct, attempted, failed):
    """The final JSON line; ``values`` must name exactly the metrics of
    ``section`` ("end_to_end" or "per_layer") in BENCHMARK.json."""
    declared = load_spec()[section]
    names = [metric["name"] for metric in declared]
    if sorted(values) != sorted(names):
        raise BenchError(
            "metric names differ from BENCHMARK.json %s: extra %s, missing %s"
            % (
                section,
                sorted(set(values) - set(names)),
                sorted(set(names) - set(values)),
            )
        )
    metrics = {
        metric["name"]: {
            "value": values[metric["name"]],
            "unit": metric["unit"],
        }
        for metric in declared
    }
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def tail_percentile(samples, minimum_beyond=10):
    """``(percentile, value)`` for the highest of p99/p90 with at least
    ``minimum_beyond`` samples above it (nearest rank), or None."""
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in (99, 90):
        if count * (100 - percentile) >= 100 * minimum_beyond:
            rank = -(-count * percentile // 100)  # ceil
            return percentile, ordered[rank - 1]
    return None


def end_to_end_values(setup_s, latencies_ms, completed, wall, rss_mb):
    """The end-to-end metrics of one timed run.  ``latencies_ms`` are the
    workload's analysis requests: whole-program ops on the batch
    workloads, edit requests on serve-edit."""
    return {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(latencies_ms),
        "throughput_rps": completed / wall,
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb():
    """Largest high-water mark among this process and its reaped
    children (pool workers, set-up probes).  Taken after the first op,
    the peak of one analysis in a fresh process, as ``repro infer`` runs
    it; later ops in the same process raise it by heap reuse, not by
    work."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def say(text):
    print(text, flush=True)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_probe(workload, seed):
    """One set-up in this (fresh) interpreter: imports + input generation."""
    from workloads import batch_inputs, sources_digest

    import repro.core.pipeline  # noqa: F401

    sources, _ = batch_inputs(workload, seed)
    print(sources_digest(sources))


def batch_setup_seconds(workload, seed):
    samples = []
    for _ in range(BATCH_SETUPS):
        start = time.perf_counter()
        probe = subprocess.Popen(
            [
                sys.executable,
                os.path.join(BENCH_DIR, "run.py"),
                "--setup-probe",
                "--workload",
                workload,
                "--seed",
                str(seed),
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
        )
        # A blocking wait: ``wait(timeout=...)`` polls with sleeps of up
        # to 50 ms, which would round every sample to that step.
        watchdog = threading.Timer(120, probe.kill)
        watchdog.start()
        try:
            code = probe.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise BenchError("set-up probe exited with code %d" % code)
    return statistics.median(samples), samples


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------


def run_op(workload, sources):
    """One whole-program op: ``(seconds, result or None, problems)``."""
    from repro.core import AnekPipeline

    from workloads import settings_for

    start = time.perf_counter()
    try:
        result = AnekPipeline(settings=settings_for(workload)).run_on_sources(
            sources
        )
    except Exception as exc:  # an op failure is measured, not fatal
        return time.perf_counter() - start, None, [
            "exception %s: %s" % (type(exc).__name__, exc)
        ]
    return time.perf_counter() - start, result, []


def judge(payload, failures_clean, bundle, reference, problems):
    """Append op-failure reasons; returns (answer digest, oracle mismatches)."""
    from workloads import answer_digest, oracle_mismatches

    if payload["degraded"]:
        problems.append("degraded")
    if not failures_clean:
        problems.append("non-empty failure ledger")
    digest = answer_digest(payload)
    if reference is not None and digest != reference:
        problems.append("answer differs from the first answer")
    mismatches, missing = oracle_mismatches(payload["warnings"], bundle)
    if missing:
        problems.append("planted warnings missing: %s" % sorted(missing))
    return digest, mismatches


def judge_result(result, bundle, reference, problems):
    """:func:`judge` for a pipeline result; ``(None, None)`` when the op
    raised (its problems already say so)."""
    if result is None:
        return None, None
    return judge(
        result.canonical_payload(),
        not result.failures.records,
        bundle,
        reference,
        problems,
    )


def run_batch(args):
    from workloads import batch_inputs, sources_digest

    began = time.perf_counter()
    sources, bundle = batch_inputs(args.workload, args.seed)
    setup_s, samples = batch_setup_seconds(args.workload, args.seed)
    say(
        "%s seed=%d: %d units, sources %s, setup %s s"
        % (
            args.workload,
            args.seed,
            len(sources),
            sources_digest(sources)[:12],
            " ".join("%.3f" % s for s in samples),
        )
    )
    times, mismatches, failed = [], [], 0
    reference = None
    rss = None
    start = time.perf_counter()
    # Start another op while at least half of one fits in the window,
    # so a run measures about --seconds and never stops short by more
    # than half an op.
    while not times or (
        time.perf_counter() - start + statistics.median(times) / 2
        <= args.seconds
    ):
        # Every op starts, as a fresh ``repro infer`` does, without the
        # previous op's garbage in the heap.
        result = None
        gc.collect()
        seconds, result, problems = run_op(args.workload, sources)
        times.append(seconds)
        digest, mismatch = judge_result(result, bundle, reference, problems)
        reference = reference or digest
        mismatches.append(mismatch)
        if problems:
            failed += 1
            say("  op %d failed: %s" % (len(times), "; ".join(problems)))
        rss = rss or peak_rss_mb()
    measured = time.perf_counter() - start
    say(
        "  analysis_s median %.3f over n=%d ops (%s); error_rate %d/%d; "
        "oracle_mismatches %s; peak_rss_mb %.1f; wall %.1f s"
        % (
            statistics.median(times),
            len(times),
            " ".join("%.3f" % t for t in times),
            failed,
            len(times),
            mismatches,
            rss,
            time.perf_counter() - began,
        )
    )
    correct = failed == 0 and not any(mismatches)
    values = end_to_end_values(
        setup_s, [t * 1000.0 for t in times], len(times), measured, rss
    )
    return result_line("end_to_end", values, correct, len(times), failed)


def trace_op(config, seed):
    """Fixed work on one batch configuration: one untraced op, then one
    traced op.  Returns ``(values, problems, failed, mismatches)``."""
    from tracer import Tracer, install_layer_spans
    from workloads import batch_inputs

    sources, bundle = batch_inputs(config, seed)
    worker_dir = os.path.join(WORK, "workers-%d" % os.getpid())
    shutil.rmtree(worker_dir, ignore_errors=True)
    os.makedirs(worker_dir)
    try:
        gc.collect()
        plain_s, plain, plain_problems = run_op(config, sources)
        gc.collect()
        tracer = Tracer(worker_dir=worker_dir)
        install_layer_spans(tracer)
        try:
            traced_s, traced, traced_problems = run_op(config, sources)
        finally:
            tracer.uninstall()
        worker_spans, worker_counters = tracer.collect_workers()
    finally:
        shutil.rmtree(worker_dir, ignore_errors=True)
    # The traced answer must equal the untraced one.
    reference, _ = judge_result(plain, bundle, None, plain_problems)
    _, mismatches = judge_result(traced, bundle, reference, traced_problems)
    failed = bool(plain_problems) + bool(traced_problems)
    problems = plain_problems + traced_problems
    stats = [traced.inference_stats.to_payload()] if traced is not None else []
    counters = dict(tracer.counters)
    for key, value in worker_counters.items():
        counters[key] = counters.get(key, 0) + value
    values = layer_metrics(
        tracer.spans + worker_spans,
        counters,
        stats,
        [],
        serve=None,
        overhead=traced_s / plain_s - 1.0,
        mismatches=mismatches or 0,
    )
    say(
        "%s seed=%d traced: untraced %.3f s, traced %.3f s, %d spans "
        "(%d from pool workers)"
        % (
            config, seed, plain_s, traced_s,
            len(tracer.spans) + len(worker_spans), len(worker_spans),
        )
    )
    problems += check_ledger(config, seed, program_digest(), values)
    return values, problems, failed, mismatches


def trace_batch(args):
    """cold-f1's per-layer metrics: its own traced op, plus the
    ``parallel.*`` metrics of a traced ``PARALLEL`` op, whose oracle
    mismatches are reported without gating."""
    values, problems, failed, mismatches = trace_op(args.workload, args.seed)
    parallel, parallel_problems, parallel_failed, parallel_mismatches = (
        trace_op(PARALLEL, args.seed)
    )
    parallel["parallel.oracle_mismatches"] = parallel_mismatches or 0
    values.update((name, parallel[name]) for name in PARALLEL_METRICS)
    problems += parallel_problems
    failed += parallel_failed
    for problem in problems:
        say("  problem: %s" % problem)
    correct = not problems and mismatches == 0
    return result_line("per_layer", values, correct, 4, failed)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans, counters, stats, cache, serve, overhead, mismatches,
                  request_filter=None):
    """Per-layer metrics from spans, counters and the stats payloads the
    public API returns.  ``request_filter`` keeps only spans and counters
    of the given serve request ids."""
    from tracer import has_ancestor, self_times

    if request_filter is not None:
        spans = [span for span in spans if span.request in request_filter]
        counters = {
            key: value
            for key, value in counters.items()
            if key[0] in request_filter
        }
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum((own[id(span)] for span in by_name.get(name, ())), 0.0)

    def counter(name):
        return sum(v for (_, n), v in counters.items() if n == name)

    def stat(name):
        return sum(payload[name] for payload in stats)

    def cache_total(kind):
        return sum(
            payload["%s_%s" % (layer, kind)]
            for payload in cache
            for layer in ("parse", "pfg", "solve", "final")
        )

    bp = by_name.get("bp.run", ())
    small = [span for span in bp if span.detail[0] <= 10]
    visits = sum(stat(name) for name in ("builds", "reuses", "skips", "replays"))
    updates = counter("summaries.updates")
    hits, misses = cache_total("hits"), cache_total("misses")
    levels = by_name.get("parallel.level", ())
    chunks = by_name.get("parallel.chunk", ())
    dispatch = 0.0
    for level in levels:
        busy = {}
        for chunk in chunks:
            if level.start <= chunk.start <= level.end:
                pid = chunk.detail["pid"]
                busy[pid] = busy.get(pid, 0.0) + chunk.duration
        dispatch += level.duration - max(busy.values(), default=0.0)
    serve = serve or {}
    return {
        "java.parse_s": self_s("java.parse"),
        "java.resolve_s": self_s("java.resolve"),
        "java.units": calls("java.parse"),
        "analysis.lower_calls": calls("analysis.lower"),
        "analysis.lower_s": self_s("analysis.lower"),
        "analysis.cfg_builds": calls("analysis.cfg"),
        "analysis.cfg_s": self_s("analysis.cfg"),
        "analysis.callgraph_s": self_s("analysis.callgraph"),
        "pfg.builds": calls("pfg.build"),
        "pfg.build_s": self_s("pfg.build"),
        "pfg.nodes": stat("pfg_nodes"),
        "model.builds": stat("builds"),
        "model.reuses": stat("reuses"),
        "model.skips": stat("skips"),
        "model.replays": stat("replays"),
        "model.build_s": float(stat("build_seconds")),
        "model.skip_ratio": stat("skips") / visits if visits else 0.0,
        "bp.runs": len(bp),
        "bp.small_runs": len(small),
        "bp.sweeps": sum(span.detail[1] for span in bp),
        "bp.kernel_s": self_s("bp.run"),
        "bp.small_kernel_s": sum((own[id(span)] for span in small), 0.0),
        "infer.run_s": sum(
            (span.duration for span in by_name.get("infer.run", ())), 0.0
        ),
        "infer.self_s": self_s("infer.run"),
        "summaries.updates": updates,
        "summaries.changed_ratio": (
            counter("summaries.updates.true") / updates if updates else 0.0
        ),
        "parallel.levels": stat("levels"),
        "parallel.rounds": stat("rounds"),
        "parallel.level_s": sum((level.duration for level in levels), 0.0),
        "parallel.dispatch_s": dispatch,
        "parallel.solves": sum(chunk.detail["methods"] for chunk in chunks),
        "parallel.oracle_mismatches": 0,
        "extract.s": self_s("extract"),
        "apply.s": self_s("apply"),
        "check.s": self_s("check"),
        "check.tier1_s": float(stat("check_tier1_seconds")),
        "check.tier2_s": float(stat("check_tier2_seconds")),
        "check.tier1_methods": stat("check_tier1_methods"),
        "check.tier1_sites": stat("check_tier1_sites"),
        "check.cfg_builds": sum(
            1 for span in by_name.get("analysis.cfg", ())
            if has_ancestor(span, "check")
        ),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.load_s": self_s("cache.load"),
        "cache.save_s": self_s("cache.save"),
        "cache.bytes_written": serve.get("bytes_written", 0),
        "serve.requests": serve.get("requests", 0),
        "serve.execute_ms": serve.get("execute_ms", 0.0),
        "serve.repeat_execute_ms": serve.get("repeat_execute_ms", 0.0),
        "serve.queue_wait_ms": serve.get("queue_wait_ms", 0.0),
        "serve.waves": serve.get("waves", 0),
        "serve.coalesced": serve.get("coalesced", 0),
        "serve.warm_start_share": serve.get("warm_start_share", 0.0),
        "trace.overhead_ratio": overhead,
        "answer.oracle_mismatches": mismatches,
    }


def program_digest():
    """Digest of the program under test: every file of the ``repro``
    package except byte-code caches."""
    paths = []
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths.extend(os.path.join(folder, name) for name in files)
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def check_ledger(config, seed, digest, values):
    """Pin the exact counts per (configuration, seed, program digest); a
    traced run whose counts differ from the last one for the same key
    fails."""
    key = "%s:%d:%s" % (config, seed, digest)
    counts = {
        name: values[name]
        for name in LEDGER_COUNTS
        if config != PARALLEL or name not in SCHEDULE_DEPENDENT
    }
    ledger = {}
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as handle:
            ledger = json.load(handle)
    previous = ledger.get(key)
    ledger[key] = counts
    os.makedirs(WORK, exist_ok=True)
    with open(LEDGER + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    os.replace(LEDGER + ".tmp", LEDGER)
    say("  counts %s" % json.dumps(counts, sort_keys=True))
    if previous is None or previous == counts:
        return []
    return [
        "count %s = %s, ledger has %s for %s"
        % (name, counts[name], previous.get(name), key)
        for name in counts
        if counts[name] != previous.get(name)
    ]


# ---------------------------------------------------------------------------
# serve-edit
# ---------------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` child on an ephemeral loopback port with its own
    fresh cache directory; traced through ``serve_launcher.py``."""

    def __init__(self, tag, trace_out=None):
        self.dir = os.path.join(WORK, "serve-%d-%s" % (os.getpid(), tag))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.cache_dir = os.path.join(self.dir, "cache")
        self.log_path = os.path.join(self.dir, "daemon.log")
        flags = ["--port", "0", "--cache-dir", self.cache_dir]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve"] + flags
        else:
            command = [
                sys.executable,
                os.path.join(BENCH_DIR, "serve_launcher.py"),
                trace_out,
            ] + flags
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.address = self._await_address()

    def _await_address(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("serving on "):
                        return line.split("serving on ", 1)[1].strip()
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise BenchError("daemon did not start; see %s" % self.log_path)

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.process.pid, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for daemon %d" % self.process.pid)

    def cache_bytes(self):
        total = 0
        for folder, _, files in os.walk(self.cache_dir):
            for name in files:
                total += os.path.getsize(os.path.join(folder, name))
        return total

    def stop(self):
        """Drain and stop the daemon; kill it if it does not exit."""
        from repro.serve.client import ServeClient, ServeError

        if self.process.poll() is None:
            try:
                with ServeClient(self.address, timeout=30) as client:
                    client.shutdown()
            except (ServeError, OSError):
                pass
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.log.close()

    def remove(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class ServeSession:
    """A daemon after set-up: pinged, with the client's base program
    analysed cold."""

    def __init__(self, bundle, tag, trace_out=None):
        from repro.serve.client import ServeClient, wait_for_server

        started = time.perf_counter()
        self.daemon = Daemon(tag, trace_out)
        try:
            wait_for_server(self.daemon.address, timeout=30)
            self.base = list(bundle.sources)
            self.client = ServeClient(self.daemon.address, timeout=170)
            self.base_reply = self.client.infer(self.base)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def stats(self):
        from repro.serve.client import ServeClient

        with ServeClient(self.daemon.address, timeout=30) as client:
            return client.stats()

    def close(self):
        if getattr(self, "client", None) is not None:
            self.client.close()
        self.daemon.stop()
        self.daemon.remove()


#: One serve-edit request: "edit" or "repeat", digest of the sources sent,
#: send-to-reply seconds, the reply, and whether it was sent in the
#: measured window (False for warm-up requests).
Record = collections.namedtuple("Record", "kind digest latency reply timed")


def drive_client(session, seed, seconds=None, count=None, warmup=0):
    """The closed-loop client: ``warmup`` untimed requests, then timed
    requests until ``seconds`` have passed or ``count`` were sent.
    Returns ``(records, measured seconds, client errors)``."""
    from workloads import EditSequence, sources_digest

    sequence = EditSequence(session.base, seed, 0)
    records = []

    def send(timed):
        kind, sources = sequence.next()
        sent = time.perf_counter()
        reply = session.client.infer(sources)
        latency = time.perf_counter() - sent
        records.append(Record(kind, sources_digest(sources), latency, reply, timed))

    errors = []
    start = time.perf_counter()
    try:
        for _ in range(warmup):
            send(False)
        start = time.perf_counter()
        while not (
            (count is not None and len(records) - warmup >= count)
            or (seconds is not None and time.perf_counter() - start >= seconds)
        ):
            send(True)
    except Exception as exc:  # reported as a failed request
        errors.append("client: %s: %s" % (type(exc).__name__, exc))
    return records, time.perf_counter() - start, errors


def judge_serve(records, bundle, base_reply, problems):
    """Count failed requests; append their reasons to ``problems``.
    Returns ``(failed, oracle mismatches)``."""
    from workloads import answer_digest

    reference = answer_digest(base_reply["result"])
    failed = 0
    worst = 0
    last_edit = None
    seen = set()
    for record in records:
        reasons = []
        reply = record.reply
        if reply.get("status") != "ok":
            reasons.append("status %s" % reply.get("status"))
        else:
            if reply["stats"]["failures"]["failures"]:
                reasons.append("non-empty failure ledger")
            _, mismatch = judge(
                reply["result"], True, bundle, reference, reasons
            )
            worst = max(worst, mismatch)
        if record.kind == "repeat":
            if record.digest != last_edit:
                reasons.append("repeat is not the current program")
        else:
            if record.digest in seen:
                reasons.append("edit repeats an earlier program")
            last_edit = record.digest
        seen.add(record.digest)
        if reasons:
            failed += 1
            problems.append("%s: %s" % (record.kind, "; ".join(reasons)))
    return failed, worst


def base_problems(session, bundle):
    from workloads import oracle_mismatches

    reply = session.base_reply
    if reply.get("status") != "ok":
        return ["base request status %s" % reply.get("status")]
    mismatch, _ = oracle_mismatches(reply["result"]["warnings"], bundle)
    if mismatch:
        return ["base answer has %d oracle mismatches" % mismatch]
    return []


def run_serve(args):
    from workloads import corpus_spec
    from repro.corpus.generator import generate_pmd_corpus

    bundle = generate_pmd_corpus(corpus_spec(args.workload, args.seed))
    setups = []
    for attempt in range(SERVE_SETUPS - 1):
        session = ServeSession(bundle, "setup%d" % attempt)
        setups.append(session.setup_s)
        session.close()
    session = ServeSession(bundle, "run")
    setups.append(session.setup_s)
    try:
        problems = base_problems(session, bundle)
        records, wall, errors = drive_client(
            session, args.seed, seconds=args.seconds, warmup=WARMUP_REQUESTS
        )
        stats = session.stats()
        rss = session.daemon.vm_hwm_mb()
    finally:
        session.close()
    problems += errors
    failed, mismatches = judge_serve(
        records, bundle, session.base_reply, problems
    )
    failed += len(errors)
    if stats["coalesced"]:
        problems.append("daemon coalesced %d requests" % stats["coalesced"])
    timed = [r for r in records if r.timed]
    edits = [r.latency * 1000.0 for r in timed if r.kind == "edit"]
    repeats = [r.latency * 1000.0 for r in timed if r.kind == "repeat"]
    tail = tail_percentile(edits)
    say(
        "serve-edit seed=%d: setup %s s; %d warm-up requests, then %d in "
        "%.1f s; edit p50 "
        "%.1f ms (n=%d)%s; repeat p50 %.1f ms (n=%d); queue wait p50 %.1f ms; "
        "error_rate %d/%d; oracle_mismatches %d; daemon VmHWM %.1f MiB"
        % (
            args.seed,
            " ".join("%.3f" % s for s in setups),
            len(records) - len(timed),
            len(timed),
            wall,
            statistics.median(edits) if edits else float("nan"),
            len(edits),
            ", p%d %.1f ms" % tail if tail else "",
            statistics.median(repeats) if repeats else float("nan"),
            len(repeats),
            statistics.median(queue_waits(timed)) if timed else float("nan"),
            failed,
            len(records) + len(errors),
            mismatches,
            rss,
        )
    )
    for problem in problems[:20]:
        say("  problem: %s" % problem)
    if not edits:
        raise BenchError("no edit request completed")
    correct = not problems and failed == 0 and mismatches == 0
    values = end_to_end_values(
        statistics.median(setups), edits, len(timed), wall, rss
    )
    return result_line(
        "end_to_end", values, correct, len(records) + len(errors), failed
    )


def queue_waits(records):
    """Client latency minus the daemon's execute time, per request: the
    reply's own ``serve.queue_wait_seconds`` is taken at response time
    and so covers the whole in-server time."""
    return [
        (r.latency - r.reply["stats"]["elapsed_seconds"]) * 1000.0
        for r in records
        if r.reply.get("status") == "ok"
    ]


def trace_serve(args):
    """Fixed work: the same request prefix against an untraced and a
    traced daemon, each after a full set-up."""
    from tracer import import_trace
    from workloads import corpus_spec
    from repro.corpus.generator import generate_pmd_corpus

    bundle = generate_pmd_corpus(corpus_spec(args.workload, args.seed))
    problems = []
    runs = {}
    trace_out = os.path.join(WORK, "serve-trace-%d.json" % os.getpid())
    for mode in ("plain", "traced"):
        session = ServeSession(
            bundle, mode, trace_out if mode == "traced" else None
        )
        try:
            problems += base_problems(session, bundle)
            before = session.stats()
            bytes_before = session.daemon.cache_bytes()
            records, _, errors = drive_client(
                session, args.seed, count=TRACE_PREFIX
            )
            after = session.stats()
            bytes_written = session.daemon.cache_bytes() - bytes_before
        finally:
            session.close()
        problems += errors
        runs[mode] = (records, before, after, bytes_written, session)
    with open(trace_out, encoding="utf-8") as handle:
        spans, counters = import_trace(json.load(handle))
    os.remove(trace_out)
    plain, traced = runs["plain"][0], runs["traced"][0]
    records, before, after, bytes_written, session = runs["traced"]
    failed, mismatches = judge_serve(
        records, bundle, session.base_reply, problems
    )
    key = lambda r: (r.digest, r.kind)  # noqa: E731
    if sorted(
        (key(r), json.dumps(r.reply.get("result"), sort_keys=True)) for r in plain
    ) != sorted(
        (key(r), json.dumps(r.reply.get("result"), sort_keys=True)) for r in traced
    ):
        problems.append("traced answers differ from untraced answers")
    if after["coalesced"]:
        problems.append("daemon coalesced %d requests" % after["coalesced"])
    ok = [r for r in records if r.reply.get("status") == "ok"]
    repeats = [r for r in ok if r.kind == "repeat"]
    serve = {
        "requests": len(records),
        "execute_ms": statistics.median(
            r.reply["stats"]["elapsed_seconds"] * 1000.0 for r in ok
        ),
        "repeat_execute_ms": statistics.median(
            r.reply["stats"]["elapsed_seconds"] * 1000.0 for r in repeats
        ),
        "queue_wait_ms": statistics.median(queue_waits(records)),
        "waves": after["waves"] - before["waves"],
        "coalesced": after["coalesced"],
        "warm_start_share": sum(
            1 for r in ok if r.reply["stats"]["warm_start"]
        ) / len(ok),
        "bytes_written": bytes_written,
    }
    values = layer_metrics(
        spans,
        counters,
        [r.reply["stats"]["inference"] for r in ok],
        [r.reply["stats"]["cache"] for r in ok],
        serve=serve,
        overhead=sum(r.latency for r in traced) / sum(r.latency for r in plain)
        - 1.0,
        mismatches=mismatches,
        request_filter={r.reply["serve"]["request_id"] for r in ok},
    )
    say(
        "serve-edit seed=%d traced: %d requests per daemon, latency sum "
        "untraced %.3f s, traced %.3f s"
        % (
            args.seed,
            len(records),
            sum(r.latency for r in plain),
            sum(r.latency for r in traced),
        )
    )
    problems += check_ledger(args.workload, args.seed, program_digest(), values)
    for problem in problems[:20]:
        say("  problem: %s" % problem)
    correct = not problems and failed == 0 and mismatches == 0
    attempted = len(plain) + len(traced)
    return result_line(
        "per_layer", values, correct, attempted, failed if attempted else 1
    )


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-f1", "serve-edit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        _prepare_imports()
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        os.makedirs(WORK, exist_ok=True)
        if args.workload == "serve-edit":
            line = trace_serve(args) if args.trace else run_serve(args)
        else:
            line = trace_batch(args) if args.trace else run_batch(args)
    except BenchError as exc:
        print("corpusbench: %s" % exc, file=sys.stderr)
        return 2
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
