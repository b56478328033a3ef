"""Parallel ANEK-INFER: level-synchronous scheduling over the call graph.

The paper's modularity claim is that probabilistic method summaries are
the *only* channel between per-method models, so independent methods can
be solved concurrently.  This module makes that operational:

* the call graph is condensed into SCC levels
  (:func:`repro.analysis.callgraph.condensation_levels`) — methods in
  the same level share no cross-SCC summary dependency;
* each round walks the levels callee-first; every level's models are
  solved concurrently against a *snapshot* of the summary store taken at
  the start of the level;
* the solved marginals are merged back in sorted method-key order, so
  the final summaries (and therefore every downstream marginal) are
  independent of task completion order.

Two interchangeable executors drive the level solves — ``serial``
(inline) and ``process`` (:class:`~concurrent.futures.ProcessPoolExecutor`,
true parallelism).  Both run the *same* schedule, exchange the *same*
picklable payloads, and merge in the *same* order, which is the
determinism guarantee the differential test suite
(``tests/test_parallel_differential.py``) locks in: marginals agree
bit-for-bit across executors.

Rounds repeat until either the round budget derived from
``InferenceSettings.max_worklist_iters`` is exhausted or a round leaves
every summary and every piece of caller evidence unchanged.  Later
rounds only re-solve *dirty* methods — those whose own summary, callee
summaries, or incoming evidence changed — mirroring the sequential
worklist's re-enqueue rule.  Intra-SCC (recursive) summary edges resolve
across rounds, Jacobi style.
"""

import math
import multiprocessing
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.analysis.callgraph import condensation_levels
from repro.core.model import ModelCache
from repro.core.shardplan import plan_shards, resolve_shard_count
from repro.core.pfg_builder import build_pfg
from repro.core.priors import SpecEnvironment
from repro.core.summaries import (
    SummaryStore,
    TargetMarginal,
    clip_marginal,
    satisfaction_evidence,
)
from repro.resilience.faults import maybe_fault
from repro.resilience.report import FailureRecord, record_from_exception

#: Executors accepted by ``InferenceSettings.executor``.  ``worklist`` is
#: the sequential reference engine (paper Figure 9); the other two run
#: the level-synchronous schedule above.
EXECUTORS = ("worklist", "serial", "process")


def resolve_jobs(jobs):
    """Worker count: ``jobs`` if positive, else the machine's CPU count."""
    if jobs and jobs > 0:
        return int(jobs)
    return os.cpu_count() or 1


@dataclass
class MethodSolveOutcome:
    """Picklable result of solving one method's model.

    Marginals travel as plain ``(kind, state)`` dict payloads
    (:meth:`TargetMarginal.to_payload`) and methods as stable string keys
    (:func:`repro.java.symbols.method_key`), so an outcome can cross a
    process boundary and re-attach to the parent's ASTs.
    """

    key: str
    boundary: list  # [((slot, target), marginal payload), ...]
    deposits: list  # [(callee key, slot, target, site key, payload), ...]
    #: Factors constructed by this visit: the model's factor count when a
    #: build ran, else 0 — a reused model regenerates no constraints.
    factor_count: int
    constraint_counts: dict
    built: bool = True
    skipped: bool = False
    #: True when the outcome was replayed from the persistent cache.
    replayed: bool = False
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: Resilience outcomes: the method was dropped (constraint-generation
    #: crash) / fell to prior-only marginals / the FailureRecords either
    #: way.  Records are plain dataclasses, so they pickle across the
    #: process boundary inside the outcome.
    quarantined: bool = False
    degraded: bool = False
    failures: list = field(default_factory=list)


def solve_method_to_outcome(
    program, method_ref, key, pfg, config, settings, spec_env, store, key_of,
    models=None,
):
    """SOLVE one method (via its cached model when ``models`` is given);
    every executor funnels through this single code path so
    floating-point behaviour cannot diverge."""
    if models is None:
        models = ModelCache(
            program, config, spec_env, engine=settings.engine, reuse=False
        )
    policy = settings.effective_policy()
    try:
        visit = models.solve(method_ref, pfg, store, settings)
    except Exception as exc:
        if not policy.enabled:
            raise
        # Constraint generation (or the model machinery around it)
        # crashed.  Report a quarantined outcome instead of letting the
        # exception take down the level (serial executor) or the whole
        # chunk (process executor).
        return MethodSolveOutcome(
            key=key,
            boundary=[],
            deposits=[],
            factor_count=0,
            constraint_counts={},
            built=False,
            quarantined=True,
            failures=[
                record_from_exception(
                    "constraints", key, exc, "method-quarantined"
                )
            ],
        )
    boundary = [
        (slot_target, marginal.to_payload())
        for slot_target, marginal in visit.boundary.items()
    ]
    deposits = []
    for callee, slot, target, site_key, marginal in visit.deposits:
        caller_ref, site_index = site_key
        deposits.append(
            (
                key_of[callee],
                slot,
                target,
                (key_of[caller_ref], site_index),
                marginal.to_payload(),
            )
        )
    return MethodSolveOutcome(
        key=key,
        boundary=boundary,
        deposits=deposits,
        factor_count=visit.factor_count,
        constraint_counts=visit.constraint_counts,
        built=visit.built,
        skipped=visit.skipped,
        replayed=visit.replayed,
        build_seconds=visit.build_seconds,
        solve_seconds=visit.solve_seconds,
        degraded=visit.degraded,
        failures=list(visit.failures),
    )


# ---------------------------------------------------------------------------
# Process-pool worker side
# ---------------------------------------------------------------------------

#: Per-worker state, installed once by the pool initializer.
_WORKER = None


def _process_worker_init(blob):
    """Unpickle the program once per worker and index it by method key.

    The blob carries the parent's already-built PFGs: pickling them is an
    order of magnitude cheaper than re-lowering every method in every
    worker, and ``pickle`` memoization keeps them attached to the same
    unpickled AST objects as the worker's program copy.
    """
    global _WORKER
    program, config, settings, pfgs_by_key, cache_spec = pickle.loads(blob)
    table = program.method_key_table()
    spec_env = SpecEnvironment(program)
    bound_cache = None
    if cache_spec is not None:
        # Each worker re-opens the store from its picklable spec; writes
        # are atomic renames, so concurrent workers never tear entries.
        from repro.cache.manager import AnalysisCache

        bound_cache = AnalysisCache.from_spec(cache_spec).bind(
            program, config, settings
        )
    _WORKER = {
        "program": program,
        "config": config,
        "settings": settings,
        "spec_env": spec_env,
        "table": table,
        "key_of": {ref: key for key, ref in table.items()},
        "pfgs": pfgs_by_key,
        # Worker-local model cache: a method re-solved by this worker in a
        # later round reuses its built model.  Refreshes depend only on
        # store *content*, so worker-local caches cannot change results —
        # only how much build work each worker repeats.
        "models": ModelCache(
            program,
            config,
            spec_env,
            engine=settings.engine,
            reuse=settings.reuse_models,
            cache=bound_cache,
        ),
    }


def _process_solve_chunk(keys, store_payload):
    """Solve a chunk of one level's methods inside a worker process."""
    state = _WORKER
    store = SummaryStore.from_payload(store_payload, state["table"])
    policy = state["settings"].effective_policy()
    outcomes = []
    for key in keys:
        if policy.enabled:
            # The worker-crash site: ``kill`` faults simulate a
            # segfaulting worker, ``delay`` a hung one, ``raise`` an
            # in-worker crash — each surfaces in the parent as a failed
            # chunk and exercises the pool-recovery path.
            maybe_fault("worker", key)
        ref = state["table"][key]
        pfg = state["pfgs"].get(key)
        if pfg is None:  # pragma: no cover - defensive; blob ships all PFGs
            pfg = state["pfgs"][key] = build_pfg(state["program"], ref)
        outcomes.append(
            solve_method_to_outcome(
                state["program"],
                ref,
                key,
                pfg,
                state["config"],
                state["settings"],
                state["spec_env"],
                store,
                state["key_of"],
                models=state["models"],
            )
        )
    return outcomes


# ---------------------------------------------------------------------------
# Executor backends
# ---------------------------------------------------------------------------


class _SerialBackend:
    """Inline execution: the deterministic reference for the schedule.

    Solving only *reads* the summary store and merging happens strictly
    after the level completes, so the live store is passed straight
    through — the payload round-trip is pure copying and the process
    backend's reconstruction yields value-identical dicts, keeping the
    two executors' floats equal.
    """

    name = "serial"

    def __init__(self, scheduler):
        self.scheduler = scheduler

    def solve_level(self, keys, store):
        return [self.scheduler.solve_local(key, store) for key in keys]

    def close(self):
        pass


class _ProcessBackend:
    """Process-pool execution: true parallelism across CPU cores.

    The backend survives worker death: a chunk whose future raises
    (``BrokenProcessPool`` after a killed worker, ``TimeoutError`` after
    a hang past ``policy.worker_timeout``, or an in-worker crash) is
    requeued onto a freshly rebuilt pool, up to ``policy.worker_retries``
    rebuilds per level.  If the pool keeps collapsing, the backend
    degrades *permanently* to solving in-parent on the serial path —
    same single solve code path, so the recovered marginals are
    bit-identical to what a healthy pool would have produced.
    """

    name = "process"

    def __init__(self, scheduler, jobs, blob):
        self.scheduler = scheduler
        self.jobs = jobs
        self.blob = blob
        self.policy = scheduler.settings.effective_policy()
        self.failures = scheduler.inference.failures
        #: Permanent in-parent fallback after repeated pool collapse.
        self.serial_fallback = False
        if "fork" in multiprocessing.get_all_start_methods():
            self.context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            self.context = multiprocessing.get_context()
        self.pool = self._make_pool()

    def _make_pool(self):
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=self.context,
            initializer=_process_worker_init,
            initargs=(self.blob,),
        )

    def _kill_pool(self):
        """Tear the pool down hard — hung workers never finish, so a
        graceful shutdown would block forever."""
        pool, self.pool = self.pool, None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead races
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken-pool races
            pass

    def _solve_in_parent(self, chunks, store, by_key):
        """The last-resort path: solve a chunk's methods inline via the
        scheduler's local entry — identical maths, zero processes."""
        for chunk in chunks:
            for key in chunk:
                outcome = self.scheduler.solve_local(key, store)
                by_key[outcome.key] = outcome

    def solve_level(self, keys, store):
        store_payload = store.to_payload(self.scheduler.key_of)
        # One chunk per worker bounds the per-level IPC round-trips.
        chunks = [c for c in (keys[i :: self.jobs] for i in range(self.jobs)) if c]
        by_key = {}
        timeout = self.policy.worker_timeout or None
        if not self.policy.enabled:
            futures = [
                self.pool.submit(_process_solve_chunk, chunk, store_payload)
                for chunk in chunks
            ]
            for future in futures:
                for outcome in future.result():
                    by_key[outcome.key] = outcome
            return [by_key[key] for key in keys]
        pending = chunks
        rebuilds = 0
        while pending:
            if self.serial_fallback or self.pool is None:
                self._solve_in_parent(pending, store, by_key)
                break
            submitted = [
                (chunk, self.pool.submit(_process_solve_chunk, chunk,
                                         store_payload))
                for chunk in pending
            ]
            failed = []
            first_error = None
            for chunk, future in submitted:
                try:
                    for outcome in future.result(timeout=timeout):
                        by_key[outcome.key] = outcome
                except Exception as exc:
                    failed.append(chunk)
                    if first_error is None:
                        first_error = exc
            if not failed:
                break
            # Some chunk died or hung: the pool's workers are suspect
            # either way (a BrokenProcessPool poisons every future; a
            # hung worker never frees its slot), so rebuild from scratch.
            self._kill_pool()
            rebuilds += 1
            requeued_keys = ",".join(k for chunk in failed for k in chunk)
            if rebuilds > self.policy.worker_retries:
                self.serial_fallback = True
                self.failures.add(
                    FailureRecord(
                        stage="worker",
                        key=requeued_keys,
                        error=type(first_error).__name__,
                        message="process pool collapsed %d times; running "
                        "remaining methods in-parent (%s)"
                        % (rebuilds, first_error),
                        disposition="executor-degraded",
                        retries=self.policy.worker_retries,
                    )
                )
                self._solve_in_parent(failed, store, by_key)
                break
            self.failures.add(
                FailureRecord(
                    stage="worker",
                    key=requeued_keys,
                    error=type(first_error).__name__,
                    message="worker failure (%s); pool rebuilt, %d method(s) "
                    "requeued" % (first_error,
                                  sum(len(c) for c in failed)),
                    disposition="worker-restarted",
                    retries=rebuilds,
                )
            )
            # The orchestrator-kill site of the chaos harness: a
            # ``killproc`` here SIGKILLs the parent mid-recovery, after
            # the old pool is torn down but before its replacement
            # exists — the worst moment for a preemption to land.
            maybe_fault("worker-recover", requeued_keys)
            self.pool = self._make_pool()
            pending = failed
        return [by_key[key] for key in keys]

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()


# ---------------------------------------------------------------------------
# The level-synchronous scheduler
# ---------------------------------------------------------------------------


class LevelScheduler:
    """Runs ANEK-INFER as a level-synchronous schedule over one program."""

    def __init__(self, inference):
        self.inference = inference
        self.program = inference.program
        self.config = inference.config
        self.settings = inference.settings
        self.table = self.program.method_key_table()
        self.key_of = {ref: key for key, ref in self.table.items()}
        #: The global shard plan ({method_ref: shard index}), installed
        #: by :meth:`run` before any backend is built.
        self.shard_of = {}
        #: Methods whose factor and constraint counts are in the stats.  A
        #: pool worker solving a method for the first time builds its
        #: model, and which worker takes a method's chunk in each round
        #: depends on timing, so a method's counts are added only once.
        self._counted = set()

    # -- in-parent solves (serial backend, process fallback) -------------------

    def solve_local(self, key, store):
        ref = self.table[key]
        return solve_method_to_outcome(
            self.program,
            ref,
            key,
            self.inference.pfgs[ref],
            self.config,
            self.settings,
            self.inference.spec_env,
            store,
            self.key_of,
            models=self.inference.models,
        )

    # -- backend construction --------------------------------------------------

    def make_backend_groups(self, jobs, shard_count):
        """One backend per shard.

        The serial executor shares a single backend object across every
        shard; the process executor builds one *independent process
        group* per shard, each initialized with only its own shard's
        PFGs, so a group's resident footprint shrinks with the shard
        count.
        """
        if self.settings.executor == "serial":
            return [_SerialBackend(self)] * shard_count
        bound_cache = self.inference.cache
        cache_spec = (
            bound_cache.cache.spec() if bound_cache is not None else None
        )
        shard_pfgs = [{} for _ in range(shard_count)]
        for ref in sorted(self.inference.pfgs, key=lambda r: self.key_of[r]):
            shard = self.shard_of.get(ref, 0) if shard_count > 1 else 0
            shard_pfgs[shard][self.key_of[ref]] = self.inference.pfgs[ref]
        blobs = []
        try:
            for pfgs_by_key in shard_pfgs:
                blobs.append(
                    pickle.dumps(
                        (
                            self.program,
                            self.config,
                            self.settings,
                            pfgs_by_key,
                            cache_spec,
                        ),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                )
        except Exception as exc:
            warnings.warn(
                "process executor unavailable (%s: %s); falling back to "
                "serial" % (type(exc).__name__, exc),
                RuntimeWarning,
                stacklevel=2,
            )
            return [_SerialBackend(self)] * shard_count
        # Workers are split across the groups as evenly as possible;
        # every group gets at least one.
        base, extra = divmod(max(jobs, shard_count), shard_count)
        return [
            _ProcessBackend(
                self, base + (1 if index < extra else 0), blobs[index]
            )
            for index in range(shard_count)
        ]

    # -- the schedule ----------------------------------------------------------

    def run(self, manager=None, resume_state=None):
        inference = self.inference
        settings = self.settings
        stats = inference.stats
        start = time.perf_counter()
        methods = inference._initialize()
        self._results = {}
        resume_extra = None
        if resume_state is not None:
            # Restore *before* building the levels: a method the earlier
            # run quarantined at the PFG stage must be absent from the
            # condensation (as it was then), keeping the round budget and
            # the schedule identical across the resume boundary.
            self._results, resume_extra = inference._apply_resume_state(
                resume_state
            )
            methods = [ref for ref in methods if ref in inference.pfgs]
        results = {}
        if methods:
            levels, scc_count = condensation_levels(
                inference.call_graph,
                methods,
                sort_key=lambda ref: self.key_of[ref],
            )
            stats.levels = len(levels)
            stats.sccs = scc_count
            jobs = resolve_jobs(settings.jobs)
            shard_count = resolve_shard_count(settings.shards, jobs)
            stats.shards = shard_count
            self.shard_of = plan_shards(levels, shard_count, self.key_of)
            groups = self.make_backend_groups(jobs, shard_count)
            try:
                self._run_rounds(levels, groups, manager, resume_extra)
            finally:
                for backend in {id(b): b for b in groups}.values():
                    backend.close()
            stats.executor = groups[0].name
            stats.jobs = jobs
            results = self._results
        else:
            stats.executor = settings.executor
            stats.jobs = resolve_jobs(settings.jobs)
            stats.shards = resolve_shard_count(
                settings.shards, stats.jobs
            )
        stats.elapsed_seconds = time.perf_counter() - start
        return results

    def _solve_level(self, groups, targets, keys, store):
        """Solve one level across the shard groups; returns the outcomes
        in canonical (sorted method-key) order plus a per-shard trace.

        Every shard solves against the same level-start store — merges
        happen strictly after all shards return, in canonical order — so
        the outcome set is independent of the shard count.  Shard groups
        run concurrently on parent threads (each process group drives
        its own pool, retries included); the serial executor drives its
        shards sequentially, preserving its inline semantics.
        """
        if len(groups) == 1:
            level_start = time.perf_counter()
            outcomes = groups[0].solve_level(keys, store)
            trace = [
                {
                    "shard": 0,
                    "methods": len(keys),
                    "seconds": time.perf_counter() - level_start,
                }
            ]
            return outcomes, trace
        shard_keys = [[] for _ in groups]
        for ref, key in zip(targets, keys):
            shard_keys[self.shard_of.get(ref, 0)].append(key)
        populated = [
            (index, chunk)
            for index, chunk in enumerate(shard_keys)
            if chunk
        ]
        by_key = {}
        trace = []
        errors = []
        lock = threading.Lock()

        def drive(shard_index, chunk):
            shard_start = time.perf_counter()
            try:
                outcomes = groups[shard_index].solve_level(chunk, store)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return
            with lock:
                for outcome in outcomes:
                    by_key[outcome.key] = outcome
                trace.append(
                    {
                        "shard": shard_index,
                        "methods": len(chunk),
                        "seconds": time.perf_counter() - shard_start,
                    }
                )

        if groups[0].name == "serial":
            for shard_index, chunk in populated:
                drive(shard_index, chunk)
        else:
            threads = [
                threading.Thread(
                    target=drive,
                    args=(shard_index, chunk),
                    name="anek-shard-%d" % shard_index,
                )
                for shard_index, chunk in populated
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        trace.sort(key=lambda entry: entry["shard"])
        return [by_key[key] for key in keys], trace

    def _run_rounds(self, levels, groups, manager=None, resume=None):
        inference = self.inference
        stats = inference.stats
        store = inference.summaries
        method_count = sum(len(level) for level in levels)
        max_iters = self.settings.resolved_max_iters(method_count)
        rounds = max(1, math.ceil(max_iters / max(method_count, 1)))
        dirty = set(ref for level in levels for ref in level)
        start_round, resume_level = 1, None
        round_changed_seed = None
        if resume:
            # Snapshots record the position *after* level (round, level)
            # merged, plus both dirty sets; re-entering there re-executes
            # the remaining levels exactly as the uninterrupted run
            # would have (merges happen in sorted method-key order, so
            # the schedule is the only state that matters).
            start_round = resume["round"]
            resume_level = resume["level"]
            dirty = {
                self.table[key] for key in resume["dirty"] if key in self.table
            }
            round_changed_seed = {
                self.table[key]
                for key in resume["round_changed"]
                if key in self.table
            }
        for round_index in range(start_round, rounds + 1):
            if round_changed_seed is not None:
                round_changed = round_changed_seed
                round_changed_seed = None
            else:
                round_changed = set()
            for level_index, level in enumerate(levels):
                if (
                    resume_level is not None
                    and round_index == start_round
                    and level_index <= resume_level
                ):
                    continue
                targets = [
                    ref
                    for ref in level
                    if ref in dirty and ref in inference.pfgs
                ]
                if not targets:
                    continue
                keys = [self.key_of[ref] for ref in targets]
                level_start = time.perf_counter()
                outcomes, shard_trace = self._solve_level(
                    groups, targets, keys, store
                )
                for outcome in outcomes:
                    self._merge_outcome(outcome, round_changed)
                stats.solves += len(targets)
                entry = {
                    "round": round_index,
                    "level": level_index,
                    "methods": len(targets),
                    "seconds": time.perf_counter() - level_start,
                }
                if len(groups) > 1:
                    entry["shards"] = shard_trace
                stats.schedule.append(entry)
                if manager is not None:
                    extra = {
                        "round": round_index,
                        "level": level_index,
                        "dirty": sorted(
                            self.key_of[ref]
                            for ref in dirty
                            if ref in self.key_of
                        ),
                        "round_changed": sorted(
                            self.key_of[ref]
                            for ref in round_changed
                            if ref in self.key_of
                        ),
                    }
                    manager.barrier(
                        "round:%d:level:%d" % (round_index, level_index),
                        lambda extra=extra: manager.encode(
                            self._results, extra=extra
                        ),
                    )
            stats.rounds = round_index
            dirty = round_changed
            if not dirty:
                break

    def _merge_outcome(self, outcome, round_changed):
        """Fold one solved model back into the shared state.

        Outcomes arrive in sorted method-key order (the backends preserve
        submission order), so every store mutation below happens in the
        same sequence on every executor.
        """
        inference = self.inference
        stats = inference.stats
        store = inference.summaries
        confidence = self.config.summary_confidence
        ref = self.table[outcome.key]
        if outcome.quarantined:
            # The method died during constraint generation: drop it from
            # inference and give it a conservative empty boundary.  Its
            # summaries/deposits are never touched, so neighbours solve
            # exactly as if the method had no body.
            inference.quarantine_method(ref, outcome.failures[0])
            self._results[ref] = {}
            return
        if outcome.failures:
            inference.failures.extend(outcome.failures)
        if outcome.degraded:
            stats.degraded += 1
        boundary = {
            slot_target: TargetMarginal.from_payload(payload)
            for slot_target, payload in outcome.boundary
        }
        self._results[ref] = boundary
        if outcome.built:
            stats.builds += 1
            if ref not in self._counted:
                self._counted.add(ref)
                stats.factors += outcome.factor_count
                for rule, count in outcome.constraint_counts.items():
                    stats.constraint_counts[rule] = (
                        stats.constraint_counts.get(rule, 0) + count
                    )
        elif outcome.skipped:
            stats.skips += 1
        elif outcome.replayed:
            stats.replays += 1
        else:
            stats.reuses += 1
        stats.build_seconds += outcome.build_seconds
        stats.solve_seconds += outcome.solve_seconds
        own_changed = False
        for (slot, target), marginal in boundary.items():
            capped = clip_marginal(marginal, confidence)
            if store.update(ref, slot, target, capped):
                own_changed = True
        if own_changed:
            round_changed.add(ref)
            round_changed.update(inference._callers_of.get(ref, []))
        for callee_key, slot, target, site_key, payload in outcome.deposits:
            marginal = TargetMarginal.from_payload(payload)
            if slot == "pre":
                marginal = satisfaction_evidence(marginal)
            capped = clip_marginal(marginal, confidence)
            callee = self.table[callee_key]
            if store.deposit_evidence(callee, slot, target, site_key, capped):
                if callee in inference.method_set:
                    round_changed.add(callee)


def run_scheduled(inference, manager=None, resume_state=None):
    """Entry point used by :meth:`AnekInference.run` for non-worklist
    executors.  ``manager``/``resume_state`` thread the durable run
    layer (checkpoint barriers after each level's merge, resume from a
    recorded ``(round, level)`` position)."""
    return LevelScheduler(inference).run(
        manager=manager, resume_state=resume_state
    )
