"""Self-tests of the benchmark itself (not of the program it measures).

    python3 -m pytest corpusbench -q

They check input determinism, the span arithmetic, the tail-percentile
rule, the exact-count ledger, and that every metric the benchmark prints
is declared and documented.
"""

import json
import os
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _notes():
    with open(os.path.join(BENCH_DIR, "notes.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- inputs -------------------------------------------------------------------


def _call_edges(sources):
    return sorted(
        (index, line.strip())
        for index, source in enumerate(sources)
        for line in source.splitlines()
        if line.strip().startswith("b = b + op")
    )


def test_sched_inputs_are_deterministic_and_seeded():
    first, _ = workloads.batch_inputs("sched-j2", 0)
    again, _ = workloads.batch_inputs("sched-j2", 0)
    other, _ = workloads.batch_inputs("sched-j2", 1)
    assert first == again
    assert _call_edges(first) and _call_edges(first) != _call_edges(other)


def test_cold_inputs_permute_units_by_seed():
    plain, bundle = workloads.batch_inputs("cold-f1", 0)
    shuffled, _ = workloads.batch_inputs("cold-f1", 1)
    assert plain[0] == shuffled[0] == bundle.api_source
    assert plain[1:] == bundle.sources
    assert shuffled != plain and sorted(shuffled) == sorted(plain)
    assert workloads.batch_inputs("cold-f1", 1)[0] == shuffled


def _stream(seed, client, count=12):
    base = workloads.batch_inputs("serve-edit", 0)[1].sources
    sequence = workloads.EditSequence(base, seed, client)
    return [
        (kind, workloads.sources_digest(sources))
        for kind, sources in (sequence.next() for _ in range(count))
    ]


def test_edit_sequences_are_seeded_cycles_of_unique_programs():
    assert _stream(0, 0) == _stream(0, 0)
    assert _stream(0, 0) != _stream(1, 0)
    kinds = [kind for kind, _ in _stream(0, 0)]
    assert kinds == (["edit"] * 3 + ["repeat"]) * 3
    for client in (0, 1):
        stream = _stream(0, client)
        for position, (kind, digest) in enumerate(stream):
            if kind == "repeat":
                assert digest == stream[position - 1][1]
        edits = [digest for kind, digest in stream if kind == "edit"]
        assert len(set(edits)) == len(edits)
    assert not {d for _, d in _stream(0, 0)} & {d for _, d in _stream(0, 1)}


def test_oracle_counts_symmetric_difference():
    _, bundle = workloads.batch_inputs("serve-edit", 0)
    planted = bundle.methods_tagged("unguarded")
    lines = ["[wrong-state] %s (line 3): x" % name for name in planted]
    lines.append("[wrong-state] Helper.consumeFirst (line 9): y")
    assert workloads.oracle_mismatches(lines, bundle) == (0, set())
    lines = lines[1:] + ["[wrong-state] Util1.op2 (line 4): z"]
    assert workloads.oracle_mismatches(lines, bundle) == (2, {planted[0]})


# -- tracing --------------------------------------------------------------------


def _span(name, start, end, parent=None):
    span = tracing.Span(name, start, parent, None)
    span.end = end
    return span


def test_self_time_subtracts_nested_children_once():
    pipeline = _span("pipeline", 0.0, 10.0)
    infer = _span("infer.run", 1.0, 8.0, pipeline)
    pfg = _span("pfg.build", 2.0, 5.0, infer)
    cfg = _span("analysis.cfg", 2.5, 4.5, pfg)
    lower = _span("analysis.lower", 3.0, 4.0, cfg)
    check = _span("check", 8.0, 9.5, pipeline)
    spans = [lower, cfg, pfg, infer, check, pipeline]
    own = tracing.self_times(spans)
    assert [own[id(s)] for s in spans] == [1.0, 1.0, 1.0, 4.0, 1.5, 1.5]
    assert sum(own.values()) == pipeline.duration
    assert tracing.has_ancestor(lower, "infer.run")
    assert not tracing.has_ancestor(check, "infer.run")


def test_trace_export_round_trips():
    outer = _span("a", 0.0, 2.0)
    inner = _span("b", 0.5, 1.0, outer)
    inner.detail = [3, 4]
    spans, counters = tracing.import_trace(
        json.loads(json.dumps(tracing.export_trace([inner, outer], {(7, "n"): 2})))
    )
    assert [s.name for s in spans] == ["b", "a"]
    assert spans[0].parent is spans[1] and spans[0].detail == [3, 4]
    assert counters == {(7, "n"): 2}


def test_wrappers_record_spans_and_uninstall_restores():
    module = types.ModuleType("fake_layer")
    module.outer = lambda: module.inner() + 1
    module.inner = lambda: 1
    originals = (module.outer, module.inner)
    tracer = tracing.Tracer()
    tracer.patch(module, "outer", "outer")
    tracer.patch(module, "inner", "inner")
    assert module.outer() == 2
    inner, outer = tracer.spans
    assert inner.parent is outer and outer.parent is None
    tracer.uninstall()
    assert (module.outer, module.inner) == originals


def test_layer_wrappers_restore_the_program():
    from repro.core import parallel, pipeline
    from repro.factorgraph.compiled import CompiledGraph

    before = (
        pipeline.parse_compilation_unit,
        CompiledGraph.__dict__["run"],
        parallel._process_solve_chunk,
    )
    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    assert pipeline.parse_compilation_unit is not before[0]
    tracer.uninstall()
    after = (
        pipeline.parse_compilation_unit,
        CompiledGraph.__dict__["run"],
        parallel._process_solve_chunk,
    )
    assert after == before


# -- statistics and output ------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(99))) is None
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)
    assert run.tail_percentile(list(range(1, 1001))) == (99, 990)


def test_printed_metric_names_match_benchmark_json():
    spec = _spec()
    values = run.end_to_end_values(1.0, [5.0, 7.0], 2, 4.0, 100.0)
    line = json.loads(run.result_line("end_to_end", values, True, 2, 0))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    layers = run.layer_metrics([], {}, [], [], None, 0.0, 0)
    line = json.loads(run.result_line("per_layer", layers, True, 2, 0))
    assert sorted(line["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    with pytest.raises(run.BenchError):
        run.result_line("end_to_end", dict(values, extra=1), True, 1, 0)


def test_ledger_fails_on_changed_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "LEDGER", str(tmp_path / "ledger.json"))
    values = run.layer_metrics([], {}, [], [], None, 0.0, 0)
    assert run.check_ledger("cold-f1", 0, "d", values) == []
    assert run.check_ledger("cold-f1", 0, "d", values) == []
    assert run.check_ledger(
        "cold-f1", 0, "d", dict(values, **{"bp.runs": 5})
    ) == ["count bp.runs = 5, ledger has 0 for cold-f1:0:d"]
    assert run.check_ledger(run.PARALLEL, 0, "d", values) == []
    assert run.check_ledger(
        run.PARALLEL, 0, "d", dict(values, **{"bp.runs": 5})
    ) == []


def test_program_digest_ignores_byte_code(tmp_path, monkeypatch):
    package = tmp_path / "repro"
    (package / "__pycache__").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    first = run.program_digest()
    (package / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    assert run.program_digest() == first
    (package / "a.py").write_text("x = 2\n")
    assert run.program_digest() != first


def test_notes_document_every_workload_and_layer_metric():
    spec, notes = _spec(), _notes()
    assert sorted(notes["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    assert all(entry["why"] for entry in notes["workloads"].values())
    assert sorted(notes["per_layer"]) == sorted(m["name"] for m in spec["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for entry in notes["per_layer"].values():
        assert set(entry["moves"]) <= end_to_end
        assert entry["layer"] and entry["where"]
    assert sorted(notes["end_to_end"]) == sorted(end_to_end)
    assert notes["host"]["nproc"] >= 1
