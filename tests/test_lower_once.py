"""One front-end pass per method.

ANEK-INFER's initialisation (paper Figure 9, lines 1-7) builds one PFG
per method and one call graph.  Both come from a single lowering of each
method: the PFG build's CFG keeps its ``LoweredMethod`` and the call
targets are read from it, so ``_initialize`` lowers every method with a
body exactly once on a cold start and not at all when the persistent
cache holds the method's PFG and targets.
"""

import collections

import pytest

import repro.analysis.callgraph as callgraph
import repro.analysis.ir as ir
from repro.analysis.callgraph import build_call_graph
from repro.cache.manager import AnalysisCache
from repro.core.infer import AnekInference
from repro.corpus.generator import CorpusSpec, generate_pmd_corpus
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program
from tests.test_golden_specs import PROGRAMS


def resolve(sources):
    return resolve_program([parse_compilation_unit(s) for s in sources])


@pytest.fixture
def lowerings(monkeypatch):
    """Counts ``lower_method`` calls per method declaration, through
    every name the front end lowers by."""
    counts = collections.Counter()
    original = ir.lower_method

    def counting(program, class_decl, method_decl):
        counts[id(method_decl)] += 1
        return original(program, class_decl, method_decl)

    monkeypatch.setattr(ir, "lower_method", counting)
    monkeypatch.setattr(callgraph, "lower_method", counting)
    return counts


def once_per_method(counts, program):
    return counts == collections.Counter(
        id(ref.method_decl) for ref in program.methods_with_bodies()
    )


def site_tuples(graph):
    return [(site.caller, site.callee, site.line) for site in graph.sites]


@pytest.fixture(scope="module")
def corpus_sources():
    bundle = generate_pmd_corpus(CorpusSpec())
    return (
        [bundle.api_source]
        + list(bundle.extra_api_sources)
        + list(bundle.sources)
    )


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_initialize_lowers_each_method_once(name, lowerings, tmp_path):
    program = resolve(PROGRAMS[name]())
    AnekInference(program)._initialize()
    assert once_per_method(lowerings, program)

    lowerings.clear()
    cache = AnalysisCache(cache_dir=str(tmp_path))
    AnekInference(program, cache=cache)._initialize()
    assert once_per_method(lowerings, program)

    lowerings.clear()
    warm = AnekInference(program, cache=AnalysisCache(cache_dir=str(tmp_path)))
    warm._initialize()
    assert not lowerings
    assert warm.cache.stats.pfg_hits == len(warm.method_set)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_inferred_graph_matches_build_call_graph(name):
    program = resolve(PROGRAMS[name]())
    inference = AnekInference(program)
    inference._initialize()
    expected = site_tuples(build_call_graph(program))
    assert expected
    assert site_tuples(inference.call_graph) == expected


def test_corpus_lowered_once_and_graph_matches(corpus_sources, lowerings):
    program = resolve(corpus_sources)
    inference = AnekInference(program)
    inference._initialize()
    assert once_per_method(lowerings, program)
    assert site_tuples(inference.call_graph) == site_tuples(
        build_call_graph(program)
    )
