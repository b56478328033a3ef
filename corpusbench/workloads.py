"""Seeded inputs and answer oracles for the benchmark workloads
(``cold-f1``, ``serve-edit``) and for ``sched-j2``, the process-executor
configuration that ``cold-f1``'s traced run also traces.

Everything here is a pure function of the workload name and the seed, so
the same seed always yields the same inputs.  The program under test
only ever sees the generated sources.
"""

import hashlib
import json
import random
import re

from repro.core import InferenceSettings
from repro.corpus.generator import CorpusSpec, generate_pmd_corpus

#: Filler literal rewritten by an edit: ``int a = x + N;``.
_EDIT_LITERAL = re.compile(r"(int %s\(int x\) \{\n\s+int a = x \+ )(\d+)(;)")

#: ``[kind] Class.method (line N): message`` (plural.warnings.Warning.format).
_WARNING_METHOD = re.compile(r"^\[[^\]]+\] (\S+) \(line \d+\)")

#: Edits per cycle before the cycle's exact repeat.
EDITS_PER_CYCLE = 3


def corpus_spec(workload, seed):
    if workload == "cold-f1":
        return CorpusSpec()
    if workload == "sched-j2":
        # The knobs CorpusSpec.scaled() applies above factor 1, kept at
        # the Table 1 size: a second protocol family and a seeded filler
        # call graph.
        return CorpusSpec(
            protocol_families=2,
            stream_consumers=10,
            filler_call_density=0.12,
            seed=seed,
        )
    if workload == "serve-edit":
        return CorpusSpec().scaled(0.25)
    raise ValueError("unknown workload %r" % workload)


def settings_for(workload):
    """CLI-default inference settings (``repro infer --no-cache``), with
    ``--jobs 2`` (process executor) on ``sched-j2``."""
    if workload == "sched-j2":
        return InferenceSettings(executor="process", jobs=2)
    return InferenceSettings()


def batch_inputs(workload, seed):
    """``(sources, bundle)`` for a batch workload.  ``cold-f1`` permutes
    the unit order by seed, keeping the generator's order at seed 0 (the
    API source stays first); ``sched-j2`` varies the corpus by seed."""
    bundle = generate_pmd_corpus(corpus_spec(workload, seed))
    units = list(bundle.sources)
    if workload == "cold-f1" and seed:
        random.Random(seed).shuffle(units)
    apis = [bundle.api_source] + list(bundle.extra_api_sources)
    return apis + units, bundle


def ground_truth(bundle):
    """Methods PLURAL must warn on: the planted ``unguarded`` calls plus
    the branch-sensitive ``Helper.consumeFirst`` (Table 2)."""
    return set(bundle.methods_tagged("unguarded")) | {"Helper.consumeFirst"}


def warned_methods(warning_lines):
    methods = set()
    for line in warning_lines:
        match = _WARNING_METHOD.match(line)
        if match is None:
            raise ValueError("unparseable warning %r" % line)
        methods.add(match.group(1))
    return methods


def oracle_mismatches(warning_lines, bundle):
    """Size of the symmetric difference between warned methods and the
    generator's ground truth; also returns the missing planted
    ``unguarded`` methods."""
    warned = warned_methods(warning_lines)
    truth = ground_truth(bundle)
    missing_planted = set(bundle.methods_tagged("unguarded")) - warned
    return len(warned ^ truth), missing_planted


def answer_digest(payload):
    """Order-free digest of a canonical pipeline payload: sorted specs
    and the warning *set*; unit order only changes listing order."""
    answer = {
        "specs": sorted(
            (entry["name"], entry["key"], entry["spec"])
            for entry in payload["specs"]
        ),
        "warnings": sorted(payload["warnings"]),
        "preannotated": sorted(payload["preannotated"]),
        "annotations": payload["annotations"],
        "clauses": payload["clauses"],
        "degraded": payload["degraded"],
    }
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sources_digest(sources):
    digest = hashlib.sha256()
    for source in sources:
        digest.update(hashlib.sha256(source.encode("utf-8")).digest())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# serve-edit: per-client edit/repeat sequences
# ---------------------------------------------------------------------------


def _filler_sites(sources):
    """``[(unit index, method name)]`` of every editable filler method."""
    sites = []
    for index, source in enumerate(sources):
        if not source.startswith("class Util"):
            continue
        for name in re.findall(r"int (op\d+)\(int x\) \{", source):
            sites.append((index, name))
    return sites


def edit_literal(client, step):
    """The literal written by ``client``'s ``step``-th edit: unique per
    client and step, and never one the generator emits (those are < 18)."""
    return 1000 + client * 1000000 + step


def apply_edit(sources, site, literal):
    """A copy of ``sources`` with one filler literal rewritten."""
    unit, method = site
    pattern = re.compile(_EDIT_LITERAL.pattern % re.escape(method))
    updated, count = pattern.subn(
        lambda m: m.group(1) + str(literal) + m.group(3), sources[unit], 1
    )
    if count != 1:
        raise ValueError("no editable literal in %s of unit %d" % (method, unit))
    edited = list(sources)
    edited[unit] = updated
    return edited


class EditSequence:
    """One serve-edit client's seeded request stream.

    Cycles of :data:`EDITS_PER_CYCLE` cumulative one-literal edits of
    protocol-free filler methods, then one exact repeat of the current
    program.  ``next()`` returns ``(kind, sources)``."""

    def __init__(self, base_sources, seed, client):
        self.sources = list(base_sources)
        self.client = client
        self.sites = _filler_sites(base_sources)
        self.rng = random.Random("serve-edit:%d:%d" % (seed, client))
        self.step = 0
        self.position = 0

    def next(self):
        self.position += 1
        if self.position % (EDITS_PER_CYCLE + 1) == 0:
            return "repeat", self.sources
        site = self.sites[self.rng.randrange(len(self.sites))]
        self.step += 1
        self.sources = apply_edit(
            self.sources, site, edit_literal(self.client, self.step)
        )
        return "edit", self.sources
