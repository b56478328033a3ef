"""Start ``repro serve`` with the benchmark's layer spans installed.

    python3 corpusbench/serve_launcher.py TRACE_OUT [serve flags...]

Installs the same wrappers as the batch tracer, tags every span with the
daemon's request id, runs the CLI's ``serve`` command, and writes the
spans to TRACE_OUT when the daemon has drained.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from tracer import Tracer, export_trace, install_layer_spans  # noqa: E402


def main(argv):
    from repro.cli import main as cli_main
    from repro.serve.server import AnekServer

    trace_out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install_layer_spans(tracer)
    execute = tracer.wrap(AnekServer.__dict__["_execute"], "serve.execute")

    def tagged_execute(self, request, live):
        tracer.set_request(live[0].request_id)
        try:
            return execute(self, request, live)
        finally:
            tracer.set_request(None)

    AnekServer._execute = tagged_execute
    try:
        code = cli_main(["serve"] + serve_args)
    finally:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(export_trace(tracer.spans, tracer.counters), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
