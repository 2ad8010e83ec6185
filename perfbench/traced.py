"""Run one clvkit CLI command in-process, with a span around each layer call.

Usage: python3 traced.py SPANS_JSON CLI_ARG...

The command runs through ``clvkit.cli.main`` itself, so its layers are
called in the CLI's own order. Before it runs, each public function listed
in ``LAYER_CALLS`` is replaced, wherever a clvkit module holds it, by a
wrapper that records a span (name, start, end, parent index). Readers and
the scorer return lazy iterators; their wrappers drain them inside the
span, so each layer's time is its own rather than that of whichever layer
consumes it. Spans stay in memory and are written to SPANS_JSON at exit.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, span name, drain the returned iterator inside the span)
LAYER_CALLS = [
    ("dataio", "read_calibration", "dataio.read_calibration", True),
    ("dataio", "read_scoring", "dataio.read_scoring", True),
    ("dataio", "write_projections", "dataio.write_projections", False),
    ("dataio", "write_calibration", "dataio.write_cohort", False),
    ("dataio", "write_scoring", "dataio.write_cohort", False),
    ("survival", "estimate_hazard_by_tenure", "survival.estimate", False),
    ("survival", "estimate_cause_specific", "survival.estimate", False),
    ("survival", "detect_tail_start", "survival.detect_tail", False),
    ("pipeline", "score_stream", "pipeline.score", True),
    ("pipeline", "score_stream_competing", "pipeline.score", True),
    ("odds", "fit_odds_model", "odds.fit", False),
    ("simulate", "generate_cohort", "simulate.generate", False),
    ("simulate", "write_truth", "simulate.write_truth", False),
]


class Tracer:
    """Spans recorded in call order; a span's parent is the one open around it."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, drain: bool):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return iter(list(result)) if drain else result
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
        return traced


def install(tracer: Tracer) -> None:
    """Replace each listed function in every loaded clvkit module that holds it."""
    modules = [m for name, m in sys.modules.items()
               if name == "clvkit" or name.startswith("clvkit.")]
    for module_name, function, span_name, drain in LAYER_CALLS:
        home = sys.modules.get(f"clvkit.{module_name}")
        original = getattr(home, function, None)
        if original is None:
            continue
        wrapped = tracer.wrap(span_name, original, drain)
        for module in modules:
            if getattr(module, function, None) is original:
                setattr(module, function, wrapped)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import clvkit.cli

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", clvkit.cli.main, False)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
