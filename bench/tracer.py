"""Span tracer for the traced benchmark run.

``python bench/tracer.py SPANS.json ARGS...`` wraps the calls between
longmem's modules, runs ``longmem.cli.main(ARGS)`` like ``python -m
longmem ARGS`` does, and writes the spans to SPANS.json when main returns.
The modules import functions by value, so each name is patched where it is
looked up.  The untraced runs install no wrappers.

A span is ``[id, name, parent id or -1, start, end]`` in perf_counter
seconds; ``summarize`` turns one invocation's spans into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time

from workloads import largest_prime_factor

# Computed, not measured: per convolution of length L, three complex128
# transforms each read and write 16 L bytes, the spectral product reads two
# and writes one complex vector, and the residue check reads the result.
CONVOLVE_BYTES_PER_POINT = 3 * 2 * 16 + 3 * 16 + 16


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.fft_lengths = []
        self.counters = {"cli.bytes_out": 0, "estimators.dropped_endpoints": 0}
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn):
        """Return ``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, parent, start, end))

        return traced

    def install(self):
        """Patch longmem's inter-module calls; returns the traced ``main``."""
        import longmem.cli as cli
        import longmem.montecarlo as montecarlo
        import longmem.sampler as sampler

        def patch(module, attr, name):
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

        convolve = self.wrap("dft.circular_convolve", sampler.circular_convolve)

        def convolve_counted(row, v, *args, **kwargs):
            self.fft_lengths.append(len(v))
            return convolve(row, v, *args, **kwargs)

        sampler.circular_convolve = convolve_counted
        patch(sampler, "draw_epsilon", "sampler.draw_epsilon")
        patch(sampler, "standardize", "sampler.standardize")
        sampler.RngStream.generator = self.wrap("sampler.keying", sampler.RngStream.generator)
        patch(montecarlo, "generate", "sampler.generate")
        patch(montecarlo, "sample_stats", "estimators.sample_stats")
        for module in (montecarlo, cli):
            patch(module, "build_model", "spectral.build_model")
            patch(module, "eigen_report", "spectral.eigen_report")
        patch(cli, "generate", "sampler.generate")
        patch(cli, "run_study", "montecarlo.run_study")
        patch(cli, "fit_alpha_from_histogram", "estimators.fit_alpha")
        patch(cli, "render", "cli.render")
        patch(cli, "config_from_args", "cli.parse")
        for command, handler in cli._HANDLERS.items():
            cli._HANDLERS[command] = self.wrap("cli.handler", handler)

        accumulate = self.wrap("estimators.accumulate_histogram", cli.accumulate_histogram)

        def accumulate_counted(samples, *args, **kwargs):
            pooled = 0

            def counted():
                nonlocal pooled
                for vector in samples:
                    pooled += len(vector)
                    yield vector

            hist = accumulate(counted(), *args, **kwargs)
            self.counters["estimators.dropped_endpoints"] += pooled - hist.sample_count
            return hist

        cli.accumulate_histogram = accumulate_counted

        emit = self.wrap("cli.emit", cli._emit)

        def emit_counted(text, output):
            # Output is ASCII, so characters are bytes.
            self.counters["cli.bytes_out"] += len(text)
            return emit(text, output)

        cli._emit = emit_counted

        build_parser = self.wrap("cli.parse", cli.build_parser)

        def build_parser_traced():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        cli.build_parser = build_parser_traced
        return self.wrap("cli.main", cli.main)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans, "fft_lengths": self.fft_lengths,
                                 "counters": self.counters}))


def summarize(trace):
    """Per-layer metrics of one traced invocation (a loaded SPANS.json)."""
    total, calls, child = {}, {}, {}
    names = {}
    for span_id, name, _, start, end in trace["spans"]:
        names[span_id] = name
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    for _, _, parent, start, end in trace["spans"]:
        if parent >= 0:
            child[names[parent]] = child.get(names[parent], 0.0) + (end - start)

    def busy(name):
        return total.get(name, 0.0)

    def self_time(name):
        return busy(name) - child.get(name, 0.0)

    lengths = trace["fft_lengths"]
    fft_len = max(lengths, default=0)
    counters = trace["counters"]
    return {
        "sampler.keying_s": busy("sampler.keying"),
        "sampler.keying_calls": calls.get("sampler.keying", 0),
        "sampler.draw_self_s": self_time("sampler.draw_epsilon"),
        "sampler.generate_self_s": self_time("sampler.generate"),
        "sampler.standardize_s": busy("sampler.standardize"),
        "estimators.sample_stats_s": busy("estimators.sample_stats"),
        "montecarlo.run_study_self_s": self_time("montecarlo.run_study"),
        "dft.convolve_s": busy("dft.circular_convolve"),
        "dft.convolve_calls": calls.get("dft.circular_convolve", 0),
        "dft.fft_len": fft_len,
        "dft.fft_len_lpf": largest_prime_factor(fft_len) if fft_len else 0,
        "dft.bytes_moved_computed": CONVOLVE_BYTES_PER_POINT * sum(lengths),
        "estimators.accumulate_histogram_s": self_time("estimators.accumulate_histogram"),
        "estimators.fit_alpha_s": busy("estimators.fit_alpha"),
        "estimators.dropped_endpoints": counters["estimators.dropped_endpoints"],
        "cli.parse_s": busy("cli.parse"),
        "cli.handler_s": busy("cli.handler"),
        "cli.render_self_s": self_time("cli.render"),
        "cli.emit_s": busy("cli.emit"),
        "cli.bytes_out": counters["cli.bytes_out"],
        "trace.spans": len(trace["spans"]),
    }


def median_summary(summaries):
    """Per-metric median over the traced invocations of one run."""
    # median_low keeps counts whole when the number of invocations is even.
    return {key: (statistics.median_low if isinstance(summaries[0][key], int) else statistics.median)(
        [s[key] for s in summaries]) for key in summaries[0]}


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    traced_main = tracer.install()
    code = traced_main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
