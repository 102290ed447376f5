"""Spans around the calls one gridband module makes into the next.

The tracer patches module attributes from outside the package; nothing
under src/ knows it exists.  Each wrapped call pushes a frame, and on
return its duration is charged to the caller's frame, so a frame's self
time is its span minus its child spans.  Calls made once per vertex, edge
or row (HOT) are aggregated per (name, caller) instead of recorded one
span each; every other call is also kept as a span record.

Run as a script, this file is the traced stand-in for `python -m gridband`:

    python3 bench/tracer.py OUT.json SPAWNED MODE -- coeffs --n 2 --d 3

It writes the op's spans and aggregates to OUT.json.  SPAWNED is the
parent's time.perf_counter() just before it started the process (a
system-wide monotonic clock on Linux), from which startup is measured.
MODE "spans" records spans only; MODE "memory" also runs tracemalloc inside
each coeffs call, to estimate the peak memory that coeffs calls hold (the
row cache plus a call's transient peak).  tracemalloc slows allocation-heavy
code several times over, so its runs are kept apart from the timed spans.
"""

import sys
import time

# (module, attribute) call sites to wrap: every function one gridband module
# imports from another, plus the intra-module calls that carry a per-layer
# metric.  Text helpers
# (format_vertex, parse_vertex) stay unwrapped and count as the caller's
# rendering.  A name missing from a module is skipped.
SITES = {
    "gridband.cli": (
        "asymptotic_estimate", "bounds", "bw_hales", "bw_lex", "ratio_table",
        "coeff_row", "max_coeff", "labeling_bandwidth", "lex_rank", "lex_unrank",
        "hales_enumerate", "hales_rank", "hales_unrank",
        "brute_force_bw", "certificate_to_text", "verify_optimal",
    ),
    "gridband.bandwidth": ("max_coeff", "top_sum", "bw_hales"),
    "gridband.grid": ("hales_enumerate", "hales_rank", "lex_rank"),
    "gridband.oracle": ("bw_hales", "lex_unrank", "hales_enumerate", "brute_force_bw"),
    "gridband.hales": ("hales_rank", "hales_unrank"),
}
HOT = frozenset({
    "coeffs.top_sum", "bandwidth.bw_lex", "hales.hales_rank", "hales.hales_unrank",
    "hales.hales_enumerate", "grid.lex_rank", "grid.lex_unrank",
})
LAYERS = ("cli", "coeffs", "bandwidth", "hales", "grid", "oracle")
_CO_GENERATOR = 0x20


class Tracer:
    """A stack of open frames, per-(name, caller) aggregates and span records."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [span id, name, start, child seconds]
        self.stats = {}  # (name, caller name) -> [calls, seconds, self seconds]
        self.counts = {}
        self.spans = []  # (op, id, name, start, end, parent id)
        self.op = 0
        self.memory = None  # the tracemalloc module, in memory mode
        self.peak_kb = 0.0
        self._retained = 0
        self._next_id = 1

    def enter(self, name):
        if self.memory is not None and name.startswith("coeffs."):
            self.memory.start()
        self.stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def exit(self, record=True):
        end = self.clock()
        span_id, name, start, child = self.stack.pop()
        seconds = end - start
        caller = self.stack[-1] if self.stack else None
        if caller is not None:
            caller[3] += seconds
        stat = self.stats.setdefault((name, caller and caller[1]), [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += seconds
        stat[2] += seconds - child
        if record:
            self.spans.append((self.op, span_id, name, start, end, caller and caller[0]))
        if self.memory is not None and name.startswith("coeffs."):
            # tracemalloc runs only inside coeffs calls; what a call leaves
            # allocated (its rows, which stay cached) carries over to the next
            current, peak = self.memory.get_traced_memory()
            self.memory.stop()
            self.peak_kb = max(self.peak_kb, (self._retained + peak) / 1024)
            self._retained += current

    def add(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    def dump(self):
        return {
            "stats": [[name, caller, *stat] for (name, caller), stat in self.stats.items()],
            "counts": self.counts,
            "spans": self.spans,
            "coeffs_peak_kb": self.peak_kb,
        }


def _traced_iter(tracer, name, gen):
    while True:
        tracer.enter(name)
        try:
            item = next(gen)
        except StopIteration:
            tracer.exit(False)
            return
        except BaseException:
            tracer.exit(False)
            raise
        tracer.exit(False)
        tracer.add("hales.enumerate_vertices", 1)
        yield item


def _wrap(tracer, fn):
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    record = name not in HOT
    generator = bool(fn.__code__.co_flags & _CO_GENERATOR)

    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(record and not generator)
        if generator:
            return _traced_iter(tracer, name, result)
        nodes = getattr(result, "nodes_explored", None)
        if nodes is not None and name == "oracle.brute_force_bw":
            tracer.add("oracle.nodes", nodes)
        return result

    return wrapper


def install(tracer):
    """Wrap every call site in SITES of the loaded modules, and every cli.cmd_*."""
    for module_name, names in SITES.items():
        module = sys.modules.get(module_name)
        if module is None:
            continue
        if module_name == "gridband.cli":
            names = names + tuple(n for n in vars(module) if n.startswith("cmd_"))
        for attr in names:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, _wrap(tracer, fn))


def merge(dumps, factors=None):
    """Sum aggregates over ops: ({(name, caller): [calls, s, self s]}, counts, peak kB).

    Each dump's times are multiplied by its entry in `factors`, if given.
    """
    stats, counts, peak = {}, {}, 0.0
    for dump, factor in zip(dumps, factors or [1.0] * len(dumps)):
        for name, caller, calls, seconds, self_seconds in dump["stats"]:
            stat = stats.setdefault((name, caller), [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += seconds * factor
            stat[2] += self_seconds * factor
        for name, k in dump["counts"].items():
            counts[name] = counts.get(name, 0) + k
        peak = max(peak, dump["coeffs_peak_kb"])
    return stats, counts, peak


def _total(stats, name, field, caller=None):
    return sum(
        stat[field] for (n, c), stat in stats.items()
        if n == name and (caller is None or c == caller)
    )


def layer_self_ms(stats, layer):
    """Self time of every frame of one layer, in ms."""
    return 1000 * sum(stat[2] for (n, _), stat in stats.items() if n.startswith(layer + "."))


# name -> unit, in the order results list them
PER_LAYER = {
    "cli.startup_ms": "ms", "cli.self_ms": "ms", "cli.output_bytes": "bytes",
    "coeffs.top_sum_calls": "count", "coeffs.top_sum_ms": "ms",
    "coeffs.max_coeff_ms": "ms", "coeffs.coeff_row_ms": "ms",
    "coeffs.peak_kb": "kB", "coeffs.self_ms": "ms",
    "bandwidth.bw_hales_ms": "ms", "bandwidth.self_ms": "ms",
    "hales.rank_calls": "count", "hales.rank_ms": "ms", "hales.unrank_ms": "ms",
    "hales.enumerate_vertices": "count", "hales.enumerate_ms": "ms", "hales.self_ms": "ms",
    "grid.scan_ms": "ms", "grid.scan_self_ms": "ms", "grid.lex_rank_calls": "count",
    "grid.witness_rank_calls": "count", "grid.self_ms": "ms",
    "oracle.nodes": "count", "oracle.nodes_per_s": "1/s", "oracle.search_ms": "ms",
    "oracle.self_ms": "ms",
    "trace.overhead_ms": "ms", "trace.overhead_pct": "%",
}


def layer_metrics(stats, counts, peak_kb, ops, startup_ms, output_bytes, overhead_s, untraced_s):
    """Per-layer metrics as means per op (counts and times) over `ops` traced ops."""
    def ms(name, caller=None):
        return 1000 * _total(stats, name, 1, caller) / ops

    def calls(name, caller=None):
        return _total(stats, name, 0, caller) / ops

    search_s = _total(stats, "oracle.brute_force_bw", 1)
    nodes = counts.get("oracle.nodes", 0)
    values = {
        "cli.startup_ms": startup_ms,
        "cli.output_bytes": output_bytes,
        "coeffs.top_sum_calls": calls("coeffs.top_sum"),
        "coeffs.top_sum_ms": ms("coeffs.top_sum"),
        "coeffs.max_coeff_ms": ms("coeffs.max_coeff"),
        "coeffs.coeff_row_ms": ms("coeffs.coeff_row"),
        "coeffs.peak_kb": peak_kb,
        "bandwidth.bw_hales_ms": ms("bandwidth.bw_hales"),
        "hales.rank_calls": calls("hales.hales_rank"),
        "hales.rank_ms": ms("hales.hales_rank"),
        "hales.unrank_ms": ms("hales.hales_unrank"),
        "hales.enumerate_vertices": counts.get("hales.enumerate_vertices", 0) / ops,
        "hales.enumerate_ms": ms("hales.hales_enumerate"),
        "grid.scan_ms": ms("grid.labeling_bandwidth"),
        "grid.scan_self_ms": 1000 * _total(stats, "grid.labeling_bandwidth", 2) / ops,
        "grid.lex_rank_calls": calls("grid.lex_rank"),
        "grid.witness_rank_calls": calls("hales.hales_rank", "grid.labeling_bandwidth"),
        "oracle.nodes": nodes / ops,
        "oracle.nodes_per_s": nodes / search_s if search_s else 0.0,
        "oracle.search_ms": 1000 * search_s / ops,
        "trace.overhead_ms": 1000 * overhead_s / ops,
        "trace.overhead_pct": 100 * overhead_s / untraced_s,
    }
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = layer_self_ms(stats, layer) / ops
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv):
    out_path, spawned, mode = argv[0], float(argv[1]), argv[2]
    prog_argv = argv[argv.index("--") + 1:]
    import gridband.cli

    startup_ms = 1000 * (time.perf_counter() - spawned)
    import json
    import tracemalloc

    tracer = Tracer()
    install(tracer)
    if mode == "memory":
        tracer.memory = tracemalloc
    try:
        return gridband.cli.main(prog_argv)
    finally:
        tracer.memory = None
        tracemalloc.stop()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"startup_ms": startup_ms, **tracer.dump()}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
