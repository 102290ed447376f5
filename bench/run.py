"""Closed-loop benchmark for gridband: seeded workloads, checked outputs,
end-to-end metrics, and a traced run for per-layer metrics.

    python3 bench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one row each

One client runs one op at a time.  A run measures whole decks (the seeded
op list of a workload), as many as the workload's nominal deck time fits
in --seconds, and at least one; every op is a sample.  An op's time is
the CPU time of the process that runs it, scaled to a nominal host by
how fast a probe (bench/calibrate.py) ran on the same CPU meanwhile (see
`host_scaled`).  With
--trace 1 it runs half as many seconds untraced, then replays the first
deck traced, and reports per-layer metrics plus the tracing overhead
(traced minus untraced time of the same ops).  The last
line of stdout is one JSON object; details go to .benchrun/results/.
"""

# This process spawns every CLI op.  Linux charges the spawning process's
# peak RSS to each child's ru_maxrss, so this process runs without `site`,
# imports little and holds no outputs until the ops have run; the outputs
# are checked afterwards in a child process.
import argparse
import functools
import json
import mmap
import os
import signal
import sys
import time
from pathlib import Path

import calibrate
import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".benchrun"
TMP = RUN_DIR / "tmp"

# run by --workload all, and listed in BENCHMARK.json
MEASURED_WORKLOADS = ("closed-form", "scan", "search")
PRIMARY_SEED = 1
CONFIRM_SEED = 2  # held back for confirming a claim made on PRIMARY_SEED
SETUP_REPEATS = 5
# CPU seconds of one calibrate.py chunk on the nominal host that every time
# is scaled to: a round figure near its median (80-100 us) on the 2-core
# Xeon VM the bounds were tuned on
NOMINAL_CHUNK_S = 0.0001
TAIL_BEYOND = 10
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count).  With `beyond` samples or
    fewer no percentile qualifies, and the maximum is returned as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


def _own_hwm_kb():
    """Peak RSS of this process image, which spawned children inherit in ru_maxrss."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def spawn(argv, out_path, err_path):
    """Run argv with stdout and stderr to files.

    Returns (wall seconds, returncode, max RSS kB, CPU seconds).  The CPU
    time (user + system) leaves out the time a shared host hands to other
    guests, which makes wall time swing by a fifth from run to run.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    return (time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss,
            usage.ru_utime + usage.ru_stime)


def host_scaled(seconds, chunk_s):
    """`seconds` of CPU as they would read on the nominal host, given the
    probe's CPU seconds per chunk while they were spent."""
    return seconds * NOMINAL_CHUNK_S / chunk_s


class SpeedProbe:
    """bench/calibrate.py running beside the ops, and its published record."""

    def __init__(self, path):
        path.unlink(missing_ok=True)
        self.pid = os.posix_spawn(sys.executable,
                                  [sys.executable, "-S", str(BENCH / "calibrate.py"), str(path)],
                                  os.environ)
        self.shared = None
        try:
            deadline = time.monotonic() + 10
            while not path.exists() or path.stat().st_size < calibrate.RECORD.size:
                if time.monotonic() > deadline:
                    raise SystemExit("bench: the calibration probe did not start")
                time.sleep(0.01)
            with open(path, "rb") as handle:
                self.shared = mmap.mmap(handle.fileno(), calibrate.RECORD.size,
                                        prot=mmap.PROT_READ)
            while self.read()[0] < 1:
                time.sleep(0.01)
            first = self.read()
            time.sleep(0.2)
            self.last_chunk_s = self.chunk_s(first, self.read())
        except BaseException:
            self.close()
            raise

    def read(self):
        """(chunks done, CPU seconds), from two identical reads of the record."""
        while True:
            record = self.shared[:]
            if self.shared[:] == record:
                return calibrate.RECORD.unpack(record)

    def chunk_s(self, before, after):
        """CPU seconds per chunk between two reads; the last such figure when
        the probe ran no chunk in between (an op shorter than its turn)."""
        chunks = after[0] - before[0]
        if chunks < 1:
            if not self.alive():
                raise SystemExit("bench: the calibration probe stopped")
            return self.last_chunk_s
        self.last_chunk_s = (after[1] - before[1]) / chunks
        return self.last_chunk_s

    def alive(self):
        if self.pid is not None and os.waitpid(self.pid, os.WNOHANG)[0]:
            self.pid = None  # exited, and now reaped
        return self.pid is not None

    def close(self):
        if self.shared is not None:
            self.shared.close()
        if self.alive():
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


class Session:
    """Ops that each run one `gridband` command in a fresh process."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.deck = []
        self.runs = 0
        (TMP / "out").mkdir(parents=True, exist_ok=True)

    def setup_once(self):
        """Generate the deck and warm the interpreter and file cache with one
        tiny command; the result holds the CPU seconds of both."""
        start = time.process_time()
        self.deck = workloads.DECKS[self.workload](self.seed)
        out, err = TMP / "warm.out", TMP / "warm.err"
        _, code, _, cpu = spawn([sys.executable, "-m", "gridband", "coeffs", "--n", "1", "--d", "1"],
                                out, err)
        seconds = time.process_time() - start + cpu
        if code != 0 or out.read_bytes() != b"1 1\n":
            raise SystemExit(f"bench: warm-up command failed (exit {code}); see {err}")
        return {"seconds": seconds}

    def run_op(self, index, traced, mode="spans"):
        op = self.deck[index]
        self.runs += 1
        out, err = TMP / "out" / f"{self.runs}.out", TMP / "out" / f"{self.runs}.err"
        if traced:
            trace_out = TMP / "out" / f"{self.runs}.trace.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_out),
                    repr(time.perf_counter()), mode, "--", *op["argv"]]
        else:
            argv = [sys.executable, "-m", "gridband", *op["argv"]]
        wall, code, rss, cpu = spawn(argv, out, err)
        result = {"index": index, "seconds": cpu, "wall_s": wall, "returncode": code,
                  "rss_kb": rss, "out": str(out), "err": str(err)}
        if traced:
            result["trace"] = json.loads(trace_out.read_text(encoding="utf-8"))
        return result

    def check(self, results):
        """Check every output in a child process, which may grow without
        charging its memory to later ops."""
        request, answer = TMP / "checks-in.json", TMP / "checks-out.json"
        request.write_text(json.dumps(
            [{"op": self.deck[r["index"]], **{k: r[k] for k in ("returncode", "out", "err")}}
             for r in results]), encoding="utf-8")
        _, code, _, _ = spawn([sys.executable, str(BENCH / "checks.py"), str(request)],
                           answer, TMP / "checks.err")
        if code != 0:
            raise SystemExit(f"bench: output checker failed; see {TMP / 'checks.err'}")
        for result, verdict in zip(results, json.loads(answer.read_text(encoding="utf-8"))):
            result.update(verdict)
            traced_nodes = result.get("trace", {}).get("counts", {}).get("oracle.nodes")
            if result.get("nodes") is not None and "trace" in result and traced_nodes != result["nodes"]:
                result["klass"] = checks.WRONG
                result["problem"] = f"tracer counted {traced_nodes} nodes, CLI printed {result['nodes']}"


def compile_sources():
    """Write gridband's bytecode, as installing the package would, so that no
    op compiles it, whether or not the environment lets Python write
    bytecode (PYTHONDONTWRITEBYTECODE)."""
    TMP.mkdir(parents=True, exist_ok=True)
    err = TMP / "compile.err"
    _, code, _, _ = spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "gridband")],
                          TMP / "compile.out", err)
    if code != 0:
        raise SystemExit(f"bench: compiling gridband failed (exit {code}); see {err}")


def deck_count(workload, budget_s):
    """Decks per run: fixed by the budget and the workload's nominal deck
    time, not by how fast the host happens to be, so that the tail
    percentile is the same in every run of a workload."""
    return max(1, round(budget_s / workloads.DECK_SECONDS[workload]))


def measured(speed, jobs):
    """Run each job and scale its time by the probe's speed meanwhile.

    A job returns a result whose "seconds" are CPU seconds; they move to
    "cpu_s", and "seconds" becomes the host-scaled time.
    """
    results = []
    for job in jobs:
        before = speed.read()
        result = job()
        result["chunk_s"] = speed.chunk_s(before, speed.read())
        result["cpu_s"] = result["seconds"]
        result["seconds"] = host_scaled(result["cpu_s"], result["chunk_s"])
        results.append(result)
    return results


def run_decks(session, speed, decks):
    """Every op of the deck, `decks` times over."""
    return measured(speed, [functools.partial(session.run_op, index, False)
                            for _ in range(decks) for index in range(len(session.deck))])


def replay(session, speed, results):
    """Rerun the first deck of `results` traced.

    Returns (traced results, their seconds, the same ops' untraced seconds).
    A whole deck, whatever the timing, so that counts repeat exactly.
    """
    first = results[:len(session.deck)]
    traced = measured(speed, [functools.partial(session.run_op, r["index"], True)
                              for r in first])
    return traced, sum(r["seconds"] for r in traced), sum(r["seconds"] for r in first)


def memory_probe(session, traced):
    """Rerun, under tracemalloc, the traced op that spent longest in coeffs.

    Its result carries coeffs.peak_kb and is checked like any other op, but
    its times are not used.
    """
    coeffs_s = [(tracer.layer_self_ms(tracer.merge([r["trace"]])[0], "coeffs"), i)
                for i, r in enumerate(traced)]
    busiest_ms, i = max(coeffs_s, default=(0.0, None))
    if not busiest_ms:
        return []
    result = session.run_op(traced[i]["index"], traced=True, mode="memory")
    result["memory_probe"] = True
    return [result]


def end_to_end(setup, results, peak_rss_mb, key="seconds"):
    """End-to-end metrics from the set-up and op results' `key` times."""
    import statistics

    ok = [r[key] for r in results if r["klass"] == checks.OK]
    tail_s, pct, samples = tail(ok or [float("nan")])
    values = {
        "setup_s": statistics.median(s[key] for s in setup),
        "ops_per_s": len(ok) / sum(r[key] for r in results),
        "op_p50_ms": 1000 * statistics.median(ok or [float("nan")]),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    metrics["op_tail_ms"].update(percentile=pct, samples=samples)
    return metrics


def per_layer(traced, untraced_s, traced_s):
    import statistics

    results = [r for r in traced if not r.get("memory_probe")]
    factors = [r["seconds"] / r["cpu_s"] for r in results]  # each op's host scaling
    stats, counts, _ = tracer.merge([r["trace"] for r in results], factors)
    peak = max((r["trace"]["coeffs_peak_kb"] for r in traced if r.get("memory_probe")),
               default=0.0)
    startup_ms = statistics.mean(r["trace"]["startup_ms"] * f for r, f in zip(results, factors))
    output_bytes = statistics.mean(r["out_bytes"] for r in results)
    return tracer.layer_metrics(stats, counts, peak, len(results), startup_ms, output_bytes,
                                traced_s - untraced_s, untraced_s)


def _write_spans(path, results):
    spans = [(r["index"], *s[1:]) for r in results if not r.get("memory_probe")
             for s in r["trace"]["spans"]]
    with open(path, "w", encoding="utf-8") as handle:
        for op, span_id, name, start, end, parent in spans:
            handle.write(json.dumps({"op": op, "id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def provenance(seed, loadavg_start):
    import platform
    import subprocess

    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                    text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                        text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
    }


def run_workload(workload, seed, seconds, trace):
    import statistics

    loadavg_start = os.getloadavg()
    session = Session(workload, seed)
    decks = deck_count(workload, seconds / 2 if trace else seconds)
    traced, traced_s, untraced_s = [], 0.0, 0.0
    speed = SpeedProbe(TMP / "speed.bin")
    try:
        setup = measured(speed, [session.setup_once] * SETUP_REPEATS)
        results = run_decks(session, speed, decks)
        harness_rss_mb = _own_hwm_kb() / 1024
        if trace:
            traced, traced_s, untraced_s = replay(session, speed, results)
            traced += memory_probe(session, traced)
    finally:
        speed.close()
    spent = sum(r["seconds"] for r in results)
    peak_rss_mb = max(r["rss_kb"] for r in results) / 1024
    session.check(results + traced)
    metrics = end_to_end(setup, results, peak_rss_mb)
    layers = per_layer(traced, untraced_s, traced_s) if trace else None
    if trace:
        (RUN_DIR / "spans").mkdir(parents=True, exist_ok=True)
        _write_spans(RUN_DIR / "spans" / f"{workload}-seed{seed}.jsonl", traced)

    everything = results + traced
    failures = {}
    for r in everything:
        failures[r["klass"]] = failures.get(r["klass"], 0) + 1
    failed = len(everything) - failures.pop(checks.OK, 0)
    report = {
        "workload": workload,
        "provenance": provenance(seed, loadavg_start),
        "seconds": seconds,
        "trace": int(trace),
        "deck": session.deck,
        "decks_run": decks,
        "op_seconds": spent,
        "chunk_us_median": 1e6 * statistics.median(r["chunk_s"] for r in results),
        "attempted": len(everything),
        "failed": failed,
        "error_rate": failed / len(everything),
        "failures": failures,
        "setup_samples": setup,
        "harness_rss_mb": harness_rss_mb,
        "metrics": metrics,
        "cpu_metrics": end_to_end(setup, results, peak_rss_mb, key="cpu_s"),
        "per_layer": layers,
        "ops": [{k: v for k, v in r.items() if k != "trace"} for r in everything],
    }
    if workload == "scan":
        vertices = sum((session.deck[r["index"]]["n"] + 1) ** session.deck[r["index"]]["d"]
                       for r in results if r["klass"] == checks.OK)
        report["vertices_per_s"] = vertices / spent
    if workload in ("cliffs", "closed-form"):
        expected = [workloads.expected_failure(session.deck[r["index"]]) or checks.OK
                    for r in everything]
        report["expected_failures"] = sum(e != checks.OK for e in expected)
        report["as_expected"] = sum(e == r["klass"] for e, r in zip(expected, everything))
    if workload == "search":
        report["nodes"] = {" ".join(session.deck[r["index"]]["argv"]): r["nodes"] for r in results}
    (RUN_DIR / "results").mkdir(parents=True, exist_ok=True)
    path = RUN_DIR / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    report["path"] = str(path.relative_to(ROOT))
    return report


def _fmt(value):
    return f"{value:.4g}" if abs(value) < 1e6 else f"{value:.4e}"


def print_report(report):
    prov = report["provenance"]
    commit = (prov["commit"] or "unknown")[:12] + (" (dirty)" if prov["dirty"] else "")
    print(f"workload {report['workload']}  seed {prov['seed']}  trace {report['trace']}  "
          f"python {prov['python']}  nproc {prov['nproc']}  commit {commit}  "
          f"load {prov['loadavg_start'][0]:.2f} -> {prov['loadavg_end'][0]:.2f}")
    print(f"  {len(report['deck'])} ops per deck, {report['decks_run']} deck(s) timed, "
          f"{report['op_seconds']:.2f} s in ops; the CPU ran the probe's chunks in "
          f"{report['chunk_us_median']:.1f} us (median), scaled to {1e6 * NOMINAL_CHUNK_S:.0f} us")
    for name, m in report["metrics"].items():
        extra = ""
        if name == "setup_s":
            extra = f"  (median of {len(report['setup_samples'])})"
        elif name == "op_tail_ms":
            beyond = TAIL_BEYOND if m["samples"] > TAIL_BEYOND else 0
            extra = f"  (p{m['percentile']:.1f} of {m['samples']} samples, {beyond} beyond)"
        elif name == "peak_rss_mb" and m["value"] <= report["harness_rss_mb"]:
            extra = f"  (at most the harness's own {report['harness_rss_mb']:.1f} MB)"
        print(f"  {name:<14} {_fmt(m['value']):>12} {m['unit']}{extra}")
    print(f"  {'error_rate':<14} {_fmt(report['error_rate']):>12}    "
          f"({report['failed']} of {report['attempted']} failed: {report['failures'] or 'none'})")
    if "vertices_per_s" in report:
        print(f"  {'vertices_per_s':<14} {_fmt(report['vertices_per_s']):>12} 1/s")
    if "expected_failures" in report:
        print(f"  past the known cliffs: {report['expected_failures']} of {report['attempted']}; "
              f"{report['as_expected']} ops failed or passed as the cliffs predict")
    for argv, nodes in sorted(report.get("nodes", {}).items()):
        print(f"  nodes {nodes:>9}  {argv}")
    for name, m in (report["per_layer"] or {}).items():
        print(f"  {name:<26} {_fmt(m['value']):>12} {m['unit']}")
    print(f"  details: {report['path']}")


def summary_line(report):
    metrics = report["per_layer"] if report["trace"] else report["metrics"]
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    })


def print_table(reports):
    names = [*END_TO_END, "error_rate", "vertices_per_s"]
    units = [*END_TO_END.values(), "", "1/s"]
    print(f"{'workload':<14}" + "".join(f"{n + ' ' + u:>20}" for n, u in zip(names, units)))
    for report in reports:
        cells = [report["metrics"][n]["value"] for n in END_TO_END]
        cells += [report["error_rate"], report.get("vertices_per_s")]
        print(f"{report['workload']:<14}" + "".join(
            f"{'-' if c is None else _fmt(c):>20}" for c in cells))


def main(argv=None):
    if argv is None and not sys.flags.no_site:
        os.execv(sys.executable, [sys.executable, "-S", __file__, *sys.argv[1:]])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.DECKS, "all"])
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridband" / "__init__.py").is_file():
        print(f"bench: no gridband sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # the ops and the probe share one CPU: the host slows each CPU on its own
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    compile_sources()
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYTHONPATH"] = path
    if args.workload != "all":
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(report)
        print(summary_line(report))
        return 0
    reports = [run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in MEASURED_WORKLOADS]
    for report in reports:
        print_report(report)
    print_table(reports)
    return 0


if __name__ == "__main__":
    sys.exit(main())
