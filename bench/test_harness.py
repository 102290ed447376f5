"""Fast checks of the benchmark's own helpers; no workload is run."""

import json
import math

import checks
import run
import tracer
import workloads


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    xs = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.tail(xs) == (90, 90.0, 100)
    value, pct, n = run.tail(list(range(11)))
    assert (value, n) == (0, 11) and round(pct, 2) == 9.09


def test_tail_falls_back_to_maximum_with_ten_samples_or_fewer():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail(list(range(10))) == (9, 100.0, 10)


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    t.enter("bandwidth.bw_hales")
    t.enter("coeffs.max_coeff")
    t.exit()
    t.enter("coeffs.top_sum")
    t.exit(record=False)
    t.exit()
    assert t.stats[("bandwidth.bw_hales", None)] == [1, 10.0, 7.5]
    assert t.stats[("coeffs.max_coeff", "bandwidth.bw_hales")] == [1, 2.0, 2.0]
    assert t.stats[("coeffs.top_sum", "bandwidth.bw_hales")] == [1, 0.5, 0.5]
    # spans (op, id, name, start, end, parent id): the hot call is aggregated only
    assert t.spans == [
        (0, 2, "coeffs.max_coeff", 1.0, 3.0, 1),
        (0, 1, "bandwidth.bw_hales", 0.0, 10.0, None),
    ]
    assert tracer.layer_self_ms(t.stats, "bandwidth") == 7500.0
    assert tracer.layer_self_ms(t.stats, "coeffs") == 2500.0


def test_merged_dumps_sum_calls_and_times():
    t = tracer.Tracer(clock=iter([0.0, 2.0]).__next__)
    t.enter("grid.labeling_bandwidth")
    t.exit()
    t.add("oracle.nodes", 7)
    stats, counts, _ = tracer.merge([t.dump(), t.dump()])
    assert stats[("grid.labeling_bandwidth", None)] == [2, 4.0, 4.0]
    assert counts == {"oracle.nodes": 14}
    stats, _, _ = tracer.merge([t.dump(), t.dump()], [0.5, 1.0])
    assert stats[("grid.labeling_bandwidth", None)] == [2, 3.0, 3.0]


def test_error_classes():
    trace = "Traceback (most recent call last):\n  ...\nOverflowError: int too large\n"
    assert checks.classify(1, trace, None) == checks.TRACEBACK
    assert checks.classify(3, "gridband: internal error: recursion\n", None) == "exit-3"
    assert checks.classify(1, "gridband: error: bad vertex\n", None) == "exit-1"
    assert checks.classify(2, "", None) == "exit-2"
    assert checks.classify(0, "", "bandwidth 7, expected 8") == checks.WRONG
    assert checks.classify(0, "", None) == checks.OK


def test_known_cliffs_predict_failure_class():
    assert workloads.expected_failure({"cmd": "estimate", "n": 1, "d": 1100}) == "traceback"
    assert workloads.expected_failure({"cmd": "estimate", "n": 1, "d": 600}) == "exit-3"
    assert workloads.expected_failure({"cmd": "coeffs", "n": 2, "d": 600}) == "exit-3"
    assert workloads.expected_failure({"cmd": "coeffs", "n": 2, "d": 300}) is None
    assert workloads.expected_failure({"cmd": "bw", "n": 2, "d": 600}) is None


def test_same_seed_gives_byte_identical_deck():
    for name, make in workloads.DECKS.items():
        first = json.dumps(make(7), sort_keys=True)
        assert json.dumps(make(7), sort_keys=True) == first, name
        if name != "search":  # search always runs the same 20 ops, reordered
            assert json.dumps(make(8), sort_keys=True) != first, name


def test_measured_workloads_stay_inside_the_known_cliffs():
    for name in run.MEASURED_WORKLOADS:
        for seed in (1, 2, 3):
            deck = workloads.DECKS[name](seed)
            assert all(workloads.expected_failure(op) is None for op in deck), name


def test_reference_matches_small_known_values():
    ref = checks.Reference()
    assert ref.row(2, 3) == [1, 3, 6, 7, 6, 3, 1]
    assert ref.bandwidth(2, 3) == 8
    assert [ref.bandwidth(1, d) for d in range(1, 6)] == [1, 2, 4, 7, 13]
    assert ref.hales_rank((1, 1), 2) == 4
    assert sorted(ref.hales_rank((a, b), 2) for a in range(3) for b in range(3)) == list(range(9))


def test_streamed_bandwidth_and_max_equal_sorted_rows_for_large_n():
    ref = checks.Reference()
    for n, d in ((17, 5), (40, 3), (25, 6)):
        rows = [ref.row(n, i) for i in range(d + 1)]
        expected = sum(sum(sorted(r, reverse=True)[:n]) for r in rows[:d])
        assert ref.bandwidth(n, d) == expected
        assert ref.max_coeff(n, d) == max(rows[d])
    assert checks._bw_problem(ref.bandwidth(25, 6) + 1, 25, 6, ref) is not None


def test_garbled_output_is_wrong_output_not_a_crash():
    op = {"cmd": "estimate", "n": 2, "d": 5}
    own = checks.Reference()
    estimate = f"{145.4144612063223:.6g}"
    problem = checks.check(op, f"estimate {estimate}\nexact 0\nratio 1\n", own, None)
    assert problem.startswith("unparseable output: ZeroDivisionError")
    assert checks.classify(0, "", problem) == checks.WRONG


def test_op_times_scale_to_the_nominal_host():
    nominal = run.NOMINAL_CHUNK_S
    assert run.host_scaled(0.2, nominal) == 0.2
    # on a CPU at half speed the probe's chunks take twice as long
    assert math.isclose(run.host_scaled(0.4, 2 * nominal), 0.2)


class FakeSpeedProbe(run.SpeedProbe):
    """A probe process that is never started."""

    def __init__(self):
        self.last_chunk_s = 3e-4

    def alive(self):
        return True


def test_chunk_time_between_reads_or_the_last_one():
    speed = FakeSpeedProbe()
    assert speed.chunk_s((10, 1.0), (30, 1.5)) == 0.025
    # no chunk ran in between: the last figure stands
    assert speed.chunk_s((30, 1.5), (30, 1.5)) == 0.025


def test_end_to_end_reads_the_chosen_time():
    results = [{"seconds": s, "cpu_s": 2 * s, "klass": checks.OK} for s in (0.1, 0.2, 0.3)]
    results.append({"seconds": 0.4, "cpu_s": 0.8, "klass": checks.WRONG})
    setup = [{"seconds": 1.0, "cpu_s": 2.0}]
    scaled = run.end_to_end(setup, results, 50.0)
    cpu = run.end_to_end(setup, results, 50.0, key="cpu_s")
    assert scaled["op_p50_ms"]["value"] == 200.0 and cpu["op_p50_ms"]["value"] == 400.0
    # a failed op is not counted, but its time is
    assert math.isclose(scaled["ops_per_s"]["value"], 3.0)
    assert math.isclose(cpu["ops_per_s"]["value"], 1.5)
    assert cpu["setup_s"]["value"] == 2.0 and scaled["setup_s"]["value"] == 1.0
    assert scaled["peak_rss_mb"]["value"] == 50.0


class FakeTracemalloc:
    """Scripted (current, peak) readings; counts starts and stops."""

    def __init__(self, readings):
        self.readings = iter(readings)
        self.starts = self.stops = 0

    def start(self):
        self.starts += 1

    def stop(self):
        self.stops += 1

    def get_traced_memory(self):
        return next(self.readings)


def test_coeffs_peak_carries_what_earlier_calls_left_allocated():
    t = tracer.Tracer(clock=lambda: 0.0)
    t.memory = FakeTracemalloc([(1024, 4096), (2048, 3072)])
    for _ in range(2):
        t.enter("bandwidth.bw_hales")
        t.enter("coeffs.top_sum")
        t.exit(record=False)
        t.exit()
    # second call: 1 kB retained from the first plus its own 3 kB peak
    assert t.peak_kb == 4.0 and t._retained == 3072
    assert t.memory.starts == t.memory.stops == 2
