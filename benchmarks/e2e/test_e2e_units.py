"""Unit tests of the end-to-end benchmark's pure parts; no timings are asserted."""

from __future__ import annotations

import json

import pytest

import compare
import measure
import spans
from repro.bench.stats import quantile
from spans import Span


def span(id, parent, kind, start, end, pid=1, tid=1, **attrs):
    return Span(id, parent, id, kind, float(start), float(end), pid, tid, attrs)


# --------------------------------------------------------------------- #
# percentiles, error and leak accounting
# --------------------------------------------------------------------- #
def test_percentile_counts_the_samples_beyond_it():
    samples = [float(x) for x in range(100, 0, -1)]
    value, beyond = measure.percentile(samples, 0.9)
    assert value == quantile(samples, 0.9) == pytest.approx(90.1)
    assert beyond == 10


def test_percentile_with_ties_counts_only_strictly_larger_samples():
    assert measure.percentile([1.0, 2.0, 2.0, 2.0, 2.0], 0.8) == (2.0, 0)


def test_exceptions_and_mismatches_both_fail_and_attempts_are_the_denominator():
    digests = ["good", None, "bad", "good", "good"]
    failed = measure.count_failed(digests, "good")
    assert failed == 2
    assert measure.error_rate(len(digests), failed) == pytest.approx(0.4)


def test_error_rate_needs_an_attempt():
    with pytest.raises(ValueError):
        measure.error_rate(0, 0)


@pytest.mark.parametrize("total,rounds", [(200, 20), (30, 20), (20, 10), (20, 15), (5, 1)])
def test_calls_spread_evenly_over_the_rounds(total, rounds):
    parts = [measure.share(total, rounds, r) for r in range(rounds)]
    assert sum(parts) == total
    assert max(parts) - min(parts) <= 1


class FakeListing:
    """Leftover listings that a test changes between calls."""

    def __init__(self):
        self.present = set()

    def __call__(self):
        return set(self.present)


def test_leftover_names_keep_only_segment_and_spill_prefixes():
    found = measure.leftover_names(["psm_1", "rpub2", "other", "sem.x"],
                                   ["repro-spill-a", "repro_pilot_b", "x"],
                                   ("psm_", "rpub"), "repro-spill-")
    assert found == {"shm/psm_1", "shm/rpub2", "tmp/repro-spill-a"}


def test_leaks_count_only_what_appears_inside_a_watch_and_stays():
    listing = FakeListing()
    listing.present = {"shm/psm_old"}             # left before the first watch
    leaks = measure.LeakCounter(listing)
    with leaks.watch():
        listing.present |= {"shm/psm_a", "shm/psm_b"}
        listing.present -= {"shm/psm_b"}          # made and removed: no leak
    assert leaks.count == 1
    listing.present |= {"shm/psm_other"}          # another process, between watches
    with leaks.watch():
        listing.present -= {"shm/psm_a"}          # a later call cleans an earlier leak
    assert leaks.count == 1
    with leaks.watch():
        listing.present |= {"tmp/repro-spill-x"}
    assert leaks.count == 2


def test_a_leak_is_counted_even_when_the_watched_body_raises():
    listing = FakeListing()
    leaks = measure.LeakCounter(listing)
    with pytest.raises(RuntimeError), leaks.watch():
        listing.present.add("shm/psm_a")
        raise RuntimeError("call failed")
    assert leaks.count == 1


# --------------------------------------------------------------------- #
# self time
# --------------------------------------------------------------------- #
def test_nested_spans_keep_what_their_children_do_not_cover():
    root = span("root", None, "call", 0, 10)
    spans_ = [root, span("api", "root", "api", 1, 9), span("map", "api", "substrate_map", 2, 8),
              span("k", "map", "kernel", 3, 5)]
    self_time = spans.attribute(spans_, root)
    assert dict(self_time) == pytest.approx({"root": 2, "api": 2, "map": 4, "k": 2})


def test_spans_overlapping_on_pool_threads_split_the_instants_they_share():
    root = span("root", None, "call", 0, 10)
    spans_ = [root, span("map", "root", "substrate_map", 1, 9),
              span("a", None, "kernel", 2, 6, tid=2),     # pool thread, no own parent
              span("r", "a", "resolve", 2, 3, tid=2),     # nested on that thread
              span("b", None, "kernel", 4, 8, tid=3),
              span("w", None, "kernel", 8.5, 9.5, pid=7)]  # forked worker, clipped to map
    parents = spans.resolve_parents(spans_, root)
    assert parents == {"map": "root", "a": "map", "r": "a", "b": "map", "w": "map"}
    self_time = spans.attribute(spans_, root)
    # [2,4) a alone, [4,6) a and b, [6,8) b alone, [8.5,9) w alone
    assert self_time["map"] == pytest.approx(1 + 0.5)
    assert self_time["r"] == pytest.approx(1)
    assert self_time["a"] == pytest.approx(1 + 1)
    assert self_time["b"] == pytest.approx(1 + 2)
    assert self_time["w"] == pytest.approx(0.5)
    assert self_time["root"] == pytest.approx(2)
    assert sum(self_time.values()) == pytest.approx(root.duration)


def test_an_orphan_joins_the_innermost_span_open_on_the_root_thread_when_it_started():
    root = span("root", None, "call", 0, 10)
    spans_ = [root, span("make", "root", "make", 0, 1), span("api", "root", "api", 1, 9),
              span("merge", "api", "merge", 6, 8), span("x", None, "kernel", 7, 7.5, tid=5),
              span("y", None, "kernel", 8.5, 8.7, tid=5)]
    parents = spans.resolve_parents(spans_, root)
    assert parents["x"] == "merge"
    assert parents["y"] == "api"


def test_call_metrics_split_the_wall_into_layers_and_count_calls():
    root = span("root", None, "call", 0, 10)
    spans_ = [root,
              span("api", "root", "api", 0.5, 9.5),
              span("map", "api", "substrate_map", 1, 9),
              span("ex", "map", "executor_map", 1, 9, workers=2, busy_s=10.0, first_start=2.0),
              span("k1", None, "kernel", 2, 7, tid=2),
              span("k2", None, "kernel", 3, 8, tid=3),
              span("k3", "k2", "kernel", 4, 5, tid=3),  # nested kernels count once
              span("c", None, "chunk_read", 8, 8.5, tid=2, bytes=64)]
    m = spans.call_metrics(spans_, workers=2)
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + m["trace.unattributed_share"] * m["trace.wall_s"] == pytest.approx(10)
    assert m["trace.unattributed_share"] == pytest.approx(0.1)
    assert m["analysis.self_s"] == pytest.approx(6)
    assert m["executors.self_s"] == pytest.approx(1.5)
    assert m["analysis.kernel_calls"] == 2
    assert m["analysis.kernel_s"] == pytest.approx(10)
    assert m["analysis.kernel_share"] == pytest.approx(0.5)
    assert m["executors.map_calls"] == 1
    assert m["executors.first_task_wait_s"] == pytest.approx(1)
    assert m["executors.overhead_s"] == pytest.approx(8 - 10 / 2)
    assert m["executors.utilization"] == pytest.approx(10 / 16)
    assert m["trajectory.chunk_reads"] == 1
    assert m["trajectory.bytes_read"] == 64
    assert set(m) == set(spans.CALL_METRIC_UNITS)


def test_tracer_links_nested_spans_and_merges_worker_files(tmp_path):
    tracer = spans.Tracer(tmp_path)
    double = tracer.wrap(lambda x: 2 * x, "kernel")
    with tracer.span("call", "call"):
        assert double(21) == 42
    worker = [f"{tracer.pid + 1}-0", None, "w", "chunk_read", 0.0, 1.0, tracer.pid + 1, 1, {}]
    (tmp_path / f"spans-{tracer.pid + 1}.jsonl").write_text(json.dumps(worker) + "\n")
    recorded = {s.kind: s for s in tracer.collect()}
    assert recorded["kernel"].parent == recorded["call"].id
    assert recorded["chunk_read"].pid == tracer.pid + 1
    assert not list(tmp_path.iterdir())
    assert tracer.collect() == []


# --------------------------------------------------------------------- #
# verdicts
# --------------------------------------------------------------------- #
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_a_change_that_wins_every_pair_by_more_than_the_spread_improved():
    change = [p * 0.9 for p in PARENT]
    assert compare.verdict(PARENT, change, 0.1, "lower") == "improved"


def test_a_higher_is_better_metric_improves_upward():
    change = [p * 1.1 for p in PARENT]
    assert compare.verdict(PARENT, change, 0.1, "higher") == "improved"


def test_eight_wins_out_of_ten_are_not_an_improvement():
    change = [p * 0.9 for p in PARENT[:8]] + [p * 1.01 for p in PARENT[8:]]
    assert compare.verdict(PARENT, change, 0.1, "lower") == "no change"


def test_a_change_worse_by_more_than_the_bound_regressed():
    change = [p * 1.2 for p in PARENT]
    assert compare.verdict(PARENT, change, 0.1, "lower") == "regressed"


def test_a_change_worse_within_the_bound_is_no_change():
    change = [p * 1.05 for p in PARENT]
    assert compare.verdict(PARENT, change, 0.1, "lower") == "no change"


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    change = [p * 1.15 for p in noisy]
    assert compare.verdict(noisy, change, 0.1, "lower") == "unresolved"


# --------------------------------------------------------------------- #
# declarations
# --------------------------------------------------------------------- #
def test_declaration_problems_name_extra_missing_and_mislabelled_metrics():
    declared = {"a": {"unit": "s"}, "b": {"unit": "s"}, "c": {"unit": "MB"}}
    emitted = {"a": {"unit": "s"}, "c": {"unit": "B"}, "d": {"unit": "s"}}
    assert measure.declaration_problems(emitted, declared) == [
        "metric 'd' is emitted but not declared",
        "metric 'b' is declared but not emitted",
        "metric 'c' has unit 'B', declared 'MB'",
    ]


def test_benchmark_json_declares_what_the_code_emits():
    import run

    declared = measure.load_declared()
    assert {n: m["unit"] for n, m in declared["end_to_end"].items()} == run.E2E_UNITS
    assert {n: m["unit"] for n, m in declared["per_layer"].items()} == run.PER_LAYER_UNITS


def test_a_run_length_other_than_the_declared_one_is_refused(capsys):
    import run

    with pytest.raises(SystemExit) as exit_:
        run.main(["--seconds", str(measure.load_run_seconds() + 1), "--quick"])
    assert exit_.value.code == 2
    assert "run_seconds" in capsys.readouterr().err
