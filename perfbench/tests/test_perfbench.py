"""Tests of the benchmark itself: generators, checker, guards, runs.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from racgk import cli  # noqa: E402

WORKLOADS = sorted(workloads.SUBCOMMANDS)


def decks(workload, seeds=range(8)):
    """The deck of every run, and other draws of its generators."""
    yield workloads.deck(workload)
    for seed in seeds:
        yield workloads.templates(workload, random.Random(seed))


def shape(template):
    sizes = check.clique_sizes(template["labels"], template["edges"])
    return len(template["labels"]), len(sizes) - 1, sum(sizes)


def test_bredon_all_family_bounds():
    for deck in decks("bredon-all"):
        for t in deck:
            n, omega, d = shape(t)
            assert 3 <= n <= 8 and 3 <= omega <= 4 and 8 <= d <= 45, t["family"]
        random_w4 = next(t for t in deck if t["family"] == "random-w4")
        assert 650 <= workloads.bredon_rank_sum(random_w4["labels"], random_w4["edges"]) <= 760


def test_limit_sweep_family_bounds():
    for deck in decks("limit-sweep"):
        for t in deck:
            n, omega, d = shape(t)
            assert 8 <= n <= 10 and omega == 2, t["family"]
            assert len(t["edges"]) <= 15


def test_ring_lattice_family_bounds_and_valid_split():
    for deck in decks("ring-lattice"):
        for t in deck:
            n, omega, d = shape(t)
            assert 16 <= n <= 64 and omega == 3 and 58 <= d <= 200, t["family"]
            p1, p2 = (set(p) for p in t["parts"])
            assert p1 | p2 == set(t["labels"])
            only1, only2 = p1 - p2, p2 - p1
            for a, b in t["edges"]:
                assert not (a in only1 and b in only2 or a in only2 and b in only1)


def test_deck_count_depends_on_run_length_alone():
    assert [workloads.deck_count("bredon-all", s) for s in (1, 12, 30)] == [3, 3, 7]
    assert workloads.deck("bredon-all") == workloads.deck("bredon-all")


def test_same_seed_gives_byte_identical_inputs():
    def files(seed):
        rng = workloads.deck_rng("ring-lattice", seed, "0:timed")
        deck = workloads.templates("ring-lattice",
                                   workloads.deck_rng("ring-lattice", seed, 0))
        return [workloads.relabel(t, rng) for t in deck for _ in range(3)]

    assert files(5) == files(5)
    assert files(5) != files(6)
    digests = [workloads.digest(*f) for f in files(5)]
    assert len(set(digests)) == len(digests)


def test_relabelling_preserves_the_graph():
    t = workloads.templates("limit-sweep", random.Random(1))[3]
    graph, _ = workloads.relabel(t, random.Random(2))
    head, _, tail = graph.partition(";")
    edges = [tok.split("-") for tok in tail.split()]
    assert sorted(check.clique_sizes(head.split(), edges)) == sorted(
        check.clique_sizes(t["labels"], t["edges"]))
    assert set(head.split()).isdisjoint(t["labels"])


def test_closed_form_ideal_indices_match_stored_reference():
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    for entry in reference:
        want = entry["ideal_power_indices"]
        sizes = check.clique_sizes(entry["labels"], entry["edges"])
        assert check.ideal_indices(sizes, len(want)) == want, entry["name"]


def _k3_report(sub, tmp_path):
    path = tmp_path / "k3.graph"
    path.write_text("a b c; a-b b-c c-a\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([sub, "--input", str(path), "--format", "json"])
    return rc, json.loads(out.getvalue()), path.read_text()


K3 = workloads.warmup_template("bredon-all")


def test_checker_accepts_a_real_report_and_names_corrupted_fields(tmp_path):
    rc, payload, text = _k3_report("all", tmp_path)
    exp = check.expectations(K3)
    assert check.check_report("all", rc, payload, exp, text) == []
    payload["bredon"]["cohomology"][1]["free_rank"] = 1
    payload["limit"]["limit_rank"] = 7
    fields = [f for f, _ in check.check_report("all", rc, payload, exp, text)]
    assert fields == ["bredon.cohomology[1].free_rank", "limit.limit_rank"]


def test_checker_rejects_wrong_ideal_index_and_exit_code(tmp_path):
    rc, payload, text = _k3_report("bgw", tmp_path)
    exp = check.expectations(K3)
    payload["ideal_power_indices"][1]["index"] *= 2
    fields = [f for f, _ in check.check_report("bgw", 1, payload, exp, text)]
    assert fields == ["exit_code", "ideal_power_indices[k=2].index"]


def _session(tmp_path, main):
    fake = {"cli": types.SimpleNamespace(main=main)}
    return worker.Session("bredon-all", 0, str(tmp_path), fake)


def _corrupting_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    payload = json.loads(out.getvalue())
    payload["bredon"]["cohomology"][1]["free_rank"] = 1
    print(json.dumps(payload))
    return rc


def test_corrupted_report_is_counted_as_failed(tmp_path):
    session = _session(tmp_path, _corrupting_main)
    record = session.report(K3, check.expectations(K3), "all", random.Random(0))
    assert len(record["failures"]) == 1
    witness = record["failures"][0]
    for part in ("workload=bredon-all", "graph=" + record["digest"],
                 "subcommand=all", "field=bredon.cohomology[1].free_rank"):
        assert part in witness
    result = {"records": session.records, "timed": [0] * 11, "maxrss_kb": 1}
    session.records[0]["seconds"] = session.records[0]["wall_s"] = 1.0
    _lines, _record, out = run.summarize("bredon-all", 0, False, result, [(0.1, 0.1)])
    assert out["correct"] is False and out["failed"] == 1


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def test_time_guard_fails_a_slow_report(tmp_path, monkeypatch, alarm):
    monkeypatch.setattr(worker, "REPORT_TIME_LIMIT_S", 0.2)
    session = _session(tmp_path, lambda argv: time.sleep(5))
    record = session.report(K3, check.expectations(K3), "all", random.Random(0))
    assert record["seconds"] < 2
    assert "field=guard.time" in record["failures"][0]


def test_memory_guard_fails_a_report(tmp_path, alarm):
    def grab(argv):
        raise MemoryError()

    record = _session(tmp_path, grab).report(K3, check.expectations(K3), "all",
                                             random.Random(0))
    assert "field=guard.memory" in record["failures"][0]


def test_address_space_cap_refuses_a_large_allocation():
    code = "bytearray(%d)" % (2 * run.MEMORY_CAP_BYTES)
    proc = subprocess.run([sys.executable, "-c", code], preexec_fn=run._cap_memory,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "MemoryError" in proc.stderr


def test_tail_is_the_highest_percentile_with_ten_beyond():
    p, value = run.tail([float(x) for x in range(36, 0, -1)])
    assert (p, value) == (72, 26.0)
    with pytest.raises(run.BenchError):
        run.tail([1.0] * 10)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_deck_of_each_workload_passes_its_checks(workload, tmp_path, alarm):
    modules = worker.import_program()
    session = worker.Session(workload, 0, str(tmp_path), modules)
    session.warm_up()
    ids = session.run_decks(1)
    assert ids and all(not session.records[i]["failures"] for i in ids)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_per_layer_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert declared == spans.metric_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_declared_metrics(trace):
    spec = _benchmark_json()
    proc = subprocess.run(spec["command"] + ["--workload", "ring-lattice", "--seed", "0",
                                             "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(v["value"] > 0 for v in out["metrics"].values()) or trace
