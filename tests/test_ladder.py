"""The ladder runner: two tiny rungs, a rung past its timeout, and the
schema of the committed ladder files."""

import json
import os
import sys

import pytest

LADDER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "ladder")
sys.path.insert(0, LADDER)
try:
    import ladder
finally:
    sys.path.remove(LADDER)

TINY = [("k12", "bredon", "text"), ("k64", "bgw", "json")]


def check_schema(record, rungs, runs):
    assert set(record) == {"python", "runs", "timeout_s", "memory_limit_mb",
                           "rungs"}
    assert record["runs"] == runs and record["python"].count(".") == 2
    assert [(r["graph"], r["subcommand"], r["format"])
            for r in record["rungs"]] == list(rungs)
    for r in record["rungs"]:
        assert set(r) == {"graph", "subcommand", "format", "exit", "wall_s",
                          "peak_mb"}
        assert len(r["exit"]) == runs
        assert all(c == "timeout" or isinstance(c, int) for c in r["exit"])
        for low, high in (r["wall_s"], r["peak_mb"]):
            assert 0 < low <= high


def test_two_tiny_rungs_are_recorded():
    record = ladder.run_ladder(os.path.dirname(LADDER), TINY, runs=2)
    check_schema(record, TINY, 2)
    assert [r["exit"] for r in record["rungs"]] == [[0, 0], [0, 0]]
    assert json.loads(ladder.dump(record)) == record


def test_a_rung_past_its_timeout_is_recorded_as_timeout():
    record = ladder.run_ladder(os.path.dirname(LADDER), TINY[:1], runs=1,
                               timeout=0.001)
    check_schema(record, TINY[:1], 1)
    assert record["rungs"][0]["exit"] == ["timeout"]


@pytest.mark.parametrize("name", ["BENCH_31.json", "BENCH_32.json"])
def test_committed_ladder_files_follow_the_schema(name):
    with open(os.path.join(LADDER, name), encoding="utf-8") as fh:
        record = json.load(fh)
    check_schema(record, ladder.RUNGS, ladder.RUNS)
    assert record["timeout_s"] == ladder.TIMEOUT_S
    assert record["memory_limit_mb"] == ladder.MEMORY_LIMIT >> 20
