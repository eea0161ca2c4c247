"""Benchmark of racgk's report pipeline; see README.md in this directory.

    python3 perfbench/run.py --workload bredon-all --seed 1 --seconds 30 --trace 0

Runs one workload in a closed loop (one client, one process, one
thread) in a child process and prints its metrics by name with units.
The last line of stdout is the result as one JSON object.  The exit
code is 0 only if every report passed its check.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import host
from spans import layer_metrics, metric_units
from workloads import SUBCOMMANDS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 4                # plus the worker itself: setup_s is a median of 5
MEMORY_CAP_BYTES = 1 << 30      # address space of each child
RUN_TIME_LIMIT_S = 170          # the worker itself stops at 140 s


class BenchError(Exception):
    pass


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def start_worker(args):
    """Start a worker and wait for its warm-up; returns (process, set-up
    time from process start to `ready` in wall and in reference seconds)."""
    calibration = host.samples(5)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            preexec_fn=_cap_memory)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError("worker stopped before its warm-up finished")
    except BaseException:
        stop(proc, 0)
        raise
    return proc, (setup, host.to_reference(setup, calibration))


def stop(proc, timeout):
    """Wait for a worker for up to `timeout` seconds, then kill it; always
    reaps the process.  Returns its exit code, or None if it was killed."""
    try:
        code = proc.wait(timeout=max(timeout, 0))
    except subprocess.TimeoutExpired:
        code = None
    if code is None:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    return code


def tail(values):
    """(p, value): the highest whole percentile with at least ten values
    above it, by nearest rank."""
    n = len(values)
    if n <= 10:
        raise BenchError("a tail percentile needs more than 10 reports, got %d" % n)
    p = 100 * (n - 10) // n
    return p, sorted(values)[max(1, math.ceil(p * n / 100)) - 1]


def measure(workload, seed, seconds, trace, workdir):
    deadline = time.perf_counter() + RUN_TIME_LIMIT_S
    base = [workload, str(seed), workdir]
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_worker(base)
        if stop(proc, deadline - time.perf_counter()) != 0:
            raise BenchError("set-up probe failed")
        setups.append(setup)
    result_path = os.path.join(workdir, "result.json")
    proc, setup = start_worker(base + [str(seconds), str(int(trace)), result_path])
    setups.append(setup)
    code = stop(proc, deadline - time.perf_counter())
    if code != 0:
        raise BenchError("worker %s" % ("killed after %d s" % RUN_TIME_LIMIT_S
                                        if code is None else "exited with %d" % code))
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, setups


def rate(records, ids, key="seconds"):
    ok = sum(1 for i in ids if not records[i]["failures"])
    return ok / sum(records[i][key] for i in ids)


def timing(records, ids, key, setups):
    """End-to-end timings of the reports `ids` from their `key` times
    ("seconds" in reference seconds, or "wall_s") and of the set-up
    times `setups`; returns (metrics, tail percentile)."""
    seconds = [records[i][key] for i in ids]
    p, tail_s = tail(seconds)
    return {
        "setup_s": statistics.median(setups),
        "reports_per_s": rate(records, ids, key),
        "report_s_p50": statistics.median(seconds),
        "report_s_tail": tail_s,
    }, p


def summarize(workload, seed, trace, result, setups):
    """(lines for people, run record, result object)."""
    records = result["records"]
    timed = result["timed"]
    failed = [r for r in records if r["failures"]]
    lines = []
    if trace:
        traced = result["traced"]
        metrics = layer_metrics(result["spans"], len(traced))
        untraced = rate(records, timed)
        metrics["trace.overhead_ratio"] = rate(records, traced) / untraced if untraced else 0.0
        units = metric_units()
        wall = {}
        header = ("%d untraced and %d traced reports; span times in wall seconds"
                  % (len(timed), len(traced)))
    else:
        metrics, p = timing(records, timed, "seconds", [s[1] for s in setups])
        metrics["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
        wall, _ = timing(records, timed, "wall_s", [s[0] for s in setups])
        units = {"setup_s": "s", "reports_per_s": "1/s", "report_s_p50": "s",
                 "report_s_tail": "s", "peak_rss_mb": "MB"}
        header = ("%d reports; report_s_tail is p%d of %d; setup_s is the median "
                  "of %d set-ups; times in reference seconds, wall seconds in "
                  "brackets" % (len(timed), p, len(timed), len(setups)))
    lines.append("workload %s seed %d: %s" % (workload, seed, header))
    for name in sorted(metrics):
        lines.append("  %-34s %.6g %s%s" % (name, metrics[name], units[name],
                                            "  (%.6g)" % wall[name] if name in wall
                                            else ""))
    lines.append("  %-34s %.6g %s" % ("failed_share", len(failed) / len(records),
                                      "ratio (%d of %d)" % (len(failed), len(records))))
    for r in failed:
        lines.extend("  FAILED " + f for f in r["failures"])
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "subcommands": list(SUBCOMMANDS[workload]),
              "inputs": [[r["family"], r["subcommand"], r["digest"]] for r in records]}
    out = {"correct": not failed, "attempted": len(records), "failed": len(failed),
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return lines, record, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUBCOMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "racgk", "cli.py")):
        print("error: no racgk sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        try:
            result, setups = measure(args.workload, args.seed, args.seconds,
                                     args.trace, workdir)
        except BenchError as e:
            print("error: %s" % e, file=sys.stderr)
            return 1
    lines, record, out = summarize(args.workload, args.seed, args.trace,
                                   result, setups)
    print("\n".join(lines))
    print(json.dumps({"run_record": record}))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
