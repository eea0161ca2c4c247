"""The ladder: whole-process runs of the racgk CLI on a fixed list of
graphs, up to the 64-vertex cap.

    python3 ladder/ladder.py --out ladder/BENCH_32.json
    python3 ladder/ladder.py --tree OTHER_CHECKOUT --out BENCH_31.json
    python3 ladder/ladder.py --tree OLD_CHECKOUT --tree . \
        --out ladder/BENCH_48_parent.json ladder/BENCH_50.json
    python3 ladder/ladder.py --compare OLD.json NEW.json

Each rung is one CLI invocation, run as a child process under a
wall-clock timeout and an address-space limit (RLIMIT_AS), one after
another, RUNS times.  Its wall time is taken around the child and its
peak RSS from `os.wait4`, which reports that one child alone.  Given
several trees (`--tree` repeated, one `--out` file each), each rung's
runs take the trees in turn, the order reversed on every other run, so
that a drift of a shared machine falls on every tree alike.  The file
records, for each rung, its graph, subcommand and format, and each
run's exit code (or "timeout"), wall seconds and peak MB; the Python
version, run count, timeout and limit are recorded once.  The tree's sources are compiled before the first rung, so no
rung pays for writing bytecode.  Graph files are written to a
temporary directory; the same name always gives the same graph.

`--compare OLD NEW` prints, for each rung of NEW, the ratios NEW / OLD
of the medians of its recorded wall seconds and peak MB, and flags a
changed exit code and a wall or MB range that does not overlap the
other file's.  Files written before every run was recorded keep only
the least and the greatest value, and are read by their midpoint.
"""

import argparse
import compileall
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time

RUNS = 3
TIMEOUT_S = 60
MEMORY_LIMIT = 3 << 30


def _labels(n):
    return ["v%d" % i for i in range(n)]


def _edge_list(n, keep):
    """Vertices v0..v(n-1); the pairs i < j, in order, that `keep` keeps."""
    v = _labels(n)
    return (" ".join(v) + "; " + " ".join(
        "%s-%s" % (v[i], v[j]) for i in range(n) for j in range(i + 1, n)
        if keep(i, j)) + "\n")


def _complete(n):
    return _edge_list(n, lambda i, j: True)


def _circulant(n, offsets):
    """Each i joined to i + k mod n for each offset k."""
    return _edge_list(n, lambda i, j: min(j - i, n - j + i) in offsets)


def _gnp(p):
    """G(64, p): random.Random(1) keeps each pair i < j, in order, with
    probability p."""
    rng = random.Random(1)
    return _edge_list(64, lambda i, j: rng.random() < p)


def _glue64(p):
    """Parts v0..v35 and v28..v63: random.Random(1) keeps each pair
    i < j inside a part, in order, with probability p; no edge crosses."""
    rng = random.Random(1)
    return _edge_list(64, lambda i, j: (j <= 35 or i >= 28)
                      and rng.random() < p)


# the two parts of a glue64 graph, one line each
_PARTS = " ".join(_labels(36)) + "\n" + " ".join(_labels(64)[28:]) + "\n"
# name: (graph text, partition text or None)
GRAPHS = {
    "k12": (_complete(12), None),
    "k14": (_complete(14), None),
    "k16": (_complete(16), None),
    "k20": (_complete(20), None),
    "k24": (_complete(24), None),
    "k64": (_complete(64), None),
    "c64-complement": (_circulant(64, set(range(2, 33))), None),
    "c64-cube": (_circulant(64, {1, 2, 3}), None),
    "glue64-0.8": (_glue64(0.8), _PARTS),
    "glue64-0.88": (_glue64(0.88), _PARTS),
}
GRAPHS.update(("g64-%s" % p, (_gnp(p), None))
              for p in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9))

# (graph, subcommand, format)
RUNGS = [
    ("k64", "bredon", "text"), ("c64-complement", "bredon", "text"),
    ("g64-0.85", "bredon", "text"), ("g64-0.9", "bredon", "text"),
    ("g64-0.8", "limit", "text"),
    ("k20", "bredon", "text"), ("k20", "limit", "text"),
    ("k12", "all", "text"), ("k14", "all", "text"), ("k16", "all", "text"),
    ("k16", "ktheory", "text"),
    ("k20", "ktheory", "text"), ("k20", "ktheory", "json"),
    ("g64-0.7", "ktheory", "text"), ("g64-0.7", "ktheory", "json"),
    ("g64-0.7", "all", "json"), ("g64-0.7", "all", "text"),
    ("k24", "ktheory", "json"), ("g64-0.8", "ktheory", "json"),
    ("k64", "bgw", "text"), ("g64-0.9", "bgw", "text"),
    ("glue64-0.8", "mv-check", "text"), ("glue64-0.88", "mv-check", "text"),
    ("g64-0.3", "all", "text"), ("c64-cube", "all", "text"),
] + [("g64-%s" % p, sub, "text") for p in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
     for sub in ("bredon", "bgw")]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_once(argv, env, timeout, limit):
    """(exit code or "timeout", wall seconds, peak MB) of one child."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    timed_out = threading.Event()
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, preexec_fn=cap)

    def stop():
        timed_out.set()
        child.kill()
    timer = threading.Timer(timeout, stop)
    timer.start()
    _pid, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    timer.cancel()
    timer.join()
    # reaped here, so the Popen object must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    code = "timeout" if timed_out.is_set() else child.returncode
    return code, wall, usage.ru_maxrss / 1024


def run_ladders(trees, rungs=RUNGS, runs=RUNS, timeout=TIMEOUT_S,
                limit=MEMORY_LIMIT):
    """The ladder records of the racgk sources under each of `trees`,
    in order, each rung run on every tree in turn."""
    envs = []
    for tree in trees:
        src = os.path.join(tree, "src")
        if not compileall.compile_dir(src, quiet=1):
            raise SystemExit("cannot compile %s" % src)
        envs.append(dict(os.environ, PYTHONPATH=src))
    outs = [[] for _ in trees]
    with tempfile.TemporaryDirectory() as tmp:
        for graph, sub, fmt in rungs:
            text, parts = GRAPHS[graph]
            path = os.path.join(tmp, graph)
            _write(path + ".graph", text)
            argv = [sys.executable, "-m", "racgk.cli", sub,
                    "--input", path + ".graph", "--format", fmt]
            if parts is not None:
                _write(path + ".part", parts)
                argv += ["--partition", path + ".part"]
            results = [[] for _ in trees]
            for run in range(runs):
                order = range(len(trees))
                for t in order[::-1] if run % 2 else order:
                    results[t].append(run_once(argv, envs[t], timeout,
                                               limit))
            for tree, out, result in zip(trees, outs, results):
                codes, walls, peaks = zip(*result)
                out.append({"graph": graph, "subcommand": sub,
                            "format": fmt, "exit": list(codes),
                            "wall_s": [round(w, 3) for w in walls],
                            "peak_mb": [round(m, 1) for m in peaks]})
                print("%-16s %-8s %-4s exit %s, %.2f s, %.0f MB (median)"
                      "  %s" % (graph, sub, fmt, codes,
                                statistics.median(walls),
                                statistics.median(peaks), tree),
                      file=sys.stderr)
    return [{"python": "%d.%d.%d" % sys.version_info[:3], "runs": runs,
             "timeout_s": timeout, "memory_limit_mb": limit >> 20,
             "rungs": out} for out in outs]


def dump(record):
    """The record as JSON text, one rung a line."""
    head = json.dumps({k: v for k, v in record.items() if k != "rungs"})
    return (head[:-1] + ', "rungs": [\n'
            + ",\n".join(json.dumps(r) for r in record["rungs"]) + "\n]}\n")


def compare(old, new):
    """One line per rung of the record `new`: the NEW / OLD ratios of the
    median wall seconds and peak MB, then a flag for each changed exit
    code and each range apart from the other file's; a rung that only
    one file has is named as new or as dropped."""
    before = {(r["graph"], r["subcommand"], r["format"]): r
              for r in old["rungs"]}
    lines = []
    for r in new["rungs"]:
        key = (r["graph"], r["subcommand"], r["format"])
        head = "%-16s %-8s %-4s" % key
        o = before.get(key)
        if o is None:
            lines.append(head + " new rung")
            continue
        line = head + " wall %.2fx, MB %.2fx" % tuple(
            statistics.median(r[m]) / statistics.median(o[m])
            for m in ("wall_s", "peak_mb"))
        if set(r["exit"]) != set(o["exit"]):
            line += "  EXIT %s -> %s" % (o["exit"], r["exit"])
        for m, name in (("wall_s", "WALL"), ("peak_mb", "MB")):
            (o_low, o_high), (r_low, r_high) = ((min(x[m]), max(x[m]))
                                                for x in (o, r))
            if r_high < o_low or o_high < r_low:
                line += "  %s %s-%s -> %s-%s" % (name, o_low, o_high,
                                                  r_low, r_high)
        lines.append(line)
    now = {(r["graph"], r["subcommand"], r["format"]) for r in new["rungs"]}
    return lines + ["%-16s %-8s %-4s dropped rung" % key
                    for key in before if key not in now]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", action="append",
                        help="checkout whose src/ is measured (default: "
                        "this one); repeat it to measure several in turn")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", nargs="+",
                        help="JSON file to write, one per --tree")
    action.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="two ladder files to compare, rung by rung")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = [_read(path) for path in args.compare]
        print("\n".join(compare(old, new)))
        return
    trees = args.tree or [os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))]
    if len(args.out) != len(trees):
        parser.error("give one --out file per --tree")
    for path, record in zip(args.out, run_ladders(trees)):
        _write(path, dump(record))


if __name__ == "__main__":
    main()
