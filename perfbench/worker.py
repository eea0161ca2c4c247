"""Benchmark worker: one client, one thread, a closed loop of reports.

run.py starts this file as a child process under an address-space cap.
It imports racgk from the checkout's src/, runs one warm-up report,
prints `ready`, and then runs whole decks of reports through
`racgk.cli.main` in-process, each report after the previous one ends.
Every report is checked; the records go to a JSON file for run.py.

    worker.py WORKLOAD SEED WORKDIR                      set-up probe
    worker.py WORKLOAD SEED WORKDIR SECONDS TRACE RESULT  timed run

With TRACE 1 the run has two halves on the same graphs: untraced, then
with layer spans.
"""

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time

from check import check_report, expectations
import host
from spans import Tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

REPORT_TIME_LIMIT_S = 20    # the slowest timed report takes about 3 s
RUN_TIME_LIMIT_S = 140      # a longer run fails; run.py kills at 170 s


class ReportTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ReportTimeout()


def import_program():
    sys.path.insert(0, SRC)
    import racgk
    from racgk import bredon, charlab, cli, graphs, intlinalg, kring, repring
    if not os.path.abspath(racgk.__file__).startswith(SRC + os.sep):
        raise ImportError("racgk was imported from %s, not from %s"
                          % (racgk.__file__, SRC))
    return {"racgk": racgk, "graphs": graphs, "intlinalg": intlinalg,
            "repring": repring, "kring": kring, "bredon": bredon,
            "charlab": charlab, "cli": cli}


class Session:
    """The reports of one run, numbered in the order they ran."""

    def __init__(self, workload, seed, workdir, modules):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.modules = modules
        self.records = []
        self.deck = None
        self.tracer = None
        self.started = time.perf_counter()

    def report(self, template, exp, sub, rng):
        """Run and check one report on a fresh relabelling of `template`."""
        rid = len(self.records)
        if self.tracer:
            self.tracer.report = rid
        graph_text, part_text = workloads.relabel(template, rng)
        argv = [sub, "--input", self._write("r%d.graph" % rid, graph_text),
                "--format", "json", "--seed", str(rng.randrange(1 << 31))]
        if sub == "mv-check":
            argv += ["--partition", self._write("r%d.part" % rid, part_text)]
        out, err = io.StringIO(), io.StringIO()
        rc, failures = None, None
        gc.collect()
        calibration = host.samples()
        signal.setitimer(signal.ITIMER_REAL, REPORT_TIME_LIMIT_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.modules["cli"].main(argv)
        except ReportTimeout:
            failures = [("guard.time", "over %d s" % REPORT_TIME_LIMIT_S)]
        except MemoryError:
            failures = [("guard.memory", "address-space cap reached")]
        except Exception as e:  # a crash is a failed report, not a failed run
            failures = [("exception", "%s: %s" % (type(e).__name__, e))]
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        calibration += host.samples()
        if failures is None:
            try:
                payload = json.loads(out.getvalue())
            except ValueError:
                payload = None
            failures = check_report(sub, rc, payload, exp, graph_text)
            if rc and err.getvalue():
                failures.append(("stderr", err.getvalue().strip()[:200]))
        record = {"id": rid, "deck": self.deck,
                  "family": template["family"], "subcommand": sub,
                  "digest": workloads.digest(graph_text, part_text),
                  "wall_s": seconds,
                  "seconds": host.to_reference(seconds, calibration),
                  "failures": []}
        for field, message in failures:
            record["failures"].append(
                "workload=%s graph=%s subcommand=%s field=%s: %s"
                % (self.workload, record["digest"], sub, field, message))
        self.records.append(record)
        return record

    def _write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def warm_up(self):
        template = workloads.warmup_template(self.workload)
        exp = expectations(template)
        rng = workloads.deck_rng(self.workload, self.seed, "warm-up")
        for sub in workloads.SUBCOMMANDS[self.workload]:
            failures = self.report(template, exp, sub, rng)["failures"]
            if failures:
                raise RuntimeError("warm-up report failed: %s" % failures[0])
        self.records.clear()

    def run_decks(self, decks, label="timed"):
        """Run `decks` whole decks; returns the ids of the reports run.

        Every deck holds the same graphs; the run seed, the deck number
        and `label` pick their relabelling and order, so each report's
        input is new."""
        first = len(self.records)
        graphs = workloads.deck(self.workload)
        for deck in range(decks):
            rng = workloads.deck_rng(self.workload, self.seed, "%d:%s" % (deck, label))
            self.deck = deck
            items = [(t, expectations(t), sub) for t in graphs
                     for sub in workloads.SUBCOMMANDS[self.workload]]
            rng.shuffle(items)
            for template, exp, sub in items:
                if time.perf_counter() - self.started > RUN_TIME_LIMIT_S:
                    raise RuntimeError("run over %d s; the program is far "
                                       "slower than this workload allows"
                                       % RUN_TIME_LIMIT_S)
                self.report(template, exp, sub, rng)
        return list(range(first, len(self.records)))


def main(argv):
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    signal.signal(signal.SIGALRM, _on_alarm)
    session = Session(workload, seed, workdir, import_program())
    session.warm_up()
    print("ready", flush=True)
    if len(argv) == 3:
        return 0
    seconds, trace, result_path = float(argv[3]), argv[4] == "1", argv[5]
    decks = workloads.deck_count(workload, seconds / 2 if trace else seconds)
    result = {"timed": session.run_decks(decks),
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        session.tracer = Tracer()
        session.tracer.install(session.modules)
        try:
            result["traced"] = session.run_decks(decks, label="traced")
        finally:
            session.tracer.uninstall()
        result["spans"] = session.tracer.spans
    result["records"] = session.records
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
