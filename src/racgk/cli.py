"""Command-line entry point.

Reads a graph file, dispatches the requested computation, and emits a
reproducible report (text or JSON).  Which options each subcommand
takes and which it requires, `--input` among them for every subcommand
that reads a graph, is stated once, in `OPTIONS`: the help text, the
refusals made before any file is read and the one dispatch path all
read it.  `main` returns the exit code for every argv: 0 success, 1 a
verified mathematical property failed, 2 usage, I/O or memory error,
each refusal with one `error:` line on stderr.
"""

import argparse
import contextlib
import os
import random
import sys
from math import prod

from . import bredon, charlab, kring
from .graphs import GraphError, parse_graph
from .writers import dump_json, render_text

USAGE_ERROR = 2
ASSERTION_FAILURE = 1
# the most cells `--dump-matrices` builds: K_n has 4^n, so K10 (under
# 1 GiB whole process) is admitted and K11 refused
DUMP_CELL_CAP = 1 << 20
# the largest `--precision`: `bgw` squares one completed element per
# vertex modulo 2^precision, so the cost grows with it (K5, whole
# process on a 2-core machine: 0.09 s and 16 MB at the cap, 2.3 s and
# 524 MB at 10^9)
PRECISION_CAP = 1 << 20
# the most bytes `--input` or `--partition` may hold, about ten times
# the largest input CI reads (a 1.6 MB JSON graph)
INPUT_CAP = 1 << 24

SUBCOMMANDS = ("ktheory", "bgw", "bredon", "limit", "kunneth",
               "counterexample", "mv-check", "all")
# the subcommands that read a graph; `kunneth` and `counterexample` read none
READS_GRAPH = ("ktheory", "bgw", "bredon", "limit", "mv-check", "all")
# each option's type (a tuple of choices, or None for a flag), default,
# the subcommands it applies to (None for all of them), whether each of
# them requires it, and help, in the order `--help` lists them; a given
# `str` value may not be empty
OPTIONS = {
    "--input": (str, None, READS_GRAPH, True,
                "graph file (edge-list, or JSON with --json-input)"),
    "--json-input": (None, None, READS_GRAPH, False,
                     "parse the input file as JSON"),
    "--format": (("text", "json"), "text", None, False, None),
    "--precision": (int, None, ("bgw", "all"), False,
                    "2-adic truncation exponent for the completed ring "
                    "(default 32, at most 2^20)"),
    "--kunneth-max": (int, None, ("kunneth", "all"), False,
                      "the highest tensor power (default 4)"),
    "--seed": (int, 0, None, False, "seed for randomized property samples"),
    "--partition": (str, None, ("mv-check",), True, "partition file of "
                    "two lines of whitespace-separated vertex labels"),
    "--dump-matrices": (str, None, ("bredon", "all"), False,
                        "write each differential as `row col value` "
                        "triplet lines to FILE.k"),
}


def listed(names):
    """The names as `A`, `A and B` or `A, B and C`."""
    *rest, last = names
    return ", ".join(rest) + " and " + last if rest else last


def build_parser():
    p = argparse.ArgumentParser(
        prog="racgk",
        description="K-theory of right-angled Coxeter groups from a graph")
    p.add_argument("subcommand", choices=SUBCOMMANDS)
    for name, (kind, default, scope, _required, help) in OPTIONS.items():
        if scope:
            help = "%s only: %s" % (listed(scope), help)
        how = ({"action": "store_true"} if kind is None else {"type": kind}
               if kind in (str, int) else {"choices": kind})
        p.add_argument(name, default=default, help=help, **how)
    return p


# parse_args leaves the parser as it found it, so one serves every call
PARSER = build_parser()
# each option's attribute, and the attributes' defaults, as `PARSER` has them
_DESTS = {name: name[2:].replace("-", "_") for name in OPTIONS}
_DEFAULTS = {dest: OPTIONS[name][1] for name, dest in _DESTS.items()}


def parse_canonical(argv):
    """`PARSER.parse_args(argv)` in one pass, for canonical argv: the
    subcommand, then exact long options each given once, as `--name
    value` or a bare flag, with ints in ASCII digits, a value not
    starting with `-` and a choice among its choices.  None for any
    other argv, which `PARSER` alone parses: help, abbreviations, `=`
    forms and every usage error stay its own."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    values = dict(_DEFAULTS, subcommand=argv[0])
    given = set()
    words = iter(argv[1:])
    for name in words:
        if name not in OPTIONS or name in given:
            return None
        given.add(name)
        kind = OPTIONS[name][0]
        value = True
        if kind is int:
            value = next(words, "")
            if not (value.isascii() and value.isdigit()):
                return None
            value = int(value)
        elif kind is not None:
            value = next(words, "-")
            if value.startswith("-") or kind is not str and value not in kind:
                return None
        values[_DESTS[name]] = value
    args = argparse.Namespace()
    # at once, where the constructor would call setattr for each
    vars(args).update(values)
    return args


def read_text(path):
    """The file's text as text mode reads it, from its raw bytes: one
    UTF-8 decode, each `\\r\\n` and each lone `\\r` made `\\n`.  At most
    INPUT_CAP bytes and one more are read, so that an endless or huge
    input is refused before it fills the memory."""
    chunks = []
    left = INPUT_CAP + 1
    with open(path, "rb", buffering=0) as fh:
        # to the end, which only an empty read marks: a pipe's reads are
        # short, each as much as it holds
        while left and (chunk := fh.read(min(1 << 16, left))):
            chunks.append(chunk)
            left -= len(chunk)
    # the path quoted, so that a newline in it keeps one error line
    if not left:
        raise GraphError("%r holds more than %d bytes, the input cap"
                         % (path, INPUT_CAP))
    try:
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as e:
        raise GraphError("%r is not UTF-8 text: %s" % (path, e))
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_graph(args):
    return parse_graph(read_text(args.input),
                       "json" if args.json_input else "edge-list")


def graph_header(graph):
    return {"vertices": list(graph.labels),
            "edges": [list(e) for e in graph.canonical_edge_list()]}


def run_ktheory(graph, args):
    report = kring.presentation_report(graph)
    rng = random.Random(args.seed)
    samples = []
    for sample in range(5):
        a = kring.random_element(graph, rng, basis=kring.STAR)
        b = kring.random_element(graph, rng, basis=kring.STAR)
        prod = kring.multiply_star(a, b)
        ours = kring.convert_basis(prod, kring.BAR).coeffs
        oracle = kring.group_ring_product(a, b).coeffs
        if ours != oracle and "detail" not in report:
            # the first bar monomial, by (size, members), where they differ
            m = min((m for m, _c in ours.items() ^ oracle.items()),
                    key=lambda m: (m.bit_count(), graph.members(m)))
            report["detail"] = {
                "sample": sample, "monomial": list(graph.subset_labels(m)),
                "star_product": str(ours.get(m, 0)),
                "group_ring_product": str(oracle.get(m, 0))}
        samples.append({
            "a": kring.element_to_json_dict(a),
            "b": kring.element_to_json_dict(b),
            "product": kring.element_to_json_dict(prod),
            "bases_agree": ours == oracle,
        })
    report["sample_products"] = samples
    report["ok"] = all(s["bases_agree"] for s in samples)
    return report


def run_bgw(graph, args):
    f = graph.f_vector
    precision = 32 if args.precision is None else args.precision
    report = {
        "bar_relations": kring.bar_relations(graph),
        "additive_structure": {
            "free_part": "Z (constant terms)",
            "two_adic_components": sum(f) - 1,
            "precision": precision,
        },
    }
    # relation spot checks in the completed ring, up to the first vertex
    # whose s~^2 is not -2 s~: an element of the same ring whose one
    # residue is -2 mod 2^precision (none at precision 1)
    witness = None
    for i, v in enumerate(graph.labels):
        # the vertex's own mask, a clique
        s = kring._of_cliques(kring.CompletedElement, graph, precision,
                              {1 << i: 1})
        sq = kring.completed_multiply(s, s)
        minus_two = -2 % (1 << precision)
        if ((sq.graph, sq.precision) != (graph, precision)
                or sq.coeffs != ({1 << i: minus_two} if minus_two else {})):
            witness = v
            break
    # I^j has one row on each clique where its entry by size is not 0,
    # so its rank and the pivot ratio [I^k : I^(k+1)] go by clique size
    powers = kring.ideal_powers(graph, 4)
    indices = []
    for k, (prev, cur) in enumerate(zip(powers, powers[1:]), 1):
        ranks = [sum(n for s, n in enumerate(f) if entries[s])
                 for entries in (prev, cur)]
        if ranks[0] == ranks[1]:
            indices.append({"k": k, "index": prod(
                (cur[s] // prev[s]) ** n for s, n in enumerate(f)
                if prev[s])})
        else:
            indices.append({"k": k, "index": None,
                            "note": "rank drops from %d to %d" % tuple(ranks)})
    report["ideal_power_indices"] = indices
    report["relations_ok"] = report["ok"] = witness is None
    if witness is not None:
        report["detail"] = ("s~^2 != -2 s~ in the completed ring for vertex %s"
                            % witness)
    return report


def run_bredon(graph, args):
    return bredon_section(graph, bredon.cone_certificate(graph), args)


def bredon_section(graph, certificate, args):
    if args.dump_matrices is not None:
        # counted, so a complex too large to hold is never built
        cells = sum(certificate.ranks)
        if cells > DUMP_CELL_CAP:
            raise GraphError("--dump-matrices would build a complex of %d "
                             "cells; the cap is %d" % (cells, DUMP_CELL_CAP))
        # the complex's d o d = 0 rests on the certificate: a failed one
        # builds and writes nothing, and its witness is the report's detail
        if certificate.ok:
            complex_ = bredon.build_bredon_complex(graph)
            for k, d in enumerate(complex_.diffs):
                write_triplets("%s.%d" % (args.dump_matrices, k), d)
    report = {"ranks": certificate.ranks, "cohomology": certificate.cohomology,
              "clique_count": certificate.rank, "ok": certificate.ok}
    if not certificate.ok:
        report["detail"] = certificate.witness
    return report


def write_triplets(path, rows):
    """`row col value` lines for each nonzero entry, by row and then
    column: each line made by one f-string, and written a block of
    lines at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        lines = []
        for r, row in enumerate(rows):
            head = str(r)
            lines += [f"{head} {c} {row[c]}\n" for c in sorted(row)]
            if len(lines) > 1 << 14:
                fh.write("".join(lines))
                lines = []
        fh.write("".join(lines))


def run_limit(graph, args):
    # a limit too large to report is refused before the certificate runs
    return limit_section(graph, bredon.inverse_limit(graph))


def limit_section(graph, certificate):
    rho = bredon.rho_surjectivity(graph, certificate)
    iso = bredon.clique_basis_isomorphism(certificate)
    ok = certificate.ok and rho["surjective"] and iso["isomorphism"]
    report = {"limit_rank": certificate.rank, "clique_count": certificate.rank,
              "rho": rho, "clique_basis_isomorphism": iso, "ok": ok}
    if not certificate.ok:
        report["detail"] = certificate.witness
    return report


def run_kunneth(graph, args):
    top = 4 if args.kunneth_max is None else args.kunneth_max
    reports = [bredon.interval_tensor_kunneth(power)
               for power in bredon.interval_tensor_powers(top)]
    return {"cases": reports, "ok": all(r["ok"] for r in reports)}


def run_counterexample(graph, args):
    d8 = charlab.lemma_d8_report()
    c4 = charlab.lemma_c4_real_report()
    return {"dihedral8_to_center": d8, "c4_real_to_c2": c4,
            "ok": d8["ok"] and c4["ok"]}


def run_mv_check(graph, args):
    lines = [l.split() for l in read_text(args.partition).splitlines()
             if l.strip()]
    if not 1 <= len(lines) <= 2:
        raise GraphError("partition file needs one or two label lines, "
                         "not %d" % len(lines))
    return kring.mayer_vietoris_check(
        graph, lines[0], lines[1] if len(lines) == 2 else [],
        random.Random(args.seed))


def run_all(graph, args):
    # as in `limit`, a limit too large to report is refused up front,
    # before any section lists the cliques, and so is a complex too
    # large to dump
    certificate = bredon.inverse_limit(graph)
    bredon_report = bredon_section(graph, certificate, args)
    sections = {
        "ktheory": run_ktheory(graph, args),
        "bgw": run_bgw(graph, args),
        "bredon": bredon_report,
        "limit": limit_section(graph, certificate),
        "kunneth": run_kunneth(graph, args),
        "counterexample": run_counterexample(None, args),
    }
    coh = bredon_report["cohomology"]
    cross = {
        # d as the cliques are listed, and as they are counted
        "presentation_rank": sections["ktheory"]["rank"],
        "h0_rank": coh[0]["free_rank"] if coh else None,
        # every H^k above degree 0 vanishes, so the ranks' alternating
        # sum is the rank of H^0
        "euler_characteristic": sum(
            -r if k % 2 else r for k, r in enumerate(certificate.ranks)),
    }
    # the first identity that fails is named in `detail`
    failed = next((
        "%s %s != %s %s" % (key, cross[key], other, cross[other])
        for key, other in (("euler_characteristic", "h0_rank"),
                           ("h0_rank", "presentation_rank"))
        if cross[key] != cross[other]), None)
    cross["ok"] = failed is None
    if failed:
        cross["detail"] = failed
    sections["rank_cross_check"] = cross
    sections["ok"] = all(section["ok"] for section in sections.values())
    return sections


@contextlib.contextmanager
def exact_integers():
    """Lift CPython's cap on the digits of an int written as a string
    (`sys.set_int_max_str_digits`, from 3.11 and 3.10.7) for the
    duration, so a report prints every answer exactly, and restore it
    afterwards; a Python without the cap has nothing to lift."""
    cap = getattr(sys, "get_int_max_str_digits", None)
    if cap is None:
        yield
        return
    saved = cap()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def main(argv=None):
    with exact_integers():
        try:
            return _main(argv)
        except BrokenPipeError:
            # the reader closed stdout: point it at devnull, so that the
            # interpreter's last flush stays quiet, and say so once
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return refuse("standard output was closed before the report "
                          "was written")


def refuse(message):
    """Write the one `error:` line of a refused run, and return its code."""
    print("error: %s" % message, file=sys.stderr)
    return USAGE_ERROR


def _main(argv):
    if argv is None:
        argv = sys.argv[1:]
    args = parse_canonical(argv)
    if args is None:
        try:
            args = PARSER.parse_args(argv)
        except SystemExit as e:
            # argparse wrote `--help` or its usage error
            return e.code
    sub = args.subcommand
    for name, (_kind, _default, scope, _required, _help) in OPTIONS.items():
        if (scope and sub not in scope
                and getattr(args, _DESTS[name]) is not None):
            return refuse("%s applies only to %s" % (name, listed(scope)))
    # only a `str` option, a path, can be given an empty value
    for name, dest in _DESTS.items():
        if getattr(args, dest) == "":
            return refuse("%s was given an empty path" % name)
    if (args.precision is not None and args.precision < 1
            or args.kunneth_max is not None
            and not 1 <= args.kunneth_max <= bredon.KUNNETH_CAP):
        return refuse("precision must be >= 1 and kunneth-max between 1 "
                      "and %d" % bredon.KUNNETH_CAP)
    if args.precision is not None and args.precision > PRECISION_CAP:
        # refused before any 2^precision is built, and before `all`
        # runs any section
        return refuse("%s --precision %d would build 2^%d, an integer of "
                      "%d bytes; the cap is %d" % (
                          sub, args.precision, args.precision,
                          args.precision // 8 + 1, PRECISION_CAP))
    # a file the subcommand reads is named before any file is read
    for name, (_kind, _default, scope, required, _help) in OPTIONS.items():
        if required and sub in scope and getattr(args, _DESTS[name]) is None:
            return refuse("%s requires %s" % (sub, name))
    try:
        graph = None if args.input is None else load_graph(args)
        # looked up when called, so that a patched runner is the one run
        report = globals()["run_" + sub.replace("-", "_")](graph, args)
    except (GraphError, OSError) as e:
        return refuse(e)
    except MemoryError:
        return refuse("%s ran out of memory on this graph" % sub)
    payload = {} if graph is None else {"graph": graph_header(graph)}
    payload["subcommand"] = sub
    payload["seed"] = args.seed
    payload.update(report)
    try:
        text = (dump_json(payload) if args.format == "json"
                else "\n".join(render_text(payload)))
    except (ValueError, MemoryError) as e:
        # an int past the digit cap where it could not be lifted
        return refuse("cannot write the %s report: %s" % (sub, e))
    # flushed here, so that a closed stdout raises in `main`, not at exit
    print(text, flush=True)
    return 0 if report.get("ok", True) else ASSERTION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
