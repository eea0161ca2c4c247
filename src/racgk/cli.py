"""Command-line entry point.

Reads a graph file, dispatches the requested computation, and emits a
reproducible report (text or JSON).  Exit codes: 0 success, 1 a
verified mathematical property failed, 2 usage, I/O or memory error.
"""

import argparse
import contextlib
import json
import os
import random
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import prod

from . import bredon, charlab, kring
from .graphs import GraphError, parse_graph

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


def build_parser():
    p = argparse.ArgumentParser(
        prog="racgk",
        description="K-theory of right-angled Coxeter groups from a graph")
    p.add_argument("subcommand",
                   choices=["ktheory", "bgw", "bredon", "limit", "kunneth",
                            "counterexample", "mv-check", "all"])
    p.add_argument("--input", help="graph file (edge-list, or JSON with --json)")
    p.add_argument("--json-input", action="store_true", default=None,
                   help="parse the input file as JSON")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--precision", type=int,
                   help="bgw and all only: 2-adic truncation exponent for "
                   "the completed ring (default 32, at most 2^20)")
    p.add_argument("--kunneth-max", type=int,
                   help="kunneth and all only: the highest tensor power "
                   "(default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized property samples")
    p.add_argument("--partition", help="mv-check only: partition file of "
                   "two lines of whitespace-separated vertex labels")
    p.add_argument("--dump-matrices",
                   help="bredon and all only: write each differential as "
                   "`row col value` triplet lines to FILE.k")
    return p


# parse_args leaves the parser as it found it, so one serves every call
PARSER = build_parser()


def read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        # the path quoted, so that a newline in it keeps one error line
        raise GraphError("%r is not UTF-8 text: %s" % (path, e))


def load_graph(args):
    if not args.input:
        raise GraphError("subcommand %r requires --input" % args.subcommand)
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
    if args.dump_matrices:
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


def run_counterexample():
    d8 = charlab.lemma_d8_report()
    c4 = charlab.lemma_c4_real_report()
    return {"dihedral8_to_center": d8, "c4_real_to_c2": c4,
            "ok": d8["ok"] and c4["ok"]}


def run_mv_check(graph, args):
    if not args.partition:
        raise GraphError("mv-check requires --partition")
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
        "counterexample": run_counterexample(),
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
    sections["ok"] = cross["ok"] and all(
        sections[k].get("ok", True) for k in
        ("ktheory", "bgw", "bredon", "limit", "kunneth", "counterexample"))
    return sections


def render_text(report, indent=0):
    """`key: value` or `- value` lines; a nested container goes below.
    A list of lists of str that `_plain_strings` passes, such as the
    clique basis, is written a row a line by one join each, as
    `json.dumps` writes the row."""
    pad = "  " * indent
    if isinstance(report, dict):
        items = (("%s%s:" % (pad, k), v) for k, v in report.items())
    elif set(map(type, report)) <= {list} and _plain_strings(report):
        return ['%s- ["%s"]' % (pad, '", "'.join(row)) if row
                else pad + "- []" for row in report]
    else:
        items = ((pad + "-", v) for v in report)
    lines = []
    for head, v in items:
        if isinstance(v, dict) and v or isinstance(v, list) and any(
                isinstance(x, (dict, list)) for x in v):
            lines.append(head)
            lines.extend(render_text(v, indent + 1))
        else:
            lines.append("%s %s" % (head, _flat(v)))
    return lines


def _flat(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    return json.dumps(v) if isinstance(v, (dict, list)) else str(v)


# keyed by exact type, so a bool is never written by `int.__repr__`
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: ("false", "true").__getitem__,
            type(None): {None: "null"}.__getitem__}
_EMPTY = {list: "[]", tuple: "[]", dict: "{}"}
# what the C quoting leaves alone: printable ASCII but `"` and backslash
_PLAIN = bytes(c for c in range(0x20, 0x7f) if c not in b'"\\')


def _plain(text):
    """True if the C quoting adds only the two quotes, by `translate`."""
    return text.isascii() and not text.encode().translate(None, _PLAIN)


def _plain_strings(rows):
    """True if every item of every row is an exact str that the C quoting
    leaves alone: the rows that both writers quote by the join itself."""
    return (set(map(type, chain.from_iterable(rows))) <= {str}
            and _plain("".join(set(chain.from_iterable(rows)))))


def dump_json(value, pad="\n"):
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, at
    the nesting level whose line break and indent are `pad`.  Where
    `indent` is set, the standard library makes one Python call per
    value; here a call is made only for a nested, non-empty container.
    A dict value or list item whose exact type is str, int, bool or None
    is written in place, by the C quoting, `int.__repr__` or its JSON
    literal, and so is an empty list, tuple or dict.  A list or tuple of
    one such type is one join over that writer.  A list of str whose
    joined text the C quoting leaves alone (printable ASCII with no `"`
    or backslash) is quoted by the join itself, and so is a list of str
    lists, such as the clique basis, that `_plain_strings` passes."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        sep = "," + inner
        parts = ["{", inner]
        # the leaf rule of the list loop below, inlined in both loops
        # because a shared helper would cost a call per container
        try:
            for k in sorted(value):
                v = value[k]
                scalar = _SCALARS.get(type(v))
                if scalar:
                    text = scalar(v)
                elif type(v) in _EMPTY and not v:
                    text = _EMPTY[type(v)]
                else:
                    text = dump_json(v, inner)
                parts += encode_basestring_ascii(k), ": ", text, sep
        except TypeError:
            # json.dumps writes int, float, bool and None keys as
            # strings, and refuses keys it cannot sort or write and
            # values it cannot write
            return json.dumps(value, indent=2, sort_keys=True).replace(
                "\n", pad)
        parts[-1] = pad + "}"
        return "".join(parts)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = "," + inner
        kinds = set(map(type, value))
        # string lists: the types first, as a deeper list is unhashable
        if kinds <= {list, tuple} and _plain_strings(value):
            head, mid, tail = f'[{inner}  "', f'",{inner}  "', f'"{inner}]'
            # a generator: `join` frees the rows before the text is wrapped
            rows = (f"{head}{mid.join(v)}{tail}" if v else "[]" for v in value)
            return f"[{inner}{sep.join(rows)}{pad}]"
        if len(kinds) == 1:
            (kind,) = kinds
            if kind is str and _plain("".join(value)):
                return '[%s"%s"%s]' % (
                    inner, ('"' + sep + '"').join(value), pad)
            scalar = _SCALARS.get(kind)
            if scalar:
                return "[%s%s%s]" % (inner, sep.join(map(scalar, value)), pad)
        parts = ["[", inner]
        for v in value:
            scalar = _SCALARS.get(type(v))
            if scalar:
                parts += scalar(v), sep
            elif type(v) in _EMPTY and not v:
                parts += _EMPTY[type(v)], sep
            else:
                parts += dump_json(v, inner), sep
        parts[-1] = pad + "]"
        return "".join(parts)
    scalar = _SCALARS.get(type(value))
    if scalar:
        return scalar(value)
    return json.dumps(value)


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
            print("error: standard output was closed before the report "
                  "was written", file=sys.stderr)
            return USAGE_ERROR


def _main(argv):
    args = PARSER.parse_args(argv)
    sub = args.subcommand
    # `kunneth` reads a graph only when given one, `counterexample` never
    reads_graph = (args.input is not None
                   or sub not in ("kunneth", "counterexample"))
    for option, applies, scope in (
            ("precision", sub in ("bgw", "all"), "to bgw and all"),
            ("kunneth_max", sub in ("kunneth", "all"), "to kunneth and all"),
            ("dump_matrices", sub in ("bredon", "all"), "to bredon and all"),
            ("partition", sub == "mv-check", "to mv-check"),
            ("input", sub != "counterexample",
             "to a subcommand that reads a graph"),
            ("json_input", reads_graph, "where a graph is read")):
        if getattr(args, option) is not None and not applies:
            PARSER.exit(USAGE_ERROR, "error: --%s applies only %s\n"
                        % (option.replace("_", "-"), scope))
    if (args.precision is not None and args.precision < 1
            or args.kunneth_max is not None
            and not 1 <= args.kunneth_max <= bredon.KUNNETH_CAP):
        PARSER.exit(USAGE_ERROR, "error: precision must be >= 1 and "
                    "kunneth-max between 1 and %d\n" % bredon.KUNNETH_CAP)
    if args.precision is not None and args.precision > PRECISION_CAP:
        # refused before any 2^precision is built, and before `all`
        # runs any section
        print("error: %s --precision %d would build 2^%d, an integer of "
              "%d bytes; the cap is %d" % (
                  sub, args.precision, args.precision,
                  args.precision // 8 + 1, PRECISION_CAP), file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.subcommand == "counterexample":
            report = run_counterexample()
            header = {}
        elif args.subcommand == "kunneth" and not args.input:
            report = run_kunneth(None, args)
            header = {}
        else:
            graph = load_graph(args)
            header = {"graph": graph_header(graph)}
            runner = {
                "ktheory": run_ktheory, "bgw": run_bgw, "bredon": run_bredon,
                "limit": run_limit, "kunneth": run_kunneth,
                "mv-check": run_mv_check, "all": run_all,
            }[args.subcommand]
            report = runner(graph, args)
    except (GraphError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("error: %s ran out of memory on this graph" % args.subcommand,
              file=sys.stderr)
        return USAGE_ERROR
    payload = dict(header)
    payload["subcommand"] = args.subcommand
    payload["seed"] = args.seed
    payload.update(report)
    try:
        text = (dump_json(payload) if args.format == "json"
                else "\n".join(render_text(payload)))
    except (ValueError, MemoryError) as e:
        # an int past the digit cap where it could not be lifted
        print("error: cannot write the %s report: %s" % (args.subcommand, e),
              file=sys.stderr)
        return USAGE_ERROR
    # flushed here, so that a closed stdout raises in `main`, not at exit
    print(text, flush=True)
    return 0 if report.get("ok", True) else ASSERTION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
