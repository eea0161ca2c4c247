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
from json.encoder import encode_basestring_ascii
from math import prod

from . import bredon, charlab, kring
from .graphs import GraphError, parse_graph

USAGE_ERROR = 2
ASSERTION_FAILURE = 1
# the most cells `--dump-matrices` builds: K8 has 4,366,422, K9 56,697,574
DUMP_CELL_CAP = 5_000_000


def build_parser():
    p = argparse.ArgumentParser(
        prog="racgk",
        description="K-theory of right-angled Coxeter groups from a graph")
    p.add_argument("subcommand",
                   choices=["ktheory", "bgw", "bredon", "limit", "kunneth",
                            "counterexample", "mv-check", "all"])
    p.add_argument("--input", help="graph file (edge-list, or JSON with --json)")
    p.add_argument("--json-input", action="store_true",
                   help="parse the input file as JSON")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--precision", type=int, default=32,
                   help="2-adic truncation exponent for the completed ring")
    p.add_argument("--kunneth-max", type=int, default=4)
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
        raise GraphError("%s is not UTF-8 text: %s" % (path, e))


def load_graph(args):
    if not args.input:
        raise GraphError("subcommand %r requires --input" % args.subcommand)
    return parse_graph(read_text(args.input),
                       "json" if args.json_input else "edge-list")


def graph_header(graph):
    return {"vertices": list(graph.labels),
            "edges": [list(e) for e in graph.canonical_edge_list()]}


def run_ktheory(graph, args, rng):
    report = kring.presentation_report(graph)
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


def run_bgw(graph, args, rng):
    f = graph.f_vector
    report = {
        "bar_relations": kring.bar_relations(graph),
        "additive_structure": {
            "free_part": "Z (constant terms)",
            "two_adic_components": sum(f) - 1,
            "precision": args.precision,
        },
    }
    # relation spot checks in the completed ring, up to the first vertex
    # whose s~^2 is not -2 s~
    witness = None
    for v in graph.labels:
        mask = graph.mask_of([v])
        s = kring.CompletedElement(graph, args.precision, {mask: 1})
        sq = kring.completed_multiply(s, s)
        if sq != kring.CompletedElement(graph, args.precision, {mask: -2}):
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


def run_bredon(graph, args, rng):
    return bredon_section(graph, bredon.cone_certificate(graph), args)


def bredon_section(graph, certificate, args):
    if args.dump_matrices:
        # counted, so a complex too large to hold is never built
        cells = sum(certificate.ranks)
        if cells > DUMP_CELL_CAP:
            raise GraphError("--dump-matrices would build a complex of %d "
                             "cells; the cap is %d" % (cells, DUMP_CELL_CAP))
        complex_ = bredon.build_bredon_complex(graph)
        for k, d in enumerate(complex_.diffs):
            with open("%s.%d" % (args.dump_matrices, k), "w",
                      encoding="utf-8") as fh:
                for r, row in enumerate(d):
                    for c in sorted(row):
                        fh.write("%d %d %d\n" % (r, c, row[c]))
    report = {"ranks": certificate.ranks, "cohomology": certificate.cohomology,
              "clique_count": certificate.rank, "ok": certificate.ok}
    if not certificate.ok:
        report["detail"] = certificate.witness
    return report


def run_limit(graph, args, rng):
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


def run_kunneth(graph, args, rng):
    reports = [bredon.interval_tensor_kunneth(n, power) for n, power in
               enumerate(bredon.interval_tensor_powers(args.kunneth_max), 1)]
    return {"cases": reports, "ok": all(r["ok"] for r in reports)}


def run_counterexample():
    d8 = charlab.lemma_d8_report()
    c4 = charlab.lemma_c4_real_report()
    return {"dihedral8_to_center": d8, "c4_real_to_c2": c4,
            "ok": d8["ok"] and c4["ok"]}


def run_mv_check(graph, args, rng):
    if not args.partition:
        raise GraphError("mv-check requires --partition")
    lines = [l.split() for l in read_text(args.partition).splitlines()
             if l.strip()]
    if not 1 <= len(lines) <= 2:
        raise GraphError("partition file needs one or two label lines, "
                         "not %d" % len(lines))
    return kring.mayer_vietoris_check(
        graph, lines[0], lines[1] if len(lines) == 2 else [], rng)


def run_all(graph, args, rng):
    # as in `limit`, a limit too large to report is refused up front,
    # before any section lists the cliques, and so is a complex too
    # large to dump
    certificate = bredon.inverse_limit(graph)
    bredon_report = bredon_section(graph, certificate, args)
    sections = {
        "ktheory": run_ktheory(graph, args, rng),
        "bgw": run_bgw(graph, args, rng),
        "bredon": bredon_report,
        "limit": limit_section(graph, certificate),
        "kunneth": run_kunneth(graph, args, rng),
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
    """`key: value` or `- value` lines; a nested container goes below."""
    pad = "  " * indent
    if isinstance(report, dict):
        items = (("%s%s:" % (pad, k), v) for k, v in report.items())
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
    or backslash) is quoted by the join itself."""
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
        if len(kinds) == 1:
            (kind,) = kinds
            if kind is str:
                # every escape lengthens the text, so the quoting leaves
                # it alone when it adds no more than the two quotes
                text = "".join(value)
                if len(encode_basestring_ascii(text)) == len(text) + 2:
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
    if args.precision < 1 or not 1 <= args.kunneth_max <= bredon.KUNNETH_CAP:
        PARSER.exit(USAGE_ERROR, "error: precision must be >= 1 and "
                    "kunneth-max between 1 and %d\n" % bredon.KUNNETH_CAP)
    for option, subs in (("dump_matrices", ("bredon", "all")),
                         ("partition", ("mv-check",))):
        if getattr(args, option) is not None and args.subcommand not in subs:
            PARSER.exit(USAGE_ERROR, "error: --%s applies only to %s\n"
                        % (option.replace("_", "-"), " and ".join(subs)))
    rng = random.Random(args.seed)
    try:
        if args.subcommand == "counterexample":
            report = run_counterexample()
            header = {}
        elif args.subcommand == "kunneth" and not args.input:
            report = run_kunneth(None, args, rng)
            header = {}
        else:
            graph = load_graph(args)
            header = {"graph": graph_header(graph)}
            runner = {
                "ktheory": run_ktheory, "bgw": run_bgw, "bredon": run_bredon,
                "limit": run_limit, "kunneth": run_kunneth,
                "mv-check": run_mv_check, "all": run_all,
            }[args.subcommand]
            report = runner(graph, args, rng)
    except (GraphError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("error: %s ran out of memory on this graph" % args.subcommand,
              file=sys.stderr)
        return USAGE_ERROR
    except OverflowError as e:
        # an integer too large to build at all, such as 2^precision
        print("error: %s cannot build an integer this large: %s"
              % (args.subcommand, e), file=sys.stderr)
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
