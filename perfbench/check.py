"""Output checker for benchmark reports.

Reports are checked by the mathematical facts they must state, not by
comparing bytes: a later change may reorder or extend a report and
still be right.  The expected values come from the benchmark's own
clique enumeration, which shares no code with the program.

Ideal-power indices: in bar coordinates the product of bar monomials is
x_J x_K = (-2)^|J & K| x_(J | K) (zero when J | K is not a clique), so
the k-th power of the augmentation ideal is spanned by
2^max(0, k - |K|) x_K over the non-empty cliques K.  The index of I^(j+1)
in I^j is therefore 2^(number of cliques with 1..j vertices).  The
stored reference values in reference.json pin this against the program.
"""


def clique_masks(labels, edges):
    """Every clique, the empty one included, as a vertex bitmask."""
    index = {v: i for i, v in enumerate(labels)}
    adj = [0] * len(labels)
    for a, b in edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    out = []

    def grow(mask, cand):
        out.append(mask)
        while cand:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            grow(mask | 1 << v, cand & adj[v])

    grow(0, (1 << len(labels)) - 1)
    return out


def clique_sizes(labels, edges):
    """sizes[k] = number of cliques with k vertices; the clique number is
    len(sizes) - 1 and the clique count d is sum(sizes)."""
    sizes = []
    for m in clique_masks(labels, edges):
        k = bin(m).count("1")
        sizes.extend([0] * (k + 1 - len(sizes)))
        sizes[k] += 1
    return sizes


def expectations(template):
    """What every report on this template must state."""
    labels, edges = template["labels"], [tuple(e) for e in template["edges"]]
    exp = {"sizes": clique_sizes(labels, edges), "parts": None}
    if template["parts"]:
        p1, p2 = (set(p) for p in template["parts"])

        def induced(keep):
            return clique_sizes([v for v in labels if v in keep],
                                [e for e in edges if e[0] in keep and e[1] in keep])

        exp["parts"] = [sum(induced(p)) for p in (p1, p2, p1 & p2)]
    return exp


def ideal_indices(sizes, count):
    return [2 ** sum(sizes[1:j + 1]) for j in range(1, count + 1)]


class Checker:
    """Collects (field, message) failures for one report."""

    def __init__(self):
        self.failures = []

    def expect(self, field, got, want):
        if got != want:
            self.failures.append((field, "got %r, expected %r" % (got, want)))

    def true(self, field, got):
        self.expect(field, got, True)


def check_report(subcommand, rc, payload, exp, graph_text):
    """Failures of one report; an empty list means the report is correct."""
    c = Checker()
    c.expect("exit_code", rc, 0)
    if not isinstance(payload, dict):
        c.failures.append(("stdout", "not a JSON object"))
        return c.failures
    c.true("ok", payload.get("ok"))
    c.expect("subcommand", payload.get("subcommand"), subcommand)
    _check_header(c, payload.get("graph"), graph_text)
    d = sum(exp["sizes"])
    sections = {subcommand: payload}
    if subcommand == "all":
        sections = {k: payload.get(k) or {} for k in
                    ("ktheory", "bgw", "bredon", "limit", "kunneth", "counterexample")}
        cross = payload.get("rank_cross_check") or {}
        c.true("rank_cross_check.ok", cross.get("ok"))
        c.expect("rank_cross_check.presentation_rank", cross.get("presentation_rank"), d)
        for key in ("kunneth", "counterexample"):
            c.true(key + ".ok", sections[key].get("ok"))
    for name, rep in sections.items():
        prefix = "" if subcommand != "all" else name + "."
        checker = _SECTION_CHECKS.get(name)
        if checker:
            checker(c, prefix, rep, exp, d)
    return c.failures


def _check_header(c, header, graph_text):
    head, _, tail = graph_text.partition(";")
    edges = sorted(sorted(t.split("-")) for t in tail.split())
    header = header or {}
    c.expect("graph.vertices", header.get("vertices"), head.split())
    c.expect("graph.edges", sorted(sorted(e) for e in header.get("edges", [])), edges)


def _check_ktheory(c, p, rep, exp, d):
    c.expect(p + "rank", rep.get("rank"), d)
    c.expect(p + "clique_basis.length", len(rep.get("clique_basis", [])), d)
    samples = rep.get("sample_products") or []
    c.true(p + "sample_products.present", bool(samples))
    for i, s in enumerate(samples):
        c.true("%ssample_products[%d].bases_agree" % (p, i), s.get("bases_agree"))


def _check_bgw(c, p, rep, exp, d):
    c.true(p + "relations_ok", rep.get("relations_ok"))
    rows = rep.get("ideal_power_indices") or []
    want = ideal_indices(exp["sizes"], len(rows))
    c.true(p + "ideal_power_indices.present", bool(rows))
    for i, row in enumerate(rows):
        c.expect("%sideal_power_indices[k=%s].index" % (p, row.get("k")),
                 row.get("index"), want[i])


def _check_bredon(c, p, rep, exp, d):
    c.expect(p + "clique_count", rep.get("clique_count"), d)
    coh = rep.get("cohomology") or [{}]
    c.expect(p + "cohomology[0].free_rank", coh[0].get("free_rank"), d)
    c.expect(p + "cohomology[0].torsion", coh[0].get("torsion"), [])
    for k, h in enumerate(coh[1:], 1):
        c.expect("%scohomology[%d].free_rank" % (p, k), h.get("free_rank"), 0)
        c.expect("%scohomology[%d].torsion" % (p, k), h.get("torsion"), [])


def _check_limit(c, p, rep, exp, d):
    c.expect(p + "limit_rank", rep.get("limit_rank"), d)
    c.expect(p + "clique_count", rep.get("clique_count"), d)
    rho = rep.get("rho") or {}
    c.true(p + "rho.surjective", rho.get("surjective"))
    c.expect(p + "rho.invariant_factors", rho.get("invariant_factors"), [1] * d)
    iso = rep.get("clique_basis_isomorphism") or {}
    c.true(p + "clique_basis_isomorphism.isomorphism", iso.get("isomorphism"))
    c.expect(p + "clique_basis_isomorphism.invariant_factors",
             iso.get("invariant_factors"), [1] * d)


def _check_mv(c, p, rep, exp, d):
    d1, d2, d3 = exp["parts"]
    ranks = rep.get("ranks") or {}
    c.expect(p + "ranks", ranks,
             {"whole": d, "part1": d1, "part2": d2, "intersection": d3})
    c.expect(p + "ranks.inclusion_exclusion", ranks.get("whole"),
             sum(ranks.get(k, 0) for k in ("part1", "part2")) - ranks.get("intersection", 0))
    c.true(p + "rank_inclusion_exclusion", rep.get("rank_inclusion_exclusion"))
    c.true(p + "projection_is_ring_map", rep.get("projection_is_ring_map"))
    c.true(p + "section_splits", rep.get("section_splits"))


_SECTION_CHECKS = {"ktheory": _check_ktheory, "bgw": _check_bgw,
                   "bredon": _check_bredon, "limit": _check_limit,
                   "mv-check": _check_mv}
