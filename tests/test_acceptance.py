"""End-to-end acceptance checks.  Every criterion is exact (integer
equality); one pass/fail line is printed per criterion, and a failed
criterion names the first suite graph (or other witness) that fails
it."""

import random

from racgk.bredon import (build_bredon_complex, clique_basis_isomorphism,
                          cohomology, interval_tensor_kunneth, inverse_limit,
                          rho_surjectivity)
from racgk.charlab import lemma_c4_real_report, lemma_d8_report, verify_tau
from racgk.graphs import enumerate_spherical, validate_decomposition
from racgk.intlinalg import mat_mul
from racgk.kring import (BAR, STAR, KRingElement, convert_basis, ideal_power,
                         mayer_vietoris_check, multiply_bar, multiply_star,
                         presentation_report, random_element,
                         restrict_to_clique)
from racgk.repring import (character_evaluation, character_interpolation,
                           rep_multiply, restriction)
from conftest import dense_differentials, graph_suite, is_zero

SUITE = graph_suite()


def report(criterion, failures):
    """Prints the criterion's line and fails on the first of the
    witnesses that fail it."""
    print("criterion %s: %s" % (criterion, "FAIL" if failures else "PASS"))
    assert not failures, "criterion %s failed, first on %s" % (
        criterion, failures[0])


def maximal_cliques_of(cliques):
    return [c for c in cliques
            if not any(c != d and c & d == c for d in cliques)]


def test_criterion_1_bredon_cohomology_vanishing():
    failures = []
    for name, graph, d in SUITE:
        coh = cohomology(build_bredon_complex(graph))
        ok = coh[0]["free_rank"] == d and not coh[0]["torsion"]
        ok &= all(c["free_rank"] == 0 and not c["torsion"] for c in coh[1:])
        if not ok:
            failures.append(name)
    report("1 (poset cohomology free of rank d, vanishing above)", failures)


def test_criterion_2_limit_isomorphism_and_surjectivity():
    failures = []
    for name, graph, d in SUITE:
        ok = presentation_report(graph)["rank"] == d
        limit = inverse_limit(graph)
        iso = clique_basis_isomorphism(limit)
        ok &= iso["isomorphism"] and len(iso["invariant_factors"]) == d
        ok &= rho_surjectivity(graph, limit)["surjective"]
        if not ok:
            failures.append(name)
    report("2 (clique basis maps onto the limit with index 1)", failures)


def test_criterion_3_multiplication_oracle_triangle():
    rng = random.Random(2024)
    failures = []
    for name, graph, _ in SUITE:
        cliques = enumerate_spherical(graph)
        maximal = maximal_cliques_of(cliques)
        for _ in range(500):
            a = random_element(graph, rng, basis=STAR)
            b = random_element(graph, rng, basis=STAR)
            prod = multiply_star(a, b)
            oracle = multiply_bar(convert_basis(a, BAR),
                                  convert_basis(b, BAR))
            ok = convert_basis(prod, BAR) == oracle
            for j in maximal:
                ra = character_evaluation(restrict_to_clique(a, j))
                rb = character_evaluation(restrict_to_clique(b, j))
                rp = character_evaluation(restrict_to_clique(prod, j))
                ok &= rp == [x * y for x, y in zip(ra, rb)]
            if not ok:
                failures.append(name)
                break
    report("3 (star, bar and componentwise character products agree)",
           failures)


def test_criterion_4_bar_relations_and_ideal_indices():
    failures = []
    for name, graph, _ in SUITE:
        cliques = enumerate_spherical(graph)
        ok = True
        for v in graph.labels:
            s = KRingElement.generator(graph, v, BAR)
            ok &= multiply_bar(s, s) == s.scale(-2)
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                if not graph.adj[i] >> j & 1:
                    si = KRingElement.monomial(graph, 1 << i, BAR)
                    sj = KRingElement.monomial(graph, 1 << j, BAR)
                    ok &= multiply_bar(si, sj) == KRingElement.zero(graph, BAR)
        for c in cliques:
            m = KRingElement.monomial(graph, c, BAR)
            ok &= multiply_bar(m, m) == m.scale((-2) ** bin(c).count("1"))
        if not ok:
            failures.append(name)
    k1 = next(g for name, g, _ in SUITE if name == "K1")
    prev = ideal_power(k1, 1)
    for k in range(2, 7):
        cur = ideal_power(k1, k)
        if cur.index_in(prev) != 2:
            failures.append("K1, [I^%d : I^%d]" % (k - 1, k))
        prev = cur
    report("4 (bar relations and 2-adic ideal-power indices)", failures)


def test_criterion_5_kunneth():
    failures = ["I^%d" % n for n in range(1, 5)
                if not interval_tensor_kunneth(n)["ok"]]
    report("5 (interval tensor powers: single Z in degree zero)", failures)


def test_criterion_6_dihedral_restriction():
    rep = lemma_d8_report(k_range=range(-8, 9))
    checks = [("D8 parity", rep["parity_ok"]),
              ("D8 certificate", rep["certificate_is_tau"]),
              ("tau", verify_tau()["ok"])]
    report("6 (dihedral-to-center parity with explicit certificate)",
           [what for what, ok in checks if not ok])


def test_criterion_7_c4_real_restriction():
    rep = lemma_c4_real_report(k_range=range(-8, 9))
    checks = [("C4 lattice", rep["lattice_matches_tr_2lambda"]),
              ("C4 parity", rep["parity_ok"])]
    report("7 (real C4 restriction image is tr and twice sign)",
           [what for what, ok in checks if not ok])


def random_valid_decompositions(rng, count):
    """Seeded valid splits drawn across the graph suite, as (name,
    graph, part1, part2): part2 is the complement of a random part
    together with its outside neighbours."""
    out = []
    pool = [(name, g) for name, g, _ in SUITE if g.n >= 2]
    while len(out) < count:
        name, g = pool[rng.randrange(len(pool))]
        part1 = {v for v in g.labels if rng.random() < 0.6}
        rest = set(g.labels) - part1
        boundary = set()
        for v in part1:
            i = g.index[v]
            for u in rest:
                if g.adj[i] >> g.index[u] & 1:
                    boundary.add(v)
        part2 = rest | boundary
        if not part1 or not part2:
            continue
        out.append((name, g, part1, part2))
    return out


def test_criterion_8_mayer_vietoris():
    rng = random.Random(99)
    failures = []
    for name, g, part1, part2 in random_valid_decompositions(rng, 20):
        validate_decomposition(g, part1, part2)
        rep = mayer_vietoris_check(g, part1, part2, rng, samples=50)
        if not rep["ok"]:
            failures.append("%s split %s | %s" % (name, sorted(part1),
                                                  sorted(part2)))
    report("8 (random splits: rank count and split ring surjection)",
           failures)


def test_criterion_9_property_suite():
    rng = random.Random(4096)
    failures = []
    for name, graph, _ in SUITE:
        ok = True
        dense = dense_differentials(build_bredon_complex(graph))
        for k in range(len(dense) - 1):
            ok &= is_zero(mat_mul(dense[k + 1], dense[k]))
        cliques = enumerate_spherical(graph)
        full_ambient = max(cliques, key=lambda c: bin(c).count("1"))
        for _ in range(20):
            a = random_element(graph, rng, basis=STAR)
            b = random_element(graph, rng, basis=STAR)
            c = random_element(graph, rng, basis=STAR)
            ok &= multiply_star(a, b) == multiply_star(b, a)
            ok &= multiply_star(multiply_star(a, b), c) == \
                multiply_star(a, multiply_star(b, c))
            ra = restrict_to_clique(a, full_ambient)
            sub = 0
            if full_ambient:
                sub = full_ambient & (full_ambient - 1)
            ok &= restriction(restriction(ra, sub), 0) == restriction(ra, 0)
            values = character_evaluation(ra)
            ok &= character_interpolation(full_ambient, values) == ra
        if not ok:
            failures.append(name)
    report("9 (complex, ring and character properties)", failures)
