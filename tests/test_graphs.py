import json
from collections import Counter
from math import comb

import pytest

from racgk import graphs
from racgk.graphs import (Graph, GraphError, clique_counts,
                          enumerate_spherical, parse_graph, poset_chains,
                          validate_decomposition)
from conftest import (brute_force_cliques, complete_graph, cycle_graph,
                      edgeless_graph, graph_suite, label_order_counts,
                      path_graph, petersen_graph, random_graph)


def test_parse_edge_list():
    g = parse_graph("s t u; s-t t-u")
    assert g.labels == ("s", "t", "u")
    assert g.canonical_edge_list() == [("s", "t"), ("t", "u")]


def test_parse_single_vertex():
    g = parse_graph("s; ")
    assert g.labels == ("s",)
    assert g.edges == frozenset()


def test_parse_json():
    text = json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]})
    g = parse_graph(text, fmt="json")
    assert g.canonical_edge_list() == [("a", "b")]


@pytest.mark.parametrize("text,msg", [
    ("s; s-s", "loop"),
    ("s s; ", "duplicate"),
    ("s; s-t", "not a declared vertex"),
    ("s t", ";"),
    ("s t; st", "malformed edge token"),
    # the first bad edge in input order, and its first bad endpoint
    ("a b; a-b b-x y-a a-a", "endpoint 'x' is not"),
    ("a b; a-b y-x", "endpoint 'y' is not"),
    ("a b; a-a b-x", "loop edge at vertex 'a'"),
])
def test_parse_errors(text, msg):
    with pytest.raises(GraphError, match=msg):
        parse_graph(text)


def test_vertex_cap():
    labels = ["v%d" % i for i in range(65)]
    with pytest.raises(GraphError, match="caps at 64"):
        Graph(labels, [])


def test_vertex_order_preserved():
    g = parse_graph("c a b; a-b")
    assert g.labels == ("c", "a", "b")


def test_pentagon_has_eleven_cliques():
    assert len(enumerate_spherical(cycle_graph(5))) == 11


def test_complete_graph_cliques():
    # every subset of a complete graph is a clique
    assert len(enumerate_spherical(complete_graph(3))) == 8


def test_path_cliques_listed():
    g = parse_graph("s t u; s-t t-u")
    cliques = enumerate_spherical(g)
    labels = [g.subset_labels(c) for c in cliques]
    assert labels == [(), ("s",), ("t",), ("u",), ("s", "t"), ("t", "u")]


@pytest.mark.parametrize("graph", [
    complete_graph(4), edgeless_graph(5), path_graph(6), cycle_graph(6),
    cycle_graph(5), parse_graph("a b c d; a-b a-c b-c c-d"),
])
def test_enumeration_matches_brute_force(graph):
    assert enumerate_spherical(graph) == brute_force_cliques(graph)


def test_cliques_closed_under_subsets(suite_entry):
    _, graph, _ = suite_entry
    cliques = set(enumerate_spherical(graph))
    for c in cliques:
        sub = c
        while sub:
            sub = (sub - 1) & c
            assert sub in cliques


def test_clique_labels_follow_the_cliques(suite_entry):
    name, g, _ = suite_entry
    assert g.clique_labels == [list(g.subset_labels(c))
                               for c in g.cliques], name


def test_nonadjacent_pair_is_the_least_non_edge(suite_entry):
    name, g, _ = suite_entry
    for mask in range(1 << min(g.n, 10)):
        members = g.members(mask)
        pairs = [(s, t) for i, s in enumerate(members) for t in members[i + 1:]
                 if not g.adj[s] >> t & 1]
        assert g.nonadjacent_pair(mask) == min(pairs, default=None), name
        assert g.is_clique(mask) == (not pairs), name


def test_is_clique_is_false_outside_the_vertex_range():
    g = complete_graph(3)
    assert g.is_clique(0) and g.is_clique(0b111)
    for mask in (1 << 3, 0b1111, 1 << 70, -1, -(1 << 70)):
        assert not g.is_clique(mask), mask


@pytest.mark.parametrize("method, mask", [
    ("members", -1), ("members", 1 << 70), ("induced", -2),
    ("induced", 1 << 3), ("subset_labels", 1 << 3),
    ("subset_labels", -1)])
def test_a_mask_outside_the_vertex_range_is_refused(method, mask):
    g = complete_graph(3)
    with pytest.raises(GraphError, match=r"^mask %d is outside" % mask):
        getattr(g, method)(mask)


def test_clique_count_formulas():
    for n in range(1, 6):
        assert len(enumerate_spherical(complete_graph(n))) == 2 ** n
        assert len(enumerate_spherical(edgeless_graph(n))) == n + 1


def brute_force_counts(graph):
    sizes = Counter(map(int.bit_count, brute_force_cliques(graph)))
    return [sizes[s] for s in range(max(sizes) + 1)]


def test_clique_counts_match_the_brute_force_sizes(suite_entry):
    name, g, d = suite_entry
    f = clique_counts(g)
    assert f == brute_force_counts(g) == g.f_vector, name
    assert sum(f) == d and f == label_order_counts(g), name


def test_clique_counts_of_complete_and_random_graphs():
    for n in (0, 1, 5, 64):
        g = complete_graph(n)
        assert clique_counts(g) == [comb(n, s) for s in range(n + 1)]
    for n, p in ((12, 0.5), (16, 0.7), (20, 0.3)):
        g = random_graph(n, p)
        assert clique_counts(g) == brute_force_counts(g), (n, p)
        assert label_order_counts(g) == clique_counts(g), (n, p)


def test_clique_counts_refuse_past_the_state_budget(monkeypatch):
    monkeypatch.setattr(graphs, "CLIQUE_COUNT_STATES", 4)
    with pytest.raises(GraphError, match=r"reached \d+ memo states, the "
                       "budget is 4$"):
        clique_counts(cycle_graph(10))
    assert clique_counts(complete_graph(2)) == [1, 2, 1]


@pytest.mark.parametrize("graph,states", [
    (cycle_graph(10), 18), (petersen_graph(), 18),
    (random_graph(16, 0.7), 90)])
def test_clique_counts_reach_a_fixed_number_of_memo_states(monkeypatch,
                                                            graph, states):
    # the least budget that counts each graph: a change to the vertex
    # order or the memo keys moves it
    monkeypatch.setattr(graphs, "CLIQUE_COUNT_STATES", states)
    assert clique_counts(graph) == brute_force_counts(graph)
    monkeypatch.setattr(graphs, "CLIQUE_COUNT_STATES", states - 1)
    with pytest.raises(GraphError, match="the budget is %d$" % (states - 1)):
        clique_counts(graph)


def test_maximal_cliques_pentagon():
    g = cycle_graph(5)
    cliques = enumerate_spherical(g)
    maximal = [m for m in cliques
               if not any(m != c and m & c == m for c in cliques)]
    assert sorted(bin(m).count("1") for m in maximal) == [2] * 5


def test_poset_chains_two_element_poset():
    g = parse_graph("s; ")
    chains = poset_chains(g, 1)
    assert len(chains[0]) == 2
    assert len(chains[1]) == 1


def test_poset_chains_path_degree_zero():
    g = parse_graph("s t u; s-t t-u")
    chains = poset_chains(g, 0)
    assert len(chains[0]) == 6


def test_poset_chains_k2_degree_two():
    g = complete_graph(2)
    chains = poset_chains(g, 2)
    # the two maximal chains empty < vertex < edge
    assert len(chains[2]) == 2


def test_poset_chains_negative_length():
    g = parse_graph("s; ")
    with pytest.raises(GraphError):
        poset_chains(g, -1)


def test_valid_decomposition_path():
    g = parse_graph("s t u; s-t t-u")
    g1, g2, g3 = validate_decomposition(g, {"s", "t"}, {"t", "u"})
    assert g1.labels == ("s", "t")
    assert g3.labels == ("t",)
    assert g3.edges == frozenset()


def test_decomposition_crossing_edge():
    g = complete_graph(3)
    with pytest.raises(GraphError, match="crossing edge"):
        validate_decomposition(g, {"v0", "v1"}, {"v2"})


def test_decomposition_names_lowest_crossing_edge():
    # four spokes o_k-i_k cross this split of the Petersen graph
    g = petersen_graph()
    with pytest.raises(GraphError, match=r"crossing edge \(o1,i1\) "):
        validate_decomposition(g, g.labels[:6], g.labels[5:])
    # the lower vertex comes first, whichever part it is in
    g = parse_graph("a b c; a-c b-c")
    for parts in ((["c"], ["a", "b"]), (["a", "b"], ["c"])):
        with pytest.raises(GraphError, match=r"crossing edge \(a,c\) "):
            validate_decomposition(g, *parts)


def test_decomposition_refuses_bad_parts():
    g = path_graph(3)
    with pytest.raises(GraphError,
                       match=r"partition does not cover vertices \['v0', 'v2'\]"):
        validate_decomposition(g, ["v1"], [])
    with pytest.raises(GraphError, match="unknown vertex label 'x' in partition"):
        validate_decomposition(g, ["v0", "v1", "v2"], ["x"])


def test_induced_keeps_vertex_order_and_edges():
    for name, g, _ in graph_suite():
        for mask in (0, (1 << g.n) - 1, int("10" * g.n, 2) & (1 << g.n) - 1):
            sub = g.induced(mask)
            keep = set(g.subset_labels(mask))
            assert sub.labels == g.subset_labels(mask), name
            assert sub.canonical_edge_list() == [
                e for e in g.canonical_edge_list() if set(e) <= keep], name


def test_decomposition_degenerate_split():
    g = cycle_graph(4)
    g1, g2, g3 = validate_decomposition(g, set(g.labels), set())
    assert g1 == g
    assert g2.labels == ()
    assert g3.labels == ()


def test_decomposition_rank_inclusion_exclusion():
    g = path_graph(3)
    g1, g2, g3 = validate_decomposition(g, {"v0", "v1"}, {"v1", "v2"})
    d = len(enumerate_spherical(g))
    assert d == (len(enumerate_spherical(g1)) + len(enumerate_spherical(g2))
                 - len(enumerate_spherical(g3)))
