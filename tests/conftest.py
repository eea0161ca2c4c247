import pytest

from racgk.graphs import Graph, poset_chains, subset_key, submasks
from racgk.intlinalg import Lattice
from racgk.kring import bar_structure_constant


def complete_graph(n):
    labels = ["v%d" % i for i in range(n)]
    return Graph(labels, [(labels[i], labels[j])
                          for i in range(n) for j in range(i + 1, n)])


def edgeless_graph(n):
    return Graph(["v%d" % i for i in range(n)], [])


def path_graph(n):
    labels = ["v%d" % i for i in range(n)]
    return Graph(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def cycle_graph(n):
    labels = ["v%d" % i for i in range(n)]
    return Graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


def petersen_graph():
    outer = ["o%d" % i for i in range(5)]
    inner = ["i%d" % i for i in range(5)]
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    return Graph(outer + inner, edges)


def graph_suite():
    """The ten-graph verification suite with known clique counts."""
    return [
        ("K1", complete_graph(1), 2),
        ("K2", complete_graph(2), 4),
        ("K3", complete_graph(3), 8),
        ("E2", edgeless_graph(2), 3),
        ("E3", edgeless_graph(3), 4),
        ("P3", path_graph(3), 6),
        ("P4", path_graph(4), 8),
        ("C4", cycle_graph(4), 9),
        ("C5", cycle_graph(5), 11),
        ("Petersen", petersen_graph(), 26),
    ]


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def sparsify(rows):
    """Dict rows {column: nonzero entry} from dense rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def densify(rows, n):
    """Dense rows of n entries from dict rows {column: entry}."""
    out = []
    for row in rows:
        line = [0] * n
        for j, x in row.items():
            line[j] = x
        out.append(line)
    return out


def dense_differentials(complex_):
    """The differentials of a cochain complex as dense matrices."""
    return [densify(d, complex_.ranks[k]) for k, d in enumerate(complex_.diffs)]


def dense_bredon_complex(graph):
    """Reference build of the Bredon complex, (ranks, dense differentials).

    Same bases as `build_bredon_complex`, with sort keys recomputed per
    chain; face 0 is found by testing every submask of the chain's
    second clique against its first, each entry added into a dense
    matrix."""
    cliques = graph.cliques
    top = max((bin(c).count("1") for c in cliques), default=0)
    bases = []
    index_maps = []
    for per_degree in poset_chains(graph, cliques, top):
        basis = []
        for ch in sorted(per_degree,
                         key=lambda ch: [subset_key(graph, c) for c in ch]):
            for mono in sorted(submasks(ch[0]),
                               key=lambda m: subset_key(graph, m)):
                basis.append((ch, mono))
        bases.append(basis)
        index_maps.append({bm: i for i, bm in enumerate(basis)})
    diffs = []
    for k in range(len(bases) - 1):
        d = [[0] * len(bases[k]) for _ in bases[k + 1]]
        for r, (chain, mono) in enumerate(bases[k + 1]):
            for ell in submasks(chain[1]):
                if ell & chain[0] == mono:
                    d[r][index_maps[k][(chain[1:], ell)]] += 1
            for i in range(1, len(chain)):
                face = chain[:i] + chain[i + 1:]
                d[r][index_maps[k][(face, mono)]] += -1 if i % 2 else 1
        diffs.append(d)
    return [len(b) for b in bases], diffs


def product_ideal_power(graph, k):
    """Reference I^k: the products of each bar monomial with k bar
    generators, multiplied out one generator at a time and put in HNF
    only after the last."""
    cliques = graph.cliques
    index = {c: i for i, c in enumerate(cliques)}
    current = [{c: 1} for c in cliques]
    for _ in range(k):
        nxt = []
        for vec in current:
            for v in range(graph.n):
                prod = {}
                for mask, c in vec.items():
                    sc = bar_structure_constant(graph, 1 << v, mask)
                    if sc is not None:
                        prod[sc[0]] = prod.get(sc[0], 0) + sc[1] * c
                if any(prod.values()):
                    nxt.append(prod)
        current = nxt
    rows = [{index[mask]: c for mask, c in vec.items()} for vec in current]
    return Lattice(len(cliques), rows)


@pytest.fixture(params=graph_suite(), ids=lambda t: t[0])
def suite_entry(request):
    return request.param
