"""Finite simple graphs, their cliques, and chains in the clique poset.

Vertices are string labels externally and dense integer indices
internally.  Vertex sets are represented as bitmasks over the declared
vertex order, which caps graphs at 64 vertices.
"""

import json
from functools import cached_property

MAX_VERTICES = 64


class GraphError(ValueError):
    """Malformed graph input or an invalid graph operation."""


class Graph:
    """Finite simple undirected graph with a fixed vertex order.

    The declared vertex order is preserved verbatim; it fixes the
    bitmask encoding of vertex subsets and hence every monomial and
    matrix ordering downstream.
    """

    def __init__(self, vertices, edges):
        vertices = list(vertices)
        if len(set(vertices)) != len(vertices):
            dup = next(v for v in vertices if vertices.count(v) > 1)
            raise GraphError("duplicate vertex label: %r" % dup)
        if len(vertices) > MAX_VERTICES:
            raise GraphError(
                "graph has %d vertices; the bitmask representation caps at %d"
                % (len(vertices), MAX_VERTICES))
        self.labels = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.labels)}
        self.n = len(self.labels)
        self.adj = [0] * self.n
        edge_set = set()
        for a, b in edges:
            if a not in self.index:
                raise GraphError("edge endpoint %r is not a declared vertex" % a)
            if b not in self.index:
                raise GraphError("edge endpoint %r is not a declared vertex" % b)
            if a == b:
                raise GraphError("loop edge at vertex %r" % a)
            i, j = self.index[a], self.index[b]
            edge_set.add((min(i, j), max(i, j)))
        self.edges = frozenset(edge_set)
        for i, j in self.edges:
            self.adj[i] |= 1 << j
            self.adj[j] |= 1 << i

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.labels == other.labels
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.labels, self.edges))

    def __repr__(self):
        return "Graph(%r, %d edges)" % (list(self.labels), len(self.edges))

    @cached_property
    def cliques(self):
        """All cliques, in the order of `enumerate_spherical`; enumerated
        once per graph object."""
        return tuple(enumerate_spherical(self))

    @cached_property
    def clique_set(self):
        """The cliques as a frozenset, for membership tests."""
        return frozenset(self.cliques)

    def has_edge(self, i, j):
        return bool(self.adj[i] >> j & 1)

    def is_clique(self, mask):
        """True if every pair of vertices in the mask is adjacent."""
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if m & ~self.adj[v]:
                return False
        return True

    def members(self, mask):
        """Sorted tuple of vertex indices in a mask."""
        out = []
        while mask:
            out.append((mask & -mask).bit_length() - 1)
            mask &= mask - 1
        return tuple(out)

    def mask_of(self, labels):
        mask = 0
        for v in labels:
            if v not in self.index:
                raise GraphError("unknown vertex label %r" % v)
            mask |= 1 << self.index[v]
        return mask

    def subset_labels(self, mask):
        return tuple(self.labels[i] for i in self.members(mask))

    def induced(self, labels):
        """Full subgraph on the given labels, preserving vertex order."""
        keep = set(labels)
        verts = [v for v in self.labels if v in keep]
        edges = [(self.labels[i], self.labels[j]) for i, j in self.edges
                 if self.labels[i] in keep and self.labels[j] in keep]
        return Graph(verts, edges)

    def canonical_edge_list(self):
        return sorted((self.labels[i], self.labels[j]) for i, j in self.edges)


def submasks(mask):
    """Every subset of a bitmask, from the mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subset_key(graph, mask):
    """Canonical sort key for vertex subsets: size, then member list."""
    return (bin(mask).count("1"), graph.members(mask))


def parse_graph(text, fmt="edge-list"):
    """Parse a graph description in `edge-list` or `json` format.

    Edge-list format: whitespace-separated vertex labels terminated by
    `;`, then whitespace-separated `a-b` edge tokens.
    """
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise GraphError("malformed JSON graph: %s" % e)
        if not isinstance(data, dict) or "vertices" not in data:
            raise GraphError('JSON graph must be an object with "vertices"')
        vertices, edges = data["vertices"], data.get("edges", [])
        if not isinstance(vertices, list) or not all(
                isinstance(v, str) for v in vertices):
            raise GraphError('JSON "vertices" must be a list of strings')
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2
                and all(isinstance(v, str) for v in e) for e in edges):
            raise GraphError('JSON "edges" must be a list of [a, b] string pairs')
        return Graph(vertices, edges)
    if fmt != "edge-list":
        raise GraphError("unknown graph format %r" % fmt)
    if ";" not in text:
        raise GraphError("edge-list format needs a `;` after the vertex list")
    head, _, tail = text.partition(";")
    vertices = head.split()
    if not vertices:
        raise GraphError("empty vertex list")
    edges = []
    for tok in tail.split():
        parts = tok.split("-")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise GraphError("malformed edge token %r (expected a-b)" % tok)
        edges.append((parts[0], parts[1]))
    return Graph(vertices, edges)


def maximal_cliques(graph):
    """All maximal cliques as bitmasks, by pivoted Bron-Kerbosch."""
    adj = graph.adj
    out = []

    def extend(r, p, x):
        if not p and not x:
            out.append(r)
            return
        # pivot: vertex of p|x with the most neighbours in p
        pivot, best = -1, -1
        m = p | x
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            cnt = bin(p & adj[v]).count("1")
            if cnt > best:
                pivot, best = v, cnt
        cand = p & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            bit = 1 << v
            extend(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    extend(0, (1 << graph.n) - 1, 0)
    return out


def enumerate_spherical(graph):
    """All cliques of the graph (the empty clique included), in the
    canonical (size, member-list) order.  The length of the result is d,
    the number of spherical subgroups of the Coxeter group."""
    seen = {0}
    for m in maximal_cliques(graph):
        seen.update(submasks(m))
    return sorted(seen, key=lambda m: subset_key(graph, m))


def brute_force_cliques(graph):
    """2^n subset filter; independent oracle for enumerate_spherical."""
    if graph.n > 20:
        raise GraphError("brute-force clique oracle limited to 20 vertices")
    return sorted((m for m in range(1 << graph.n) if graph.is_clique(m)),
                  key=lambda m: subset_key(graph, m))


def poset_chains(graph, cliques, max_length):
    """Strictly increasing chains in the clique poset, grouped by length.

    Returns a list indexed by chain length k of lists of chains; a chain
    is a tuple of k+1 clique masks, each a proper subset of the next.
    """
    if max_length < 0:
        raise GraphError("max_length must be nonnegative")
    chains = [[(c,) for c in cliques]]
    supersets = {c: [d for d in cliques if c != d and c & d == c]
                 for c in cliques}
    for _ in range(max_length):
        nxt = [ch + (d,) for ch in chains[-1] for d in supersets[ch[-1]]]
        if not nxt:
            break
        chains.append(nxt)
    return chains


def validate_decomposition(graph, part1, part2):
    """Split the graph along two vertex sets covering all vertices.

    Valid when no edge joins part1 minus part2 to part2 minus part1, so
    the graph is the union of the full subgraphs on the parts.  Returns
    the full subgraphs on part1, part2 and their intersection.
    """
    p1, p2 = set(part1), set(part2)
    for v in p1 | p2:
        if v not in graph.index:
            raise GraphError("unknown vertex label %r in partition" % v)
    if p1 | p2 != set(graph.labels):
        missing = sorted(set(graph.labels) - (p1 | p2))
        raise GraphError("partition does not cover vertices %r" % missing)
    for i, j in graph.edges:
        a, b = graph.labels[i], graph.labels[j]
        if (a in p1 - p2 and b in p2 - p1) or (b in p1 - p2 and a in p2 - p1):
            raise GraphError("crossing edge (%s,%s) between the parts" % (a, b))
    return (graph.induced(p1), graph.induced(p2), graph.induced(p1 & p2))
