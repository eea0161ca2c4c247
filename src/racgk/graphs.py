"""Finite simple graphs, their cliques, and chains in the clique poset.

Vertices are string labels externally and dense integer indices
internally.  Vertex sets are represented as bitmasks over the declared
vertex order, which caps graphs at 64 vertices.  The clique poset comes
from one forward pass, `cliques_within`: it extends each sorted level of
cliques by increasing vertices above their last member, so every clique
comes once and in the canonical (size, member-list) order.
`clique_counts` counts the cliques of each size without listing them:
the clique polynomial is one integer with f_s in bits s(n + 1) and up,
where no field carries: inside a vertex set P, f_s <= 2^|P| <= 2^n.
"""

import json
from functools import cached_property

MAX_VERTICES = 64
# memo states `clique_counts` may reach before it refuses a graph
CLIQUE_COUNT_STATES = 1 << 18
# the longest integer literal a JSON graph may hold, CPython's default
# digit cap: converting a literal takes time quadratic in its length, and
# `cli.main` lifts the cap for the whole run
JSON_INT_DIGITS = 4300
# the one-vertex masks, the units of the forward pass on masks
_BITS = [1 << v for v in range(MAX_VERTICES)]


class GraphError(ValueError):
    """Malformed graph input or an invalid graph operation."""


class Graph:
    """Finite simple undirected graph with a fixed vertex order.

    The declared vertex order is preserved verbatim; it fixes the
    bitmask encoding of vertex subsets and hence every monomial and
    matrix ordering downstream.  Labels and edges are validated here, at
    the input boundary, for every graph: `induced` builds its parts here.
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
        self.index = index = {v: i for i, v in enumerate(self.labels)}
        self.n = len(self.labels)
        self.adj = adj = [0] * self.n
        edge_set = set()
        for a, b in edges:
            i, j = index.get(a), index.get(b)
            if i is None:
                raise GraphError("edge endpoint %r is not a declared vertex" % a)
            if j is None:
                raise GraphError("edge endpoint %r is not a declared vertex" % b)
            if i == j:
                raise GraphError("loop edge at vertex %r" % a)
            edge_set.add((i, j) if i < j else (j, i))
            adj[i] |= _BITS[j]
            adj[j] |= _BITS[i]
        self.edges = frozenset(edge_set)

    def __eq__(self, other):
        # the ring elements' mismatch checks compare a graph with itself
        # almost always
        if self is other:
            return True
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
    def clique_labels(self):
        """Each clique's label list, in the order of `cliques`, by the
        forward pass of `cliques_within` carrying labels, not masks."""
        return _forward_pass(self, (1 << self.n) - 1, [],
                             [[label] for label in self.labels])

    @cached_property
    def f_vector(self):
        """`clique_counts`, counted once per graph object."""
        return clique_counts(self)

    def common_neighbours(self, mask):
        """The vertices adjacent to every vertex of the mask: all of them
        for the empty mask, and none of the mask's own."""
        common = (1 << self.n) - 1
        while mask:
            common &= self.adj[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
        return common

    def nonadjacent_pair(self, mask):
        """The lexicographically least pair s < t of non-adjacent
        members of a mask in 0..2^n - 1, None for a clique: s is the
        lowest member with a non-neighbour above it, t the lowest of those."""
        while mask:
            bit = mask & -mask
            mask ^= bit
            s = bit.bit_length() - 1
            above = mask & ~self.adj[s]
            if above:
                return s, (above & -above).bit_length() - 1
        return None

    def is_clique(self, mask):
        """True if the mask lies in 0..2^n - 1 and every pair of its
        vertices is adjacent: the one clique test of the ring layer."""
        return not mask >> self.n and self.nonadjacent_pair(mask) is None

    def members(self, mask):
        """Sorted tuple of vertex indices in a mask in 0..2^n - 1."""
        if mask >> self.n:
            raise GraphError("mask %d is outside the vertex range 0..2^%d - 1"
                             % (mask, self.n))
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

    def induced(self, mask):
        """Full subgraph on the vertex mask, preserving vertex order: the
        constructor's, from the parent's labels in the mask and its edges
        inside it."""
        labels = self.labels
        return Graph(self.subset_labels(mask),
                     [(labels[i], labels[j]) for i, j in self.edges
                      if mask >> i & mask >> j & 1])

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


def parse_graph(text, fmt="edge-list"):
    """Parse a graph description in `edge-list` or `json` format.

    Edge-list format: whitespace-separated vertex labels terminated by
    `;`, then whitespace-separated `a-b` edge tokens.  Either format
    refuses an empty vertex list.  JSON input refuses an integer literal
    of more than `JSON_INT_DIGITS` digits, anywhere, before converting it.
    """
    if fmt == "json":
        try:
            data = json.loads(text, parse_int=_parse_int)
        except json.JSONDecodeError as e:
            raise GraphError("malformed JSON graph: %s" % e)
        except RecursionError:
            raise GraphError("JSON graph nested too deeply to parse")
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
    elif fmt == "edge-list":
        if ";" not in text:
            raise GraphError(
                "edge-list format needs a `;` after the vertex list")
        head, _, tail = text.partition(";")
        vertices, edges = head.split(), []
        for tok in tail.split():
            parts = tok.split("-")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise GraphError(
                    "malformed edge token %r (expected a-b)" % tok)
            edges.append((parts[0], parts[1]))
    else:
        raise GraphError("unknown graph format %r" % fmt)
    if not vertices:
        raise GraphError("empty vertex list")
    return Graph(vertices, edges)


def _parse_int(literal):
    """The int of a JSON integer literal no longer than `JSON_INT_DIGITS`
    digits; a longer one is refused unconverted."""
    digits = len(literal) - literal.startswith("-")
    if digits > JSON_INT_DIGITS:
        raise GraphError("JSON graph holds an integer literal of %d digits; "
                         "the cap is %d" % (digits, JSON_INT_DIGITS))
    return int(literal)


def cliques_within(graph, mask):
    """Every clique inside the vertex set `mask` in canonical (size,
    member-list) order, the empty clique first, as masks."""
    return _forward_pass(graph, mask, 0, _BITS)


def _forward_pass(graph, mask, start, units):
    """The cliques inside `mask` in canonical order, each `start` plus
    units[v] for its members v in increasing order: masks from 0 and
    1 << v (distinct members, so + is |), label lists from [] and [label].

    A clique grows only by the vertices of `mask` above its last member
    and adjacent to all of it, so each is reached once.  Extending a
    sorted level clique by clique, each by increasing vertices, keeps
    the next level sorted: two k-cliques differ below position k, which
    their extensions keep.  A level is two parallel lists, so no tuple
    per clique is allocated."""
    adj = graph.adj
    out, level, cands = [start], [start], [mask]
    while level:
        nxt, nxt_cands = [], []
        for c, cand in zip(level, cands):
            while cand:
                # take the lowest candidate; those left lie above it
                bit = cand & -cand
                cand ^= bit
                v = bit.bit_length() - 1
                nxt.append(c + units[v])
                nxt_cands.append(cand & adj[v])
        level, cands = nxt, nxt_cands
        out += level
    return out


def clique_counts(graph):
    """The f-vector: f[s] is the number of cliques with s vertices, the
    empty one included, so sum(f) is d and len(f) - 1 the clique number.

    A vertex v of a vertex set P splits the cliques in P into those
    without v and v joined to those in P & N(v): for the clique
    polynomial C(P), the sum of x^|c| over the cliques c in P,
    C(P) = C(P - v) + x C(P & N(v)) (Hoede and Li 1994).  The recursion
    is memoized on P.  It removes the vertices in the order of their
    degree, lowest first and ties by position: renumbered in that order,
    v is the lowest bit of P.  C(P) is packed, f_s in bits s*w and up for
    w = n + 1, so x C is a shift and the sum one addition; the f-vector is
    unpacked once.  A graph that needs more than `CLIQUE_COUNT_STATES`
    memo states is refused with a GraphError."""
    order = sorted(range(graph.n), key=lambda v: graph.adj[v].bit_count())
    position = [0] * graph.n
    for i, v in enumerate(order):
        position[v] = i
    adj = [0] * graph.n
    for i, j in graph.edges:
        a, b = position[i], position[j]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    w = graph.n + 1
    memo = {0: 1}

    def count(p):
        got = memo.get(p)
        if got is not None:
            return got
        if len(memo) >= CLIQUE_COUNT_STATES:
            raise GraphError(
                "counting the cliques reached %d memo states, the budget "
                "is %d" % (len(memo), CLIQUE_COUNT_STATES))
        bit = p & -p
        got = memo[p] = (count(p ^ bit)
                         + (count(p & adj[bit.bit_length() - 1]) << w))
        return got

    packed, field = count((1 << graph.n) - 1), (1 << w) - 1
    return [packed >> s & field for s in range(0, packed.bit_length(), w)]


def enumerate_spherical(graph):
    """All cliques of the graph (the empty clique included) in canonical
    order, by the forward pass of `cliques_within` over every vertex.
    The length is d, the number of spherical subgroups."""
    return cliques_within(graph, (1 << graph.n) - 1)


def poset_chains(graph, max_length):
    """Strictly increasing chains in the clique poset, grouped by length.

    Returns a list indexed by chain length k of lists of chains; a chain
    is a tuple of k+1 clique masks, each a proper subset of the next.
    A level extends the last by c | s for each nonempty clique s in the
    common neighbourhood of its last clique c, so it stays sorted by the
    canonical keys: sets of one size compare by the least vertex of
    their symmetric difference, which joining a disjoint c leaves as is.
    """
    if max_length < 0:
        raise GraphError("max_length must be nonnegative")
    above = {c: [c | s for s in
                 cliques_within(graph, graph.common_neighbours(c))[1:]]
             for c in graph.cliques}
    chains = [[(c,) for c in graph.cliques]]
    for _ in range(max_length):
        nxt = [c + (e,) for c in chains[-1] for e in above[c[-1]]]
        if not nxt:
            break
        chains.append(nxt)
    return chains


def validate_decomposition(graph, part1, part2):
    """Split the graph along two vertex sets, lists of labels, covering
    all vertices.

    Valid when no edge joins part1 minus part2 to part2 minus part1, so
    the graph is the union of the full subgraphs on the parts; a
    crossing edge is named by its lowest pair, lower vertex first.
    Returns the full subgraphs on part1, part2 and their intersection.
    """
    try:
        m1, m2 = graph.mask_of(part1), graph.mask_of(part2)
    except GraphError as e:
        raise GraphError("%s in partition" % e) from None
    missing = (1 << graph.n) - 1 & ~(m1 | m2)
    if missing:
        raise GraphError("partition does not cover vertices %r"
                         % sorted(graph.subset_labels(missing)))
    only1, only2 = m1 & ~m2, m2 & ~m1
    # the first vertex with a crossing edge is the lower end of the
    # lowest: an edge down to an earlier vertex would have stopped there
    for i in graph.members(only1 | only2):
        across = graph.adj[i] & (only2 if only1 >> i & 1 else only1)
        if across:
            j = (across & -across).bit_length() - 1
            raise GraphError("crossing edge (%s,%s) between the parts"
                             % (graph.labels[i], graph.labels[j]))
    return graph.induced(m1), graph.induced(m2), graph.induced(m1 & m2)
