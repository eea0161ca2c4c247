"""Graph families for the three benchmark workloads.

A workload is a deck of graph templates, one per slot.  The random
slots are drawn once, from a seed fixed per workload, so every run does
the same work and runs differ only by host noise.  The run seed picks
each report's input file: the template under a fresh seeded
relabelling, with the vertex list and the edge tokens reordered, and
the order of the reports.  Relabelling changes neither the answer nor,
beyond noise, the cost of a report, but it keeps a cache keyed on input
text or on vertex labels from serving a later report of the same run.
"""

import hashlib
import random
import string

from check import clique_masks, clique_sizes

SUBCOMMANDS = {
    "bredon-all": ("all",),
    "limit-sweep": ("limit",),
    "ring-lattice": ("ktheory", "bgw", "mv-check"),
}

# Decks in a 30 s run; a deck is 4.3-4.7 reference seconds.  A run is a
# whole number of decks, fixed by its length alone, so that the median
# and the tail percentile are the same order statistics in every run,
# chosen to fall inside one slot of the deck, not on the edge between
# two (see README.md).
DECKS_PER_30_S = {"bredon-all": 7, "limit-sweep": 5, "ring-lattice": 7}


def _labels(n, prefix="v"):
    return ["%s%d" % (prefix, i) for i in range(n)]


def complete(n):
    v = _labels(n)
    return v, [(v[i], v[j]) for i in range(n) for j in range(i + 1, n)]


def cycle(n):
    v = _labels(n)
    return v, [(v[i], v[(i + 1) % n]) for i in range(n)]


def path(n):
    v = _labels(n)
    return v, [(v[i], v[i + 1]) for i in range(n - 1)]


def octahedron():
    v = _labels(6)
    return v, [(v[i], v[j]) for i in range(6) for j in range(i + 1, 6)
               if j != i + 3]


def petersen():
    outer, inner = _labels(5, "o"), _labels(5, "i")
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    return outer + inner, edges


def k4_with_path():
    """K4 with a pendant path of two vertices at one corner (n = 6, d = 20)."""
    v, e = complete(4)
    return v + ["p0", "p1"], e + [(v[0], "p0"), ("p0", "p1")]


def bredon_rank_sum(labels, edges):
    """Total rank of the Bredon complex: the sum over strict chains of
    cliques of 2^(size of the smallest clique).  up[c] counts the chains
    that start at c; larger cliques come first, so their counts are ready."""
    cliques = sorted(clique_masks(labels, edges), key=lambda c: -bin(c).count("1"))
    up = {}
    for c in cliques:
        up[c] = 1 + sum(up[s] for s in up if s & c == c)
    return sum((1 << bin(c).count("1")) * up[c] for c in cliques)


def random_graph(rng, n, m):
    v = _labels(n)
    pairs = [(v[i], v[j]) for i in range(n) for j in range(i + 1, n)]
    return v, sorted(rng.sample(pairs, m))


def bredon_random(rng, n_range, m_range, omega, rank_band):
    """Random graph with clique number `omega` whose Bredon rank sum lies
    in `rank_band`."""
    while True:
        n = rng.randint(*n_range)
        g = random_graph(rng, n, rng.randint(*m_range))
        sizes = clique_sizes(*g)
        if len(sizes) - 1 == omega and rank_band[0] <= bredon_rank_sum(*g) <= rank_band[1]:
            return g


def sparse_random(rng, n, extra):
    """Random spanning tree plus `extra` further edges, triangle-free."""
    while True:
        v = _labels(n)
        edges = {(v[rng.randrange(i)], v[i]) for i in range(1, n)}
        pairs = [(v[i], v[j]) for i in range(n) for j in range(i + 1, n)
                 if (v[i], v[j]) not in edges]
        edges.update(rng.sample(pairs, extra))
        g = (v, sorted(edges))
        if len(clique_sizes(*g)) == 3:
            return g


def glued(rng, half, sep, m, d_band):
    """Two random halves of `half` vertices each, glued along a separator
    path of `sep` vertices: `m` random edges per half, none inside the
    separator, clique number 3 and clique count in `d_band`.  Returns the
    graph and its two parts, whose union is the graph and whose
    intersection is the separator."""
    a, b, s = _labels(half, "a"), _labels(half, "b"), _labels(sep, "s")
    while True:
        edges = {(s[i], s[i + 1]) for i in range(sep - 1)}
        for side in (a, b):
            pool = side + s
            pairs = [(pool[i], pool[j]) for i in range(half)
                     for j in range(i + 1, len(pool))]
            edges.update(rng.sample(pairs, m))
        g = (a + s + b, sorted(edges))
        sizes = clique_sizes(*g)
        if len(sizes) == 4 and d_band[0] <= sum(sizes) <= d_band[1]:
            return g, (a + s, s + b)


def _template(family, graph, parts=None):
    return {"family": family, "labels": list(graph[0]),
            "edges": [list(e) for e in graph[1]],
            "parts": [list(p) for p in parts] if parts else None}


def templates(workload, rng):
    """One deck: the slots of the workload, drawn from `rng`."""
    if workload == "bredon-all":
        return [
            _template("K3", complete(3)),
            _template("K4", complete(4)),
            _template("octahedron", octahedron()),
            _template("K4+path", k4_with_path()),
            _template("random-w4", bredon_random(rng, (7, 8), (10, 14), 4, (650, 760))),
        ]
    if workload == "limit-sweep":
        return [
            _template("C8", cycle(8)),
            _template("P9", path(9)),
            _template("C10", cycle(10)),
            _template("P10", path(10)),
            _template("petersen", petersen()),
            _template("sparse-9", sparse_random(rng, 9, 2)),
            _template("sparse-10", sparse_random(rng, 10, 3)),
        ]
    if workload == "ring-lattice":
        slots = [(6, 4, 14, (58, 61)), (14, 4, 28, (102, 106)),
                 (22, 4, 41, (143, 147)), (30, 4, 53, (182, 186))]
        out = []
        for half, sep, m, band in slots:
            g, parts = glued(rng, half, sep, m, band)
            out.append(_template("glued-%d" % len(g[0]), g, parts))
        return out
    raise ValueError("unknown workload %r" % workload)


def deck_count(workload, seconds):
    """Decks in a run of `seconds`: at least three, so that a run has
    more than ten reports."""
    return max(3, round(DECKS_PER_30_S[workload] * seconds / 30))


def deck(workload):
    """The deck of every run of `workload`."""
    return templates(workload, random.Random("%s:deck" % workload))


def warmup_template(workload):
    """A small fixed graph that takes every subcommand of the workload
    through its code path once before timing starts."""
    if workload == "ring-lattice":
        v, e = path(5)
        return _template("warmup", (v, e + [(v[2], v[4])]), (v[:3], v[2:]))
    if workload == "limit-sweep":
        return _template("warmup", cycle(6))
    return _template("warmup", complete(3))


_ALPHABET = string.ascii_lowercase + string.digits


def relabel(template, rng):
    """Input files for one report: the template under a random injective
    relabelling, with vertices and edge tokens in random order and each
    edge in a random orientation.  Returns (graph text, partition text or
    None)."""
    labels = template["labels"]
    fresh = set()
    while len(fresh) < len(labels):
        fresh.add("".join(rng.choice(_ALPHABET) for _ in range(6)))
    fresh = sorted(fresh)
    rng.shuffle(fresh)
    names = dict(zip(labels, fresh))
    order = list(labels)
    rng.shuffle(order)
    tokens = [(names[a], names[b]) if rng.random() < 0.5 else (names[b], names[a])
              for a, b in template["edges"]]
    rng.shuffle(tokens)
    graph = "%s; %s\n" % (" ".join(names[v] for v in order),
                          " ".join("%s-%s" % t for t in tokens))
    partition = None
    if template["parts"]:
        partition = "".join(" ".join(names[v] for v in part) + "\n"
                            for part in template["parts"])
    return graph, partition


def deck_rng(workload, seed, deck):
    return random.Random("%s:%d:deck:%s" % (workload, seed, deck))


def digest(*texts):
    h = hashlib.sha256()
    for t in texts:
        h.update((t or "").encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
