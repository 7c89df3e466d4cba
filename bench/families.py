"""Independent constructions of benchmark inputs and expected answers.

Nothing here imports the quandles package: every table is written out
from its definition, so a benchmark check that compares the program's
output with these tables is a check against a second route.
"""

from __future__ import annotations

import itertools


def edge_masks(n, edges):
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def random_graph(rng, n, p, *, no_isolated=False):
    """G(n, p) as a sorted edge list; optionally every vertex gets an edge."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    if no_isolated:
        covered = {w for e in edges for w in e}
        for v in range(n):
            if v not in covered:
                w = rng.choice([u for u in range(n) if u != v])
                edges.add((min(v, w), max(v, w)))
                covered.update((v, w))
    return sorted(edges)


def complete(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def star(n):
    return [(0, v) for v in range(1, n)]


def cycle(n):
    return sorted((min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n))


def path(n):
    return [(v, v + 1) for v in range(n - 1)]


def johnson(n, k):
    subsets = list(itertools.combinations(range(1, n + 1), k))
    return [
        (i, j)
        for i in range(len(subsets))
        for j in range(i + 1, len(subsets))
        if len(set(subsets[i]) & set(subsets[j])) == k - 1
    ], len(subsets)


def parity_difference(n, k):
    """k-subsets of {1..n}, joined when |J minus I| is odd: aknn(k, n) is its graph quandle."""
    subsets = [set(s) for s in itertools.combinations(range(1, n + 1), k)]
    return [
        (i, j)
        for i in range(len(subsets))
        for j in range(i + 1, len(subsets))
        if len(subsets[j] - subsets[i]) % 2
    ], len(subsets)


NAMED_GRAPHS = {
    "complete": lambda n: (complete(n), n),
    "star": lambda n: (star(n), n),
    "cycle": lambda n: (cycle(n), n),
    "path": lambda n: (path(n), n),
    "empty": lambda n: ([], n),
    "johnson": lambda n, k: johnson(n, k),
}


def named_graph(name, *params):
    """(edges, vertex count) of a named graph family."""
    return NAMED_GRAPHS[name](*params)


def graph_quandle_table(n, edges):
    """Point 2v+a is (v, a); the symmetry at (v, a) adds e(v, w) to the bit of (w, b)."""
    masks = edge_masks(n, edges)
    table = []
    for v in range(n):
        row = [2 * w + (b ^ ((masks[v] >> w) & 1)) for w in range(n) for b in (0, 1)]
        table.append(row)
        table.append(list(row))
    return table


def trivial_table(n):
    return [list(range(n)) for _ in range(n)]


def dihedral_table(r):
    return [[(2 * x - y) % r for y in range(r)] for x in range(r)]


def product_table(t1, t2):
    """Componentwise product; (x1, x2) sits at x1 * len(t2) + x2."""
    n2 = len(t2)
    return [
        [t1[x1][y1] * n2 + t2[x2][y2] for y1 in range(len(t1)) for y2 in range(n2)]
        for x1 in range(len(t1))
        for x2 in range(n2)
    ]


def torus_table(orders):
    table = dihedral_table(orders[0])
    for r in orders[1:]:
        table = product_table(table, dihedral_table(r))
    return table


def aknn_table(k, n):
    """Oriented coordinate k-planes: the symmetry at I flips J iff |J minus I| is odd."""
    subsets = [set(s) for s in itertools.combinations(range(1, n + 1), k)]
    table = []
    for big_i in subsets:
        row = []
        for j, big_j in enumerate(subsets):
            flip = len(big_j - big_i) % 2
            row += [2 * j + flip, 2 * j + 1 - flip]
        table.append(row)
        table.append(list(row))
    return table


def extension_table(base, modulus, values):
    """(x, a) at x*m + a; the symmetry at (x, a) sends (y, b) to (s_x(y), b + phi(x, y))."""
    m = modulus
    n = len(base)
    table = []
    for x in range(n):
        row = [
            base[x][y] * m + (b + values[x][y]) % m for y in range(n) for b in range(m)
        ]
        table.extend(list(row) for _ in range(m))
    return table


def relabel(table, sigma):
    """The same quandle with point x renamed sigma[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        sx = sigma[x]
        for y in range(n):
            out[sx][sigma[y]] = sigma[table[x][y]]
    return out


def relabel_edges(edges, sigma):
    return sorted(
        (min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) for u, v in edges
    )


def random_permutation(rng, n):
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sigma


def gf2_rank(rows):
    """Rank over GF(2) of bitmask rows."""
    basis = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(basis)


def graph_quandle_orders(n, edges, aut_graph):
    """(|Dis|, |Inn+|, |Inn|, |Aut|) of the graph quandle of a graph with no
    isolated vertex.

    Inn is generated by the adjacency rows as toggles, so it is elementary
    abelian of order 2^rank.  Every symmetry is an involution, so Dis and
    Inn+ both come from the pairwise sums of rows.  An automorphism permutes
    the two-point components by a graph automorphism and may swap the two
    points of each component independently, so |Aut| = 2^n |Aut(G)|.
    """
    masks = edge_masks(n, edges)
    inn = 2 ** gf2_rank(masks)
    dis = 2 ** gf2_rank([masks[v] ^ masks[0] for v in range(n)])
    return (dis, dis, inn, 2**n * aut_graph)


def components_of_graph_quandle(n, edges, sigma):
    """Expected components, relabeled by sigma: a pair per non-isolated
    vertex, two singletons per isolated one."""
    covered = {w for e in edges for w in e}
    blocks = []
    for v in range(n):
        a, b = sigma[2 * v], sigma[2 * v + 1]
        blocks += [frozenset((a, b))] if v in covered else [frozenset((a,)), frozenset((b,))]
    return set(blocks)


def rows_commute(table, x, y):
    rx, ry = table[x], table[y]
    return all(rx[ry[i]] == ry[rx[i]] for i in range(len(table)))
