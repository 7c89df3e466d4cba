"""Independent oracles for the test suite.

Everything here recomputes expected values by a different route than the
library: brute force enumeration, float and exact integer geometry,
bitset linear algebra, closed forms.  None of it imports the package, so
a bug cannot hide on both sides.
"""

import itertools
import math


def gf2_rank(rows, n_cols):
    """Rank over GF(2) of bitmask rows, by Gaussian elimination."""
    work = list(rows)
    rank = 0
    row_idx = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row_idx, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and ((work[r] >> col) & 1):
                work[r] ^= work[row_idx]
        rank += 1
        row_idx += 1
        if row_idx == len(work):
            break
    return rank


def _q3_holds(rows):
    n = len(rows)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if rows[x][rows[y][z]] != rows[rows[x][y]][rows[x][z]]:
                    return False
    return True


def naive_quandle_tables(n):
    """Every quandle table of order n, by raw product enumeration.

    Tries all combinations of diagonal-fixing row permutations and keeps
    those passing the direct triple check.  Feasible only for n <= 4.
    """
    perms = list(itertools.permutations(range(n)))
    fixing = [[p for p in perms if p[x] == x] for x in range(n)]
    out = []
    for rows in itertools.product(*fixing):
        if _q3_holds(rows):
            out.append(rows)
    return out


def naive_quandle_classes(n):
    """Representatives of the isomorphism classes of order n, the slow way:
    group the raw tables by their full relabeling orbits."""
    tables = set(naive_quandle_tables(n))
    perms = list(itertools.permutations(range(n)))
    classes = []
    while tables:
        t = min(tables)
        orbit = set()
        for sigma in perms:
            inv = [0] * n
            for x, y in enumerate(sigma):
                inv[y] = x
            orbit.add(
                tuple(
                    tuple(sigma[t[inv[i]][inv[j]]] for j in range(n))
                    for i in range(n)
                )
            )
        classes.append(min(orbit))
        tables -= orbit
    return sorted(classes)


def orbit_quandle_classes(n):
    """Representatives of the isomorphism classes of order n, with no
    symmetry breaking: backtrack over diagonal-fixing rows, forcing the
    row at rows[x][y] to be the conjugate s_x s_y s_x^-1, and expand every
    new table to its full relabeling orbit, keeping the orbit's smallest
    table.  About a second at n = 6."""
    perms = list(itertools.permutations(range(n)))
    inv_of = {}
    for p in perms:
        inv = [0] * n
        for x, y in enumerate(p):
            inv[y] = x
        inv_of[p] = tuple(inv)
    conjugates = {}

    def conj(a, b):
        if (a, b) not in conjugates:
            ai = inv_of[a]
            conjugates[a, b] = tuple(a[b[ai[i]]] for i in range(n))
        return conjugates[a, b]

    rows = [None] * n
    seen = set()
    classes = []

    def place(z, perm, trail):
        if rows[z] is not None:
            return rows[z] == perm
        rows[z] = perm
        trail.append(z)
        return True

    def settle(trail):
        qi = 0
        while qi < len(trail):
            x = trail[qi]
            qi += 1
            rx = rows[x]
            for y in range(n):
                ry = rows[y]
                if ry is None:
                    continue
                if not place(rx[y], conj(rx, ry), trail):
                    return False
                if not place(ry[x], conj(ry, rx), trail):
                    return False
        return True

    def backtrack(k):
        while k < n and rows[k] is not None:
            k += 1
        if k == n:
            t = tuple(rows)
            if t not in seen:
                orbit = set()
                for sigma in perms:
                    inv = inv_of[sigma]
                    orbit.add(
                        tuple(
                            tuple(sigma[t[inv[i]][inv[j]]] for j in range(n))
                            for i in range(n)
                        )
                    )
                seen.update(orbit)
                classes.append(min(orbit))
            return
        for p in perms:
            if p[k] != k:
                continue
            trail = []
            if place(k, p, trail) and settle(trail):
                backtrack(k + 1)
            while trail:
                rows[trail.pop()] = None

    backtrack(0)
    return sorted(classes)


def geometric_dihedral_table(r):
    """Dihedral quandle table computed with actual circle reflections.

    Point k sits at angle 2*pi*k/r; the symmetry at x is the reflection
    of the plane across the line through x, applied with floats and read
    back by nearest vertex.
    """
    pts = [(math.cos(2 * math.pi * k / r), math.sin(2 * math.pi * k / r)) for k in range(r)]
    table = []
    for x in range(r):
        theta = 2 * math.pi * x / r
        c, s = math.cos(2 * theta), math.sin(2 * theta)
        row = []
        for y in range(r):
            px, py = pts[y]
            ix, iy = c * px + s * py, s * px - c * py
            best, best_d = None, None
            for k, (qx, qy) in enumerate(pts):
                d = (ix - qx) ** 2 + (iy - qy) ** 2
                if best_d is None or d < best_d:
                    best, best_d = k, d
            assert best_d < 1e-12, f"reflected point is not a vertex: {best_d}"
            row.append(best)
        table.append(row)
    return table


def signed_subsets(k, n):
    """The oriented coordinate k-planes of n-space as (n, indices, sign)
    triples, in the point order of aknn(k, n): k-subsets of 1..n
    lexicographic, + before -."""
    return [(n, idx, sign) for idx in itertools.combinations(range(1, n + 1), k) for sign in (1, -1)]


def _int_det(matrix):
    """Exact integer determinant by fraction-free Gaussian elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def reflection_oracle(big_i, big_j):
    """The symmetry at the oriented plane big_i applied to big_j, both
    signed_subsets triples of one n and k, by raw geometry in exact
    integers.

    The reflection across I's plane fixes the coordinates in I and
    negates the rest.  It is applied to each basis vector of J; the
    images are written in J's reference basis, and the sign of the
    determinant of that change of basis multiplies J's orientation.
    """
    n, indices, sign = big_j
    in_i = set(big_i[1])
    images = []
    for j in indices:
        vec = [0] * n
        vec[j - 1] = 1
        images.append([x if (c + 1) in in_i else -x for c, x in enumerate(vec)])
    pos = {j: t for t, j in enumerate(indices)}
    matrix = [[0] * len(indices) for _ in indices]
    for col, vec in enumerate(images):
        for c, x in enumerate(vec):
            if x:
                matrix[pos[c + 1]][col] = x
    det = _int_det(matrix)
    assert det != 0, "reflected basis is degenerate"
    return (n, indices, sign * (1 if det > 0 else -1))


def affine_table(p, a):
    """The affine quandle x * y = a*y + (1 - a)*x over Z/p from its
    definition, as the table of its symmetries: table[x][y] = x * y."""
    return [[(a * y + (1 - a) * x) % p for y in range(p)] for x in range(p)]


def multiplicative_order(a, p):
    """The least k >= 1 with a^k = 1 mod p, for a unit a."""
    k, power = 1, a % p
    while power != 1:
        k, power = k + 1, power * a % p
    return k


def euler_phi(n):
    return sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)


def adjacency_cocycle(g):
    """The adjacency function of a graph (anything with vertex_count and
    edges) as rows of 0s and 1s: a 2-cocycle mod 2 over the trivial
    quandle on its vertices."""
    n = g.vertex_count
    values = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        values[u][v] = values[v][u] = 1
    return values


def cocycle_to_dict(phi):
    """The cocycle JSON document of anything with modulus and values."""
    return {"size": len(phi.values), "modulus": phi.modulus, "values": [list(r) for r in phi.values]}


def is_subquandle(table, subset):
    """True iff the symmetry at each point of subset maps subset into
    itself.  Each symmetry is injective, so it then maps the finite
    subset onto itself, and its inverse maps the subset into itself too:
    closure under the symmetries is enough."""
    inside = set(subset)
    return all(table[a][x] in inside for a in inside for x in inside)


def restrict(table, subset):
    """The table induced on a subquandle, its points renumbered 0..k-1 in
    sorted order."""
    pts = sorted(set(subset))
    assert is_subquandle(table, pts), f"{pts} is not a subquandle"
    index = {p: i for i, p in enumerate(pts)}
    return [[index[table[a][b]] for b in pts] for a in pts]


def random_edge_set(rng, n, p=0.5):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


# Automorphism orders known in closed form, as (family, parameters,
# |Aut|); each input is homogeneous.  Every permutation keeps the trivial
# quandle's table, so |Aut(trivial(n))| = n!.  The automorphisms of the
# dihedral quandle R_n are the affine maps x -> u*x + b with u a unit mod
# n, so |Aut(R_n)| = n*phi(n).  For a graph G on n vertices
# with no isolated vertex, |Aut(Q(G))| = 2^n |Aut(G)|: the swaps of (v, 0)
# with (v, 1), extended by Aut(G).  |Aut(C_n)| = 2n for n >= 3, and
# Aut(J(n, k)) is S_n for n != 2k.
CLOSED_FORM_AUTOMORPHISM_ORDERS = (
    [("trivial", (n,), math.factorial(n)) for n in (50, 120, 200)]
    + [("dihedral", (n,), n * euler_phi(n)) for n in (4, 6, 8, 10, 12, 30, 101, 255, 257)]
    + [("cycle", (n,), 2**n * 2 * n) for n in (50, 100)]
    + [("johnson", (n, k), 2 ** math.comb(n, k) * math.factorial(n)) for n, k in ((7, 3), (8, 3), (9, 3), (10, 3), (9, 4))]
)


def petersen_edges():
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]
    return outer + spokes + inner


def relabeled_table(table, sigma):
    """The table carried along the point bijection sigma (a list of images)."""
    n = len(table)
    inv = [0] * n
    for x, y in enumerate(sigma):
        inv[y] = x
    return [[sigma[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


def relabeling_orbit(table):
    """Every relabeling of the table, one per bijection of the points, as
    a set of row tuples; its least member is the canonical table."""
    n = len(table)
    return {
        tuple(map(tuple, relabeled_table(table, sigma)))
        for sigma in itertools.permutations(range(n))
    }


def cocycle_witness(table, values, m):
    """The first failing condition of a candidate 2-cocycle, in the order
    the definition lists them, by the plain triple loop; None if none.

    The conditions are those under which the extension (x, a) > (y, b) =
    (s_x(y), b + phi(x, y)) is a quandle: phi(x, x) = 0 and
    phi(x, s_y(z)) + phi(y, z) = phi(s_x(y), s_x(z)) + phi(x, z) mod m.
    """
    n = len(table)
    for x in range(n):
        if values[x][x] % m:
            return ("diagonal", (x,))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                total = (
                    values[x][table[y][z]]
                    + values[y][z]
                    - values[table[x][y]][table[x][z]]
                    - values[x][z]
                )
                if total % m:
                    return ("identity", (x, y, z))
    return None


def extension_table(table, values, m):
    """The extension of a base table along values mod m, from its
    definition: (x, a) at index x*m + a, and (x, a) > (y, b) =
    (s_x(y), b + phi(x, y))."""
    n = len(table)
    return [
        [table[x][y] * m + (b + values[x][y]) % m for y in range(n) for b in range(m)]
        for x in range(n)
        for a in range(m)
    ]


def labelled_products(table, inverse=False):
    """Every product s_x o s_y (s_x o s_y^-1 if inverse) as an image tuple,
    labelled by the first (x, y) in row-major order that produces it."""
    n = len(table)
    right = table
    if inverse:
        right = [[0] * n for _ in range(n)]
        for y, row in enumerate(table):
            for z, v in enumerate(row):
                right[y][v] = z
    out = {}
    for x in range(n):
        for y in range(n):
            prod = tuple(table[x][right[y][i]] for i in range(n))
            out.setdefault(prod, (x, y))
    return out


def transposition_table(m):
    """T_m: the transpositions of S_m, the pairs (i, j) with i < j in
    lexicographic order, under conjugation: table[x][y] is x y x^-1, the
    transposition y with both of its points moved by x.  C(m, 2) points;
    neither flat nor medial for m >= 4."""
    pairs = list(itertools.combinations(range(m), 2))
    index = {p: k for k, p in enumerate(pairs)}

    def swap(t, v):
        return t[1] if v == t[0] else t[0] if v == t[1] else v

    return [[index[tuple(sorted((swap(t, a), swap(t, b))))] for a, b in pairs] for t in pairs]


def first_noncommuting_products(table, inverse=False):
    """The flat (medial if inverse) rule by brute force: None when all the
    products of labelled_products commute pairwise, else the labels
    (x, y, x', y') of the first non-commuting pair in insertion order."""
    items = list(labelled_products(table, inverse).items())
    for i, (a, la) in enumerate(items):
        for b, lb in items[i + 1:]:
            if any(a[b[k]] != b[a[k]] for k in range(len(a))):
                return la + lb
    return None


def first_axiom_violation(rows, axioms=("Q1", "Q2", "Q3")):
    """The first violation of the named axioms by the direct rules, in the
    form of AxiomReport.first_violation, or None.

    Q1 takes the first x with rows[x][x] != x; Q2 the first row x, in it
    the first column y2 repeating an earlier column y1; Q3 the
    lexicographically first (x, y, z) with
    rows[x][rows[y][z]] != rows[rows[x][y]][rows[x][z]].
    """
    n = len(rows)
    if "Q1" in axioms:
        for x in range(n):
            if rows[x][x] != x:
                return ("Q1", (x,))
    if "Q2" in axioms:
        for x in range(n):
            row = list(rows[x])
            for y2 in range(n):
                y1 = row.index(row[y2])
                if y1 < y2:
                    return ("Q2", (x, y1, y2))
    if "Q3" in axioms:
        for x in range(n):
            rx = rows[x]
            for y in range(n):
                ry, rxy = rows[y], rows[rx[y]]
                # Whole rows first, so a passing 257-point table stays fast.
                if list(map(rx.__getitem__, ry)) == list(map(rxy.__getitem__, rx)):
                    continue
                for z in range(n):
                    if rx[ry[z]] != rxy[rx[z]]:
                        return ("Q3", (x, y, z))
    return None


def first_noncommuting_rows(table):
    """The first (x, y), x < y, whose rows do not commute, or None."""
    n = len(table)
    for x in range(n):
        for y in range(x + 1, n):
            if any(table[x][table[y][z]] != table[y][table[x][z]] for z in range(n)):
                return (x, y)
    return None


def cycle_type(perm):
    """Sorted cycle lengths of a permutation given by its images."""
    seen = [False] * len(perm)
    lengths = []
    for x in range(len(perm)):
        length = 0
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def quandle_automorphisms(table):
    """Every automorphism of a quandle table as an image tuple, in
    lexicographic order, by the materializing backtracking the library
    used before it returned generators: points are given images in index
    order, each only onto a point whose row has the same cycle type, and
    once x and y have images the images of table[x][y] and table[y][x]
    are forced.  Its node count grows with |Aut| and, on unlucky point
    orders, far beyond it."""
    n = len(table)
    types = [cycle_type(r) for r in table]
    img = [-1] * n
    pre = [-1] * n
    found = []

    def assign(x, y, trail):
        if img[x] >= 0:
            return img[x] == y
        if pre[y] >= 0 or types[x] != types[y]:
            return False
        img[x] = y
        pre[y] = x
        trail.append(x)
        return True

    def settle(trail):
        i = 0
        while i < len(trail):
            x = trail[i]
            i += 1
            for a in range(n):
                b = img[a]
                if b < 0:
                    continue
                if not assign(table[x][a], table[img[x]][b], trail):
                    return False
                if not assign(table[a][x], table[b][img[x]], trail):
                    return False
        return True

    def dfs(k):
        while k < n and img[k] >= 0:
            k += 1
        if k == n:
            found.append(tuple(img))
            return
        for y in range(n):
            if pre[y] >= 0 or types[y] != types[k]:
                continue
            trail = []
            if assign(k, y, trail) and settle(trail):
                dfs(k + 1)
            while trail:
                x = trail.pop()
                pre[img[x]] = -1
                img[x] = -1

    dfs(0)
    return found


def closure_by_products(degree, gens):
    """The set of all products of the generators (image tuples), by
    breadth-first search from the identity."""
    elements = {tuple(range(degree))}
    frontier = list(elements)
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                p = tuple(g[i] for i in e)
                if p not in elements:
                    elements.add(p)
                    new.append(p)
        frontier = new
    return elements


def sympy_order(degree, gens):
    """Order of the group generated by these image tuples, by sympy's
    own Schreier-Sims."""
    from sympy.combinatorics import Permutation, PermutationGroup

    return PermutationGroup([Permutation(list(g)) for g in gens] or [Permutation(list(range(degree)))]).order()


def group_elements(group):
    """Every element of a PermGroup, as image tuples: closure_by_products
    of its generators."""
    return closure_by_products(group.degree, group.generators)


def orbit_partition(degree, perms):
    """Orbits of the points under the permutations, as sorted tuples
    sorted by their smallest point."""
    blocks = []
    seen = set()
    for x in range(degree):
        if x in seen:
            continue
        block = {x}
        queue = [x]
        for y in queue:
            for p in perms:
                if p[y] not in block:
                    block.add(p[y])
                    queue.append(p[y])
        seen |= block
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def union_find_orbits(degree, perms):
    """Orbits of the points under the permutations by union-find, as
    sorted tuples sorted by their smallest point."""
    parent = list(range(degree))

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for p in perms:
        for x, y in enumerate(p):
            rx, ry = root(x), root(y)
            parent[max(rx, ry)] = min(rx, ry)
    blocks = {}
    for x in range(degree):
        blocks.setdefault(root(x), []).append(x)
    return tuple(tuple(b) for b in sorted(blocks.values()))


def conjugate(perm, sigma):
    """sigma o perm o sigma^-1 on image tuples: perm carried along sigma."""
    inv = [0] * len(sigma)
    for x, y in enumerate(sigma):
        inv[y] = x
    return tuple(sigma[perm[inv[i]]] for i in range(len(sigma)))


def nx_graph(g):
    """A SimpleGraph as a networkx graph on the same vertices."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    return h


def _nx_marked(h, points):
    """A copy of the networkx graph h in which points[i] has mark i + 1
    and every other vertex mark 0."""
    import networkx as nx

    a = h.copy()
    nx.set_node_attributes(a, 0, "mark")
    for i, v in enumerate(points, 1):
        a.nodes[v]["mark"] = i
    return a


def nx_vertex_transitive(g):
    """Some automorphism maps vertex 0 to each vertex, by VF2++ on copies
    with the two vertices marked."""
    import networkx as nx

    h = nx_graph(g)
    a = _nx_marked(h, [0])
    return all(
        nx.vf2pp_is_isomorphic(a, _nx_marked(h, [v]), node_label="mark")
        for v in range(g.vertex_count)
    )


def nx_automorphism_order(g):
    """|Aut(g)| as the product of the orbit lengths along a chain of point
    stabilizers.  Each step takes the least vertex b not yet fixed and
    counts the vertices that some automorphism fixing the earlier base
    points maps b to, by VF2++ on copies with those points marked; the
    chain ends when only the identity fixes the base."""
    import networkx as nx

    h = nx_graph(g)
    fixed, order = [], 1
    while True:
        a = _nx_marked(h, fixed)
        if sum(1 for _ in itertools.islice(nx.vf2pp_all_isomorphisms(a, a, node_label="mark"), 2)) == 1:
            return order
        b = min(set(range(g.vertex_count)) - set(fixed))
        src = _nx_marked(h, fixed + [b])
        order *= sum(
            nx.vf2pp_is_isomorphic(src, _nx_marked(h, fixed + [v]), node_label="mark")
            for v in range(g.vertex_count)
            if v not in fixed
        )
        fixed.append(b)
