"""Brute-force exact-arithmetic oracles the tests check the library against.

Each is an independent, slower route to something the library computes:
ranks by Gaussian elimination over Q(sqrt5) with ``Fraction`` components,
the whole group by closure, type-A one-line notation, reflection length
and the face test by full permutation products, reflection length by a
breadth-first search over reflection words, type-A reflection length and
absolute order read off cycles, the two-length face test, the
shelling condition checked on every pair of facets, and shelling orders
found by a vertex-decomposition search.  The builder's pieces
are redone the slow way: the pair graph by ``is_face`` on every pair and by
one reflection length per pair, maximal cliques by Bron-Kerbosch on Python
sets, the maximal faces of a face list by set comparison, and purity by testing
every facet against the kept top facets.  The k-CM audit is redone with
no symmetry and no face table, by shelling every induced complex by
that search.  The noncrossing side is redone with group elements: the
componentwise absolute order on L_m and the face-to-tuple map by
permutation products;
and its comparison is redone on explicit complexes: a skeleton and an
order complex per k, and each fiber relabelled as a complex of its own.
Products are split into components the slow way too: the face tests and
compatibility per component, and the complex as the join of the
components', the library acting on the product itself.  The sort key that
ordered a face's word before the vertices were numbered in the colored
total order is kept to check that numbering against.
The root-system set-up is redone on ``Scalar`` coordinates: the positive
closure, the Coxeter diagram, its bipartite order and classification, the
sort of the positive roots and the H4 simple-system search, each by dot
products over Q(sqrt5).
The rest are constructions only the tests read: subsystems, parabolics,
type classification, orthogonality, reflection matrices, the bipartition
of the simple roots, the subcomplex below an element, and vertex links,
deletions and labelled facets.
"""
import collections
import itertools
from fractions import Fraction
from math import gcd
from typing import Sequence

from clustercomplexes.colored import (_positions, _word, build_complex,
                                      colored_vertices, fr_compatible,
                                      get_context, is_face, positive_part)
from clustercomplexes.coxeter import GroupElement, absolute_leq, total_order
from clustercomplexes.exact import (GOLDEN, ONE, ZERO, Matrix, Scalar,
                                    coerce_scalar, dot)
from clustercomplexes.noncrossing import face_to_tuple, order_complex
from clustercomplexes.roots import (CoordinateRootSystem, DihedralRootSystem,
                                    Root, build_root_system)
from clustercomplexes.simplicial import SimplicialComplex
from clustercomplexes.topology import (KCMFailure, KCMReport, ShellingOrder,
                                       homology, verify_shelling)


def difference(a: Matrix, b: Matrix) -> Matrix:
    """The entrywise difference a - b of two matrices of one shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("dimension mismatch in difference")
    return Matrix([[x - y for x, y in zip(r1, r2)]
                   for r1, r2 in zip(a.entries, b.entries)])


def fixed_space_dim(m: Matrix) -> int:
    """Dimension of the fixed space ker(M - I), by exact elimination."""
    if m.rows != m.cols:
        raise ValueError("fixed space requires a square matrix")
    return m.rows - difference(m, identity(m.rows)).rank()


def fraction_rank(m: Matrix) -> int:
    """Rank by Gaussian elimination over Q(sqrt5), dividing by each pivot."""
    rows = [list(r) for r in m.entries]
    rank = 0
    for col in range(m.cols):
        pivot = next((i for i in range(rank, m.rows)
                      if rows[i][col].sign() != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, m.rows):
            f = rows[i][col]
            if f.sign() == 0:
                continue
            factor = f * inv
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m.rows:
            break
    return rank


def minor_gcd(a: list, k: int) -> int:
    """gcd of all k x k minors of an integer matrix given as rows."""
    rows, cols = len(a), len(a[0]) if a else 0
    g = 0
    for ri in itertools.combinations(range(rows), k):
        for ci in itertools.combinations(range(cols), k):
            g = gcd(g, int_det([[a[i][j] for j in ci] for i in ri]))
    return g


def int_det(a: list) -> int:
    """Determinant of a small integer matrix by exact elimination."""
    n = len(a)
    a = [row[:] for row in a]
    det = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        for i in range(col + 1, n):
            f = Fraction(a[i][col], a[col][col])
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    for i in range(n):
        det *= a[i][i]
    return int(det)


def enumerate_group(rs, limit: int = 200000) -> list:
    """The full reflection group, by closure under the simple reflections."""
    gens = [rs.reflection(r) for r in rs.simple_roots]
    ident = rs.identity_element()
    seen = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for u in frontier:
            for t in gens:
                v = u * t
                if v.perm not in seen:
                    seen[v.perm] = v
                    nxt.append(v)
                    if len(seen) > limit:
                        raise ValueError("group exceeds enumeration limit %d" % limit)
        frontier = nxt
    return list(seen.values())


def one_line_permutation(w) -> tuple:
    """One-line notation of a type-A element acting on coordinates.

    Every root is some e_i - e_j, and w sends it to e_pi(i) - e_pi(j);
    pi is read off the permutation of the roots and checked on all of them.
    """
    rs = w.system
    pairs = [unit_difference(r) for r in rs.roots]
    if None in pairs:
        raise ValueError("one-line notation needs roots of the form e_i - e_j")
    out = [None] * rs.ambient
    for k, (i, j) in enumerate(pairs):
        for src, dst in zip((i, j), pairs[w.perm[k]]):
            if out[src] not in (None, dst):
                raise ValueError("element is not a coordinate permutation")
            out[src] = dst
    if None in out or len(set(out)) != len(out):
        raise ValueError("element is not a coordinate permutation")
    return tuple(out)


def unit_difference(root):
    """(i, j) when root is e_i - e_j, else None."""
    if root.coords is None:
        return None
    nonzero = [(k, x) for k, x in enumerate(root.coords) if x.sign() != 0]
    if len(nonzero) != 2:
        return None
    (i, x), (j, y) = nonzero
    if x == 1 and y == -1:
        return (i, j)
    if x == -1 and y == 1:
        return (j, i)
    return None


def permutation_length(w) -> int:
    """Reflection length of w read off its whole permutation.

    Coordinate systems: Carter's lemma, rank(w - I) over a ``Matrix`` of
    ``Scalar`` expansions, ranked by ``fraction_rank``.  I2(m): w is
    k -> shift + k (a rotation) or k -> shift - k (a reflection).
    """
    rs = w.system
    if isinstance(rs, DihedralRootSystem):
        if (w.perm[1] - w.perm[0]) % (2 * rs.order) != 1:
            return 1
        return 0 if w.perm[0] == 0 else 2
    rows = []
    for j, a in enumerate(rs.simple_roots):
        image = rs.expansion(w.apply(a))
        rows.append([c - 1 if k == j else c for k, c in enumerate(image)])
    return fraction_rank(Matrix(rows))


def is_identity(w) -> bool:
    """Whether the group element w fixes every root."""
    return all(i == j for i, j in enumerate(w.perm))


def word_length_bfs(w: GroupElement, cap: int = 60) -> int:
    """Reflection length by breadth-first search over reflection words.

    The independent route to ``GroupElement.length``; it refuses systems
    with more than ``cap`` reflections.
    """
    rs = w.system
    if len(rs.positive_roots) > cap:
        raise ValueError("word_length_bfs refused: %d reflections exceeds "
                         "the desk-scale cap %d" % (len(rs.positive_roots), cap))
    if is_identity(w):
        return 0
    gens = [rs.reflection(r) for r in rs.positive_roots]
    seen = {rs.identity_element().perm}
    frontier = [rs.identity_element()]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for t in gens:
                v = u * t
                if v.perm == w.perm:
                    return depth
                if v.perm not in seen:
                    seen.add(v.perm)
                    nxt.append(v)
        frontier = nxt
    raise RuntimeError("element not generated by the reflections")


def cycles_of(perm: Sequence[int]) -> list:
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        out.append(tuple(cyc))
    return out


def typeA_reflection_length(perm: Sequence[int]) -> int:
    """n minus the number of cycles (fixed points count as cycles)."""
    return len(perm) - len(cycles_of(perm))


def typeA_absolute_leq(u: Sequence[int], w: Sequence[int]) -> bool:
    """Absolute order on permutations, from the cycle geometry.

    Every nontrivial cycle of u must sit inside a single cycle of w as an
    orientation-preserving cyclic subsequence, and the u-cycles inside one
    w-cycle must be pairwise noncrossing in its cyclic order.
    """
    if len(u) != len(w):
        raise ValueError("permutations act on different sets")
    wcycles = cycles_of(w)
    where = {}
    for ci, cyc in enumerate(wcycles):
        for pos, x in enumerate(cyc):
            where[x] = (ci, pos)
    blocks: dict = {}
    for cyc in cycles_of(u):
        if len(cyc) == 1:
            continue
        owners = {where[x][0] for x in cyc}
        if len(owners) != 1:
            return False
        ci = owners.pop()
        positions = [where[x][1] for x in cyc]
        # rotate so the smallest w-position comes first; the rest must ascend
        k = positions.index(min(positions))
        rotated = positions[k:] + positions[:k]
        if any(rotated[i] >= rotated[i + 1] for i in range(len(rotated) - 1)):
            return False
        blocks.setdefault(ci, []).append(sorted(positions))
    for ci, blist in blocks.items():
        size = len(wcycles[ci])
        for b1, b2 in itertools.combinations(blist, 2):
            if _blocks_cross(b1, b2, size):
                return False
    return True


def _blocks_cross(b1: list, b2: list, size: int) -> bool:
    """Whether two position blocks interleave in the cyclic order 0..size-1."""
    if len(b1) < 2 or len(b2) < 2:
        return False
    # b2 avoids b1 iff it fits inside a single cyclic gap of b1
    for i, start in enumerate(b1):
        gap = (b1[(i + 1) % len(b1)] - start) % size
        if all(0 < (x - start) % size < gap for x in b2):
            return False
    return True


def word_of_face(ctx, sigma) -> GroupElement:
    """Ordered reflection product of a colored-root set, by permutations."""
    rs = ctx.system
    out = rs.identity_element()
    for t in _word(ctx, _positions(ctx, sigma)):
        out = out * GroupElement(rs, t)
    return out


def permutation_is_face(ctx, sigma) -> bool:
    """The one-length face test on permutations: l(w^-1 gamma) = l(gamma) - |sigma|."""
    sigma = list(sigma)
    rs = ctx.system
    if not rs.is_irreducible:
        groups = {}
        for v in sigma:
            comp = component_of(rs, v.root)
            groups.setdefault(id(comp), (comp, []))[1].append(v)
        return all(permutation_is_face(get_context(comp, ctx.m), part)
                   for comp, part in groups.values())
    gamma = ctx.gamma
    rest = word_of_face(ctx, sigma).inverse() * gamma
    return permutation_length(rest) == permutation_length(gamma) - len(sigma)


def two_length_is_face(ctx, sigma) -> bool:
    """The word criterion with both lengths: l(w) = |sigma| and w <= gamma."""
    sigma = list(sigma)
    rs = ctx.system
    if not rs.is_irreducible:
        groups = {}
        for v in sigma:
            comp = component_of(rs, v.root)
            groups.setdefault(id(comp), (comp, []))[1].append(v)
        return all(two_length_is_face(get_context(comp, ctx.m), part)
                   for comp, part in groups.values())
    w = word_of_face(ctx, sigma)
    return w.length == len(sigma) and absolute_leq(w, ctx.gamma)


def component_of(rs, root):
    """The component of a positive or negative simple root of rs.

    Raises KeyError for a root of another system and ValueError for any
    other negative root.
    """
    if rs.is_positive(root):
        simple = rs.simple_roots[min(rs.support(root))]
    else:
        simple = rs.negate(root)
        if rs.simple_index(simple) is None:
            raise ValueError("%r is not the negative of a simple root" % (root,))
    return next(c for c in rs.components if simple in c.simple_roots)


def word_order_key(rs, m: int):
    """The key v -> (class, -place) that sorts a face's vertices into its
    word.

    The plus block's negative simples are class 0, the colors m down to 1
    are classes 1 to m, and the minus block's negative simples class m + 1;
    place is the root's place in ``total_order(rs)``, so each class comes
    largest first.
    """
    place = {r.key: i for i, r in enumerate(total_order(rs))}

    def key(v):
        if rs.is_positive(v.root):
            cls = m + 1 - v.color
        else:
            plus = rs.simple_index(rs.negate(v.root)) < rs.split_s
            cls = 0 if plus else m + 1
        return (cls, -place[v.root.key])

    return key


def componentwise_fr_compatible(rs, m: int, a, b) -> bool:
    """Compatibility split by components.

    Always True across two components, and the component's own verdict
    inside one.
    """
    comp = component_of(rs, a.root)
    if comp is not component_of(rs, b.root):
        return True
    return fr_compatible(comp, m, a, b)


def pair_graph_by_lengths(ctx) -> list:
    """The neighbour bitmask of each vertex position, one length per pair.

    A pair's word applies the step of its higher position first, so its
    images are the lower one's reflection applied to the higher vertex's
    prefix, gamma's images after that vertex's own reflection; the pair is
    a face when their reflection length is l(gamma) - 2.
    """
    steps, image_length = ctx.steps, ctx.system.image_length
    target = ctx.gamma.length - 2
    adjacency = [0] * len(steps)
    prefixes = []
    for b in reversed(range(len(steps))):
        t = steps[b].__getitem__
        for a, prefix in prefixes:
            if image_length(tuple(map(t, prefix))) == target:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
        prefixes.append((b, tuple(map(t, ctx.gamma_images))))
    return adjacency


def maximal_faces_by_sets(faces) -> list:
    """The sorted distinct faces of ``faces`` that lie in no other one."""
    cleaned = sorted({tuple(sorted(f)) for f in faces})
    sets = [set(f) for f in cleaned]
    return [f for f, fs in zip(cleaned, sets)
            if not any(fs < g for g in sets)]


def max_cliques_by_sets(adjacency: dict) -> list:
    """Bron-Kerbosch with pivoting on Python sets, sorted output.

    ``adjacency`` maps each vertex to the set of its neighbours.  The pivot
    has the most neighbours left to pick, the lowest such vertex on a tie.
    """
    cliques = []

    def expand(r: list, p: set, x: set):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: (len(adjacency[v] & p), -v))
        for v in sorted(p - adjacency[pivot]):
            expand(r + [v], p & adjacency[v], x & adjacency[v])
            p.remove(v)
            x.add(v)

    expand([], set(adjacency), set())
    return sorted(cliques)


def complex_by_all_pairs(rs, m: int) -> tuple:
    """(vertices, facets, adjacency) of the complex, pair by pair.

    The vertices are each component's colored vertices in turn; every pair
    goes to ``is_face``, the facets are the maximal cliques of the pair
    graph by ``max_cliques_by_sets``, and each must pass ``is_face``.
    """
    ctx = get_context(rs, m)
    vertices = [v for comp in rs.components for v in colored_vertices(comp, m)]
    adjacency = {i: set() for i in range(len(vertices))}
    for i, j in itertools.combinations(range(len(vertices)), 2):
        if is_face(ctx, [vertices[i], vertices[j]]):
            adjacency[i].add(j)
            adjacency[j].add(i)
    facets = max_cliques_by_sets(adjacency) if vertices else [()]
    for f in facets:
        if not is_face(ctx, [vertices[i] for i in f]):
            raise RuntimeError("maximal clique %r is no face" % (f,))
    return vertices, facets, adjacency


def purity_failure_by_all_facets(cx, removed: int):
    """Why the restriction missing ``removed`` is not pure of full
    dimension, or None, from the facets alone.

    The kept top facets are the facets of the top size that miss the
    removal: 'dimension-drop' if there are none, 'impure' if some facet
    minus the removal lies in none of them.
    """
    gone = {v for v in range(removed.bit_length()) if removed >> v & 1}
    top = max((len(f) for f in cx.facets), default=0)
    kept = {frozenset(f) for f in cx.facets
            if len(f) == top and not gone.intersection(f)}
    if not kept:
        return "dimension-drop"
    for f in cx.facets:
        rest = frozenset(f) - gone
        if rest not in kept and not any(rest <= t for t in kept):
            return "impure"
    return None


def join_of_components(rs, m) -> tuple:
    """A product's vertices, facets and neighbour bitmasks as the join of
    its components' complexes ({()} at rank 0, which has none).

    Each vertex of a part lies in a facet of it, so it neighbours every
    vertex of every other part.
    """
    objects, facets, adjacency = [], [()], []
    for comp in rs.components:
        cx, graph = build_complex(comp, m)
        off = len(adjacency)
        part = ((1 << len(graph)) - 1) << off
        shifted = [tuple(v + off for v in f) for f in cx.facets]
        objects += cx.objects
        facets = [f + g for f in facets for g in shifted]
        adjacency = [near | part for near in adjacency] + \
            [sum(1 << (j + off) for j in graph[i]) | (1 << off) - 1
             for i in range(len(graph))]
    return objects, facets, adjacency


def facets_as_label_sets(cx) -> set:
    return {frozenset(f) for f in labeled_facets(cx)}


# -- subsystems -----------------------------------------------------------------------


def subsystem(simples) -> CoordinateRootSystem:
    """The coordinate system on the given simple roots, labelled by type.

    The label names the diagram's components in the order of their first
    simple roots, the order the system lists its components in.
    """
    return CoordinateRootSystem([r.coords for r in simples], label="x".join(
        scalar_classify_simples([simples[i] for i in g])
        for g in scalar_diagram_components(simples)))


def parabolic(rs, removed):
    """The standard parabolic subsystem missing one simple root.

    I2(m)'s is returned as a plain A1: the dihedral model keeps no
    coordinates to share with it.
    """
    idx = rs.simple_index(removed)
    if idx is None:
        raise ValueError("parabolic subsystem: %r is not a simple root"
                         % (removed,))
    if isinstance(rs, DihedralRootSystem):
        return build_root_system("A1")
    return subsystem([r for i, r in enumerate(rs.simple_roots) if i != idx])


def classify(rs) -> str:
    """The type of rs read off its simple roots, factors sorted by name."""
    if isinstance(rs, DihedralRootSystem):
        return rs.label
    if rs.rank == 0:
        return "0"
    return "x".join(sorted(scalar_classify_simples(c.simple_roots)
                           for c in rs.components))


def orthogonal(rs, r1, r2) -> bool:
    """Whether two roots of rs are orthogonal."""
    if isinstance(rs, DihedralRootSystem):
        return (2 * (r1.angle - r2.angle)) % (2 * rs.order) == rs.order
    return dot(r1.coords, r2.coords).sign() == 0


# -- the root-system set-up on Scalars ---------------------------------------------


def scalar_positive_closure(simples) -> tuple:
    """All positive roots, their simple-root expansions and reflection images.

    By reflection closure.  The images map each positive root's key to the
    keys of s_1(beta) .. s_n(beta), None where the image is negative.
    """
    n = len(simples)
    norms = [dot(r.coords, r.coords) for r in simples]
    cartan = [[Scalar(2) * dot(a.coords, b.coords) / norms[j]
               for j, b in enumerate(simples)] for a in simples]
    seen = {}
    images = {}
    frontier = []
    for i, r in enumerate(simples):
        exp = tuple(ONE if j == i else ZERO for j in range(n))
        seen[r.key] = (r, exp)
        frontier.append((r, exp))
    while frontier:
        new = []
        for root, exp in frontier:
            image = images[root.key] = [None] * n
            for i in range(n):
                # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i
                c = ZERO
                for j, e in enumerate(exp):
                    if e.sign() != 0:
                        c = c + e * cartan[j][i]
                new_exp = tuple(e - c if j == i else e for j, e in enumerate(exp))
                if all(x.sign() >= 0 for x in new_exp):
                    coords = tuple(x - c * y for x, y in
                                   zip(root.coords, simples[i].coords))
                    nr = Root(coords=coords)
                    image[i] = nr.key
                    if nr.key not in seen:
                        seen[nr.key] = (nr, new_exp)
                        new.append((nr, new_exp))
        frontier = new
    roots = [v[0] for v in seen.values()]
    exps = [v[1] for v in seen.values()]
    return roots, exps, images


def scalar_diagram_components(simples) -> list:
    n = len(simples)
    adj = [[j for j in range(n) if j != i
            and dot(simples[i].coords, simples[j].coords).sign() != 0]
           for i in range(n)]
    seen = [False] * n
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        groups.append(sorted(comp))
    return groups


def scalar_bipartite_order(simples) -> tuple:
    """Order simple indices as (plus block, minus block); returns (order, s)."""
    n = len(simples)
    color = {}
    for group in scalar_diagram_components(simples):
        color[group[0]] = 0
        stack = [group[0]]
        while stack:
            v = stack.pop()
            for w in group:
                if w == v or w in color:
                    continue
                if dot(simples[v].coords, simples[w].coords).sign() != 0:
                    color[w] = 1 - color[v]
                    stack.append(w)
    plus = [i for i in range(n) if color[i] == 0]
    minus = [i for i in range(n) if color[i] == 1]
    for block in (plus, minus):
        for a in block:
            for b in block:
                if a < b and dot(simples[a].coords, simples[b].coords).sign() != 0:
                    raise ValueError("Coxeter diagram is not bipartite as colored")
    return plus + minus, len(plus)


def scalar_bond(a, b) -> int:
    """Coxeter bond m(a, b) read off from the angle between two roots."""
    num = dot(a.coords, b.coords)
    c2 = (num * num) / (dot(a.coords, a.coords) * dot(b.coords, b.coords))
    table = {Scalar(0): 2, Scalar(Fraction(1, 4)): 3, Scalar(Fraction(1, 2)): 4,
             Scalar(Fraction(3, 4)): 6,
             (GOLDEN * GOLDEN) / 4: 5}
    for val, m in table.items():
        if c2 == val:
            return m
    raise ValueError("unrecognized bond angle")


def scalar_classify_simples(simples) -> str:
    n = len(simples)
    if n == 0:
        return "0"
    if n == 1:
        return "A1"
    bonds = {}
    degree = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            m = scalar_bond(simples[i], simples[j])
            if m > 2:
                bonds[(i, j)] = m
                degree[i] += 1
                degree[j] += 1
    marks = sorted(bonds.values())
    norms = [dot(r.coords, r.coords) for r in simples]
    if n == 2:
        m = marks[0]
        return {3: "A2", 4: "B2", 6: "G2"}.get(m, "I2(%d)" % m)
    if max(degree) <= 2:  # path
        if marks == [3] * (n - 1):
            return "A%d" % n
        if marks == [3] * (n - 2) + [4]:
            i, j = next(k for k, v in bonds.items() if v == 4)
            if degree[i] == 2 and degree[j] == 2:
                return "F%d" % n
            # the degree-1 end of the 4-bond is short in B, long in C
            end = i if degree[i] == 1 else j
            other = j if end == i else i
            return ("B%d" if norms[end] < norms[other] else "C%d") % n
        if marks == [3] * (n - 2) + [5]:
            return "H%d" % n
        return "W(path)%d" % n
    if marks == [3] * (n - 1):
        arm_lengths = sorted(_arms(bonds, n))
        if arm_lengths[:2] == [1, 1]:
            return "D%d" % n
        if arm_lengths[0] == 1 and arm_lengths[1] == 2:
            return "E%d" % n
    return "W?%d" % n


def _arms(bonds: dict, n: int) -> list:
    """The arm lengths of a tree diagram, read from its branch vertex."""
    adj = {i: set() for i in range(n)}
    for (i, j) in bonds:
        adj[i].add(j)
        adj[j].add(i)
    center = next(v for v in adj if len(adj[v]) == 3)
    arms = []
    for start in adj[center]:
        length, prev, cur = 1, center, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return arms


def scalar_h4_simples() -> list:
    """Search the H4 root set for a simple system with diagram 5-3-3."""
    phi = GOLDEN
    inv = GOLDEN - 1
    roots = set()
    for i in range(4):
        for s in (Scalar(2), Scalar(-2)):
            v = [ZERO] * 4
            v[i] = s
            roots.add(tuple(v))
    for signs in range(16):
        roots.add(tuple(ONE if signs >> i & 1 else -ONE for i in range(4)))
    base = (phi, ONE, inv)
    for perm in itertools.permutations(range(4)):
        parity = sum(1 for i in range(4) for j in range(i + 1, 4)
                     if perm[i] > perm[j]) % 2
        if parity:
            continue
        for signs in range(8):
            v = [ZERO] * 4
            for pos, src in enumerate(perm):
                if src == 3:
                    continue
                x = base[src]
                v[pos] = -x if signs >> src & 1 else x
            roots.add(tuple(v))
    roots = sorted(roots)
    want_12 = Scalar(-2) * phi
    want_edge = Scalar(-2)
    a1 = roots[0]
    for a2 in roots:
        if dot(a1, a2) != want_12:
            continue
        for a3 in roots:
            if dot(a2, a3) != want_edge or dot(a1, a3).sign() != 0:
                continue
            for a4 in roots:
                if (dot(a3, a4) == want_edge and dot(a1, a4).sign() == 0
                        and dot(a2, a4).sign() == 0):
                    return [list(a1), list(a2), list(a3), list(a4)]
    raise RuntimeError("no H4 simple system found")


def scalar_root_system(simple_coords) -> dict:
    """The set-up of a coordinate system, redone on Scalars.

    Returns the keys of ``roots`` in order, each root's expansion over the
    stored simple roots, ``split_s``, ``simple_positions``, the simple
    reflections as permutations, and the type of each diagram component.
    """
    simples = [Root(coords=c) for c in simple_coords]
    positives, expansions, images = scalar_positive_closure(simples)
    order, split = scalar_bipartite_order(simples)
    stored = [simples[i] for i in order]
    expansion = {}
    for root, coeffs in zip(positives, expansions):
        expansion[root.key] = tuple(coeffs[old] for old in order)

    def sort_key(r):
        exp = expansion[r.key]
        height = ZERO
        for c in exp:
            height = height + c
        return (height, exp)

    positive = sorted(positives, key=sort_key)
    negatives = [Root(coords=tuple(-x for x in r.coords)) for r in positive]
    keys = [r.key for r in positive + negatives]
    index = {key: i for i, key in enumerate(keys)}
    npos = len(positive)
    for r, neg in zip(positive, negatives):
        expansion[neg.key] = tuple(-c for c in expansion[r.key])
    perms = []
    for old in order:
        perm = [0] * len(keys)
        for p, r in enumerate(positive):
            image = images[r.key][old]
            q = index[simples[old].key] + npos if image is None else index[image]
            perm[p], perm[(p + npos) % (2 * npos)] = q, (q + npos) % (2 * npos)
        perms.append(tuple(perm))
    groups = scalar_diagram_components(stored)
    return {"roots": keys, "expansions": expansion, "split_s": split,
            "simple_positions": tuple(index[a.key] for a in stored),
            "simple_perms": perms,
            "components": [scalar_classify_simples([stored[i] for i in g])
                           for g in groups]}


# -- matrices -------------------------------------------------------------------------


def identity(n: int) -> Matrix:
    return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def apply(m: Matrix, v) -> tuple:
    """The matrix-vector product m v."""
    if len(v) != m.cols:
        raise ValueError("dimension mismatch in matrix-vector product")
    return tuple(dot(row, v) for row in m.entries)


def transpose(m: Matrix) -> Matrix:
    return Matrix(tuple(zip(*m.entries)))


def reflection_matrix(alpha, dim=None) -> Matrix:
    """Matrix of the reflection x -> x - 2 (x, alpha)/(alpha, alpha) alpha."""
    alpha = tuple(coerce_scalar(x) for x in alpha)
    if dim is None:
        dim = len(alpha)
    if dim != len(alpha):
        raise ValueError("vector has length %d, expected %d" % (len(alpha), dim))
    norm = dot(alpha, alpha)
    if norm.sign() == 0:
        raise ValueError("degenerate reflection: zero vector")
    scale = Scalar(2) / norm
    ident = identity(dim)
    return Matrix([[ident.entries[i][j] - scale * alpha[i] * alpha[j]
                    for j in range(dim)] for i in range(dim)])


# -- root systems and complexes -------------------------------------------------------


def bipartition(rs) -> tuple:
    """The two orthogonal blocks (Pi_plus, Pi_minus) of the simple system."""
    if not rs.is_irreducible:
        raise ValueError("bipartition requires an irreducible system")
    s = rs.split_s
    return (rs.simple_roots[:s], rs.simple_roots[s:])


def subcomplex_below(rs, m: int, w, cx=None) -> SimplicialComplex:
    """Faces of the positive part whose word sits below w."""
    ctx = get_context(rs, m)
    if not absolute_leq(w, ctx.gamma):
        raise ValueError("subcomplex_below requires w below the Coxeter element")
    if cx is None:
        cx, _ = build_complex(rs, m)
    pos = positive_part(cx)
    keep = [i for i, v in enumerate(pos.objects)
            if absolute_leq(rs.reflection(v.root), w)]
    return pos.induce(keep)


def _relabelled(cx, keep, facets) -> SimplicialComplex:
    """The complex on the vertices ``keep`` of cx with the given facets."""
    keep = sorted(keep)
    remap = {old: new for new, old in enumerate(keep)}
    objects = [cx.objects[i] for i in keep] if cx.objects is not None else None
    return SimplicialComplex([cx.vertices[i] for i in keep],
                             [tuple(remap[v] for v in f) for f in facets],
                             objects=objects)


def link(cx, v: int) -> SimplicialComplex:
    star = [f for f in cx.facets if v in f]
    if not star:
        raise ValueError("unknown vertex index %r" % (v,))
    shrunk = [tuple(x for x in f if x != v) for f in star]
    return _relabelled(cx, {x for f in shrunk for x in f}, shrunk)


def delete(cx, v: int) -> SimplicialComplex:
    if v < 0 or v >= len(cx.vertices):
        raise ValueError("unknown vertex index %r" % (v,))
    keep = [i for i in range(len(cx.vertices)) if i != v]
    return _relabelled(cx, keep,
                       [tuple(x for x in f if x != v) for f in cx.facets])


def skeleton(cx, k: int) -> SimplicialComplex:
    """The faces of cx with at most k + 1 vertices, as a complex."""
    if k < 0:
        return SimplicialComplex(cx.vertices, [], objects=cx.objects)
    facets = [f for f in cx.faces() if len(f) == k + 1]
    facets += [f for f in cx.facets if len(f) <= k]
    return SimplicialComplex(cx.vertices, facets, objects=cx.objects)


def labeled_facets(cx) -> list:
    return [tuple(cx.vertices[v] for v in f) for f in cx.facets]


def shelling_by_definition(cx, order) -> ShellingOrder:
    """Definition check: each new facet meets an earlier one in codim one."""
    if not cx.is_pure():
        raise ValueError("the shelling definition used here is for pure complexes")
    facets = [tuple(sorted(f)) for f in order]
    if sorted(facets) != list(cx.facets):
        raise ValueError("order is not a permutation of the facet list")
    restrictions = []
    for k, fk in enumerate(facets):
        fk_set = set(fk)
        codim1 = set()
        for j in range(k):
            inter = fk_set & set(facets[j])
            if len(inter) == len(fk) - 1:
                codim1.add(frozenset(inter))
        for i in range(k):
            inter = fk_set & set(facets[i])
            if not any(inter <= c for c in codim1):
                return ShellingOrder(tuple(facets), failure=(k, i))
        # restriction face: vertices v whose deletion leaves an earlier facet
        rest = tuple(sorted(v for v in fk if frozenset(fk_set - {v}) in codim1))
        restrictions.append(rest)
    return ShellingOrder(tuple(facets), tuple(restrictions))


def shelling_by_vertex_decomposition(cx):
    """A shelling order of cx by recursive vertex decomposition, or None.

    Shedding vertices are tried by index, with memoization on the induced
    facet sets; cone points are peeled off first.  The search is complete
    for vertex decomposability, so it shells restrictions of cluster
    complexes that the lexicographic order of ``construct_shelling`` does
    not, such as the pentagon less a vertex.
    """
    return _vd_order(cx.facets, list(range(len(cx.vertices))), {})


def _vd_order(facets: tuple, candidates: list, memo: dict):
    facets = tuple(sorted(tuple(sorted(f)) for f in facets))
    if facets in memo:
        return memo[facets]
    if len(facets) <= 1:
        memo[facets] = list(facets)
        return memo[facets]
    sizes = {len(f) for f in facets}
    if len(sizes) != 1:
        memo[facets] = None
        return None
    size = sizes.pop()
    verts = {v for f in facets for v in f}
    # cone points join every facet; peel them off first
    apexes = sorted(v for v in verts if all(v in f for f in facets))
    if apexes:
        core = tuple(tuple(x for x in f if x not in apexes) for f in facets)
        if size == len(apexes):  # a single simplex
            memo[facets] = list(facets)
            return memo[facets]
        sub = _vd_order(core, candidates, memo)
        out = None if sub is None else \
            [tuple(sorted(f + tuple(apexes))) for f in sub]
        memo[facets] = out
        return out
    ridges = collections.Counter(f[:i] + f[i + 1:] for f in facets
                                 for i in range(size))
    result = None
    for v in (v for v in candidates if v in verts):
        vfree = [f for f in facets if v not in f]
        star = [f for f in facets if v in f]
        # deletion stays pure iff each star facet minus v lies in a second
        # facet, which avoids v since all facets have one size
        link = tuple(tuple(x for x in f if x != v) for f in star)
        if any(ridges[r] < 2 for r in link):
            continue
        link_order = _vd_order(link, candidates, memo)
        if link_order is None:
            continue
        del_order = _vd_order(tuple(vfree), candidates, memo)
        if del_order is None:
            continue
        result = del_order + [tuple(sorted(f + (v,))) for f in link_order]
        break
    memo[facets] = result
    return result


def kcm_by_shelling(cx, k: int) -> KCMReport:
    """The exhaustive k-CM audit of cx with every removal shelled.

    Each induced complex is checked for dimension and purity and then
    shelled by ``shelling_by_vertex_decomposition``, the order checked by
    ``verify_shelling``; no symmetry and no face table.  A shellable
    complex is CM, but not conversely, so 'not-CM' here means only that no
    vertex decomposition was found: the routes must agree on complexes
    whose CM restrictions are vertex decomposable, as those of cluster
    complexes are.
    """
    n, dim = len(cx.vertices), cx.dimension()
    report = KCMReport(k, "exhaustive")
    for size in range(k):
        for removed in itertools.combinations(range(n), size):
            report.examined += 1
            rest = cx.induce([i for i in range(n) if i not in removed])
            if rest.dimension() != dim:
                reason = "dimension-drop"
            elif not rest.is_pure():
                reason = "impure"
            else:
                order = shelling_by_vertex_decomposition(rest)
                if order is not None and verify_shelling(rest, order).ok:
                    continue
                reason = "not-CM"
            report.failures.append(
                KCMFailure(tuple(cx.vertices[i] for i in removed), reason))
    return report


# -- the noncrossing comparison on explicit complexes ---------------------------------


def componentwise_leq(interval):
    """The order of L_m on image tuples, coordinate by coordinate.

    Each coordinate is compared as a group element of ``interval`` by
    ``absolute_leq``.
    """
    simple = interval.elements[0].system.simple_positions
    element = {tuple(w.perm[i] for i in simple): w for w in interval.elements}

    def leq(s, t) -> bool:
        return all(absolute_leq(element[u], element[w]) for u, w in zip(s, t))
    return leq


def face_tuple_by_products(rs, m: int, sigma):
    """The face-to-tuple map by permutation products, or None off L_m.

    The color-class words are multiplied out by ``word_of_face``, highest
    color first; their lengths must add up to |sigma| and their product
    must lie below gamma.  Each word is read at the simple roots.
    """
    ctx = get_context(rs, m)
    words = [word_of_face(ctx, [v for v in sigma if v.color == color])
             for color in range(m, 0, -1)]
    product = rs.identity_element()
    for w in words:
        product = product * w
    if sum(w.length for w in words) != len(sigma) or \
            not absolute_leq(product, ctx.gamma):
        return None
    return tuple(tuple(w.perm[i] for i in rs.simple_positions) for w in words)


def face_tuple_dict(rs, m: int, pos, poset) -> dict:
    """The poset position of the tuple of every nonempty face of ``pos``."""
    return {f: poset.index[face_to_tuple(rs, m, [pos.objects[i] for i in f])]
            for f in pos.faces() if f}


def fiber_subcomplex(pos, table: dict, ideal: int) -> SimplicialComplex:
    """The faces mapping into an order ideal, on their own vertices.

    The complex closes the face set; {()} when no face maps in.
    """
    faces = [f for f, i in table.items() if ideal >> i & 1]
    if not faces:
        return SimplicialComplex([], [()])
    return _relabelled(pos, {v for f in faces for v in f}, faces)


def skeleton_and_poset_homology(rs, pos, poset) -> list:
    """Per k = 1 .. n, the homology of two explicit complexes.

    They are the (k-1)-skeleton of ``pos`` and the order complex of the
    poset elements of ranks 1 .. k.
    """
    return [(homology(skeleton(pos, k - 1)),
             homology(order_complex(poset, [i for i in range(1, len(poset))
                                            if poset.ranks[i] <= k])))
            for k in range(1, rs.rank + 1)]
