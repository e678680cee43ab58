"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from the literal definitions by subset or
power enumeration, deliberately avoiding the closure algorithms of the
library under test.  Feasible only at toy sizes, which is the point.
"""

from __future__ import annotations

from itertools import combinations, count, product


def all_ideal_sets(ring) -> list[frozenset[int]]:
    """Every ideal member set, by scanning all subsets containing zero.

    Only usable for rings with at most ~14 elements.
    """
    rest = [a for a in range(ring.size) if a != ring.zero]
    out = []
    for k in range(len(rest) + 1):
        for combo in combinations(rest, k):
            ms = frozenset(combo) | {ring.zero}
            if _closed_ideal(ring, ms):
                out.append(ms)
    return out


def _closed_ideal(ring, ms) -> bool:
    for a in ms:
        for b in ms:
            if ring.add(a, b) not in ms:
                return False
        for r in range(ring.size):
            if ring.mul(r, a) not in ms:
                return False
    return True


def additive_span(ring, elements) -> frozenset[int]:
    """Closure of ``elements`` and zero under addition, by adding every pair
    of members until nothing new appears."""
    return pairwise_span(set(elements) | {ring.zero}, ring.add)


def pairwise_span(elements, add) -> frozenset[int]:
    """Closure of the non-empty ``elements`` under ``add``, by adding every
    pair of members until nothing new appears (in a finite group that closure
    is the subgroup they generate).  Each round adds the members found in the
    last one to every member; addition is commutative, so those are all the
    sums not formed yet."""
    out = set(elements)
    new = set(out)
    while new:
        new = {add(a, b) for a in new for b in out} - out
        out |= new
    return frozenset(out)


def tabulated(op, size):
    """``op`` on ``0..size-1``, read from a table filled by one call per pair."""
    table = [[op(a, b) for b in range(size)] for a in range(size)]
    return lambda a, b: table[a][b]


def preimage_span(module, lifted, sub_members) -> frozenset[int]:
    """The submodule of ``module`` generated by the element indices ``lifted``
    and the submodule with member set ``sub_members``: the pairwise span of
    those members and every scalar multiple of ``lifted``."""
    multiples = {module.scale_i(r, i) for i in lifted for r in range(module.ring.size)}
    return pairwise_span(set(sub_members) | multiples, module.add_i)


def breadth_first_joins(size, zero, add, scale, scalars):
    """Reference for the lattice sweep, generators and order included.

    The cyclic set of ``x`` is ``{scale(r, x) for r in scalars}``.  From
    ``{zero}``, each set of a frontier is joined, in order, with every
    cyclic set not inside it, taken sorted by (size, member list); the join
    is the pairwise span of the union.  A set first reached this way is
    recorded with its parent's generators plus the least ``x`` whose cyclic
    set was added, and joins the next frontier.  Returns ``(sorted members,
    generators)`` pairs sorted by (size, member list).
    """
    add = tabulated(add, size)
    first_gen = {}
    for x in range(size):
        first_gen.setdefault(frozenset(scale(r, x) for r in scalars), x)
    cyclics = sorted(first_gen, key=lambda ms: (len(ms), sorted(ms)))
    gens_of = {frozenset({zero}): ()}
    frontier = list(gens_of)
    while frontier:
        nxt = []
        for S in frontier:
            for C in cyclics:
                if C <= S:
                    continue
                J = pairwise_span(S | C, add)
                if J not in gens_of:
                    gens_of[J] = gens_of[S] + (first_gen[C],)
                    nxt.append(J)
        frontier = nxt
    return sorted(((sorted(ms), gens) for ms, gens in gens_of.items()),
                  key=lambda item: (len(item[0]), item[0]))


def least_generator_tuples(module) -> dict[frozenset[int], tuple[int, ...]]:
    """Each submodule with the generators of its least tuple of cyclic sets.

    The cyclic sets ``{r*x}`` are sorted by (size, member list), each with the
    least ``x`` that generates it.  Increasing tuples of them are tried
    shortest first and, within one length, in lexicographic order; a
    submodule keeps the first tuple whose pairwise span it is.  Once a length
    brings no new submodule, no longer tuple can: dropping one cyclic set from
    a shortest tuple leaves a shortest tuple of the smaller span.
    """
    first_gen = {}
    for x in range(module.element_count):
        first_gen.setdefault(frozenset(module.scale_i(r, x) for r in range(module.ring.size)), x)
    cyclics = sorted(first_gen, key=lambda ms: (len(ms), sorted(ms)))
    add = tabulated(module.add_i, module.element_count)
    least = {}
    for k in count():
        found = False
        for combo in combinations(cyclics, k):
            span = pairwise_span(set().union({module.zero_index}, *combo), add)
            if span not in least:
                least[span] = tuple(first_gen[C] for C in combo)
                found = True
        if not found:
            return least


def truncated_xy_operations():
    """Addition and multiplication of F2[x,y]/(x,y)^2, a local ring whose
    maximal ideal (x, y) is not principal; a + b*x + c*y has code a + 2b + 4c."""
    def mul(u, v):
        u0, u1, u2 = u & 1, u >> 1 & 1, u >> 2 & 1
        v0, v1, v2 = v & 1, v >> 1 & 1, v >> 2 & 1
        return u0 * v0 + 2 * ((u0 * v1 + u1 * v0) % 2) + 4 * ((u0 * v2 + u2 * v0) % 2)
    return (lambda u, v: u ^ v), mul


def row_builders(operations, size):
    """Pairwise ``operations()`` as the row builders that ``rings._tabulate`` takes:
    each row is read by one call per pair."""
    def rows():
        return [lambda a, op=op: [op(a, b) for b in range(size)] for op in operations()]
    return rows


def cubic_axiom_failure(add, mul, zero, one):
    """The first ring axiom the tables break, by checking every element, pair and
    triple (the reference for ``FiniteRing``'s check); None when they make a
    commutative unital ring."""
    n = len(add)
    for a in range(n):
        if add[a][zero] != a:
            return f"additive identity fails at {a}"
        if mul[a][one] != a:
            return f"multiplicative identity fails at {a}"
        if zero not in add[a]:
            return f"no additive inverse for {a}"
    for a, b in product(range(n), repeat=2):
        if add[a][b] != add[b][a]:
            return f"+ not commutative at ({a},{b})"
        if mul[a][b] != mul[b][a]:
            return f"* not commutative at ({a},{b})"
    for a, b, c in product(range(n), repeat=3):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            return f"+ not associative at ({a},{b},{c})"
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return f"* not associative at ({a},{b},{c})"
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            return f"distributivity fails at ({a},{b},{c})"
    return None


def smallest_ideal_containing(ring, gens) -> frozenset[int]:
    """Intersection of every ideal set containing ``gens``."""
    gens = set(gens)
    candidates = [ms for ms in all_ideal_sets(ring) if gens <= ms]
    out = set(range(ring.size))
    for ms in candidates:
        out &= ms
    return frozenset(out)


def radical_by_powers(ring, members) -> frozenset[int]:
    """{r : r^k in members for some k >= 1}, by direct power enumeration."""
    out = set()
    for r in range(ring.size):
        x = r
        for _ in range(ring.size):
            if x in members:
                out.add(r)
                break
            x = ring.mul(x, r)
    return frozenset(out)


def crt_map_is_ring_isomorphism(prod_ring, n: int) -> bool:
    """Check k -> (k mod n_i) carries Z/n onto ``prod_ring`` as a ring map.

    ``prod_ring`` must be a product of Z/n_i rings with n = prod n_i and the
    n_i pairwise coprime; exhaustively verifies bijectivity and both
    operation tables.
    """
    moduli = [f.size for f in prod_ring.factors]
    codes = {}
    for k in range(n):
        codes[k] = prod_ring.join([k % m for m in moduli])
    if len(set(codes.values())) != n or n != prod_ring.size:
        return False
    for a in range(n):
        for b in range(n):
            if prod_ring.add(codes[a], codes[b]) != codes[(a + b) % n]:
                return False
            if prod_ring.mul(codes[a], codes[b]) != codes[(a * b) % n]:
                return False
    return True


def poly_product(a, b, p) -> list[int]:
    """The product of two ascending coefficient lists over Z/p, term by term."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def poly_residue_product(a, b, poly, p) -> list[int]:
    """``a * b`` modulo the monic ``poly`` over Z/p, as ``len(poly) - 1``
    ascending coefficients: each leading term of the product above the degree
    of ``poly`` is cancelled by a shifted multiple of ``poly``."""
    k = len(poly) - 1
    out = poly_product(a, b, p)
    out += [0] * (k - len(out))
    while len(out) > k:
        c = out.pop()
        for j in range(k):
            out[len(out) - k + j] -= c * poly[j]
    return [c % p for c in out]


def monic_products(p, k) -> set[tuple[int, ...]]:
    """Every monic degree-``k`` polynomial over Z/p that is a product of two
    monic polynomials of positive degree, as ascending coefficient tuples."""
    return {tuple(poly_product(g + (1,), h + (1,), p))
            for d in range(1, k)
            for g in product(range(p), repeat=d)
            for h in product(range(p), repeat=k - d)}


def all_submodule_sets(module) -> list[frozenset[int]]:
    """Every submodule of ``module`` as a set of element indices, by subset scan.

    Exponential in the element count; callers keep ``|M| <= 16``.
    """
    n = module.element_count
    zero = module.zero_index
    rest = [i for i in range(n) if i != zero]
    scalars = range(module.ring.size)
    out = []
    for k in range(len(rest) + 1):
        for combo in combinations(rest, k):
            ms = frozenset(combo) | {zero}
            if _closed_submodule(module, ms, scalars):
                out.append(ms)
    return out


def _closed_submodule(module, ms, scalars) -> bool:
    for i in ms:
        for j in ms:
            if module.add_i(i, j) not in ms:
                return False
        for r in scalars:
            if module.scale_i(r, i) not in ms:
                return False
    return True


def prime_sets_by_definition(module) -> list[frozenset[int]]:
    """Submodule sets that satisfy the literal prime condition."""
    return [ms for ms in all_submodule_sets(module) if is_prime_by_definition(module, ms)]


def is_prime_by_definition(module, ms) -> bool:
    """The literal prime condition on one submodule set ``ms``.

    P proper and for all scalars r and elements m: r*m in P implies
    r*M <= P or m in P.
    """
    n = module.element_count
    if len(ms) == n:
        return False
    for r in range(module.ring.size):
        image = {module.scale_i(r, i) for i in range(n)}
        if image <= ms:
            continue
        for m in range(n):
            if module.scale_i(r, m) in ms and m not in ms:
                return False
    return True


def semiprime_sets_by_definition(module) -> list[frozenset[int]]:
    """Submodule sets N with: m in (N:m)M implies m in N, all recomputed literally."""
    return [ms for ms in all_submodule_sets(module) if is_semiprime_by_definition(module, ms)]


def is_semiprime_by_definition(module, ms) -> bool:
    """The literal semiprime condition on one submodule set ``ms``:
    m in (N:m)M implies m in N, for every element m."""
    n = module.element_count
    for m in range(n):
        colon = {r for r in range(module.ring.size)
                 if module.scale_i(r, m) in ms}
        # (N:m)M = additive span of {r*x : r in colon, x in M}
        products = {module.scale_i(r, x) for r in colon for x in range(n)}
        span = {module.zero_index}
        changed = True
        while changed:
            changed = False
            for s in list(span):
                for p in products:
                    y = module.add_i(s, p)
                    if y not in span:
                        span.add(y)
                        changed = True
        if m in span and m not in ms:
            return False
    return True


def colon_by_vectors(arith, member_reps, m) -> frozenset[int]:
    """(N : m) = {r : r*m in N}, with each r*m multiplied out as a vector and
    reduced by ``arith`` (a :class:`CosetArithmetic`); N is given by its set of
    member representatives and m by its representative."""
    ring = arith.ring
    return frozenset(r for r in range(ring.size)
                     if arith.reduce(tuple(ring.mul(r, c) for c in m)) in member_reps)


class CosetArithmetic:
    """R^rank modulo the span of ``relations``, on tuples only.

    The relation subgroup is the pairwise span of every scalar multiple of
    every relation; the representative of a vector is the least member of
    its coset, found by adding every relation vector and taking the minimum;
    an element's index is its representative's position in the sorted list
    of representatives.  Sums and products are tuple arithmetic followed by
    that search.
    """

    def __init__(self, ring, rank, relations=()):
        self.ring = ring
        zero = (ring.zero,) * rank
        multiples = {tuple(ring.mul(r, c) for c in rel)
                     for rel in relations for r in range(ring.size)}
        self.relation_members = pairwise_span(multiples | {zero}, self._vadd)
        self.vectors = list(product(range(ring.size), repeat=rank))
        self.elements = sorted({self.reduce(v) for v in self.vectors})
        self._position = {rep: i for i, rep in enumerate(self.elements)}

    def _vadd(self, v, w):
        return tuple(self.ring.add(a, b) for a, b in zip(v, w))

    def reduce(self, vec) -> tuple:
        return min(self._vadd(vec, k) for k in self.relation_members)

    def index_of(self, vec) -> int:
        return self._position[self.reduce(vec)]

    def add(self, i: int, j: int) -> int:
        return self.index_of(self._vadd(self.elements[i], self.elements[j]))

    def scale(self, r: int, i: int) -> int:
        return self.index_of(tuple(self.ring.mul(r, c) for c in self.elements[i]))


def structured_by_sorting(data) -> str:
    """Structured report text by its definition: every (path, value) line,
    sorted by path, with numeric segments first and in numeric order."""
    def segment_key(seg):
        return (0, int(seg), "") if seg.isdigit() else (1, 0, seg)

    def scalar(v):
        if v is None:
            return "none"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            return v.replace("\\", "\\\\").replace("\n", "\\n")
        return str(v)

    def flatten(value, path, out):
        if isinstance(value, dict):
            if not value:
                out.append((path, "{}"))
            for k, v in value.items():
                flatten(v, path + (str(k),), out)
        elif isinstance(value, (list, tuple)):
            if all(v is None or isinstance(v, (str, int, bool)) for v in value):
                out.append((path, "[" + ",".join(scalar(v) for v in value) + "]"))
            else:
                for i, v in enumerate(value, start=1):
                    flatten(v, path + (str(i),), out)
        else:
            out.append((path, scalar(value)))

    rows = []
    flatten(data, (), rows)
    rows.sort(key=lambda r: tuple(segment_key(s) for s in r[0]))
    return "".join(".".join(path) + " = " + value + "\n" for path, value in rows)
