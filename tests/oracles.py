"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from the literal definitions by subset or
power enumeration, deliberately avoiding the closure algorithms of the
library under test.  Feasible only at toy sizes, which is the point.
"""

from __future__ import annotations

from itertools import combinations, product


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
    is the subgroup they generate)."""
    out = set(elements)
    while True:
        new = {add(a, b) for a in out for b in out} - out
        if not new:
            return frozenset(out)
        out |= new


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
    """Submodule sets that satisfy the literal prime condition.

    P proper and for all scalars r and elements m: r*m in P implies
    r*M <= P or m in P.
    """
    n = module.element_count
    out = []
    for ms in all_submodule_sets(module):
        if len(ms) == n:
            continue
        ok = True
        for r in range(module.ring.size):
            image = {module.scale_i(r, i) for i in range(n)}
            if image <= ms:
                continue
            for m in range(n):
                if module.scale_i(r, m) in ms and m not in ms:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(ms)
    return out


def semiprime_sets_by_definition(module) -> list[frozenset[int]]:
    """Submodule sets N with: m in (N:m)M implies m in N, all recomputed literally."""
    n = module.element_count
    out = []
    for ms in all_submodule_sets(module):
        ok = True
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
                ok = False
                break
        if ok:
            out.append(ms)
    return out


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
