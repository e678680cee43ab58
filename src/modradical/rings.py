"""Exact arithmetic for small finite commutative unital rings and their ideals.

Every ring here is explicit: elements are dense integer encodings
``0..size-1`` and both operations are total tables over those encodings.
Constructors cover Z/n, GF(p^k) as polynomial residues modulo a monic
polynomial, and finite products with componentwise arithmetic.  A polynomial
is accepted when every nonzero residue has an inverse, which holds exactly
when it is irreducible.  All three tabulate through one builder that interns
each ring on its descriptor.  Values are immutable after construction and
safe to share between workers.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt, prod
from typing import NamedTuple, Sequence

# Ring axioms are verified by full enumeration up to this size; all the stock
# corpus rings are far below it.
AXIOM_CHECK_LIMIT = 256

_RING_CACHE: dict[str, "FiniteRing"] = {}


class RingConstructionError(ValueError):
    """Rejected ring construction (bad modulus, composite p, reducible poly,
    operation tables that break a ring axiom)."""


class FiniteRing:
    """A finite commutative unital ring on encodings ``0..size-1``.

    Instances come from :func:`make_zn`, :func:`make_gf` or
    :func:`make_product`.  ``descriptor`` is the canonical construction
    recipe (``Z/12``, ``GF(4) poly=[1,1,1]``, ``product(Z/2, Z/4)``) and two
    rings are equal exactly when their descriptors are.
    """

    def __init__(self, size: int, add_table, mul_table, zero: int, one: int,
                 descriptor: str):
        self.size = size
        self.zero = zero
        self.one = one
        self.descriptor = descriptor
        self._add = add_table
        self._mul = mul_table
        neg = [None] * size
        for a in range(size):
            for b in range(size):
                if add_table[a][b] == zero:
                    neg[a] = b
                    break
        self._neg = neg
        # product rings fill these in; None elsewhere
        self.factors: tuple[FiniteRing, ...] | None = None
        self._strides: tuple[int, ...] | None = None
        if size <= AXIOM_CHECK_LIMIT:
            self._verify_axioms()

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            raise ValueError("negative powers are not defined in a ring")
        out = self.one
        for _ in range(k):
            out = self._mul[out][a]
        return out

    @property
    def elements(self) -> range:
        return range(self.size)

    def element(self, code: int) -> "RingElement":
        return RingElement(self, code)

    # -- product helpers ----------------------------------------------------

    def split(self, code: int) -> tuple[int, ...]:
        """Component codes of a product-ring element."""
        if self.factors is None:
            raise ValueError(f"{self.descriptor} is not a product ring")
        return tuple((code // s) % f.size
                     for s, f in zip(self._strides, self.factors))

    def join(self, codes: Sequence[int]) -> int:
        if self.factors is None:
            raise ValueError(f"{self.descriptor} is not a product ring")
        return sum(c * s for c, s in zip(codes, self._strides))

    # -- plumbing -----------------------------------------------------------

    def _verify_axioms(self) -> None:
        n, add, mul = self.size, self._add, self._mul
        zero, one, d = self.zero, self.one, self.descriptor
        for a in range(n):
            if add[a][zero] != a:
                raise RingConstructionError(f"{d}: additive identity fails at {a}")
            if mul[a][one] != a:
                raise RingConstructionError(f"{d}: multiplicative identity fails at {a}")
            if self._neg[a] is None:
                raise RingConstructionError(f"{d}: no additive inverse for {a}")
        for a in range(n):
            for b in range(n):
                if add[a][b] != add[b][a]:
                    raise RingConstructionError(f"{d}: + not commutative at ({a},{b})")
                if mul[a][b] != mul[b][a]:
                    raise RingConstructionError(f"{d}: * not commutative at ({a},{b})")
        for a in range(n):
            for b in range(n):
                ab_add = add[a][b]
                ab_mul = mul[a][b]
                row_a = mul[a]
                for c in range(n):
                    if add[ab_add][c] != add[a][add[b][c]]:
                        raise RingConstructionError(
                            f"{d}: + not associative at ({a},{b},{c})")
                    if mul[ab_mul][c] != mul[a][mul[b][c]]:
                        raise RingConstructionError(
                            f"{d}: * not associative at ({a},{b},{c})")
                    if row_a[add[b][c]] != add[row_a[b]][row_a[c]]:
                        raise RingConstructionError(
                            f"{d}: distributivity fails at ({a},{b},{c})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRing):
            return NotImplemented
        return self.descriptor == other.descriptor

    def __hash__(self) -> int:
        return hash(self.descriptor)

    def __repr__(self) -> str:
        return f"FiniteRing({self.descriptor})"


class RingElement(namedtuple("RingElement", "ring code")):
    """A ring element: a reference to its ring plus the canonical encoding."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # so that _replace validates too

    def __new__(cls, ring: FiniteRing, code: int):
        if not 0 <= code < ring.size:
            raise ValueError(f"code {code} out of range for {ring.descriptor}")
        return super().__new__(cls, ring, code)

    def _coerce(self, other) -> int:
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise ValueError("elements of different rings")
            return other.code
        if isinstance(other, int):
            if not 0 <= other < self.ring.size:
                raise ValueError(f"code {other} out of range for {self.ring.descriptor}")
            return other
        if type(other) is tuple:   # tuple + element would concatenate
            raise TypeError(f"cannot combine a tuple with {self!r}")
        return NotImplemented

    def __add__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.add(self.code, code))

    __radd__ = __add__

    def __sub__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(self.code, code))

    def __mul__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.mul(self.code, code))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.code))

    def __pow__(self, k: int):
        return RingElement(self.ring, self.ring.pow(self.code, k))

    def __repr__(self) -> str:
        return f"{self.code}@{self.ring.descriptor}"


# -- constructors -------------------------------------------------------------


def _tabulate(descriptor: str, size: int, operations, zero: int = 0, one: int = 1,
              **attrs) -> FiniteRing:
    """The ring interned on ``descriptor``, tabulated from ``operations()``.

    Only a cache miss calls ``operations()``: it raises to reject the ring or returns
    ``(add, mul)``, read over every pair of codes, axiom-checked and interned with ``attrs``.
    """
    ring = _RING_CACHE.get(descriptor)
    if ring is None:
        codes = range(size)
        ring = FiniteRing(size, *(tuple(tuple(op(a, b) for b in codes) for a in codes)
                                  for op in operations()), zero, one, descriptor)
        vars(ring).update(attrs)
        _RING_CACHE[descriptor] = ring
    return ring


def _prime_power(q) -> tuple[int, int] | None:
    """``(p, k)`` with ``q == p**k``, ``p`` prime and ``k >= 1``; None otherwise."""
    if not isinstance(q, int) or q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def make_zn(n: int) -> FiniteRing:
    """The ring of integers modulo ``n`` (``n >= 2``)."""
    if not isinstance(n, int) or n < 2:
        raise RingConstructionError(f"modulus must be an integer >= 2, got {n!r}")
    return _tabulate(f"Z/{n}", n, lambda: (lambda a, b: (a + b) % n, lambda a, b: a * b % n))


def make_gf(p: int, k: int, poly: Sequence[int]) -> FiniteRing:
    """The field GF(p^k) as residues modulo an irreducible monic polynomial.

    ``poly`` lists coefficients in ascending degree order (length ``k + 1``,
    leading coefficient 1).  Element encodings are base-p digit strings: the
    code of ``c0 + c1*x + ...`` is ``sum(ci * p**i)``.  ``F_p[x]/(poly)`` is
    a field exactly when ``poly`` is irreducible (a proper factor of it is a
    nonzero zero divisor), so the polynomial is accepted when every nonzero
    code has a multiplicative inverse, checked only before the field is interned.
    """
    if _prime_power(p) != (p, 1):
        raise RingConstructionError(f"characteristic must be prime, got {p}")
    if not isinstance(k, int) or k < 1:
        raise RingConstructionError(f"extension degree must be >= 1, got {k!r}")
    poly = tuple(c % p for c in poly)
    if len(poly) != k + 1:
        raise RingConstructionError(
            f"reduction polynomial must have degree {k} ({k + 1} coefficients), got {len(poly)}")
    if poly[k] != 1:
        raise RingConstructionError("reduction polynomial must be monic")
    size = p ** k
    weights = [p ** i for i in range(k)]
    digits = [[a // w % p for w in weights] for a in range(size)]

    def add(a: int, b: int) -> int:
        return sum((x + y) % p * w for x, y, w in zip(digits[a], digits[b], weights))

    def mul(a: int, b: int) -> int:
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(digits[a]):
            for j, y in enumerate(digits[b]):
                conv[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):  # x^i = x^(i-k) * (x^k - poly)
            for j in range(k):
                conv[i - k + j] -= conv[i] * poly[j]
        return sum(c % p * w for c, w in zip(conv, weights))

    def operations():
        for a in range(1, size):
            if 1 not in (mul(a, b) for b in range(1, size)):
                raise RingConstructionError(f"polynomial {list(poly)} is reducible over "
                                            f"Z/{p} (code {a} has no inverse)")
        return add, mul
    return _tabulate(f"GF({size}) poly=[{','.join(map(str, poly))}]", size, operations,
                     char_p=p, degree_k=k)


def make_product(rings: Sequence[FiniteRing]) -> FiniteRing:
    """Componentwise product of finitely many rings (mixed-radix encodings)."""
    rings = tuple(rings)
    if not rings:
        raise RingConstructionError("product of an empty list of rings")
    strides = tuple(prod(r.size for r in rings[:i]) for i in range(len(rings)))
    size = prod(r.size for r in rings)

    def operations():
        parts = [tuple(a // s % r.size for s, r in zip(strides, rings)) for a in range(size)]
        return tuple(lambda a, b, op=op: sum(op(r, x, y) * s for r, x, y, s
                                             in zip(rings, parts[a], parts[b], strides))
                     for op in (FiniteRing.add, FiniteRing.mul))

    return _tabulate(f"product({', '.join(r.descriptor for r in rings)})", size, operations,
                     sum(r.zero * s for r, s in zip(rings, strides)),
                     sum(r.one * s for r, s in zip(rings, strides)),
                     factors=rings, _strides=strides)


# -- ideals -------------------------------------------------------------------


class Ideal(NamedTuple):
    """An ideal as its full member set plus the generators that produced it."""

    ring: FiniteRing
    members: frozenset[int]
    generators: tuple[int, ...] = ()

    # on (carrier, members), as is the hash; modules.Submodule shares these three
    def __eq__(self, other) -> bool:
        return self[:2] == other[:2] if type(other) is type(self) else NotImplemented

    def __ne__(self, other) -> bool:
        return self[:2] != other[:2] if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self[:2])

    def __contains__(self, r) -> bool:
        if isinstance(r, RingElement):
            r = r.code
        return r in self.members

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.ring.size

    @property
    def is_zero(self) -> bool:
        return self.members == frozenset({self.ring.zero})

    def issubset(self, other: "Ideal") -> bool:
        return self.members <= other.members

    def __repr__(self) -> str:
        return f"Ideal({sorted(self.members)} of {self.ring.descriptor})"


def additive_closure(start, gens, row_of) -> set:
    """The subgroup generated by the subgroup ``start`` together with ``gens``.

    ``row_of(g)`` is the add row of ``g``: ``row_of(g)[x] == x + g``.  A
    generator already in the set is skipped; any other grows the set one
    whole coset at a time until the next translate lands back in the set.
    The set is a subgroup throughout, so one element decides for its coset,
    and only generators that enlarge the set cost a row.
    """
    members = set(start)
    for g in gens:
        if g in members:
            continue
        row = row_of(g)
        layer = list(members)
        while row[layer[0]] not in members:
            layer = [row[x] for x in layer]
            members.update(layer)
    return members


def lattice_by_joins(size: int, zero: int, scalar_rows, row_of) -> list[tuple]:
    """Every subgroup that is a sum of cyclic ones, with the generators that reach it.

    ``scalar_rows`` is the scalar action of a commutative unital ring ``R``:
    ``scalar_rows[r][x] == r*x``.  The cyclic set of ``x`` is then
    ``Rx = {row[x] for row in scalar_rows}`` (a principal ideal, a cyclic
    submodule), which is already closed under addition, as
    ``rx + sx = (r+s)x``; ``row_of`` is as in :func:`additive_closure`.  The
    distinct cyclic sets are numbered in (size, member list) order, and
    ``gens[i]`` is the least ``x`` whose cyclic set is ``C_i``.  From
    ``{zero}``, the sets of a frontier are joined breadth first with cyclic
    sets; a set ``J`` first reached as ``S + C_i`` records the index tuple
    ``t + (i,)``, where ``t`` is the tuple of ``S``.  ``gens`` is one-to-one,
    so a tuple is kept as its generators, which are also the set's
    generators.  Returns ``(members, generators)`` pairs sorted by (size,
    member list).

    A set ``S`` with tuple ``t`` and a cyclic set ``C_i`` are joined only when
    three things hold: (1) ``i`` is a later new sibling of ``S``, that is
    ``i`` comes after ``t[-1]`` and ``t[:-1] + (i,)`` is recorded; (2)
    dropping any other one element of ``t`` and appending ``i`` also gives a
    recorded tuple; (3) ``gens[i]`` is not in ``reached``, the union of ``S``
    and the joins computed from ``S`` so far.  Frontiers and candidates are
    walked in lexicographic order of their tuples.  This is exact because the
    cyclic sets are sorted by size first and each is ``Rx``, so that every
    set met is closed under R:

    (a) The recorded tuple of ``J`` is the lexicographically least among the
        shortest tuples whose join is ``J``: by induction on the frontier,
        which stays in lexicographic order, the first tried pair that gives
        ``J`` is the least, as (c) shows it is tried.  That tuple is strictly
        increasing, because sorting it gives a tuple with the same join
        that is no larger.
    (b) Dropping any one element ``d`` from a recorded tuple leaves a
        recorded tuple.  Were there a shorter or smaller tuple ``u`` for the
        rest, with join ``T``, then ``T + C_d = J`` and ``sorted(u + (d,))``
        would be shorter than the original, or lexicographically smaller
        whether the first difference falls before, at or after the place of
        ``d``; that contradicts (a).
    (c) So if ``t + (i,)`` is the recorded tuple of ``J``, ``S`` is recorded
        with ``t`` and (1) and (2) hold by (b).  Were ``gens[i]`` in ``S``,
        ``J`` would be ``S``.  Were it in ``S + C_j`` for an earlier ``j``,
        then ``gens[i] = s + r*gens[j]`` with ``s`` in ``S`` and ``S + C_i =
        S + R(r*gens[j])``; ``R(r*gens[j])`` is ``C_j`` or a smaller cyclic
        set, sorted before it, so ``J = S + C_k`` for some ``k < i`` and
        ``sorted(t + (k,))`` would be a shorter or smaller tuple of ``J``.
        So (3) holds, the first pair in order that gives each join is still
        tried, and the generators are those of a walk that joins every set
        with every cyclic set.

    A frontier entry holds the list of its parent's new children, shared with
    its siblings, and the offset of its later siblings in that list.  Tests
    (1) and (2) read only tuples as long as the frontier's, so the tuples of
    one level are kept until the next level is built.
    """
    first_gen: dict[frozenset[int], int] = {}
    for x in range(size):
        first_gen.setdefault(frozenset([row[x] for row in scalar_rows]), x)
    cyclics = sorted(first_gen, key=lambda ms: (len(ms), sorted(ms)))
    gens = [first_gen[C] for C in cyclics]
    zero_ms = frozenset({zero})
    gens_of: dict[frozenset[int], tuple[int, ...]] = {zero_ms: ()}
    recorded = {()}
    frontier = [(zero_ms, range(len(cyclics)), 0)]
    while frontier:
        nxt, found = [], set()
        for S, siblings, start in frontier:
            t = gens_of[S]
            reached = set(S)
            children: list[int] = []
            for k in range(start, len(siblings)):
                i = siblings[k]
                g = gens[i]
                if g in reached or not all(t[:p] + t[p + 1:] + (g,) in recorded
                                           for p in range(len(t) - 1)):
                    continue
                J = frozenset(additive_closure(S, cyclics[i], row_of))
                reached.update(J)
                if J not in gens_of:
                    gens_of[J] = u = t + (g,)
                    found.add(u)
                    children.append(i)
                    nxt.append((J, children, len(children)))
        frontier, recorded = nxt, found
    return sorted(gens_of.items(), key=lambda item: (len(item[0]), sorted(item[0])))


def is_ideal_members(ring: FiniteRing, members) -> bool:
    """Literal check: contains zero, closed under + and under every r*.

    For each member a, every a + b with b a member and every r * a is read
    from a's rows of the addition and (commutative) multiplication tables.
    """
    ms = frozenset(members)
    return ring.zero in ms and all(
        ms.issuperset(map(ring._add[a].__getitem__, ms)) and ms.issuperset(ring._mul[a])
        for a in ms)


def _as_code(ring: FiniteRing, c) -> int:
    """The code of scalar ``c``: an element of ``ring`` or an int in range."""
    if isinstance(c, RingElement):
        if c.ring != ring:
            raise ValueError("scalar from a different ring")
        return c.code
    code = int(c)
    if not 0 <= code < ring.size:
        raise ValueError(f"scalar {code} out of range for {ring.descriptor}")
    return code


def ideal_generate(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal of ``ring`` containing ``gens``.

    The member set is the additive closure of all ring multiples of the
    generators; that set is already closed under multiplication because
    ``r * (sum si*gi) = sum (r*si)*gi``.
    """
    codes = [_as_code(ring, g) for g in gens]
    multiples = {ring.mul(r, g) for g in codes for r in range(ring.size)}
    members = additive_closure({ring.zero}, multiples, ring._add.__getitem__)
    return Ideal(ring, frozenset(members), tuple(codes))


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, frozenset({ring.zero}), ())


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, frozenset(range(ring.size)), (ring.one,))


def is_semiprime_ideal(I: Ideal) -> bool:
    """True iff every element whose square lies in ``I`` lies in ``I``."""
    ring = I.ring
    ms = I.members
    return all(r in ms for r in range(ring.size) if ring.mul(r, r) in ms)


def is_prime_ideal(I: Ideal) -> bool:
    """True iff ``I`` is proper and ``a*b in I`` forces ``a in I`` or ``b in I``."""
    ring = I.ring
    ms = I.members
    if len(ms) == ring.size:
        return False
    for a in range(ring.size):
        if a in ms:
            continue
        row = ring._mul[a]
        for b in range(ring.size):
            if row[b] in ms and b not in ms:
                return False
    return True


def nilpotent_radical_of_ideal(I: Ideal) -> Ideal:
    """All elements with some power in ``I`` (the classical radical of an ideal).

    The least k with r^k in I is below the bit length of |R|, so no higher
    power is tried.  Modulo I the ideals r^j R, j <= k, shrink strictly:
    r^j R = r^(j+1) R for some j < k would give r^j = r^(j+1) s = ... =
    r^(j+k) s^k, which lies in I.  Each strict step at least halves the
    size, so 2^k <= |R/I| <= |R|.
    """
    ring = I.ring
    ms = I.members
    members = set()
    for r in range(ring.size):
        x = r
        for _ in range(ring.size.bit_length()):
            if x in ms:
                members.add(r)
                break
            x = ring.mul(x, r)
    if not is_ideal_members(ring, members):
        raise AssertionError(f"radical of {sorted(ms)} in {ring.descriptor} is not an ideal")
    return Ideal(ring, frozenset(members), tuple(sorted(members)))


def enumerate_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every ideal of ``ring``, found by the lattice walk :func:`lattice_by_joins`
    over principal ideals, which the submodule lattice also uses.

    Results are sorted by (size, member list), smallest first; each ideal's
    generators are the least generators of its least shortest tuple of
    principal ideals, in the walk's order.
    """
    joins = lattice_by_joins(ring.size, ring.zero, ring._mul, ring._add.__getitem__)
    return [Ideal(ring, ms, gens) for ms, gens in joins]
