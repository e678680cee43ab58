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
from itertools import chain, product
from math import isqrt, prod
from operator import itemgetter
from typing import NamedTuple, Sequence

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
        self._add = add_table = tuple(map(tuple, add_table))
        self._mul = tuple(map(tuple, mul_table))
        self._neg = [row.index(zero) if zero in row else None for row in add_table]
        # product rings fill these in; None elsewhere
        self.factors: tuple[FiniteRing, ...] | None = None
        self._strides: tuple[int, ...] | None = None
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
        """Raise :class:`RingConstructionError` unless the tables make a commutative unital ring.

        Identities, inverses and commutativity are checked at every element, the rest on a
        set G that generates ``(R, +)``: from ``one``, each code not yet reached joins G once
        it passes (1) and (2), and the reached set grows to its span.
        (1) ``(x + g) + y == x + (g + y)`` for all x, y (Light's test).  The g that pass are
            closed under +, as ``(x + (g + h)) + y = ((x + g) + h) + y = (x + g) + (h + y) =
            x + (g + (h + y)) = x + ((g + h) + y)``, and 0 passes; so + is associative on the
            span, a subgroup that at least doubles with each g (|G| <= log2|R| + 1).
        (2) ``a*(g + x) == a*g + a*x`` for all a, x.  By (1) the y with ``a*(y + x) = a*y + a*x``
            for all x are closed under + (``a*g = a*0 + a*g`` gives ``a*0 = 0``), so each
            ``x -> a*x`` is additive, and as * commutes it distributes on both sides.
        (3) ``(g*h)*k == g*(h*k)`` on G^3: by (2) both sides are additive in each argument.
        First both tables must be n x n with every entry a code, which the checks index by.
        """
        n, add, mul, d = self.size, self._add, self._mul, self.descriptor
        codes = frozenset(range(n))
        for table, op in ((add, "+"), (mul, "*")):
            if len(table) != n or set(map(len, table)) != {n}:
                raise RingConstructionError(f"{d}: the {op} table is not {n} x {n}")
            if not codes.issuperset(chain.from_iterable(table)):
                a, b = next((a, b) for a in range(n) for b in range(n)
                            if table[a][b] not in codes)
                raise RingConstructionError(
                    f"{d}: {op} table entry at ({a},{b}) is {table[a][b]!r}, not a code")
        if not codes.issuperset((self.zero, self.one)):
            raise RingConstructionError(
                f"{d}: zero {self.zero!r} or one {self.one!r} is not a code")
        for a in range(n):
            if add[a][self.zero] != a:
                raise RingConstructionError(f"{d}: additive identity fails at {a}")
            if mul[a][self.one] != a:
                raise RingConstructionError(f"{d}: multiplicative identity fails at {a}")
            if self._neg[a] is None:
                raise RingConstructionError(f"{d}: no additive inverse for {a}")
        if tuple(zip(*add)) != add or tuple(zip(*mul)) != mul:   # then find where
            for a, b in product(range(n), repeat=2):
                for table, op in ((add, "+"), (mul, "*")):
                    if table[a][b] != table[b][a]:
                        raise RingConstructionError(f"{d}: {op} not commutative at ({a},{b})")
        gens, reached = [], {self.zero}
        for g in (self.one, *range(n)):
            if g in reached:
                continue
            at_g_plus = itemgetter(*add[g])   # a row read at g + y, for each y
            for x in range(n):
                want, got = add[add[x][g]], at_g_plus(add[x])
                if want != got:
                    y = next(y for y in range(n) if want[y] != got[y])
                    raise RingConstructionError(f"{d}: + not associative at ({x},{g},{y})")
            for a in range(n):
                want, got = at_g_plus(mul[a]), itemgetter(*mul[a])(add[mul[a][g]])
                if want != got:
                    x = next(x for x in range(n) if want[x] != got[x])
                    raise RingConstructionError(f"{d}: distributivity fails at ({a},{g},{x})")
            gens.append(g)
            reached = additive_closure(reached, [g], add.__getitem__)
        for g, h, k in product(gens[1:], repeat=3):   # a triple with one holds by identity
            if mul[mul[g][h]][k] != mul[g][mul[h][k]]:
                raise RingConstructionError(f"{d}: * not associative at ({g},{h},{k})")

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
        return super().__new__(cls, ring, _as_code(ring, code))

    def _combine(self, other, op):
        """``op`` on the codes of ``self`` and ``other``, a scalar of the same ring
        (see :func:`_as_code`), as an element; NotImplemented for what is not an
        int or an element."""
        if type(other) is tuple:   # tuple + element would concatenate
            raise TypeError(f"cannot combine a tuple with {self!r}")
        if not isinstance(other, (int, RingElement)):
            return NotImplemented
        return RingElement(self.ring, op(self.ring, self.code, _as_code(self.ring, other)))

    __add__ = __radd__ = lambda self, other: self._combine(other, FiniteRing.add)
    __sub__ = lambda self, other: self._combine(other, FiniteRing.sub)
    __mul__ = __rmul__ = lambda self, other: self._combine(other, FiniteRing.mul)

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.code))

    def __pow__(self, k: int):
        return RingElement(self.ring, self.ring.pow(self.code, k))

    def __repr__(self) -> str:
        return f"{self.code}@{self.ring.descriptor}"


# -- constructors -------------------------------------------------------------


def _tabulate(descriptor: str, size: int, operations, zero: int = 0, one: int = 1,
              **attrs) -> FiniteRing:
    """The ring interned on ``descriptor``, tabulated one row per call from ``operations()``.

    Only a cache miss calls ``operations()``: it raises to reject the ring or returns
    ``(add_row, mul_row)``, with ``add_row(a)[b] == a + b`` and ``mul_row(a)[b] == a * b``,
    called once per code; the tables are axiom-checked and interned with ``attrs``.
    """
    ring = _RING_CACHE.get(descriptor)
    if ring is None:
        ring = FiniteRing(size, *(map(row, range(size)) for row in operations()),
                          zero, one, descriptor)
        vars(ring).update(attrs)
        _RING_CACHE[descriptor] = ring
    return ring


def _mixed_radix_row(rows, strides) -> list[int]:
    """The row over codes ``b = sum(b_i * strides[i])``, ``b_0`` varying fastest, whose
    entry at ``b`` is ``sum(rows[i][b_i] * strides[i])``: factor rows composed."""
    out = [0]
    for row, s in zip(rows, strides):
        out = [x + y for y in [v * s for v in row] for x in out]
    return out


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

    def operations():
        codes = tuple(range(n))
        add = [codes[a:] + codes[:a] for a in codes]   # the row of a: the codes rotated by a

        def mul_row(a):   # a*b for m <= b < 2m is a*(b - m) translated by m*a
            row = [0, a]
            while len(row) < n:
                row += itemgetter(*row)(add[len(row) * a % n])
            return row[:n]
        return add.__getitem__, mul_row
    return _tabulate(f"Z/{n}", n, operations)


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

    def operations():
        weights = [p ** i for i in range(k)]
        digits = [[a // w % p for w in weights] for a in range(size)]

        def mul(a: int, b: int) -> int:
            conv = [0] * (2 * k - 1)
            for i, x in enumerate(digits[a]):
                for j, y in enumerate(digits[b]):
                    conv[i + j] += x * y
            for i in range(2 * k - 2, k - 1, -1):  # x^i = x^(i-k) * (x^k - poly)
                for j in range(k):
                    conv[i - k + j] -= conv[i] * poly[j]
            return sum(c % p * w for c, w in zip(conv, weights))

        add = [tuple(_mixed_radix_row([[(c + x) % p for x in range(p)] for c in digits[a]],
                                      weights)) for a in range(size)]

        def mul_row(a):   # b -> a*b is F_p-linear: the sum of b_i * (a * x^i)
            row = [0]
            for w in weights:   # x^i has code w
                ax, multiples = mul(a, w), [0]
                while len(multiples) < p:
                    multiples.append(add[multiples[-1]][ax])
                row = [add[m][y] for m in multiples for y in row]
            if a and 1 not in row:
                raise RingConstructionError(f"polynomial {list(poly)} is reducible over "
                                            f"Z/{p} (code {a} has no inverse)")
            return row
        return add.__getitem__, mul_row
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
        return [lambda a, ts=ts: _mixed_radix_row([t[x] for t, x in zip(ts, parts[a])], strides)
                for ts in ([r._add for r in rings], [r._mul for r in rings])]

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
        if isinstance(r, int) and not isinstance(r, bool):
            return r in self.members   # an int code out of range is simply not a member
        return _as_code(self.ring, r) in self.members

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.ring.size

    @property
    def is_zero(self) -> bool:
        return self.members == frozenset({self.ring.zero})

    def issubset(self, other: "Ideal") -> bool:
        if other.ring != self.ring:
            raise ValueError("ideals of different rings")
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

    Tests (1) and (2) filter a set's candidates once.  A frontier entry holds
    its parent's new children (each ``i`` with ``u + (gens[i],)`` recorded,
    ``u`` the parent's tuple), shared with its siblings, and the offset of its
    later siblings: the candidates of (1).  (2) for ``p`` keeps the new
    children of ``t`` less ``t[p]``.  So exactly what (1) and (2) admitted is
    kept, in order, the same closures run, and a set left with none is skipped.
    """
    first_gen: dict[frozenset[int], int] = {}
    for x in range(size):
        first_gen.setdefault(frozenset([row[x] for row in scalar_rows]), x)
    cyclics = sorted(first_gen, key=lambda ms: (len(ms), sorted(ms)))
    gens = [first_gen[C] for C in cyclics]
    zero_ms = frozenset({zero})
    gens_of: dict[frozenset[int], tuple[int, ...]] = {zero_ms: ()}
    kids_of: dict[tuple[int, ...], set[int]] = {}   # the frontier's parents' new children
    frontier = [(zero_ms, range(len(cyclics)), 0)]
    while frontier:
        nxt, kids = [], {}
        for S, siblings, start in frontier:
            t = gens_of[S]
            candidates = siblings[start:]
            for p in range(len(t) - 1):
                dropped = kids_of.get(t[:p] + t[p + 1:], ())
                candidates = [i for i in candidates if i in dropped]
            if not candidates:
                continue
            reached = set(S)
            kids[t] = children = []
            for i in candidates:
                g = gens[i]
                if g in reached:
                    continue
                J = frozenset(additive_closure(S, cyclics[i], row_of))
                reached.update(J)
                if J not in gens_of:
                    gens_of[J] = t + (g,)
                    children.append(i)
                    nxt.append((J, children, len(children)))
        frontier, kids_of = nxt, {t: set(c) for t, c in kids.items()}
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
    """The code of scalar ``c``, the one rule for every scalar argument: an
    element of ``ring``, or an int (not a bool) in ``0..size-1``."""
    if isinstance(c, RingElement):
        if c.ring != ring:
            raise ValueError(f"elements of different rings: {c!r} is not in {ring.descriptor}")
        return c.code
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError(f"a scalar of {ring.descriptor} is an element or an int code, "
                        f"not {type(c).__name__} {c!r}")
    if not 0 <= c < ring.size:
        raise ValueError(f"code {c} out of range for {ring.descriptor}")
    return c


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
