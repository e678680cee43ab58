"""Finitely presented modules over finite rings.

A module is R^rank modulo a relation submodule K, built as the coset
quotient of the free module R^rank by K (see :class:`ModulePresentation`).
K is the module's only identity: ``presented_module`` generates it once from
a list of relation vectors, which is input text and is not kept.
Presentations are interned in ``_PRESENTATION_CACHE`` on (ring, rank, K),
found before any coset is built, as rings are in ``rings._RING_CACHE`` on
their descriptor.  Each module's ``derived`` table keeps what is computed
from it: index rows, r*M, I*M, the basis images r*e_j, Nil(R), the literal
semiprime verdicts per member set, whether each colon (P:M) is a prime
ideal, the lattice, the prime list and the quotient by each submodule asked
for, keyed by (builder, an int, a frozenset or None).
Nothing is evicted from either.
Tuple representatives only appear at the API surface; everything else is
immutable after construction and all operations are pure.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, product as _cartesian
from typing import Iterator, NamedTuple, Sequence

from .rings import (
    FiniteRing,
    Ideal,
    _as_code,
    additive_closure,
    is_ideal_members,
    lattice_by_joins,
)

DEFAULT_ELEMENT_BOUND = 65536
DEFAULT_LATTICE_BOUND = 256

_PRESENTATION_CACHE: dict[tuple, "ModulePresentation"] = {}
# relation submodule of a free module: every ring codes its zero as 0
_ZERO_CODES = frozenset({0})
_CODES: list[int] = []


def _shared_codes(n: int) -> list[int]:
    """The one ``list(range(...))``, at least ``n`` long, that rows draw entries from.

    It only grows and always holds ``codes[i] == i``, so sharing it between
    modules shares int objects and nothing else.
    """
    if len(_CODES) < n:
        _CODES.extend(range(len(_CODES), n))
    return _CODES


class BoundExceededError(RuntimeError):
    """A requested enumeration is larger than the configured bound; ``needed``
    is a count, or a power's text when the count was not built."""

    def __init__(self, what: str, needed: int | str, bound: int, flag: str):
        super().__init__(
            f"{what} needs {needed} elements but the bound is {bound}; "
            f"raise it with {flag}")
        self.what = what
        self.needed = needed
        self.bound = bound
        self.flag = flag


class _Derived(dict):
    """``derived[build, key]`` is ``build(module, key)``, built on the first
    request; ``derived.get((build, key))`` peeks without building."""

    __slots__ = ("module",)

    def __init__(self, module: ModulePresentation):
        self.module = module

    def __missing__(self, build_key):
        self[build_key] = value = build_key[0](self.module, build_key[1])
        return value


class ModulePresentation:
    """M = R^rank / K with explicit canonical coset representatives.

    The module is built from ``kernel``, the ambient codes (below) of its
    relation submodule K, and keeps K's vectors as ``relation_members``; no
    relation list is kept, since many generate the same K.  ``elements[i]``
    is the canonical representative (a tuple of ring codes) of the i-th
    coset, listed in lexicographic order, so index order and representative
    order agree.

    An ambient vector v is coded as the integer sum of v[j] * |R|^(rank-1-j);
    code order is lexicographic order, so in a free module an element's index
    is its code.  Any other module is the coset quotient of the interned free
    module by K.  It keeps ``_class_of``, the index of the coset of
    every ambient code, and ``_rep_codes``, the code of every representative.
    Addition and scalar action are exposed on indices (``add_i``,
    ``scale_i``) through index rows kept in ``derived``: one scalar row per
    ring code, and one add row per element that something adds, which for
    subgroup closures means only the generators that enlarge the set.  A row
    is built from the ring's table rows one coordinate at a time and every
    entry is drawn from one shared ``list(range(n))``, so a row costs n
    pointers.  A lone product or sum, with no row built yet, is computed from
    the coordinates instead, so huge free modules stay cheap to construct and
    to generate in while the scans read whole rows.
    Direct construction checks no bound and does not intern.
    """

    def __init__(self, ring: FiniteRing, rank: int, kernel: frozenset[int] = _ZERO_CODES):
        self.ring = ring
        self.rank = rank

        zero_vec = (ring.zero,) * rank
        ambient = ring.size ** rank
        if kernel == _ZERO_CODES:
            self.elements: tuple[tuple, ...] = tuple(_cartesian(range(ring.size), repeat=rank))
            self._class_of = self._rep_codes = range(ambient)
            self.relation_members = frozenset({zero_vec})
        else:
            # Sweep in code order: the first code not yet in a coset is its
            # least member, hence the canonical representative.
            free = _interned(ring, rank, _ZERO_CODES)
            codes = _shared_codes(ambient)
            class_of: list = [None] * ambient
            rep_codes: list[int] = []
            for code in range(ambient):
                if class_of[code] is None:
                    index = codes[len(rep_codes)]
                    rep_codes.append(code)
                    for k in kernel:
                        class_of[free.add_i(code, k)] = index
            self._class_of, self._rep_codes = class_of, rep_codes
            self.elements = tuple(map(free.elements.__getitem__, rep_codes))
            self.relation_members = frozenset(map(free.elements.__getitem__, kernel))
        self.element_count = len(self.elements)
        if self.element_count * len(self.relation_members) != ambient:
            raise AssertionError(
                f"{self.element_count} cosets of {len(self.relation_members)} "
                f"relation vectors do not fill {ambient} ambient vectors")
        self.zero_index = self._index_of_vec(zero_vec)
        # indices of the images of the standard basis vectors (generators of M)
        self.unit_indices: tuple[int, ...] = tuple(
            self._index_of_vec(ring.one if j == i else ring.zero for j in range(rank))
            for i in range(rank))

        self.derived = _Derived(self)

    # -- canonical forms ------------------------------------------------------

    @property
    def is_free(self) -> bool:
        return len(self.relation_members) == 1

    def _index_of_vec(self, vec) -> int:
        return self._class_of[_code(self.ring.size, vec)]

    def reduce(self, vec: Sequence[int]) -> tuple:
        """Canonical representative of the coset of ``vec``."""
        return self.elements[self.index_of(vec)]

    def index_of(self, item) -> int:
        """Element index of ``item``, the one rule for every element argument: an
        int index in range, a :class:`ModuleElement` of this module, or a vector
        whose coordinates are scalars (:func:`~modradical.rings._as_code`)."""
        if isinstance(item, ModuleElement):
            if item.module is not self and item.module != self:
                raise ValueError("element from a different module")
            return self._index_of_vec(item.rep)
        if isinstance(item, int) and not isinstance(item, bool):
            if not 0 <= item < self.element_count:
                raise ValueError(f"index {item} out of range for {self!r}")
            return item
        vec = tuple(_as_code(self.ring, c) for c in item)
        if len(vec) != self.rank:
            raise ValueError(f"vector {vec} has length {len(vec)}, expected {self.rank}")
        return self._index_of_vec(vec)

    def element(self, vec) -> "ModuleElement":
        return self.element_at(self.index_of(vec))

    def element_at(self, index: int) -> "ModuleElement":
        return ModuleElement(self, self.elements[index])

    # -- index arithmetic ------------------------------------------------------

    def _row(self, tables) -> list[int]:
        """Index row of the map sending coordinate j of a vector ``c`` to ``tables[j][c]``.

        The ambient row is built from the last coordinate to the first: a
        block of ``size`` codes becomes ``len(table)`` blocks, the one for
        coordinate value x shifted by ``table[x] * size``.
        """
        codes = _shared_codes(self.ring.size ** self.rank)
        row = codes[:1]
        size = 1
        for table in reversed(tables):
            nxt: list[int] = []
            for a in table:
                nxt.extend(map(codes[a * size:(a + 1) * size].__getitem__, row))
            row = nxt
            size *= len(table)
        if self.is_free:
            return row
        return list(map(self._class_of.__getitem__, map(row.__getitem__, self._rep_codes)))

    def add_i(self, i: int, j: int) -> int:
        row = self.derived.get((_add_row, i))
        if row is not None:
            return row[j]
        return self._index_of_vec(map(self.ring.add, self.elements[i], self.elements[j]))

    def add_row(self, i: int) -> list[int]:
        """Index row of adding the element at index ``i``."""
        return self.derived[_add_row, i]

    def scale_i(self, r: int, i: int) -> int:
        row = self.derived.get((_scaled_row, r))
        if row is not None:
            return row[i]
        return self._index_of_vec(map(self.ring._mul[_as_code(self.ring, r)].__getitem__,
                                      self.elements[i]))

    def scaled_row(self, r: int) -> list[int]:
        """Index row of the scalar action of ring code ``r``."""
        return self.derived[_scaled_row, r]

    def image_set(self, r: int) -> frozenset[int]:
        """Member indices of r*M."""
        return self.derived[_image_set, r]

    def ideal_action(self, codes: frozenset[int]) -> frozenset[int]:
        """Member indices of I*M for the ideal with member codes ``codes``.

        I*M is generated additively by {r * e_j : r in I, e_j a basis image},
        because every product r*x with x = sum r_j e_j expands into such
        terms.  Kept per member set; colon ideals repeat heavily.
        """
        return self.derived[_ideal_action, codes]

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:   # the common case: one interned module
            return True
        if not isinstance(other, ModulePresentation):
            return NotImplemented
        return (self.ring == other.ring and self.rank == other.rank
                and self.relation_members == other.relation_members)

    def __hash__(self) -> int:
        return hash((self.ring, self.rank, self.relation_members))

    def __repr__(self) -> str:
        rel = "" if self.is_free else f" mod <{len(self.relation_members)} relation vectors>"
        return f"Module({self.ring.descriptor}^{self.rank}{rel}, {self.element_count} elements)"


# -- derived values: the builders of ``ModulePresentation.derived`` --------------
# A builder checks its key by the argument rule of its kind and then indexes
# with the key itself, so only an int in range passes: any other key raises
# and is never kept, while a warm lookup pays nothing for the check.


def _add_row(M: ModulePresentation, i: int) -> list[int]:
    M.index_of(i)
    add = M.ring._add
    return M._row([add[c] for c in M.elements[i]])


def _scaled_row(M: ModulePresentation, r: int) -> list[int]:
    _as_code(M.ring, r)
    return M._row([M.ring._mul[r]] * M.rank)


def _scaled_rows(M: ModulePresentation, _) -> list[list[int]]:
    return [M.scaled_row(r) for r in range(M.ring.size)]


def _image_set(M: ModulePresentation, r: int) -> frozenset[int]:
    return frozenset(M.scaled_row(r))


def _basis_images(M: ModulePresentation, _) -> list[tuple[int, ...]]:
    return [tuple(M.scale_i(r, u) for u in M.unit_indices) for r in range(M.ring.size)]


def _ideal_action(M: ModulePresentation, codes: frozenset[int]) -> frozenset[int]:
    gens = {M.scale_i(r, u) for r in codes for u in M.unit_indices}
    return frozenset(additive_closure({M.zero_index}, gens, M.add_row))


def _lattice(M: ModulePresentation, _) -> tuple[Submodule, ...]:
    joins = lattice_by_joins(M.element_count, M.zero_index, scaled_rows(M), M.add_row)
    return tuple(Submodule(M, ms, gens) for ms, gens in joins)


class ModuleElement(namedtuple("ModuleElement", "module rep")):
    """A module element: its module plus the canonical representative vector."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # so that _replace validates too

    def __new__(cls, module: ModulePresentation, rep: tuple):
        try:   # each coordinate must pass _as_code, so (True, 0) is no representative
            canonical = type(rep) is tuple and module.elements[module.index_of(rep)] == rep
        except (TypeError, ValueError):
            canonical = False
        if not canonical:
            raise ValueError(f"{rep} is not a canonical representative")
        return super().__new__(cls, module, rep)

    def _scaled(self, r, x) -> "ModuleElement":
        """``r * x`` for a scalar ``r`` and an element argument ``x`` of this module."""
        m = self.module
        return ModuleElement(m, m.elements[m.scale_i(_as_code(m.ring, r), m.index_of(x))])

    def __add__(self, other) -> "ModuleElement":
        if isinstance(other, int):   # an index is no operand, so m + 3 is a TypeError
            return NotImplemented
        m = self.module
        return ModuleElement(m, m.elements[m.add_i(m.index_of(self), m.index_of(other))])

    def __sub__(self, other) -> "ModuleElement":
        if isinstance(other, int):
            return NotImplemented
        return self + self._scaled(self.module.ring.neg(self.module.ring.one), other)

    def __radd__(self, other):   # else tuple + element would concatenate, element * k repeat
        raise TypeError(f"unsupported operand types: {self!r} and {type(other).__name__}")

    __mul__ = __radd__
    __neg__ = lambda self: self._scaled(self.module.ring.neg(self.module.ring.one), self)
    __rmul__ = lambda self, r: self._scaled(r, self)

    def __repr__(self) -> str:
        return f"{self.rep}@{self.module!r}"


class Submodule(NamedTuple):
    """A submodule as an explicit member set plus the generators that built it.

    ``member_indices`` is a frozenset of element indices into the parent
    module; the public ``members``/``generators`` views give representative
    vectors in lexicographic order.  Like an :class:`~modradical.rings.Ideal`,
    it compares and hashes on (module, member_indices) alone.
    """

    module: ModulePresentation
    member_indices: frozenset[int]
    generator_indices: tuple[int, ...]

    __eq__, __ne__, __hash__ = Ideal.__eq__, Ideal.__ne__, Ideal.__hash__

    @property
    def members(self) -> tuple[tuple, ...]:
        els = self.module.elements
        return tuple(els[i] for i in sorted(self.member_indices))

    @property
    def generators(self) -> tuple[tuple, ...]:
        els = self.module.elements
        return tuple(els[i] for i in self.generator_indices)

    @property
    def size(self) -> int:
        return len(self.member_indices)

    @property
    def is_proper(self) -> bool:
        return self.size < self.module.element_count

    @property
    def is_zero(self) -> bool:
        return self.member_indices == frozenset({self.module.zero_index})

    def __contains__(self, item) -> bool:
        if type(item) is int:   # an absent index is no member
            return item in self.member_indices
        return self.module.index_of(item) in self.member_indices

    def issubset(self, other: "Submodule") -> bool:
        return self.member_indices <= other.member_indices

    def __repr__(self) -> str:
        return f"Submodule({self.size} of {self.module.element_count} elements)"


# -- constructors ---------------------------------------------------------------


def presented_module(ring: FiniteRing, rank: int, relations=(),
                     element_bound: int = DEFAULT_ELEMENT_BOUND) -> ModulePresentation:
    """Build (or reuse) the presentation R^rank / <relations>.

    The element bound is checked first.  The relation submodule K is then
    generated once, in the interned free module, and the presentation is
    interned on (ring, rank, K) and built from K on a miss, so equal
    presentations share element tables and ``derived`` tables.
    """
    # |R| >= 2, so a rank of the bound's bit length or more is past the bound
    ambient = ring.size ** rank if rank < element_bound.bit_length() else None
    if ambient is None or ambient > element_bound:
        raise BoundExceededError(f"enumerating {ring.descriptor}^{rank}",
                                 ambient or f"{ring.size}^{rank}", element_bound,
                                 "--element-bound")
    return _interned(ring, rank, _relation_span(ring, rank, relations))


def _interned(ring: FiniteRing, rank: int, kernel: frozenset[int]) -> ModulePresentation:
    """The presentation with relation submodule ``kernel`` (ambient codes),
    built from it on a cache miss."""
    key = (ring.descriptor, rank, kernel)
    if key not in _PRESENTATION_CACHE:
        _PRESENTATION_CACHE[key] = ModulePresentation(ring, rank, kernel)
    return _PRESENTATION_CACHE[key]


def free_module(ring: FiniteRing, rank: int,
                element_bound: int = DEFAULT_ELEMENT_BOUND) -> ModulePresentation:
    """The free module R^rank (empty relation list)."""
    return presented_module(ring, rank, (), element_bound)


def zero_submodule(M: ModulePresentation) -> Submodule:
    return Submodule(M, frozenset({M.zero_index}), ())


def full_submodule(M: ModulePresentation) -> Submodule:
    return Submodule(M, frozenset(range(M.element_count)), M.unit_indices)


def submodule_generate(M: ModulePresentation, gens) -> Submodule:
    """Smallest submodule of ``M`` containing ``gens``."""
    return _generate_from_indices(M, tuple(map(M.index_of, gens)))


def _generate_from_indices(M: ModulePresentation, gen_indices) -> Submodule:
    members = _grow(M, {M.zero_index}, gen_indices)
    return Submodule(M, frozenset(members), tuple(gen_indices))


def _grow(M: ModulePresentation, members, gen_indices):
    """Member indices of the submodule generated by the submodule ``members``
    and the elements at ``gen_indices``.

    The set is a submodule after each generator, so one already inside adds
    nothing.  Grown from zero, the set is the cyclic set R*i, which is
    closed under addition already, as r*i + s*i = (r+s)*i; it costs no add
    row.
    """
    for i in gen_indices:
        if i not in members:
            multiples = [M.scale_i(r, i) for r in range(M.ring.size)]
            members = (set(multiples) if len(members) == 1
                       else additive_closure(members, multiples, M.add_row))
    return members


def contains(N: Submodule, m) -> bool:
    """Membership of an element in a submodule (on canonical representatives)."""
    return m in N


# -- colon ideals and ideal action ------------------------------------------------


def colon_codes(N: Submodule, m_index: int) -> frozenset[int]:
    """Member codes of the colon ideal (N : m) = {r : r*m in N} for the element
    at ``m_index``, read off the scaled rows.  Scans use :func:`colon_sets`."""
    ms = N.member_indices
    return frozenset(r for r, row in enumerate(scaled_rows(N.module)) if row[m_index] in ms)


def colon_sets(N: Submodule) -> Iterator[frozenset[int]]:
    """Member codes of (N : m) for every element m, lazily, in index order.

    The scaled rows are read one column at a time: column m says, for each
    ring code r, whether r*m lies in N.  Elements with equal columns share
    one frozenset, so a scan can key its per-colon work on it.
    """
    ms = N.member_indices
    rows = scaled_rows(N.module)
    codes = range(len(rows))
    seen: dict[tuple, frozenset[int]] = {}
    for column in zip(*[map(ms.__contains__, row) for row in rows]):
        colon = seen.get(column)
        if colon is None:
            colon = seen[column] = frozenset(compress(codes, column))
        yield colon


def scaled_rows(M: ModulePresentation) -> list[list[int]]:
    """The scaled row of every ring code, in code order (built once per module)."""
    return M.derived[_scaled_rows, None]


def colon_ideal(N: Submodule, m) -> Ideal:
    """The colon ideal (N : m) as a full :class:`~modradical.rings.Ideal`."""
    M = N.module
    codes = colon_codes(N, M.index_of(m))
    if not is_ideal_members(M.ring, codes):
        raise AssertionError(
            f"colon set {sorted(codes)} is not an ideal in {M.ring.descriptor}")
    return Ideal(M.ring, codes, tuple(sorted(codes)))


def colon_module(N: Submodule, M: ModulePresentation) -> Ideal:
    """(N : M) = {r : r*x in N for every x in M}.

    Checking the basis images suffices: N is closed under sums and scalar
    multiples, so r*e_j in N for all j already forces r*x in N for every x.
    """
    if N.module != M:
        raise ValueError("submodule does not live in the given module")
    codes = module_colon_codes(N)
    if not is_ideal_members(M.ring, codes):
        raise AssertionError(
            f"colon set {sorted(codes)} of the module is not an ideal in {M.ring.descriptor}")
    return Ideal(M.ring, codes, tuple(sorted(codes)))


def module_colon_codes(N: Submodule) -> frozenset[int]:
    """Member codes of (N : M), read off the basis images as in :func:`colon_module`.

    The images r*e_j of every ring code r are kept in ``derived``, |R| * rank
    indices per module, and building them builds no scaled row.
    """
    M = N.module
    images = M.derived[_basis_images, None]
    return frozenset(compress(range(len(images)), map(N.member_indices.issuperset, images)))


def ideal_times_module(I: Ideal, M: ModulePresentation) -> Submodule:
    """The submodule I*M, generated by {r * e_j : r a generator of I}."""
    if I.ring != M.ring:
        raise ValueError("ideal and module have different base rings")
    members = M.ideal_action(I.members)
    gens = tuple(dict.fromkeys(
        M.scale_i(r, u) for r in I.generators for u in M.unit_indices))
    return Submodule(M, members, gens)


# -- lattice operations ------------------------------------------------------------


def intersect(N1: Submodule, N2: Submodule) -> Submodule:
    """Set intersection of two submodules (always a submodule)."""
    if N1.module != N2.module:
        raise ValueError("submodules of different modules")
    members = N1.member_indices & N2.member_indices
    return Submodule(N1.module, members, tuple(sorted(members)))


def join(N1: Submodule, N2: Submodule) -> Submodule:
    """Smallest submodule containing both, i.e. the sum N1 + N2."""
    if N1.module != N2.module:
        raise ValueError("submodules of different modules")
    M = N1.module
    members = frozenset(additive_closure(
        N1.member_indices, N2.member_indices, M.add_row))
    return Submodule(M, members, N1.generator_indices + N2.generator_indices)


def check_lattice_bound(M: ModulePresentation, lattice_bound: int) -> None:
    """Raise :class:`BoundExceededError` when ``M`` has more elements than
    ``lattice_bound``: the one gate of every walk over M's submodules, or
    over those above some N, which M/N's lattice gives."""
    if M.element_count > lattice_bound:
        raise BoundExceededError(
            f"submodule lattice of {M!r}", M.element_count, lattice_bound,
            "--lattice-bound")


def enumerate_submodules(M: ModulePresentation,
                         lattice_bound: int = DEFAULT_LATTICE_BOUND) -> tuple[Submodule, ...]:
    """Every submodule of ``M``, by join-closure over cyclic submodules.

    Every submodule is a join of cyclic ones, so the sweep is exhaustive.
    The result is sorted by (size, member list) and is the tuple kept in
    ``M.derived``; the bound is checked first, so it holds warm or cold.
    """
    check_lattice_bound(M, lattice_bound)
    return M.derived[_lattice, None]


# -- quotients -----------------------------------------------------------------------


class Quotient:
    """The quotient M/M' together with its forward and backward coset maps.

    Its relation submodule is the preimage of M' under M's coset map, read
    from M's cosets; the quotient is interned on it and built from it.  M's
    ``derived`` table keeps the quotient module per member set of M', so
    later quotients by the same M' skip that read."""

    def __init__(self, source: ModulePresentation, sub: Submodule):
        if sub.module != source:
            raise ValueError("submodule does not live in the given module")
        self.source = source
        self.submodule = sub
        self.module = source.derived[_quotient, sub.member_indices]
        # same ring and rank, so ambient codes agree
        self.forward_row = list(map(self.module._class_of.__getitem__, source._rep_codes))

    def forward(self, m) -> ModuleElement:
        """Image in M/M' of an element of M."""
        return self.module.element_at(self.forward_row[self.source.index_of(m)])

    def forward_submodule(self, N: Submodule) -> Submodule:
        """Image of a submodule of M (its coset set) in M/M'."""
        if N.module != self.source:
            raise ValueError("submodule of a different module")
        image = self.forward_row.__getitem__
        members = frozenset(map(image, N.member_indices))
        gens = tuple(dict.fromkeys(map(image, N.generator_indices)))
        return Submodule(self.module, members, gens)

    def backward_submodule(self, Nq: Submodule) -> Submodule:
        """Full preimage in M of a submodule of M/M', the elements whose coset
        lies in it; generated by the lifted generators of ``Nq`` and those of M'."""
        if Nq.module != self.module:
            raise ValueError("submodule of a different quotient")
        src = self.source
        members = frozenset(compress(
            range(src.element_count), map(Nq.member_indices.__contains__, self.forward_row)))
        rep_codes = self.module._rep_codes
        lifted = tuple(src._class_of[rep_codes[i]] for i in Nq.generator_indices)
        return Submodule(src, members, lifted + self.submodule.generator_indices)


def quotient_module(M: ModulePresentation, sub: Submodule) -> Quotient:
    """Quotient presentation M/M' plus coset maps; the presentation is interned."""
    return Quotient(M, sub)


def _quotient(M: ModulePresentation, ms: frozenset[int]) -> ModulePresentation:
    """M modulo the submodule with member set ``ms``, interned on the ambient
    codes of every coset in ``ms``."""
    class_of = M._class_of
    kernel = frozenset(compress(range(len(class_of)), map(ms.__contains__, class_of)))
    return _interned(M.ring, M.rank, kernel)


def _code(size: int, vec) -> int:
    """Ambient code of a vector of ring codes."""
    code = 0
    for c in vec:
        code = code * size + c
    return code


def _relation_span(ring: FiniteRing, rank: int, relations) -> frozenset[int]:
    """The relation submodule generated by ``relations``, as ambient codes,
    generated in the interned free module R^rank (where index = code)."""
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    return submodule_generate(_interned(ring, rank, _ZERO_CODES), relations).member_indices
