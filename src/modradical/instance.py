"""Plain-text instance files: one ring, one module, named submodules/elements.

The format is line-oriented and whitespace-insensitive within lines::

    # comment
    ring Z/4
    module rank=2 relations=[(2,0),(0,2)]
    submodule N gens=[(1,0)]
    element m = (0,2)

Ring descriptors are ``Z/n``, ``GF(q) poly=[c0,...,1]`` (ascending
coefficients, monic) and ``product(D1, D2, ...)``.  Scalars are canonical
integer encodings; over ``GF(p^k)`` a scalar may also be written as a
coefficient list ``[c0,c1,...]``.  Every list, here and in corpus specs, is
read by :meth:`_Cursor.items`.  Parse errors carry line and column.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .modules import (
    BoundExceededError,
    DEFAULT_ELEMENT_BOUND,
    ModuleElement,
    ModulePresentation,
    Submodule,
    presented_module,
    submodule_generate,
)
from .rings import FiniteRing, RingConstructionError, _prime_power, make_gf, make_product, make_zn


class ParseError(ValueError):
    """Malformed instance text, with 1-based line/column location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class InstanceFile(NamedTuple):
    """A parsed and constructed instance: ring, module, named declarations.

    ``relations`` are the relation vectors the module line gave.  The module
    is interned on the submodule they generate, and another list may have
    built it, so they are kept here and :func:`render_instance` prints them.
    """

    ring: FiniteRing
    module: ModulePresentation
    relations: tuple[tuple[int, ...], ...]
    submodules: dict[str, Submodule]
    elements: dict[str, ModuleElement]


class _Cursor:
    """Single-line character cursor with located errors."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.pos = 0

    def error(self, message: str, col: int | None = None):
        raise ParseError(message, self.line_no, (self.pos if col is None else col) + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    @property
    def eol(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            self.error(f"expected {token!r}")
        self.pos += len(token)

    def try_take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def items(self, item, open: str = "", close: str = "") -> list:
        """The one list rule, ``item {"," item}``: each ``item()`` reads one
        entry.  Between ``open`` and ``close`` the list may be empty."""
        if open:
            self.take(open)
            if self.try_take(close):
                return []
        out = [item()]
        while self.try_take(","):
            out.append(item())
        if close:
            self.take(close)
        return out


def _lines(text: str):
    """A cursor for each line that has content once its ``#`` comment is cut."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            yield _Cursor(line, line_no)


# -- ring descriptors ------------------------------------------------------------


def _parse_descriptor(cur: _Cursor, element_bound: int | None = None) -> FiniteRing:
    """Parse one ring descriptor and build the ring.  With ``element_bound``
    given, a ring larger than it is rejected before its tables are built."""

    def sized(size: int) -> int:
        if element_bound is not None and size > element_bound:
            raise BoundExceededError(f"tabulating the ring {cur.text[start:cur.pos]}",
                                     size, element_bound, "--element-bound")
        return size

    cur.skip_ws()
    start = cur.pos
    try:
        if cur.try_take("Z/"):
            return make_zn(sized(cur.integer()))
        if cur.try_take("GF("):
            q = cur.integer()
            cur.take(")")
            pk = _prime_power(q)
            if pk is None:
                cur.error(f"{q} is not a prime power", start)
            p, k = pk
            if cur.try_take("poly="):
                coeffs = cur.items(cur.integer, "[", "]")
            elif k == 1:
                coeffs = [0, 1]
            else:
                cur.error(f"GF({q}) needs an explicit poly=[...] reduction polynomial",
                          start)
            sized(q)
            return make_gf(p, k, coeffs)
        if cur.try_take("product("):
            factors = cur.items(lambda: _parse_descriptor(cur, element_bound))
            cur.take(")")
            sized(prod(f.size for f in factors))
            return make_product(factors)
    except RingConstructionError as exc:
        cur.error(str(exc), start)
    cur.error("unknown ring descriptor (expected Z/n, GF(q), or product(...))", start)


def parse_ring_descriptor(text: str) -> FiniteRing:
    """Parse a standalone ring descriptor string (used by corpus specs too)."""
    cur = _Cursor(text, 1)
    ring = _parse_descriptor(cur)
    if not cur.eol:
        cur.error("trailing text after ring descriptor")
    return ring


# -- vectors -----------------------------------------------------------------------


def _parse_scalar(cur: _Cursor, ring: FiniteRing) -> int:
    cur.skip_ws()
    start = cur.pos
    if cur.peek() == "[":
        coeffs = cur.items(cur.integer, "[", "]")
        p = getattr(ring, "char_p", None)
        k = getattr(ring, "degree_k", None)
        if p is None:
            cur.error("coefficient-list scalars are only defined over GF rings", start)
        if len(coeffs) > k:
            cur.error(f"coefficient list longer than field degree {k}", start)
        if any(not 0 <= c < p for c in coeffs):
            cur.error(f"coefficients must lie in 0..{p - 1}", start)
        code = 0
        for c in reversed(coeffs):
            code = code * p + c
        return code
    code = cur.integer()
    if not 0 <= code < ring.size:
        cur.error(f"scalar {code} out of range for {ring.descriptor} "
                  f"(valid encodings are 0..{ring.size - 1})", start)
    return code


def _parse_vector(cur: _Cursor, ring: FiniteRing, rank: int) -> tuple:
    cur.skip_ws()
    start = cur.pos
    comps = cur.items(lambda: _parse_scalar(cur, ring), "(", ")")
    if len(comps) != rank:
        cur.error(f"vector has {len(comps)} components, module rank is {rank}", start)
    return tuple(comps)


# -- instance files ----------------------------------------------------------------


def parse_instance(text: str,
                   element_bound: int = DEFAULT_ELEMENT_BOUND) -> InstanceFile:
    """Parse and build an instance file; malformed input raises :class:`ParseError`.

    A ring or module with more than ``element_bound`` elements raises
    :class:`BoundExceededError`; the ring's size is read from its descriptor,
    so an oversized ring is rejected before it is tabulated, even under a
    module of rank 0."""
    ring: FiniteRing | None = None
    module: ModulePresentation | None = None
    submodules: dict[str, Submodule] = {}
    elements: dict[str, ModuleElement] = {}

    for cur in _lines(text):
        cur.skip_ws()
        at = cur.pos   # declaration-level errors point at the keyword
        keyword = cur.word()
        if keyword == "ring":
            if ring is not None:
                cur.error("duplicate ring line", at)
            ring = _parse_descriptor(cur, element_bound)
        elif keyword == "module":
            if ring is None:
                cur.error("module line before ring line", at)
            if module is not None:
                cur.error("duplicate module line", at)
            cur.take("rank")
            cur.take("=")
            rank = cur.integer()
            cur.take("relations")
            cur.take("=")
            relations = tuple(cur.items(lambda: _parse_vector(cur, ring, rank), "[", "]"))
            module = presented_module(ring, rank, relations, element_bound)
        elif keyword in ("submodule", "element"):
            if module is None:
                cur.error(f"{keyword} line before module line", at)
            cur.skip_ws()
            name_col = cur.pos
            name = cur.word()
            if name in submodules or name in elements:
                cur.error(f"duplicate name {name!r}", name_col)
            if keyword == "submodule":
                cur.take("gens")
                cur.take("=")
                gens = cur.items(lambda: _parse_vector(cur, ring, module.rank), "[", "]")
                submodules[name] = submodule_generate(module, gens)
            else:
                cur.take("=")
                vec = _parse_vector(cur, ring, module.rank)
                elements[name] = module.element(vec)
        else:
            cur.error(f"unknown declaration {keyword!r} "
                      "(expected ring, module, submodule, or element)", at)
        if not cur.eol:
            cur.error("trailing text")

    end = len(text.splitlines()) + 1   # a missing line is missing after the last
    if ring is None:
        raise ParseError("missing ring line", end, 1)
    if module is None:
        raise ParseError("missing module line", end, 1)
    return InstanceFile(ring, module, relations, submodules, elements)


def format_vec(vec) -> str:
    return "(" + ",".join(map(str, vec)) + ")"


def format_vec_list(vecs) -> str:
    return "[" + ",".join(format_vec(v) for v in vecs) + "]"


def format_module(rank: int, relations) -> str:
    """The ``rank=... relations=[...]`` text of a module line."""
    return f"rank={rank} relations={format_vec_list(relations)}"


def render_instance(inst: InstanceFile) -> str:
    """Canonical text for an instance (inverse of :func:`parse_instance`)."""
    lines = [f"ring {inst.ring.descriptor}",
             f"module {format_module(inst.module.rank, inst.relations)}"]
    for name, sub in inst.submodules.items():
        lines.append(f"submodule {name} gens={format_vec_list(sub.generators)}")
    for name, el in inst.elements.items():
        lines.append(f"element {name} = {format_vec(el.rep)}")
    return "\n".join(lines) + "\n"
