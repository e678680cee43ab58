"""Primeness and semiprimeness predicates on submodules, with witnesses.

All quantifiers run as exhaustive scans over the finite carrier, so every
verdict is a decision; primeness is decided from the colon ideal (P:M) and
semiprimeness from Nil(R)*M instead, and each scans only for the witness of
a false verdict.  The literal scans, ``prime_by_scan`` and
``semiprime_by_scan``, stay as the harness's oracles.  A false verdict
carries a witness recording the violating elements together with the
intermediate sets that were computed; ``replays()`` re-derives everything
from the definitions and confirms the failure, which keeps reported
counterexamples honest.

Throughout, conditions on single elements are membership conditions: the
colon ideal (N : m) is {r : r*m in N}.  ``_qualifiers`` is the one scan for
m in (N:m)M, so a radical chain step's witnesses are the semiprime
witnesses of its predecessor.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .modules import (
    DEFAULT_LATTICE_BOUND,
    ModulePresentation,
    Submodule,
    colon_codes,
    colon_sets,
    enumerate_submodules,
    module_colon_codes,
    scaled_rows,
)
from .rings import Ideal, is_prime_ideal, nilpotent_radical_of_ideal, zero_ideal


class PredicateWitness(NamedTuple):
    """The data of one predicate violation.

    ``kind`` selects the definition being violated; ``r`` / ``m`` are the
    violating scalar code and element representative; the remaining fields
    freeze the intermediate sets (sorted member lists) that exhibit the
    failure for that kind.
    """

    kind: str
    submodule: Submodule
    r: Optional[int] = None
    m: Optional[tuple] = None
    colon_members: Optional[tuple] = None      # (N:m) codes
    product_members: Optional[tuple] = None    # (N:m)M representatives
    scaled_members: Optional[tuple] = None     # r*M representatives

    def replays(self) -> bool:
        """Recompute the violated definition from scratch; True iff it still fails."""
        N = self.submodule
        M = N.module
        ms = N.member_indices
        if self.kind == "semiprime":
            mi = M.index_of(self.m)
            colon = colon_codes(N, mi, scaled_rows(M))
            product = M.ideal_action(colon)
            return (tuple(sorted(colon)) == self.colon_members
                    and _reps(M, product) == self.product_members
                    and mi in product and mi not in ms)
        if self.kind == "prime":
            mi = M.index_of(self.m)
            rm = M.scale_i(self.r, mi)
            image = M.image_set(self.r)
            return (_reps(M, image) == self.scaled_members
                    and rm in ms and not image <= ms and mi not in ms)
        if self.kind == "dauns":
            mi = M.index_of(self.m)
            r2m = M.scale_i(self.r, M.scale_i(self.r, mi))
            rm = M.scale_i(self.r, mi)
            return r2m in ms and rm not in ms
        if self.kind == "cimpric":
            mi = M.index_of(self.m)
            coords = self.m
            return (all(M.scale_i(c, mi) in ms for c in coords)
                    and mi not in ms)
        raise ValueError(f"unknown witness kind {self.kind!r}")


def _reps(M: ModulePresentation, indices) -> tuple:
    els = M.elements
    return tuple(els[i] for i in sorted(indices))


class Verdict(NamedTuple):
    """A boolean predicate outcome plus the witness when it is false."""

    holds: bool
    witness: Optional[PredicateWitness] = None

    def __bool__(self) -> bool:
        return self.holds


def is_prime_submodule(P: Submodule) -> Verdict:
    """P proper and: r*m in P implies r*M <= P or m in P.

    The verdict is :func:`prime_by_colon`'s: over a finite commutative ring,
    a proper P is prime iff p = (P:M) is a prime ideal.

    (=>) p is proper, since 1*M <= P would make P all of M.  Let r*s lie in
    p with s outside it, and pick x with s*x outside P.  Then r*(s*x) lies
    in P, and primeness gives r*M <= P, so r lies in p.
    (<=) A prime ideal of a finite ring is maximal, so R/p is a field and
    M/P is a vector space over it.  Let r*m lie in P with r*M not inside P,
    that is r outside p.  Then r*s = 1 + a for some s and some a in p, so
    m = s*(r*m) - a*m lies in P.

    Only a false verdict scans, for its witness: scalars-major, the first
    (r, m) with r*m in P, m outside P and r*M not inside P.  Two kinds of r
    never violate and are skipped: those in p, where r*M <= P, and the
    units, since u*m in P forces m = u^-1*(u*m) in P.  So the witness is
    the first violator of the literal scan, :func:`prime_by_scan`.  A false
    decision whose scan finds no violator raises ``AssertionError``.
    """
    if prime_by_colon(P):
        return Verdict(True)
    if not P.is_proper:
        return Verdict(False)
    ring = P.module.ring
    colon = module_colon_codes(P)
    verdict = _prime_scan(P, (r for r in range(ring.size)
                              if r not in colon and ring.one not in ring._mul[r]))
    if verdict.holds:
        raise AssertionError(
            f"(P:M) = {sorted(colon)} is not prime, yet no scalar violates primeness")
    return verdict


def prime_by_colon(P: Submodule) -> bool:
    """P proper and (P:M) a prime ideal: the primeness decision, argued in
    :func:`is_prime_submodule`.  It scans no elements; whether a colon is a
    prime ideal is kept in the module's ``derived`` table."""
    return P.is_proper and P.module.derived[_colon_is_prime, module_colon_codes(P)]


def _colon_is_prime(M: ModulePresentation, codes: frozenset[int]) -> bool:
    return is_prime_ideal(Ideal(M.ring, codes))


def prime_by_scan(P: Submodule) -> Verdict:
    """The literal definition, every scalar scanned: the harness's oracle."""
    if not P.is_proper:
        return Verdict(False)
    return _prime_scan(P, range(P.module.ring.size))


def _prime_scan(P: Submodule, scalars) -> Verdict:
    """The first (r, m), over ``scalars`` in order and then elements in index
    order, with r*m in P, m outside P and r*M not inside P."""
    M = P.module
    ms = P.member_indices
    for r in scalars:
        row = M.scaled_row(r)
        for mi in range(M.element_count):
            if row[mi] in ms and mi not in ms:
                image = M.image_set(r)
                if image <= ms:
                    break   # r*M <= P, so no m violates with this r
                return Verdict(False, PredicateWitness(
                    kind="prime", submodule=P, r=r, m=M.elements[mi],
                    scaled_members=_reps(M, image)))
    return Verdict(True)


def is_semiprime_submodule(N: Submodule) -> Verdict:
    """m in (N:m)M implies m in N, for every element m.

    The verdict is :func:`semiprime_by_nil`'s: over a finite commutative
    ring, N is semiprime iff Nil(R)*M <= N.

    (=>) Let a be nilpotent and x in M, and let k be least with a^k*x in N;
    k exists, as some a^k is 0.  Were k >= 2, then m = a^(k-1)*x would have
    a in (N:m), so m = a*(a^(k-2)*x) would lie in (N:m)M and, N being
    semiprime, in N, against the choice of k.  So a*x lies in N.
    (<=) Nil(R) kills M/N, which is thus a module over R/Nil(R): a finite
    reduced ring, hence a finite product of fields, whose ideals are each
    generated by an idempotent.  Let m lie in I*M for I = (N:m), and let the
    image of I be generated by the image e of some i in I.  In M/N the image
    of I*M is e times that of M, which e fixes, so the image of m is e times
    itself: the image of i*m, which is 0 as i*m lies in N.  So m lies in N.

    Only a false verdict scans, for its witness: it is the literal scan's,
    :func:`semiprime_by_scan`, so the witness is the first element outside
    N with m in (N:m)M.  A false decision whose scan finds no such element
    raises ``AssertionError``.
    """
    if semiprime_by_nil(N):
        return Verdict(True)
    verdict = semiprime_by_scan(N)
    if verdict.holds:
        raise AssertionError(
            "Nil(R)M is not inside N, yet no element violates semiprimeness")
    return verdict


def semiprime_by_nil(N: Submodule) -> bool:
    """Nil(R)*M <= N: the semiprimeness decision, argued in
    :func:`is_semiprime_submodule`.  It scans no elements: Nil(R)*M is
    generated by the products a*e_j of the nilpotents a with the basis
    images, so it lies in N iff they do."""
    return nil_generators(N.module) <= N.member_indices


def nil_generators(M: ModulePresentation) -> frozenset[int]:
    """Indices of the products a*e_j of each nilpotent a with each basis
    image, kept in ``M.derived``.  They are closed under scalars, as r*a is
    nilpotent, so their additive span is the submodule Nil(R)*M."""
    return M.derived[_nil_generators, None]


def _nil_generators(M: ModulePresentation, _) -> frozenset[int]:
    nil = nilpotent_radical_of_ideal(zero_ideal(M.ring)).members
    return frozenset(M.scale_i(a, u) for a in nil for u in M.unit_indices)


def semiprime_by_scan(N: Submodule) -> Verdict:
    """The literal definition, every element scanned: the harness's oracle.

    Verdicts are kept in the module's ``derived`` table per member set; the
    corpus sweeps re-ask constantly.
    """
    return N.module.derived[_semiprime_verdict, N.member_indices]


def _semiprime_verdict(M: ModulePresentation, ms: frozenset[int]) -> Verdict:
    # the verdict belongs to the member set, so its witness's submodule is rebuilt
    for _, witness in _qualifiers(Submodule(M, ms, tuple(sorted(ms)))):
        return Verdict(False, witness)
    return Verdict(True)


def _qualifiers(N: Submodule) -> Iterator[tuple[int, PredicateWitness]]:
    """Yield (index, semiprime witness) for each m outside N with m in (N:m)M.

    Elements of N always qualify and never violate, so they are skipped.
    Items come in index order.  The colons come from ``colon_sets`` and
    (N:m)M is computed once per distinct colon; qualifiers with equal (N:m)M
    share one ``product_members`` tuple.
    """
    M = N.module
    ms = N.member_indices
    actions: dict[frozenset[int], frozenset[int]] = {}   # (N:m) -> (N:m)M
    products: dict[frozenset[int], tuple] = {}           # (N:m)M -> its representatives
    for mi, colon in enumerate(colon_sets(N)):
        if mi in ms:
            continue
        product = actions.get(colon)
        if product is None:
            product = actions[colon] = M.ideal_action(colon)
        if mi in product:
            members = products.get(product)
            if members is None:
                members = products[product] = _reps(M, product)
            yield mi, PredicateWitness(
                kind="semiprime", submodule=N, m=M.elements[mi],
                colon_members=tuple(sorted(colon)), product_members=members)


def is_dauns_semiprime(N: Submodule) -> Verdict:
    """r*r*m in N implies r*m in N, for all scalars r and elements m."""
    M = N.module
    ms = N.member_indices
    for r in range(M.ring.size):
        row = M.scaled_row(r)
        for mi in range(M.element_count):
            rm = row[mi]
            if row[rm] in ms and rm not in ms:
                return Verdict(False, PredicateWitness(
                    kind="dauns", submodule=N, r=r, m=M.elements[mi]))
    return Verdict(True)


def is_cimpric_semiprime(N: Submodule) -> Verdict:
    """On a free module: if every coordinate of m multiplies m into N, then m in N.

    Raises ``ValueError`` on a non-free presentation; the coordinate reading
    only makes sense when vectors are their own representatives.
    """
    M = N.module
    if not M.is_free:
        raise ValueError("coordinate semiprimeness is defined on free modules only")
    ms = N.member_indices
    rows = scaled_rows(M)
    for mi, vec in enumerate(M.elements):
        if mi in ms:
            continue
        if all(rows[c][mi] in ms for c in vec):
            return Verdict(False, PredicateWitness(
                kind="cimpric", submodule=N, m=vec))
    return Verdict(True)


class NotionRow(NamedTuple):
    """One line of a notion-comparison table."""

    submodule: Submodule
    prime: bool
    semiprime: bool
    dauns: bool
    cimpric: Optional[bool]           # None when the module is not free
    flags: tuple[str, ...]


def compare_notions(M: ModulePresentation,
                    lattice_bound: int = DEFAULT_LATTICE_BOUND) -> list[NotionRow]:
    """Evaluate all predicates on every submodule of ``M``.

    Rows that violate a certified theorem (prime implies semiprime; over a
    finite ring semiprime and the squares condition agree; on free modules
    semiprime and the coordinate condition agree) are flagged
    ``CONTRADICTS-THEOREM``.
    """
    rows = []
    for N in enumerate_submodules(M, lattice_bound):
        prime = prime_by_colon(N)
        semiprime = semiprime_by_nil(N)
        dauns = bool(is_dauns_semiprime(N))
        cimpric = bool(is_cimpric_semiprime(N)) if M.is_free else None
        contradicts = ((prime and not semiprime) or semiprime != dauns
                       or (cimpric is not None and semiprime != cimpric))
        flags = ("CONTRADICTS-THEOREM",) if contradicts else ()
        rows.append(NotionRow(N, prime, semiprime, dauns, cimpric, flags))
    return rows
