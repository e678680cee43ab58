"""Four radical computations for submodules, with traces.

``radical_by_iteration`` is the scalable path: it only scans elements, never
the submodule lattice, and records a step-by-step trace of the growing
chain.  ``radical_by_primes`` and ``smallest_semiprime_over`` realize the
definitional forms (intersection of primes above N; intersection of
semiprimes above N).  Both walk the lattice of M/N, whose submodules are
the images of those above N, and pull their result back to M; the lattice
bound gates |M| all the same.  ``radical_by_nil``
is the closed form N + Nil(R)*M over a finite ring, one closure.  On every
module the four must agree, which the harness and the acceptance suite
certify.  The first three do not rest on the closed form:
``smallest_semiprime_over`` tests semiprimeness by the literal scan, and
the iteration's chain steps come from scans, the closed form deciding only
where the chain stops, which the harness checks against the scan.  A chain
step's witnesses are the semiprime witnesses of its predecessor.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .modules import (
    DEFAULT_LATTICE_BOUND,
    ModulePresentation,
    Submodule,
    check_lattice_bound,
    enumerate_submodules,
    full_submodule,
    intersect,
    quotient_module,
    _grow,
    _lattice,
)
from .predicates import (
    PredicateWitness,
    _qualifiers,
    nil_generators,
    prime_by_colon,
    semiprime_by_nil,
    semiprime_by_scan,
)
from .rings import additive_closure


class RadicalStep(NamedTuple):
    """One link of the chain N = N0 <= N1 <= ... produced by the iteration:
    the step's submodule and the semiprime witnesses of its predecessor."""

    submodule: Submodule
    witnesses: tuple[PredicateWitness, ...]


class RadicalTrace(NamedTuple):
    """The full chain of one iterated-radical run.

    Step i (1-based) is the i-th chain member.  The steps end at the first
    one equal to its predecessor, so the last step always adds nothing and
    the fixpoint's index is ``len(steps)``.
    """

    steps: tuple[RadicalStep, ...]

    @property
    def fixpoint(self) -> Submodule:
        return self.steps[-1].submodule


def first_radical_step(N: Submodule) -> RadicalStep:
    """One chain step: the submodule generated by {m : m in (N:m)M}.

    Elements of N always qualify (their colon ideal is the whole ring), so
    the chain can only grow.  The witnesses are the semiprime witnesses of
    N, one per qualifying element outside N, in index order.  A member set
    that contains Nil(R)*M is semiprime (see
    :func:`~modradical.predicates.is_semiprime_submodule`), so it has no
    such element and is its own step, with no scan; otherwise the closure
    grows N, already a submodule, by the qualifiers.  Either way the
    generators are ``sorted(N ∪ qualifiers)``.
    """
    M = N.module
    ms = N.member_indices
    if semiprime_by_nil(N):
        return RadicalStep(Submodule(M, ms, tuple(sorted(ms))), ())
    qualifying = dict(_qualifiers(N))
    step = Submodule(M, frozenset(_grow(M, ms, qualifying)),
                     tuple(sorted(ms.union(qualifying))))
    return RadicalStep(step, tuple(qualifying.values()))


def first_radical(N: Submodule) -> Submodule:
    """The submodule generated by all m with m in (N:m)M."""
    return first_radical_step(N)[0]


def radical_by_iteration(N: Submodule) -> tuple[Submodule, RadicalTrace]:
    """Iterate the single-step radical until the member set stabilizes.

    Returns the fixpoint and the trace.  The loop stops at the first step
    that adds nothing, whose start contains Nil(R)*M or has no qualifier
    outside it; either way the fixpoint is semiprime, which is what makes it
    the radical.  So the fixpoint is decided by the closed form and never
    scanned.

    The loop ends: a step that does not end it has passed the shrink check
    and differs from its predecessor, so it is a strict superset.  The
    member count thus rises with every such step, from |N| to at most |M|,
    and there are at most |M| - |N| + 1 <= |M| steps.
    """
    steps = []
    current = N
    while True:
        nxt, witnesses = first_radical_step(current)
        if not current.member_indices <= nxt.member_indices:
            raise AssertionError(f"radical chain shrank at step {len(steps) + 1}")
        steps.append(RadicalStep(nxt, witnesses))
        if nxt.member_indices == current.member_indices:
            return nxt, RadicalTrace(tuple(steps))
        current = nxt


def radical_by_nil(N: Submodule) -> Submodule:
    """N + Nil(R)*M, the radical over a finite ring: it is semiprime, and
    every semiprime S above N contains it, as S contains Nil(R)*M (both by
    :func:`~modradical.predicates.is_semiprime_submodule`).  One additive
    closure of N with the generators of Nil(R)*M, whose span it is."""
    M = N.module
    gens = nil_generators(M)
    members = frozenset(additive_closure(N.member_indices, gens, M.add_row))
    return Submodule(M, members, N.generator_indices + tuple(sorted(gens - N.member_indices)))


def prime_submodules(M: ModulePresentation,
                     lattice_bound: int = DEFAULT_LATTICE_BOUND) -> tuple[Submodule, ...]:
    """All prime submodules of ``M``, in lattice order: the tuple ``M.derived`` keeps."""
    check_lattice_bound(M, lattice_bound)
    return M.derived[_prime_list, None]


def _prime_list(M: ModulePresentation, _) -> tuple[Submodule, ...]:
    return tuple(P for P in M.derived[_lattice, None] if prime_by_colon(P))


def radical_by_primes(N: Submodule,
                      lattice_bound: int = DEFAULT_LATTICE_BOUND) -> Submodule:
    """Intersection of every prime submodule containing N; M when none does.

    The primes above N are the preimages of the primes of M/N, so this is
    the preimage of the intersection of M/N's primes.  The bound gates |M|.
    """
    M = N.module
    check_lattice_bound(M, lattice_bound)
    q = quotient_module(M, N)
    primes = prime_submodules(q.module, lattice_bound)
    return q.backward_submodule(reduce(intersect, primes)) if primes else full_submodule(M)


def smallest_semiprime_over(N: Submodule,
                            lattice_bound: int = DEFAULT_LATTICE_BOUND) -> Submodule:
    """Intersection of every semiprime submodule containing N.

    The semiprimes above N are the preimages of the semiprimes of M/N
    (certified as PROP-QUOTIENT-CORRESPONDENCE), so this intersects those of
    M/N and returns the preimage; the bound gates |M|.  The family is never
    empty (the whole module is semiprime), and the intersection of
    semiprimes is itself semiprime, which is re-checked here, in M.
    Semiprimeness is the literal scan's, so this method does not rest on the
    closed form of :func:`radical_by_nil`.

    A set that contains the running intersection is not scanned, since
    intersecting with it changes nothing whatever its verdict.  The lattice
    comes in size order, so the one scan before the re-check that can hold is
    that of the least semiprime of M/N, and only when it is not all of M/N.
    """
    M = N.module
    check_lattice_bound(M, lattice_bound)
    q = quotient_module(M, N)
    out = full_submodule(q.module)
    for S in enumerate_submodules(q.module, lattice_bound):
        if not out.issubset(S) and semiprime_by_scan(S).holds:
            out = intersect(out, S)
    out = q.backward_submodule(out)
    if not semiprime_by_scan(out).holds:
        raise AssertionError(
            f"intersection {sorted(out.member_indices)} of semiprimes is not semiprime")
    return out
