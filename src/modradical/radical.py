"""Three independent radical computations for submodules, with traces.

``radical_by_iteration`` is the scalable path: it only scans elements, never
the submodule lattice, and records a step-by-step trace of the growing
chain.  ``radical_by_primes`` and ``smallest_semiprime_over`` realize the
definitional forms (intersection of primes above N; intersection of
semiprimes above N) and are gated by the lattice bound.  On every module the
three must agree, which the harness and the acceptance suite certify.  A
chain step's witnesses are the semiprime witnesses of its predecessor.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .modules import (
    DEFAULT_LATTICE_BOUND,
    ModulePresentation,
    Submodule,
    enumerate_submodules,
    full_submodule,
    intersect,
    _grow,
    _lattice,
)
from .predicates import (
    PredicateWitness,
    _qualifiers,
    _semiprime_verdict,
    is_semiprime_submodule,
    prime_by_colon,
)


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
    with a cached true semiprime verdict has no such element and is its own
    step; otherwise the closure grows N, already a submodule, by the
    qualifiers.  Either way the generators are ``sorted(N ∪ qualifiers)``.
    """
    M = N.module
    ms = N.member_indices
    known = M.derived.get((_semiprime_verdict, ms))
    if known is not None and known.holds:
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
    that adds nothing, whose start has no qualifier outside it; that empty
    scan (or a cached true verdict) is the semiprime verdict, so the
    fixpoint is semiprime, which is what makes it the radical.

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


def prime_submodules(M: ModulePresentation,
                     lattice_bound: int = DEFAULT_LATTICE_BOUND) -> list[Submodule]:
    """All prime submodules of ``M``, in lattice order (kept in ``M.derived``)."""
    enumerate_submodules(M, lattice_bound)  # checks the bound, warm or cold
    return list(M.derived[_prime_list, None])


def _prime_list(M: ModulePresentation, _) -> list[Submodule]:
    return [P for P in M.derived[_lattice, None] if prime_by_colon(P)]


def radical_by_primes(N: Submodule,
                      lattice_bound: int = DEFAULT_LATTICE_BOUND) -> Submodule:
    """Intersection of every prime submodule containing N; M when none does."""
    above = [P for P in prime_submodules(N.module, lattice_bound) if N.issubset(P)]
    return reduce(intersect, above) if above else full_submodule(N.module)


def smallest_semiprime_over(N: Submodule,
                            lattice_bound: int = DEFAULT_LATTICE_BOUND) -> Submodule:
    """Intersection of every semiprime submodule containing N.

    The family is never empty (the whole module is semiprime), and the
    intersection of semiprimes is itself semiprime, which is re-checked here.
    """
    M = N.module
    out = full_submodule(M)
    for S in enumerate_submodules(M, lattice_bound):
        if N.issubset(S) and is_semiprime_submodule(S).holds:
            out = intersect(out, S)
    if not is_semiprime_submodule(out).holds:
        raise AssertionError(
            f"intersection {sorted(out.member_indices)} of semiprimes is not semiprime")
    return out
