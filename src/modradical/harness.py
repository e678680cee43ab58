"""Corpus generation and exhaustive certification of the structure claims.

``expand_corpus`` deterministically turns a :class:`CorpusSpec` into a list
of (module, submodules) instances; ``verify_all`` then checks every claim on
every applicable instance and reports per-claim tallies.  Failures are data,
not errors: a counterexample is serialized as instance-file text so it can
be rebuilt and re-checked (:meth:`Finding.replay`) long after the run.
"""

from __future__ import annotations

import random
import time
from types import SimpleNamespace
from typing import NamedTuple

from .instance import (
    InstanceFile,
    ParseError,
    _Cursor,
    _lines,
    _parse_descriptor,
    format_module,
    format_vec,
    format_vec_list,
    parse_instance,
    render_instance,
)
from .modules import (
    BoundExceededError,
    DEFAULT_ELEMENT_BOUND,
    DEFAULT_LATTICE_BOUND,
    ModulePresentation,
    Submodule,
    colon_ideal,
    colon_sets,
    enumerate_submodules,
    intersect,
    presented_module,
    quotient_module,
    submodule_generate,
    zero_submodule,
    full_submodule,
)
from .predicates import (
    is_cimpric_semiprime,
    is_dauns_semiprime,
    is_prime_submodule,
    is_semiprime_submodule,
    prime_by_scan,
    semiprime_by_nil,
    semiprime_by_scan,
)
from .radical import (
    radical_by_iteration,
    radical_by_nil,
    radical_by_primes,
    smallest_semiprime_over,
)
from .rings import is_semiprime_ideal


class CorpusSpec(NamedTuple):
    """Deterministic recipe for an instance corpus.

    ``rings`` hold descriptor strings; ``relation_strategies`` are a subset
    of {"free", "cyclic", "random"}; ``element_bound`` caps the size of
    modules admitted to the corpus; modules at most ``lattice_bound`` large
    get their full submodule lattice, larger ones a seeded random sample.

    A second bound is fixed: ranks with ``|R|^rank > DEFAULT_ELEMENT_BOUND``
    are skipped before any module is built, whatever ``element_bound`` says;
    the expansion stops at the first of them.
    """

    rings: tuple[str, ...]
    max_rank: int = 2
    relation_strategies: tuple[str, ...] = ("free", "cyclic")
    element_bound: int = 64
    lattice_bound: int = 256
    seed: int = 0
    relation_samples: int = 4
    submodule_samples: int = 8


DEFAULT_CORPUS_SPEC = CorpusSpec(
    rings=("Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "Z/8", "Z/9", "Z/12",
           "GF(4) poly=[1,1,1]", "product(Z/2, Z/4)"),
)


class Instance(NamedTuple):
    """One corpus entry: a module, the submodules selected for it and the
    relations the spec requested, which its id and findings print."""

    instance_id: str
    module: ModulePresentation
    submodules: tuple[Submodule, ...]
    lattice_complete: bool
    relations: tuple[tuple[int, ...], ...]


def expand_corpus(spec: CorpusSpec) -> list[Instance]:
    """Deterministic instance list for ``spec`` (same spec, same list)."""
    instances: list[Instance] = []
    seen: set = set()
    for desc in spec.rings:
        cur = _Cursor(desc, 1)
        ring = _corpus_ring(cur)
        if not cur.eol:
            cur.error("trailing text after ring descriptor")
        for rank in range(1, spec.max_rank + 1):
            if ring.size ** rank > DEFAULT_ELEMENT_BOUND:
                break   # and so is every larger rank
            for strategy in ("free", "cyclic", "random"):
                if strategy not in spec.relation_strategies:
                    continue
                for rels in _relation_lists(spec, ring, rank, strategy):
                    # K is spanned by len(rels) vectors, so |K| <= |R|^len(rels)
                    # and |M| = |R|^rank / |K| >= |R|^(rank - len(rels))
                    if ring.size ** (rank - len(rels)) > spec.element_bound:
                        continue
                    module = presented_module(ring, rank, rels)
                    if module.element_count > spec.element_bound:
                        continue
                    if module in seen:
                        continue
                    seen.add(module)
                    instance_id = f"{ring.descriptor} {format_module(rank, rels)}"
                    subs, complete = _select_submodules(spec, module, instance_id)
                    instances.append(Instance(instance_id, module, subs, complete, rels))
    return instances


def _relation_lists(spec: CorpusSpec, ring, rank: int, strategy: str):
    from itertools import product as cartesian
    if strategy == "free":
        yield ()
    elif strategy == "cyclic":
        for vec in cartesian(range(ring.size), repeat=rank):
            yield (vec,)
    else:
        rng = random.Random(f"{spec.seed}|{ring.descriptor}|{rank}|relations")
        for _ in range(spec.relation_samples):
            count = rng.randint(1, max(1, rank))
            yield tuple(tuple(rng.randrange(ring.size) for _ in range(rank))
                        for _ in range(count))


def _select_submodules(spec: CorpusSpec, module: ModulePresentation,
                       instance_id: str) -> tuple[tuple[Submodule, ...], bool]:
    if module.element_count <= spec.lattice_bound:
        return enumerate_submodules(module, spec.lattice_bound), True
    rng = random.Random(f"{spec.seed}|{instance_id}|submodules")
    found = {zero_submodule(module), full_submodule(module)}
    for _ in range(spec.submodule_samples):
        count = rng.randint(1, 3)
        gens = [module.elements[rng.randrange(module.element_count)]
                for _ in range(count)]
        found.add(submodule_generate(module, gens))
    ordered = sorted(found, key=lambda N: (N.size, sorted(N.member_indices)))
    return tuple(ordered), False


# -- findings ----------------------------------------------------------------------


class Finding(NamedTuple):
    """A failed check, serialized so it can be rebuilt and re-run."""

    claim_id: str
    instance_text: str
    detail: str

    def replay(self) -> bool:
        """Rebuild the instance from its serialized text and re-run the check.

        True iff the check still fails, i.e. the finding reproduces.  The
        checker is looked up in ``CLAIMS`` and then ``SEPARATIONS``.
        """
        inst = parse_instance(self.instance_text)
        for (cid, _, _), check in (*CLAIMS.items(), *SEPARATIONS.items()):
            if cid == self.claim_id:
                bound = max(DEFAULT_LATTICE_BOUND, inst.module.element_count)
                return check(inst.module, inst.submodules, bound, ()) is not None
        raise ValueError(f"unknown claim id {self.claim_id!r}")


def _serialize(inst: Instance, subs: dict[str, Submodule]) -> str:
    return render_instance(InstanceFile(inst.module.ring, inst.module, inst.relations, subs, {}))


# -- per-claim unit checks -----------------------------------------------------------
#
# Each checker takes the module, the named submodules of one unit, the lattice
# bound (None when the instance's lattice was sampled, not enumerated) and the
# instance's selected submodules, and returns a failure description or None.
# ``verify_all`` and ``find_separation`` run them through ``_certify``, and
# ``Finding.replay`` looks them up in ``CLAIMS`` and ``SEPARATIONS``.


def _check_prime_implies_sp(module, subs, *_):
    """Prime implies semiprime, and the primeness verdict, decided from
    (N:M), equals the literal scan's, witness included."""
    N = subs["N"]
    verdict = is_prime_submodule(N)
    if verdict.holds and not semiprime_by_scan(N).holds:
        return "prime submodule is not semiprime"
    if verdict != prime_by_scan(N):
        return "primeness verdict differs from the literal scan"
    return None


def _check_colon_semiprime(module, subs, *_):
    """N semiprime <=> every (N:m) semiprime <=> r*r*m in N implies r*m in N.

    The last two agree over any ring, as r*r lies in (N:m) exactly when
    r*r*m lies in N, and semiprime implies the squares condition over any
    ring.  Over a finite ring the converse holds.  R is then a product of
    local rings R_i = e_i R with nilpotent maximal ideals p_i, and N is the
    direct sum of its parts e_i N.  Under the squares condition, r in p_i
    with r^(2^j) = 0 puts r*m in N after j steps, so e_i N contains
    p_i e_i M.  Each i with e_i N != e_i M gives the proper submodule N_i
    (e_i N in factor i, e_k M in every other), which contains P*M for the
    maximal ideal P (p_i in factor i, R_k in every other) and so is prime.
    N is the intersection of these N_i (or N = M), so it is radical and
    hence semiprime.  On semiprime N the colons are read column-wise by
    ``colon_sets``, and each distinct one is rebuilt by the literal
    ``colon_ideal`` at its first element, checked against the column and
    checked semiprime; a failure names that first element.
    """
    N = subs["N"]
    semiprime = semiprime_by_scan(N).holds
    if semiprime != is_dauns_semiprime(N).holds:
        return ("semiprime submodule fails the squares condition" if semiprime
                else "squares condition holds but the submodule is not semiprime")
    if semiprime:
        checked: set[frozenset[int]] = set()
        for i, colon in enumerate(colon_sets(N)):
            if colon in checked:
                continue
            checked.add(colon)
            ideal = colon_ideal(N, i)
            if ideal.members != colon:
                return (f"colon ideal at {format_vec(module.elements[i])} is "
                        f"{sorted(ideal.members)} but its column reads {sorted(colon)}")
            if not is_semiprime_ideal(ideal):
                return f"colon ideal at {format_vec(module.elements[i])} is not semiprime"
    return None


def _check_free_equiv(module, subs, *_):
    if not module.is_free:
        return None
    N = subs["N"]
    if semiprime_by_scan(N).holds != is_cimpric_semiprime(N).holds:
        return "semiprime and coordinate conditions disagree on a free module"
    return None


def _check_intersection(module, subs, *_):
    N1, N2 = subs["N1"], subs["N2"]
    if not (semiprime_by_scan(N1).holds and semiprime_by_scan(N2).holds):
        return None
    if not semiprime_by_scan(intersect(N1, N2)).holds:
        return "intersection of two semiprime submodules is not semiprime"
    return None


def _check_iteration(module, subs, *_):
    """The radical chain of N grows, replays and ends at rad(N) = N + Nil(R)M.

    First the closed-form semiprime decision, Nil(R)M <= N, must agree with
    the literal scan, its boolean before the verdict and witness, so that a
    wrong decision either way is a finding and not the library's error.
    The chain grows by construction: ``radical_by_iteration`` raises on a
    step that shrinks, so no chain it returns does.  Every witness must
    replay; the fixpoint must be semiprime and equal ``radical_by_nil``,
    which THM-RADICAL-EQ-SEMIPRIME ties to the intersection of the primes
    P above N.  The chain only grows, so its first step lies in every such
    P.  No lattice is read, so sampled units get the same checks.
    """
    N = subs["N"]
    literal = semiprime_by_scan(N)
    if semiprime_by_nil(N) != literal.holds:
        return "semiprime decision from Nil(R)M differs from the literal scan"
    if is_semiprime_submodule(N) != literal:
        return "semiprime verdict differs from the literal scan"
    fixpoint, trace = radical_by_iteration(N)
    prev = N
    for k, step in enumerate(trace.steps, start=1):
        for w in step.witnesses:
            if not (w.submodule == prev and w.replays()):
                return f"step {k} witness {format_vec(w.m)} does not replay"
        prev = step.submodule
    if not semiprime_by_scan(fixpoint).holds:
        return "iteration fixpoint is not semiprime"
    by_nil = radical_by_nil(N)
    if fixpoint.member_indices != by_nil.member_indices:
        return ("iterated radical differs from N + Nil(R)M: "
                f"{format_vec_list(fixpoint.members)} vs "
                f"{format_vec_list(by_nil.members)}")
    return None


def _check_radical_eq(module, subs, lattice_bound, *_):
    """The intersection of the primes above N equals the smallest semiprime
    above N and N + Nil(R)M, and a proper N is semiprime exactly when it is
    its own radical.  With THM-ITERATION, every complete unit ties all four
    radical methods.  Both lattice methods walk the lattice of M/N, which M
    keeps, and pull back to M; the bound gates |M| all the same.
    """
    N = subs["N"]
    by_primes = radical_by_primes(N, lattice_bound)
    smallest = smallest_semiprime_over(N, lattice_bound)
    if by_primes.member_indices != smallest.member_indices:
        return ("radical differs from the smallest semiprime overmodule: "
                f"{format_vec_list(by_primes.members)} vs "
                f"{format_vec_list(smallest.members)}")
    by_nil = radical_by_nil(N)
    if by_primes.member_indices != by_nil.member_indices:
        return ("intersection of primes differs from N + Nil(R)M: "
                f"{format_vec_list(by_primes.members)} vs "
                f"{format_vec_list(by_nil.members)}")
    if N.is_proper:
        fixed = by_primes.member_indices == N.member_indices
        if semiprime_by_scan(N).holds != fixed:
            return "semiprime does not coincide with being a radical submodule"
    return None


def _check_quotient(module, subs, lattice_bound, available):
    """The semiprime N above M' correspond to the semiprime Nq of M/M'.

    One walk over A, the N above M' (in the lattice, else among the selected
    submodules), checks that N and f(N) agree on semiprimeness and that
    b(f(N)) = N, for the forward and backward maps f and b.  With the lattice
    enumerated, the images must then be exactly Q, the quotient's lattice.
    So f is injective on A and onto Q, a bijection A -> Q; b is its inverse,
    as each Nq = f(N) has f(b(Nq)) = f(N) = Nq; and f preserves
    semiprimeness, so it maps the semiprime N onto the semiprime Nq.
    """
    mp = subs["MP"]
    q = quotient_module(module, mp)
    candidates = (available if lattice_bound is None
                  else enumerate_submodules(module, lattice_bound))
    images = set()
    for N in candidates:
        if not mp.issubset(N):
            continue
        image = q.forward_submodule(N)
        if semiprime_by_scan(N).holds != semiprime_by_scan(image).holds:
            return (f"semiprimeness not preserved for {format_vec_list(N.members)} "
                    "under the quotient map")
        if q.backward_submodule(image).member_indices != N.member_indices:
            return f"backward(forward(N)) != N for {format_vec_list(N.members)}"
        images.add(image.member_indices)
    if lattice_bound is not None:
        lattice = {Nq.member_indices for Nq in enumerate_submodules(q.module, lattice_bound)}
        if images != lattice:
            return ("submodules above the kernel do not map onto the quotient's: "
                    f"{len(images)} images vs {len(lattice)}")
    return None


def _check_sep_semiprime_not_prime(module, subs, *_):
    N = subs["N"]
    if not N.is_proper:
        return None
    if semiprime_by_scan(N).holds and not is_prime_submodule(N).holds:
        return "semiprime but not prime"
    return None


# (claim id, unit shape, needs the full lattice) -> checker.  A unit is one
# set of named submodules of an instance: "N" is each selected submodule,
# "free N" the same on free modules only, "N1,N2" each pair of semiprime
# ones, "MP" each one taken as the kernel of a quotient.  A claim that needs
# the full lattice is skipped, unit by unit, on instances whose lattice was
# sampled.  ``CLAIM_IDS`` lists the keys' claim ids; the manifest test pins it.
CLAIMS = {
    ("PROP-COLON-SEMIPRIME", "N", False): _check_colon_semiprime,
    ("PROP-FREE-EQUIV", "free N", False): _check_free_equiv,
    ("PROP-INTERSECTION", "N1,N2", False): _check_intersection,
    ("PROP-PRIME-IMPLIES-SP", "N", False): _check_prime_implies_sp,
    ("PROP-QUOTIENT-CORRESPONDENCE", "MP", False): _check_quotient,
    ("THM-ITERATION", "N", False): _check_iteration,
    ("THM-RADICAL-EQ-SEMIPRIME", "N", True): _check_radical_eq,
}
CLAIM_IDS = tuple(cid for cid, _, _ in CLAIMS)

# Separations, keyed like ``CLAIMS``: ``find_separation`` looks for them.  A
# "failure" is an observation that two notions differ, not a counterexample.
SEPARATIONS = {
    ("SEP-SEMIPRIME-NOT-PRIME", "N", False): _check_sep_semiprime_not_prime,
}


def _units(shape: str, module, subs) -> list[dict[str, Submodule]]:
    if shape == "MP":
        return [{"MP": mp} for mp in subs]
    if shape == "N1,N2":
        semis = [N for N in subs if semiprime_by_scan(N).holds]
        return [{"N1": N1, "N2": N2}
                for i, N1 in enumerate(semis) for N2 in semis[i + 1:]]
    if shape == "free N" and not module.is_free:
        return []
    return [{"N": N} for N in subs]


# -- the certification run ------------------------------------------------------------


class ClaimResult(SimpleNamespace):
    """One claim's tallies and findings, which ``_certify`` counts up in place."""

    def __init__(self, claim_id: str, checked=0, passed=0, failed=0, skipped=0, findings=None):
        super().__init__(claim_id=claim_id, checked=checked, passed=passed, failed=failed,
                         skipped=skipped, findings=[] if findings is None else findings)


class VerificationReport(NamedTuple):
    spec: CorpusSpec
    instances: int
    submodules: int
    claims: tuple[ClaimResult, ...]
    wall_time: float

    @property
    def ok(self) -> bool:
        return all(c.failed == 0 for c in self.claims)

    @property
    def findings(self) -> tuple[Finding, ...]:
        return tuple(f for c in self.claims for f in c.findings)


def verify_all(spec: CorpusSpec) -> VerificationReport:
    """Check every claim on every applicable corpus instance.

    Lattice-dependent checks are skipped (and counted as such) on instances
    whose module exceeds the lattice bound; everything else still runs on
    the sampled submodules.
    """
    t0 = time.perf_counter()
    corpus, claims = _certify(spec, CLAIMS)
    return VerificationReport(spec, len(corpus), sum(len(i.submodules) for i in corpus),
                              claims, time.perf_counter() - t0)


def _certify(spec: CorpusSpec, table: dict) -> tuple[list[Instance], tuple[ClaimResult, ...]]:
    """Run every checker of ``table`` on its units of each instance of ``spec``'s
    corpus, and tally each key's results, in the table's order."""
    corpus = expand_corpus(spec)
    tallies = tuple(ClaimResult(cid) for cid, _, _ in table)
    for inst in corpus:
        module = inst.module
        subs = inst.submodules
        bound = spec.lattice_bound if inst.lattice_complete else None
        for tally, ((cid, shape, needs_lattice), check) in zip(tallies, table.items()):
            units = _units(shape, module, subs)
            if needs_lattice and bound is None:
                tally.skipped += len(units)
                continue
            for named in units:
                detail = check(module, named, bound, subs)
                tally.checked += 1
                if detail is None:
                    tally.passed += 1
                else:
                    tally.failed += 1
                    tally.findings.append(Finding(cid, _serialize(inst, named), detail))
    return corpus, tallies


def parse_corpus_spec(text: str) -> CorpusSpec:
    """Parse a corpus spec file: one ``key value`` pair per line, the key
    ending at the first space or tab.

    Keys: ``rings`` (comma-separated descriptors), ``max_rank``,
    ``strategies`` (comma-separated), ``element_bound``, ``lattice_bound``,
    ``seed``, ``relation_samples``, ``submodule_samples``.  Missing keys take
    the defaults of :class:`CorpusSpec`; ``#`` starts a comment.  The two
    lists follow the instance files' list rule, so an empty entry is
    rejected.  A value below its least (in ``int_keys``) is rejected, and so
    is an empty ``rings`` or ``strategies`` list: either would admit no
    module and pass every claim vacuously.  Each entry is checked on the
    line that gives it, and a key given twice is rejected on its second line.
    """
    values: dict = {}
    given: dict[str, int] = {}  # key: line that gave it
    int_keys = {"max_rank": 1, "element_bound": 1, "lattice_bound": 0, "seed": None,
                "relation_samples": 0, "submodule_samples": 0}  # key: least value
    try:
        for cur in _lines(text):
            cur.skip_ws()
            key = cur.text[cur.pos:].replace("\t", " ").partition(" ")[0]
            cur.pos += len(key)
            if key in ("rings", "strategies"):
                if cur.eol:
                    cur.error(f"{key} lists nothing, so no module is admitted")
                if key == "rings":
                    values["rings"] = tuple(cur.items(lambda: _ring_text(cur)))
                else:
                    values["relation_strategies"] = tuple(cur.items(lambda: _strategy(cur)))
                if not cur.eol:
                    cur.error("trailing text after ring descriptor" if key == "rings"
                              else "trailing text")
            elif key in int_keys:
                rest = cur.text[cur.pos:].strip()
                try:
                    values[key] = int(rest)
                except ValueError:
                    cur.error(f"{key} needs an integer, got {rest!r}")
                if int_keys[key] is not None and values[key] < int_keys[key]:
                    cur.error(f"{key} must be at least {int_keys[key]}, got {values[key]}")
            else:
                cur.error(f"unknown key {key!r}")
            if key in given:
                cur.error(f"{key} was already given on line {given[key]}")
            given[key] = cur.line_no
    except ParseError as exc:
        raise ValueError(f"corpus spec line {exc.line}: {exc.message}") from None
    if "rings" not in values:
        raise ValueError("corpus spec must declare a 'rings' line")
    return CorpusSpec(**values)


def _ring_text(cur) -> str:
    """Parse one ring descriptor and return its text, as ``CorpusSpec`` keeps it."""
    cur.skip_ws()
    start = cur.pos
    _corpus_ring(cur)
    return cur.text[start:cur.pos]


def _corpus_ring(cur):
    """Parse one ring descriptor of a corpus spec and build the ring.
    ``expand_corpus`` admits no module over a ring past ``DEFAULT_ELEMENT_BOUND``,
    at any rank, so such a ring is rejected before it is tabulated."""
    cur.skip_ws()
    start = cur.pos
    try:
        return _parse_descriptor(cur, DEFAULT_ELEMENT_BOUND)
    except BoundExceededError as exc:
        cur.error(f"{exc.what} needs {exc.needed} elements, but no corpus module "
                  f"may have more than {exc.bound}", start)


def _strategy(cur) -> str:
    name = cur.word()
    if name not in ("free", "cyclic", "random"):
        cur.error(f"unknown relation strategy {name!r}")
    return name


def find_separation(spec: CorpusSpec) -> list[Finding]:
    """Every proper corpus submodule that is semiprime but not prime.

    These are observations, not counterexamples: nothing certified claims
    the converse of PROP-PRIME-IMPLIES-SP.  Over a local ring a proper
    semiprime N contains pM for the maximal ideal p, so it is prime; only
    non-local rings separate.
    """
    _, tallies = _certify(spec, SEPARATIONS)
    return [f for tally in tallies for f in tally.findings]
