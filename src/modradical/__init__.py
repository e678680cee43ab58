"""Semiprime submodules and radicals over finite commutative rings.

Exact, fully enumerative algebra on explicit finite rings and finitely
presented modules: primeness/semiprimeness predicates with replayable
witnesses, four radical computations (three independent ones and the
closed form N + Nil(R)M), and a verification harness that certifies the
underlying structure theorems over instance corpora.
"""

from .rings import (
    FiniteRing,
    Ideal,
    RingConstructionError,
    RingElement,
    enumerate_ideals,
    ideal_generate,
    is_prime_ideal,
    is_semiprime_ideal,
    make_gf,
    make_product,
    make_zn,
    nilpotent_radical_of_ideal,
    unit_ideal,
    zero_ideal,
)
from .modules import (
    BoundExceededError,
    ModuleElement,
    ModulePresentation,
    Quotient,
    Submodule,
    colon_ideal,
    colon_module,
    contains,
    enumerate_submodules,
    free_module,
    full_submodule,
    ideal_times_module,
    intersect,
    join,
    presented_module,
    quotient_module,
    submodule_generate,
    zero_submodule,
)
from .predicates import (
    NotionRow,
    PredicateWitness,
    Verdict,
    compare_notions,
    is_cimpric_semiprime,
    is_dauns_semiprime,
    is_prime_submodule,
    is_semiprime_submodule,
)
from .radical import (
    RadicalStep,
    RadicalTrace,
    first_radical,
    prime_submodules,
    radical_by_iteration,
    radical_by_nil,
    radical_by_primes,
    smallest_semiprime_over,
)
from .harness import (
    CLAIM_IDS,
    CorpusSpec,
    DEFAULT_CORPUS_SPEC,
    Finding,
    Instance,
    VerificationReport,
    expand_corpus,
    find_separation,
    parse_corpus_spec,
    verify_all,
)
from .instance import (
    InstanceFile,
    ParseError,
    parse_instance,
    parse_ring_descriptor,
    render_instance,
)

# every public name imported above is exported; the submodules the imports bind are not
from types import ModuleType as _ModuleType

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
