"""Seeded inputs for the benchmark workloads.

Each workload is a list of operations; an operation is one ``modradical``
command line plus the instance or spec text it reads.  Everything here is
plain Python with its own small ring arithmetic, so the inputs do not depend
on the library under test.

Submodules are seeded without changing the work they cause: a workload fixes
template submodules for each module and the seed picks a random automorphism
of the free module to move them.  Isomorphic submodules have the same size,
the same colon ideals and the same radical chain, so the seed changes where
the members sit in the element order, not how much there is to compute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` names its input file as ``{input}``."""

    op_id: str
    command: str
    argv: tuple[str, ...]
    input_name: str
    input_text: str
    golden: str | None = None          # tests/golden file the output must equal
    module_size: int = 0


# -- ring arithmetic on the library's element encodings ---------------------------


class Ring:
    """Codes 0..size-1 with the encodings ``modradical.rings`` uses.

    ``Z/n`` codes are residues; ``GF(2^k)`` codes are bit strings of
    polynomial coefficients; ``product(Z/a, Z/b, ...)`` codes are mixed-radix
    with the first factor least significant.
    """

    def __init__(self, descriptor: str, size: int, add, mul):
        self.descriptor = descriptor
        self.size = size
        self.add = add
        self.mul = mul
        one = next(e for e in range(size) if all(mul(e, x) == x for x in range(size)))
        self.units = [u for u in range(size) if any(mul(u, v) == one for v in range(size))]


def zn(n: int) -> Ring:
    return Ring(f"Z/{n}", n, lambda a, b: (a + b) % n, lambda a, b: a * b % n)


def gf2(k: int, poly: tuple[int, ...]) -> Ring:
    """GF(2^k) modulo the monic polynomial ``poly`` (ascending coefficients)."""
    modulus = sum(c << i for i, c in enumerate(poly))

    def mul(a: int, b: int) -> int:
        out = 0
        for i in range(k):
            if b >> i & 1:
                out ^= a << i
        for d in range(2 * k - 2, k - 1, -1):
            if out >> d & 1:
                out ^= modulus << (d - k)
        return out

    desc = f"GF({2 ** k}) poly=[{','.join(map(str, poly))}]"
    return Ring(desc, 2 ** k, lambda a, b: a ^ b, mul)


def product(*moduli: int) -> Ring:
    strides = [1]
    for n in moduli[:-1]:
        strides.append(strides[-1] * n)
    size = strides[-1] * moduli[-1]

    def split(c):
        return [c // s % n for s, n in zip(strides, moduli)]

    def join(parts):
        return sum(p * s for p, s in zip(parts, strides))

    def add(a, b):
        return join((x + y) % n for x, y, n in zip(split(a), split(b), moduli))

    def mul(a, b):
        return join(x * y % n for x, y, n in zip(split(a), split(b), moduli))

    desc = "product(" + ", ".join(f"Z/{n}" for n in moduli) + ")"
    return Ring(desc, size, add, mul)


def moved(ring: Ring, rank: int, gens, rng: random.Random) -> list[tuple]:
    """Images of ``gens`` under a seeded automorphism of ``ring^rank``.

    The automorphism is a product of elementary row operations, a
    coordinate permutation and unit rescalings, so it is invertible by
    construction.
    """
    vecs = [list(g) for g in gens]
    for _ in range(3 * rank if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        r = rng.randrange(ring.size)
        for v in vecs:
            v[i] = ring.add(v[i], ring.mul(r, v[j]))
    perm = list(range(rank))
    rng.shuffle(perm)
    scale = [rng.choice(ring.units) for _ in range(rank)]
    return [tuple(ring.mul(scale[i], v[perm[i]]) for i in range(rank)) for v in vecs]


def _vec_list(vecs) -> str:
    return "[" + ",".join("(" + ",".join(map(str, v)) + ")" for v in vecs) + "]"


def instance_text(ring: Ring, rank: int, **submodules) -> str:
    lines = [f"ring {ring.descriptor}", f"module rank={rank} relations=[]"]
    lines += [f"submodule {name} gens={_vec_list(gens)}" for name, gens in submodules.items()]
    return "\n".join(lines) + "\n"


def _unit_vec(rank: int, i: int, c: int) -> tuple:
    return tuple(c if j == i else 0 for j in range(rank))


def _diagonal(*coeffs: int) -> list[tuple]:
    """Generators c_i * e_i of the submodule sum of c_i R e_i."""
    return [_unit_vec(len(coeffs), i, c) for i, c in enumerate(coeffs) if c]


# -- the workloads ---------------------------------------------------------------

# The default corpus plus the seeded ``random`` relation strategy.
CORPUS_SPEC = """\
rings Z/2, Z/3, Z/4, Z/5, Z/6, Z/8, Z/9, Z/12, GF(4) poly=[1,1,1], product(Z/2, Z/4)
max_rank 2
strategies free, cyclic, random
element_bound 64
lattice_bound 256
seed {seed}
"""

# The three documented commands whose output tests/golden pins byte for byte:
# (command, n of Z/n, rank, generators of N, golden file).
GOLDEN_OPS = {
    "golden-radical-trace-z4sq": ("radical-trace", 4, 2, [(2, 0)],
                                  "radical_trace_z4sq.structured"),
    "golden-check-semiprime-z6": ("check-semiprime", 6, 1, [],
                                  "check_semiprime_z6_zero.structured"),
    "golden-radical-z4": ("radical", 4, 1, [], "radical_z4_zero.structured"),
}


def _golden(op_id: str) -> Op:
    command, n, rank, gens, golden = GOLDEN_OPS[op_id]
    ring = zn(n)
    return _instance_op(op_id, command, instance_text(ring, rank, N=gens),
                        ring.size ** rank, golden=golden)


def _instance_op(op_id, command, text, size, golden=None, name="N") -> Op:
    argv = (command, "{input}") + ((name,) if name else ())
    return Op(op_id, command, argv + ("--format", "structured"),
              f"{op_id}.instance", text, golden, size)


def verify_corpus(seed: int) -> list[Op]:
    return [Op("verify", "verify",
               ("verify", "--spec", "{input}", "--format", "structured"),
               "corpus.spec", CORPUS_SPEC.format(seed=seed))]


# Modules of scan-large with two template submodules, both moved by one
# seeded automorphism.  N is not semiprime, so its radical chain has steps and
# the cheap checks end at a witness.  S is semiprime (M/S is a module over a
# reduced ring), so check-semiprime scans every element: a false verdict stops
# at a witness whose position, and so the op's cost, depends on the seed.
SCAN_MODULES = (
    ("z8r4", zn(8), 4, _diagonal(2, 0, 0, 0), _diagonal(1, 2, 2, 2)),
    ("z12r3", zn(12), 3, _diagonal(3, 2, 0), _diagonal(6, 2, 3)),
    ("z4r5", zn(4), 5, [], _diagonal(1, 2, 2, 2, 2)),
    ("z2z4r4", product(2, 4), 4, _diagonal(3, 0, 0, 0), _diagonal(3, 4, 4, 4)),
)


def scan_large(seed: int) -> list[Op]:
    rng = random.Random(f"scan-large|{seed}")
    ops = []
    for name, ring, rank, n_gens, s_gens in SCAN_MODULES:
        gens = moved(ring, rank, n_gens + s_gens, rng)
        text = instance_text(ring, rank, N=gens[:len(n_gens)])
        size = ring.size ** rank
        ops.append(_instance_op(f"radical-trace-{name}", "radical-trace", text, size))
        ops.append(_instance_op(f"check-semiprime-{name}", "check-semiprime",
                                instance_text(ring, rank, S=gens[len(n_gens):]), size,
                                name="S"))
        for command in ("check-prime", "check-dauns", "check-cimpric"):
            ops.append(_instance_op(f"{command}-{name}", command, text, size))
    z16 = zn(16)
    gens = moved(z16, 4, [_unit_vec(4, 0, 4)], rng)
    ops.append(_instance_op("check-prime-z16r4", "check-prime",
                            instance_text(z16, 4, N=gens), 16 ** 4))
    ops.append(_golden("golden-radical-trace-z4sq"))
    ops.append(_golden("golden-check-semiprime-z6"))
    return ops


# Modules of lattice-full whose ``radical`` runs on a moved template.
RADICAL_MODULES = (
    ("z4r4", zn(4), 4, [_unit_vec(4, 0, 2)]),
    ("gf4r4", gf2(2, (1, 1, 1)), 4, [_unit_vec(4, 0, 1)]),
    ("z6r3", zn(6), 3, [_unit_vec(3, 0, 2)]),
    ("z2z8r2", product(2, 8), 2, [_unit_vec(2, 0, 4)]),
)

LISTING_MODULES = (
    ("primes", "z3r5", zn(3), 5),
    ("primes", "z2r6", zn(2), 6),
    ("compare", "z16r2", zn(16), 2),
)


def lattice_full(seed: int) -> list[Op]:
    rng = random.Random(f"lattice-full|{seed}")
    ops = []
    for name, ring, rank, template in RADICAL_MODULES:
        gens = moved(ring, rank, template, rng)
        ops.append(_instance_op(f"radical-{name}", "radical",
                                instance_text(ring, rank, N=gens), ring.size ** rank))
    for command, name, ring, rank in LISTING_MODULES:
        ops.append(_instance_op(f"{command}-{name}", command, instance_text(ring, rank),
                                ring.size ** rank, name=None))
    ops.append(_golden("golden-radical-z4"))
    return ops


WORKLOADS = {
    "verify-corpus": verify_corpus,
    "scan-large": scan_large,
    "lattice-full": lattice_full,
}
