"""Seeded inputs for the benchmark workloads.

Every operation is one `ckcoh` CLI invocation: an argv list plus what the
checker needs to judge its payload without the library.  Operations come in
rounds; a round holds one operation of every input class of the workload, so
a run that measures whole rounds has the same mix of classes on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

FAMILIES = ("su", "u")


@dataclass(frozen=True)
class Op:
    argv: tuple
    family: str
    omega: tuple = ()  # h2 operations: the generated omega entries
    n_range: tuple = ()  # sweep operations: (lo, hi)

    @property
    def algebras(self) -> int:
        """Algebras the operation verifies: one per h2 call, 3^N per swept N."""
        if self.n_range:
            lo, hi = self.n_range
            return sum(3**n for n in range(lo, hi + 1))
        return 1

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: `h2` calls on N-entry omegas, or a sweep.

    `zero_counts` lists the number of zero omega entries of each input class
    (0 is the generic class); `sweep` is the N range of a sweep workload.
    """

    name: str
    n: int = 0
    zero_counts: tuple = ()
    sweep: tuple = ()

    def rounds(self, seed: int, count: int) -> list:
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for _ in range(count):
            if self.sweep:
                order = list(FAMILIES)
                rng.shuffle(order)
                out.append([sweep_op(fam, *self.sweep) for fam in order])
            else:
                out.append(
                    [
                        h2_op(fam, random_omega(rng, self.n, zeros))
                        for zeros in self.zero_counts
                        for fam in FAMILIES
                    ]
                )
        return out

    def warmup(self) -> Op:
        if self.sweep:
            return sweep_op("su", 1, 2)
        return h2_op("su", (Fraction(0), Fraction(-1, 2)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("h2-generic-n6", n=6, zero_counts=(0,)),
        Workload("h2-contracted-n6", n=6, zero_counts=(4, 5, 6)),
        Workload("sweep-n1to4", sweep=(1, 4)),
    )
}


def fmt(value: Fraction) -> str:
    """Canonical rendering: 'p' for integers, 'p/q' in lowest terms."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def random_nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def random_omega(rng: random.Random, n: int, zeros: int) -> tuple:
    """An omega with exactly `zeros` zero entries at random positions.

    A generic omega (no zero) always holds a negative entry and a
    non-integer one, so the solver meets signs and denominators.
    """
    if zeros == 0:
        while True:
            omega = tuple(random_nonzero(rng) for _ in range(n))
            if any(v < 0 for v in omega) and any(v.denominator > 1 for v in omega):
                return omega
    at = set(rng.sample(range(n), zeros))
    return tuple(Fraction(0) if k in at else random_nonzero(rng) for k in range(n))


def h2_op(family: str, omega: tuple) -> Op:
    # `--` keeps an omega that starts with '-' from being read as an option.
    tokens = ",".join(fmt(v) for v in omega)
    argv = ("h2", family, str(len(omega)), "--format", "json", "--", tokens)
    return Op(argv=argv, family=family, omega=tuple(Fraction(v) for v in omega))


def sweep_op(family: str, lo: int, hi: int) -> Op:
    argv = ("sweep", family, f"{lo}..{hi}", "--format", "json")
    return Op(argv=argv, family=family, n_range=(lo, hi))
