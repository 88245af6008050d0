"""Oracle-equivalence sweeps: the lattice count against the independent
oracles over whole families of triples.  Each sweep returns its
mismatches; an empty list means the sweep passed.
"""

from __future__ import annotations

from .characters import (
    kostka,
    lr_coefficient,
    partitions_of,
    partitions_up_to,
    stable_kronecker_oracle,
)
from .orbits import enumerate_sstd
from .partitions import Partition, contains
from .reading import stable_kronecker_copieri
from .tableaux import UnsupportedFamily


def _sub_partitions(nu: Partition) -> list[Partition]:
    """All partitions contained in nu."""
    return [p for p in partitions_up_to(nu.size) if contains(p, nu)]


def _mismatch(lam: Partition, nu: Partition, mu: Partition, got: int, want: int) -> dict:
    return {
        "lambda": str(lam),
        "nu": str(nu),
        "mu": str(mu),
        "copieri": got,
        "oracle": want,
    }


def _compare(triples, oracle) -> list[dict]:
    """Mismatches of the lattice count against oracle(lam, nu, mu)."""
    mismatches = []
    for lam, nu, mu in triples:
        got = stable_kronecker_copieri(lam, nu, mu)
        want = oracle(lam, nu, mu)
        if got != want:
            mismatches.append(_mismatch(lam, nu, mu, got, want))
    return mismatches


def sweep_maximal_depth(max_nu: int) -> list[dict]:
    """Lattice count vs Littlewood-Richardson over all maximal-depth
    triples with |nu| <= max_nu."""
    triples = (
        (lam, nu, Partition(mu_parts))
        for m in range(max_nu + 1)
        for nu in map(Partition, partitions_of(m))
        for lam in _sub_partitions(nu)
        for mu_parts in partitions_of(nu.size - lam.size)
    )
    return _compare(triples, lambda lam, nu, mu: lr_coefficient(lam, mu, nu))


def sweep_one_row(max_part: int, max_mu: int) -> list[dict]:
    """Lattice count vs character-oracle stable limit over one-row pairs."""
    rows = [Partition((a,) if a else ()) for a in range(max_part + 1)]
    mus = partitions_up_to(max_mu)
    triples = ((lam, nu, mu) for lam in rows for nu in rows for mu in mus)
    return _compare(triples, stable_kronecker_oracle)


def sweep_dims(max_size: int, max_s: int) -> list[dict]:
    """Orbit-count identity |SStd| = sum_beta g*K against the oracles,
    over supported triples with |lam|, |nu| <= max_size and s <= max_s."""
    mismatches = []
    shapes = partitions_up_to(max_size)
    for lam in shapes:
        for nu in shapes:
            for s in range(max_s + 1):
                betas = [Partition(b) for b in partitions_of(s)]
                try:
                    gbar = {b: stable_kronecker_copieri(lam, nu, b) for b in betas}
                except UnsupportedFamily:
                    continue
                for mu in betas:
                    got = len(enumerate_sstd(lam, nu, s, mu))
                    want = sum(gbar[beta] * kostka(beta, mu) for beta in betas)
                    if got != want:
                        mismatches.append(_mismatch(lam, nu, mu, got, want))
    return mismatches
