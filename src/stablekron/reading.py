"""Reading words of weight orbits and the lattice count.

Steps carry a total order (move-up < dummy < move-down, refined within
each kind); the reading word of an orbit sorts the (step, frame) pairs of
any member by that order, tie-breaking equal steps by weakly decreasing
frame.  An orbit holds its least member, builds the word from it when
asked, and ReadingWord lives in orbits.  is_lattice is the definition of
a lattice word.  Counting the semistandard orbits with lattice reading
word gives the stable Kronecker coefficient on the supported families;
the count builds no word, but compares each frame's steps with the
previous frame's at the least member (orbits.frame_pairs), which is the
same test: equal steps come in decreasing frame order, so the j-th f
follows the j-th f - 1 in the word exactly when its step is larger.
"""

from __future__ import annotations

from operator import gt

from .characters import stable_kronecker_oracle
from .orbits import ReadingWord, WeightedOrbit, enumerate_sstd, frame_pairs
from .partitions import Partition
from .tableaux import UnsupportedFamily


def reading_word(o: WeightedOrbit) -> ReadingWord:
    """The sorted 2 x s array of steps and frames; member-independent."""
    return o.word


def is_lattice(w: ReadingWord) -> bool:
    """Every prefix of the frame row holds at least as many i as i+1."""
    counts: dict[int, int] = {}
    for f in w.frames:
        counts[f] = counts.get(f, 0) + 1
        if f > 1 and counts[f] > counts.get(f - 1, 0):
            return False
    return True


def stable_kronecker_copieri(lam: Partition, nu: Partition, mu: Partition) -> int:
    """The lattice count: semistandard orbits with lattice reading word,
    tested by frame_pairs on each least member.

    Only defined on the families in tableaux._STD0; raises
    UnsupportedFamily (from enumerate_std0) otherwise.
    """
    orbits = enumerate_sstd(lam, nu, mu.size, mu)
    above, below = frame_pairs(mu)  # after the walk, which refuses a huge mu first
    return sum(all(map(gt, above(o.steps), below(o.steps))) for o in orbits)


def stable_kronecker(lam: Partition, nu: Partition, mu: Partition) -> tuple[int, str]:
    """Convenience router: the lattice count where supported, else the
    character oracle.  Returns (value, method) so the engine used is never
    hidden."""
    try:
        return stable_kronecker_copieri(lam, nu, mu), "copieri"
    except UnsupportedFamily:
        return stable_kronecker_oracle(lam, nu, mu), "oracle"
