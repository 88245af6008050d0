"""Frames, weight orbits and semistandard Kronecker tableaux.

A weight composition mu cuts the step positions 1..s into frames:
frames(mu) gives the frame number of each position, and nothing else
reads mu's layout.  The orbit of a path is its closure under swaps of
adjacent steps in the same frame.  An orbit is semistandard when every
such swap is defined at every member, and for maximal-depth shapes this
is exactly column-strictness of the classical filling.

Semistandard orbits are found without any swap: key each Std0 path on
the multiset of its (frame, step) pairs, the multiset of steps in every
frame.  A group is a semistandard orbit exactly when it holds every
arrangement of those multisets, that is when its size times prod_i m_i!
(m_i the runs of equal pairs in the key) is prod_c mu_c!.  Three facts
prove it: adjacent swaps inside a frame generate that frame's symmetric
group; the level a frame ends on depends only on its multiset; and Std0
membership does not depend on the order inside a frame (each row of
tableaux._STD0 says why).  So a swap never leaves a group, an orbit whose
swaps are all defined is a whole group, and a whole group has all its
swaps defined.

Each key is coded in small integers: a step of rank r among the distinct
steps of Std0 at frame f is r * (s + 1) + s + 1 - f, so the sorted key
sorts the pairs by step, then by decreasing frame: it is the reading
word, and each kept group carries it.  As mu enters only through frames,
every weight of size s shares one Std0 walk and its codes, which _coded
holds once per (lam, nu, s), the only cache of Std0.  The tests check the
grouping against the swap closure in tests/reference.py, and each word
against the definition there.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import cache
from operator import add

from .partitions import Partition
from .tableaux import KroneckerTableau, enumerate_std0


class NotMaximalDepth(ValueError):
    """Classical fillings only exist for pure-add (maximal-depth) orbits."""


@cache
def frames(mu: Partition) -> tuple[int, ...]:
    """The frame number of each step position 1..|mu|: frame c holds mu_c
    positions, so (2,2,1) gives (1,1,2,2,3).  Cached: the reading word
    of every orbit of a weight asks for the same tuple."""
    return tuple(c for c, part in enumerate(mu, start=1) for _ in range(part))


class ReadingWord(namedtuple("ReadingWord", "steps frames")):
    """An orbit's (step, frame) pairs sorted by step, equal steps by
    weakly decreasing frame: the same for every member."""

    __slots__ = ()

    def __str__(self) -> str:
        top = " ".join(str(st) for st in self.steps)
        bottom = " ".join(str(f) for f in self.frames)
        return f"[{top} | {bottom}]"


class WeightedOrbit(namedtuple("WeightedOrbit", "weight members word")):
    """One ~mu equivalence class with its reading word; members are
    sorted, the first is the canonical representative."""

    __slots__ = ()

    @property
    def representative(self) -> KroneckerTableau:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


@cache
def _coded(lam: Partition, nu: Partition, s: int) -> tuple[tuple, tuple, tuple]:
    """Std0 of the triple, walked once for every weight of size s, as
    (paths, the distinct steps they take in step order, rank(step) * (s + 1)
    for every step of every path).  The codes are one flat tuple, not one
    per path, so that few objects live long.  UnsupportedFamily and
    RecursionError propagate and are not cached."""
    paths = tuple(enumerate_std0(lam, nu, s))
    steps = tuple(sorted({st for t in paths for st in t.steps}))
    rank = {st: r * (s + 1) for r, st in enumerate(steps)}
    return paths, steps, tuple(rank[st] for t in paths for st in t.steps)


def enumerate_sstd(
    lam: Partition, nu: Partition, s: int, mu: Partition
) -> list[WeightedOrbit]:
    """All semistandard orbits for the triple, ordered by representative.

    Groups Std0 on its coded reading words and keeps the groups that hold
    every arrangement, len * prod_i m_i! == prod_c mu_c! (see the module
    docstring for the proof); members come in Std0's ascending sort_key
    order, so each group's first path is its representative and the
    groups come out in representative order.
    """
    if mu.size != s:
        raise ValueError(f"|mu| = {mu.size} must equal s = {s}")
    paths, steps, codes = _coded(lam, nu, s)
    # Built after the walk: a huge mu ends the walk in RecursionError, a
    # usage error, but its frame tuple would first exhaust memory.
    m = s + 1
    offsets = tuple(m - f for f in frames(mu))
    full = math.prod(map(math.factorial, mu))
    groups: dict[tuple, list[KroneckerTableau]] = {}
    for i, t in enumerate(paths):
        key = tuple(sorted(map(add, offsets, codes[i * s : (i + 1) * s])))
        groups.setdefault(key, []).append(t)
    orbits = []
    for key, members in groups.items():
        if full == len(members) * math.prod(map(math.factorial, Counter(key).values())):
            word = ReadingWord(tuple(steps[c // m] for c in key), tuple(m - c % m for c in key))
            orbits.append(WeightedOrbit(mu, tuple(members), word))
    return orbits


def to_classical(o: WeightedOrbit) -> list[list]:
    """The skew filling with frame numbers, for pure-add orbits.

    Row i of the result has one entry per column of the end shape: None on
    the start-shape cells, the frame number of the step that added the box
    elsewhere.
    """
    rep = o.representative
    if any(st.remove_row or not st.add_row for st in rep.steps):
        raise NotMaximalDepth("orbit is not a pure-add (maximal-depth) orbit")
    lam = rep.start
    levels = rep.levels()
    nu = levels[-1]
    rows = [
        [None] * lam.row(i) + [0] * (nu.row(i) - lam.row(i))
        for i in range(1, len(nu) + 1)
    ]
    for st, level, frame in zip(rep.steps, levels[1:], frames(o.weight)):
        row = st.add_row
        col = level.row(row)  # the box just added is rightmost in its row
        rows[row - 1][col - 1] = frame
    return rows
