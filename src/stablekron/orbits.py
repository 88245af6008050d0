"""Frames, weight orbits and semistandard Kronecker tableaux.

A weight composition mu cuts the step positions 1..s into frames:
frames(mu) gives the frame number of each position, and nothing else
reads mu's layout.  The orbit of a path is its closure under swaps of
adjacent steps in the same frame.  An orbit is semistandard when every
such swap is defined at every member, and for maximal-depth shapes this
is exactly column-strictness of the classical filling.

Semistandard orbits are found without any swap: key each Std0 path on
its sorted (frame, step) pairs, the multiset of steps in every frame.  A
group is a semistandard orbit exactly when it holds every arrangement of
those multisets, that is when its size times prod_i m_i! (m_i the runs of
equal pairs in the key) is prod_c mu_c!.  Three facts prove it: adjacent
swaps inside a frame generate that frame's symmetric group; the level a
frame ends on depends only on its multiset; and Std0 membership does not
depend on the order inside a frame (each row of tableaux._STD0 says why).
So a swap never leaves a group, an orbit whose swaps are all defined is a
whole group, and a whole group has all its swaps defined.  Since frames
are the only place mu enters, every weight of size s may share one Std0
list, and enumerate_std0 holds it once per (lam, nu, s).  The
breadth-first closure (orbit_of, enumerate_orbits) stays as the
reference, and as the only way to see orbits that are not semistandard.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cache
from operator import attrgetter

from .partitions import Partition
from .tableaux import KroneckerTableau, enumerate_std0, swap


class NotMaximalDepth(ValueError):
    """Classical fillings only exist for pure-add (maximal-depth) orbits."""


@cache
def frames(mu: Partition) -> tuple[int, ...]:
    """The frame number of each step position 1..|mu|: frame c holds mu_c
    positions, so (2,2,1) gives (1,1,2,2,3).  Cached: the reading word
    of every orbit of a weight asks for the same tuple."""
    return tuple(c for c, part in enumerate(mu, start=1) for _ in range(part))


@dataclass(frozen=True)
class WeightedOrbit:
    """One ~mu equivalence class; members are sorted, the first is the
    canonical representative.  semistandard records whether every interior
    swap is defined at every member."""

    weight: Partition
    members: tuple[KroneckerTableau, ...]
    semistandard: bool

    @property
    def representative(self) -> KroneckerTableau:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


def orbit_of(t: KroneckerTableau, mu: Partition) -> WeightedOrbit:
    """Breadth-first closure of t under defined swaps inside a frame."""
    if t.length != mu.size:
        raise ValueError(f"path length {t.length} != |mu| = {mu.size}")
    fr = frames(mu)
    interior = [k for k in range(1, t.length) if fr[k - 1] == fr[k]]
    seen = {t}
    queue = deque([t])
    semistandard = True
    while queue:
        cur = queue.popleft()
        for k in interior:
            nxt = swap(cur, k)
            if nxt is None:
                semistandard = False
            elif nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    members = tuple(sorted(seen, key=lambda m: m.sort_key))
    return WeightedOrbit(mu, members, semistandard)


def enumerate_orbits(
    lam: Partition, nu: Partition, s: int, mu: Partition
) -> list[WeightedOrbit]:
    """All orbits (semistandard or not), ordered by representative."""
    if mu.size != s:
        raise ValueError(f"|mu| = {mu.size} must equal s = {s}")
    # Std0 comes in ascending sort_key, so each unseen path is the least
    # member of its orbit and the orbits come out in representative order.
    seen: set[KroneckerTableau] = set()
    orbits = []
    for t in enumerate_std0(lam, nu, s):
        if t not in seen:
            orb = orbit_of(t, mu)
            seen.update(orb.members)
            orbits.append(orb)
    return orbits


# A step as its (remove_row, add_row) pair, which sorts as a plain tuple.
_STEP_KEY = attrgetter("remove_row", "add_row")


def enumerate_sstd(
    lam: Partition, nu: Partition, s: int, mu: Partition
) -> list[WeightedOrbit]:
    """All semistandard orbits for the triple, ordered by representative.

    Groups Std0 on sorted (frame, step) pairs and keeps the groups that
    hold every arrangement, len * prod_i m_i! == prod_c mu_c! (see the
    module docstring for the proof); members come in Std0's ascending
    sort_key order, so each group's first path is its representative and
    the groups come out in representative order.
    """
    if mu.size != s:
        raise ValueError(f"|mu| = {mu.size} must equal s = {s}")
    paths = enumerate_std0(lam, nu, s)
    # Built after the walk: a huge mu ends the walk in RecursionError, a
    # usage error, but its frame tuple would first exhaust memory.
    fr = frames(mu)
    full = math.prod(map(math.factorial, mu))
    groups: dict[tuple, list[KroneckerTableau]] = {}
    for t in paths:
        key = tuple(sorted(zip(fr, map(_STEP_KEY, t.steps))))
        groups.setdefault(key, []).append(t)
    return [
        WeightedOrbit(mu, tuple(members), True)
        for key, members in groups.items()
        if full == len(members) * math.prod(map(math.factorial, Counter(key).values()))
    ]


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
