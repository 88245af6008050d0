"""Frames, weight orbits and semistandard Kronecker tableaux.

A weight composition mu cuts the step positions 1..s into frames; the
orbit of a path is its closure under swaps at positions interior to a
frame.  An orbit is semistandard when every such swap is defined at every
member, and for maximal-depth shapes this is exactly column-strictness of
the classical filling.

Semistandard orbits are found without any swap: group the Std0 paths by
their frame multisets (for each frame, the sorted steps in it).  A group
is a semistandard orbit exactly when it holds every arrangement of its
multisets, prod_c mu_c! / prod_i m_i! paths.  Three facts prove it:
adjacent swaps inside a frame generate that frame's symmetric group; the
level a frame ends on depends only on its multiset; and Std0 membership
does not depend on the order inside a frame (maximal depth: pure adds that
reach nu; one-row: the removal budget counts removals only).  So a swap
never leaves a group, an orbit whose swaps are all defined is a whole
group, and a whole group has all its swaps defined.  The breadth-first
closure (orbit_of, enumerate_orbits) stays as the reference, and as the
only way to see orbits that are not semistandard.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from .partitions import Partition
from .tableaux import KroneckerTableau, StepKind, enumerate_std0, swap


class NotMaximalDepth(ValueError):
    """Classical fillings only exist for pure-add (maximal-depth) orbits."""


def boundaries(mu: Partition) -> frozenset[int]:
    """Partial sums of mu excluding the last: the frame boundaries."""
    out = []
    acc = 0
    for part in mu[:-1]:
        acc += part
        out.append(acc)
    return frozenset(out)


def frame_of(k: int, mu: Partition) -> int:
    """Frame index c with [mu]_{c-1} < k <= [mu]_c, for 1 <= k <= |mu|."""
    if k < 1:
        raise IndexError(f"step index {k} out of range")
    acc = 0
    for c, part in enumerate(mu, start=1):
        acc += part
        if k <= acc:
            return c
    raise IndexError(f"step index {k} out of range for weight {mu!r}")


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

    def __hash__(self):
        return hash((self.weight, self.representative))


def orbit_of(t: KroneckerTableau, mu: Partition) -> WeightedOrbit:
    """Breadth-first closure of t under defined swaps at non-boundary positions."""
    if t.length != mu.size:
        raise ValueError(f"path length {t.length} != |mu| = {mu.size}")
    bnd = boundaries(mu)
    interior = [k for k in range(1, t.length) if k not in bnd]
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


# A frame's steps as sorted (remove_row, add_row) pairs name its multiset.
_STEP_KEY = attrgetter("remove_row", "add_row")


def _arrangements(frames: tuple[tuple, ...]) -> int:
    """Distinct orderings of every sorted frame: prod_c mu_c! / prod_i m_i!."""
    total = 1
    for frame in frames:
        total *= math.factorial(len(frame))
        run = 1
        for prev, cur in zip(frame, frame[1:]):
            run = run + 1 if cur == prev else 1
            total //= run  # exact: every partial quotient is a multinomial
    return total


def enumerate_sstd(
    lam: Partition, nu: Partition, s: int, mu: Partition
) -> list[WeightedOrbit]:
    """All semistandard orbits for the triple, ordered by representative.

    Groups Std0 by frame multisets and keeps the groups that hold every
    arrangement (see the module docstring for the proof); members come in
    Std0's ascending sort_key order, so each group's first path is its
    representative and the groups come out in representative order.
    """
    if mu.size != s:
        raise ValueError(f"|mu| = {mu.size} must equal s = {s}")
    cuts = [0, *sorted(boundaries(mu)), s]
    spans = list(zip(cuts, cuts[1:]))
    groups: dict[tuple, list[KroneckerTableau]] = {}
    for t in enumerate_std0(lam, nu, s):
        key = tuple(tuple(sorted(map(_STEP_KEY, t.steps[a:b]))) for a, b in spans)
        groups.setdefault(key, []).append(t)
    return [
        WeightedOrbit(mu, tuple(members), True)
        for key, members in groups.items()
        if len(members) == _arrangements(key)
    ]


def to_classical(o: WeightedOrbit) -> list[list]:
    """The skew filling with frame numbers, for pure-add orbits.

    Row i of the result has one entry per column of the end shape: None on
    the start-shape cells, the frame number of the step that added the box
    elsewhere.
    """
    rep = o.representative
    if any(st.kind is not StepKind.MOVE_DOWN or st.remove_row for st in rep.steps):
        raise NotMaximalDepth("orbit is not a pure-add (maximal-depth) orbit")
    lam = rep.start
    levels = rep.levels()
    nu = levels[-1]
    rows = [
        [None] * lam.row(i) + [0] * (nu.row(i) - lam.row(i))
        for i in range(1, len(nu) + 1)
    ]
    for k, st in enumerate(rep.steps, start=1):
        row = st.add_row
        col = levels[k].row(row)  # the box just added is rightmost in its row
        rows[row - 1][col - 1] = frame_of(k, o.weight)
    return rows
