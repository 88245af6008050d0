"""Frames, weight orbits and semistandard Kronecker tableaux.

A weight composition mu cuts the step positions 1..s into frames; the
orbit of a path is its closure under swaps at positions interior to a
frame.  An orbit is semistandard when every such swap is defined at every
member, and for maximal-depth shapes this is exactly column-strictness of
the classical filling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
    canonical representative.  semistandard records whether every swap
    the closure tried was defined."""

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


def enumerate_sstd(
    lam: Partition, nu: Partition, s: int, mu: Partition
) -> list[WeightedOrbit]:
    """All semistandard orbits for the triple, ordered by representative."""
    return [o for o in enumerate_orbits(lam, nu, s, mu) if o.semistandard]


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
