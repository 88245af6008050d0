"""Frames, weight orbits and semistandard Kronecker tableaux.

A weight composition mu cuts the step positions 1..s into frames:
frames(mu) gives the frame number of each position, and _layout(mu)
the same cut as bit masks and slices.  The orbit of a path is its
closure under swaps of adjacent steps in the same frame.  An orbit is
semistandard when every such swap is defined at every member, and for
maximal-depth shapes this is exactly column-strictness of the classical
filling.

Semistandard orbits are found without any swap, from their least
members.  Three facts: adjacent swaps inside a frame generate that
frame's symmetric group; every order of a frame's steps that is a path
ends on the same shape, as each step moves the same boxes whatever comes
before it; and Std0 membership does not depend on the order inside a
frame (each row of tableaux._STD0 says why).  So an orbit is
semistandard exactly when it holds every arrangement of its frames'
step multisets, that is when every order of each frame is legal from the
shape the frame starts on, and the least member of such an orbit is the
one whose steps ascend inside every frame.  enumerate_sstd therefore
keeps a Std0 path exactly when its descent mask misses mu's interior
positions and _after passes for each of its frames: each orbit once, at
its least member, in Std0's ascending order.  _after is
tableaux.frame_end under a cache, the one closed form that decides both
a single step and a frame, and lists no order; a frame of one step,
whose one order is the path's own, is not checked.

An orbit is held as (start, weight, steps), steps its least member:
each frame's steps are a slice of it, ascending, so the representative
is the steps themselves, the members are each frame's distinct orders
(ascending), and the size is prod_c mu_c! / prod_i m_i!, m_i the runs of
equal steps inside a frame.  A kept path is appended as it is.  The
reading word sorts the (step, frame) pairs by step, equal steps by
decreasing frame, so a frame's steps in word order are that frame's
slice, and the word is built, by one sort of the (step, -frame) pairs,
only when asked for.  The word is lattice exactly when, for every frame
f >= 2 and j < mu_f, the j-th step of frame f exceeds the j-th step of
frame f - 1: equal steps come in decreasing frame order, so the j-th f
follows the j-th f - 1 exactly when its step is strictly larger.
_layout holds that comparison as two getters (frame_pairs), and the
lattice count reads it from the steps, with no word.  As mu enters only
through frames, every weight of size s shares one Std0 walk and its
descent masks, which _std0_paths holds once per (lam, nu, s), the only
cache of Std0.  The tests check the orbits against the swap closure in
tests/reference.py, and each word and the frame test against the
definitions there and in reading.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache
from itertools import accumulate, chain, groupby, pairwise, product
from operator import itemgetter, neg

from .partitions import Partition
from .tableaux import KroneckerTableau, enumerate_std0, frame_end


def frames(mu: Partition) -> tuple[int, ...]:
    """The frame number of each step position 1..|mu|: frame c holds mu_c
    positions, so (2,2,1) gives (1,1,2,2,3)."""
    return tuple(c for c, part in enumerate(mu, start=1) for _ in range(part))


def _getter(indices: list) -> itemgetter:
    """itemgetter of the indices that returns a tuple however many there
    are: a slice stands in for none or one."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


_Layout = namedtuple("_Layout", "interior cuts frames above below")


@cache
def _layout(mu: Partition) -> _Layout:
    """mu's frames as the orbits and the lattice count read them: the
    interior mask (bit k set when positions k and k + 1 share a frame),
    the (start, stop) slice of each frame of two or more steps,
    frames(mu), and the getters above and below of the lattice test.  A
    one-step frame has one order, the path's own, which is legal because
    the path is, so it needs no _after check; mu's parts descend, so the
    frames that do are a prefix and their slices chain from lam.  above
    picks the j-th position of frame f and below the j-th of frame f - 1,
    for every f >= 2 and j < mu_f (mu_f <= mu_(f-1), so frame f - 1 has
    it).  Cached once per mu, so no call builds them anew."""
    fr = frames(mu)
    interior = sum(1 << k for k in range(1, len(fr)) if fr[k - 1] == fr[k])
    cuts = tuple(pairwise(accumulate((part for part in mu if part > 1), initial=0)))
    starts = list(accumulate(mu, initial=0))
    pairs = [(starts[f] + j, starts[f - 1] + j) for f in range(1, len(mu)) for j in range(mu[f])]
    return _Layout(interior, cuts, fr, _getter([a for a, _ in pairs]), _getter([b for _, b in pairs]))


def frame_pairs(mu: Partition) -> tuple[itemgetter, itemgetter]:
    """(above, below): an orbit of weight mu has a lattice reading word
    exactly when all(map(gt, above(steps), below(steps))) at its least
    member, each step of a frame past the first strictly above the step
    of the frame before it in the same place (module docstring)."""
    layout = _layout(mu)
    return layout.above, layout.below


class ReadingWord(namedtuple("ReadingWord", "steps frames")):
    """An orbit's (step, frame) pairs sorted by step, equal steps by
    weakly decreasing frame: the same for every member."""

    __slots__ = ()

    def __str__(self) -> str:
        top = " ".join(str(st) for st in self.steps)
        bottom = " ".join(str(f) for f in self.frames)
        return f"[{top} | {bottom}]"


def _orders(steps: tuple):
    """The distinct orders of the ascending steps, in ascending order."""
    if not steps:
        yield ()
    for i, st in enumerate(steps):
        if not i or st != steps[i - 1]:
            for rest in _orders(steps[:i] + steps[i + 1 :]):
                yield (st, *rest)


class WeightedOrbit(namedtuple("WeightedOrbit", "start weight steps")):
    """One semistandard ~mu orbit: its start shape, weight and least
    member's steps, which ascend inside every frame.  The members, the
    size and the reading word are built from the steps when asked for;
    the members come in ascending order of their steps, the first being
    the least member, the canonical representative."""

    __slots__ = ()

    @property
    def representative(self) -> KroneckerTableau:
        return KroneckerTableau(self.start, self.steps)

    @property
    def members(self) -> tuple[KroneckerTableau, ...]:
        cuts = pairwise(accumulate(self.weight, initial=0))
        orders = [list(_orders(self.steps[a:b])) for a, b in cuts]
        return tuple(KroneckerTableau(self.start, tuple(chain(*p))) for p in product(*orders))

    @property
    def size(self) -> int:
        """prod_c mu_c! / prod_i m_i!, m_i the runs of equal steps inside
        a frame: the word's runs of equal (step, frame) pairs."""
        runs = (len(list(run)) for _, run in groupby(zip(self.steps, _layout(self.weight).frames)))
        return math.prod(map(math.factorial, self.weight)) // math.prod(map(math.factorial, runs))

    @property
    def word(self) -> ReadingWord:
        """The reading word: one sort of the (step, -frame) pairs."""
        pairs = sorted(zip(self.steps, map(neg, _layout(self.weight).frames)))
        return ReadingWord(tuple([st for st, _ in pairs]), tuple([-f for _, f in pairs]))


@cache
def _std0_paths(lam: Partition, nu: Partition, s: int) -> tuple[tuple, tuple]:
    """Std0 of the triple, walked once for every weight of size s, as
    (the steps of each path, each path's descent mask with bit k set when
    its step k exceeds step k + 1).  UnsupportedFamily and RecursionError
    propagate and are not cached."""
    paths = tuple(t.steps for t in enumerate_std0(lam, nu, s))
    masks = tuple(sum(1 << k for k in range(1, s) if path[k - 1] > path[k]) for path in paths)
    return paths, masks


# One entry per (shape, frame) a least member asks about.
_after = cache(frame_end)


def enumerate_sstd(
    lam: Partition, nu: Partition, s: int, mu: Partition
) -> list[WeightedOrbit]:
    """All semistandard orbits for the triple, ordered by representative.

    Keeps each Std0 path that ascends inside every frame and whose every
    frame of two or more steps passes _after: the least member of a whole
    orbit (see the module docstring for the proof).  Std0 comes in
    ascending order of steps, so the orbits come out in representative
    order.
    """
    if mu.size != s:
        raise ValueError(f"|mu| = {mu.size} must equal s = {s}")
    paths, masks = _std0_paths(lam, nu, s)
    # Read after the walk: a huge mu ends the walk in RecursionError, a
    # usage error, but its layout would first exhaust memory.
    layout = _layout(mu)
    interior, cuts = layout.interior, layout.cuts
    orbits = []
    for path, mask in zip(paths, masks):
        if mask & interior:
            continue
        shape = lam
        for a, b in cuts:
            shape = _after(shape, path[a:b])
            if shape is None:
                break
        else:
            orbits.append(WeightedOrbit(lam, mu, path))
    return orbits


def to_classical(o: WeightedOrbit) -> list[list] | None:
    """The skew filling with frame numbers of a pure-add orbit, or None
    when some step removes a box or is d0.

    Row i of the result has one entry per column of the end shape: None on
    the start-shape cells, the frame number of the step that added the box
    elsewhere.  Read off the representative's steps: a box always lands at
    the end of its row, and a step to the row below the last opens it.

    At maximal depth this maps the semistandard orbits one to one onto
    the semistandard fillings of nu/lam with content mu, and the orbits
    with a lattice word onto the Littlewood-Richardson tableaux: checked
    on the sweep |nu| <= 8, not proven.
    """
    start, steps = o.representative
    rows = [[None] * part for part in start]
    for st, frame in zip(steps, frames(o.weight)):
        if st.remove_row or not st.add_row:
            return None
        if st.add_row > len(rows):
            rows.append([])
        rows[st.add_row - 1].append(frame)
    return rows
