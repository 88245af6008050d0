"""Paths on the partition-algebra branching graph.

A path of length s from lam to nu is a sequence of integral steps, each
removing a box (or nothing) and then adding a box (or nothing).  This
module enumerates the full path sets, the quotient subsets of the
families in the _STD0 table, and the classification of triples.  It
alone decides step legality, in one closed form: frame_end gives the
shape every order of a multiset of steps reaches, or None, from two
tests on the gaps d_i - d_(i+1) between rows at the worst shape any
order meets.  A single step is a frame of one, so the cached _moves is
frame_end of each step at a shape, and orbits._after is frame_end
cached.  The cached _distance says how far nu is from a shape.  The
walker reads both through _options, one cached table per (shape, nu,
step set) of the moves it may take and their distances to nu, so its
inner loop is one reach comparison.  Std and Std0 are walked anew on
every call; orbits._std0_paths holds Std0 once per (lam, nu, s) for
every weight of size s.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import cache
from operator import itemgetter

from .partitions import Partition, horizontal_strip, intersect


class UnsupportedFamily(ValueError):
    """The triple's family has no row in _STD0, so no quotient basis."""


class Step(tuple):
    """One integral step: remove a box in row ``remove_row``, add one in
    row ``add_row``.  Row 0 means no change at that half-level;
    frame_end, the one closed form that decides a single step and a frame
    alike, says whether both halves give partitions.  Held as the flat
    tuple (kind, a, b, remove_row, add_row) of ints, whose first three
    make the sort_key, so tuple order is the step order:
    move-up < dummy < move-down, refined within each kind; no two steps
    share a sort_key, so it alone decides every comparison, and no
    comparison or hash recurses into a nested tuple."""

    __slots__ = ()

    def __new__(cls, remove_row: int, add_row: int):
        p, q = remove_row, add_row
        if p < 0 or q < 0:
            raise ValueError("row indices must be >= 0")
        return tuple.__new__(
            cls, (0, q, -p, p, q) if p > q else (1, -p, 0, p, q) if p == q else (2, -p, q, p, q)
        )

    def __getnewargs__(self):
        return self[3:]

    sort_key = property(itemgetter(slice(3)))
    remove_row = property(itemgetter(3))
    add_row = property(itemgetter(4))

    @classmethod
    def add(cls, i: int) -> "Step":
        return cls(0, i)

    @classmethod
    def remove(cls, i: int) -> "Step":
        return cls(i, 0)

    @classmethod
    def dummy(cls, i: int) -> "Step":
        return cls(i, i)

    def __repr__(self) -> str:
        return f"Step({self.remove_row}, {self.add_row})"

    def __str__(self) -> str:
        *_, p, q = self
        if p == q:
            return f"d{p}"
        if q == 0:
            return f"r{p}"
        if p == 0:
            return f"a{q}"
        return f"m({p},{q})"


def frame_end(shape: Partition, steps):
    """The shape every order of the steps reaches from shape, or None when
    some order takes an illegal step: the one legality test, of a single
    step (_moves) and of a frame (orbits._after).  Step (p, q) is legal
    exactly when gap p = d_p - d_(p+1) >= 1 before the removal (p > 0)
    and gap q - 1 >= 1 after it (q > 1), both read off the rows padded
    with a 0.  Just before x, some order meets shape plus any
    sub-multiset of the other steps (take those first), and a step
    (p, q) changes gap i by a fixed Delta_i(p, q) = [q=i] - [q=i+1] -
    [p=i] + [p=i+1].  So every order is legal exactly when each x passes
    each test where that gap is narrowest, with every other step's
    narrowing in.  A non-dummy step narrows gap i by taking a box from row
    i or giving one to row i + 1, so with every narrowing in, gap i is
    lo_i - hi_(i+1): lo is each row less its removals, hi each row plus
    its additions.  With x's own narrowing given back the tests read
    lo_(q-1) >= hi_q and lo_p - hi_(p+1) >= [p = q] - [q = p + 1].  No
    order fills a row past len(shape) + len(steps), so a step at row
    n = len(shape) + len(steps) + 1 or beyond fails.  Every order moves
    the same boxes, so all end on lo plus the additions, each row less its
    removals plus its additions: a partition by the tests, built without
    Partition's validation."""
    n = len(shape) + len(steps) + 1
    lo = [0, *shape, *[0] * (n - len(shape))]  # slot 0: half-steps that change nothing
    hi = lo.copy()
    for _, _, _, p, q in steps:
        if p >= n or q >= n:
            return None
        if p != q:
            lo[p] -= 1
            hi[q] += 1
    for _, _, _, p, q in steps:
        if q > 1 and lo[q - 1] < hi[q]:
            return None
        if p and lo[p] - hi[p + 1] < (p == q) - (q == p + 1):
            return None
    for _, _, _, p, q in steps:  # lo becomes the end shape
        if p != q:
            lo[q] += 1
    return tuple.__new__(Partition, filter(None, lo[1:]))


def apply_step(lam: Partition, st: Step):
    """The shape one step leads to from lam, or None when the step is not
    legal there: a lookup in _moves."""
    return _moves(lam).get(st)


@cache
def _moves(cur: Partition) -> dict[Step, Partition]:
    """Every legal step from cur mapped to the shape it leads to, in
    ascending step order; callers share it and must not mutate it.  A
    step is legal when frame_end of it alone is a shape; none removes
    from a row past len(cur) or adds to one past len(cur) + 1.  One entry
    per shape visited, so the cache stays as small as the walks that fill
    it."""
    steps = sorted(Step(p, q) for p in range(len(cur) + 1) for q in range(len(cur) + 2))
    return {st: nxt for st in steps if (nxt := frame_end(cur, (st,))) is not None}


@cache
def _distance(cur: Partition, nu: Partition) -> int:
    """The fewest steps from cur to nu: max(|cur|, |nu|) - |cur & nu|.
    A step removes at most one box and adds at most one, and d0 pads a
    shorter path, so nu is in reach of cur in k steps iff this is <= k.
    Cached: one entry per option target that _options stores, plus the
    walker's root test and classify."""
    return max(cur.size, nu.size) - sum(map(min, cur, nu))


@cache
def _options(cur: Partition, nu: Partition, steps) -> tuple[tuple, tuple]:
    """The moves of _moves(cur) whose step is in steps (None: every step),
    each as (step, next, removes, _distance(next, nu)) in ascending step
    order: every option, then the options that remove nothing (a dummy
    step in a row > 0 removes).  One entry per (shape, nu, step set) a
    walk expands; the removal budget is left to the walker."""
    every = tuple(
        (st, nxt, st.remove_row > 0, _distance(nxt, nu))
        for st, nxt in _moves(cur).items()
        if steps is None or st in steps
    )
    return every, tuple(option for option in every if not option[2])


class KroneckerTableau(namedtuple("KroneckerTableau", "start steps")):
    """A path in the branching graph: a start partition plus its steps.

    Held as the named tuple (start, steps).  Levels are recomputed on
    demand; two paths are equal iff their (start, steps) data agree.
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.steps)

    def levels(self) -> list[Partition]:
        """The partitions at integer levels 0..s.  Raises if the path is invalid."""
        out = [self.start]
        for st in self.steps:
            nxt = apply_step(out[-1], st)
            if nxt is None:
                raise ValueError(f"invalid path: {self}")
            out.append(nxt)
        return out

    def __str__(self) -> str:
        return "·".join(str(st) for st in self.steps)


class TripleClass(enum.Enum):
    MAXIMAL_DEPTH = "maximal-depth"
    ONE_ROW_PAIR = "one-row"
    CO_PIERI_HORIZONTAL = "co-pieri-horizontal"
    CO_PIERI_STAIRCASE = "co-pieri-staircase"
    UNKNOWN = "unknown"


def classify(lam: Partition, nu: Partition, s: int) -> TripleClass:
    """Classify a triple into the families named by the counting rule.

    Only the weight's size s = |mu| matters.  Precedence: maximal depth,
    then one-row, then the two further co-Pieri shapes; overlapping
    triples take the first matching tag.
    """
    if lam.size + s == nu.size:
        return TripleClass.MAXIMAL_DEPTH
    if len(lam) <= 1 and len(nu) <= 1:
        return TripleClass.ONE_ROW_PAIR
    inter = intersect(lam, nu)
    if (
        horizontal_strip(lam, inter)
        and horizontal_strip(nu, inter)
        and s == _distance(lam, nu)
    ):
        return TripleClass.CO_PIERI_HORIZONTAL
    if lam == nu and _is_staircase(lam) and s <= lam[-1]:
        return TripleClass.CO_PIERI_STAIRCASE
    return TripleClass.UNKNOWN


def _is_staircase(lam: Partition) -> bool:
    # (dl, d(l-1), ..., 2d, d) for some d, l >= 1
    if not lam:
        return False
    d = lam[-1]
    l = len(lam)
    return all(lam[i] == d * (l - i) for i in range(l))


# Each family with a quotient basis: (removal budget of (lam, s), step set
# or None for all), under why its membership is order-free inside a frame.
_STD0 = {
    # budget 0: every member is pure adds, in whatever order
    TripleClass.MAXIMAL_DEPTH: (lambda lam, s: 0, None),
    # a removal count and a step set both read only the multiset of steps
    TripleClass.ONE_ROW_PAIR: (
        lambda lam, s: lam.size, frozenset((Step.remove(1), Step.dummy(1), Step.add(1)))
    ),
}


def _walk(lam: Partition, nu: Partition, s: int, budget: int, steps=None) -> list[KroneckerTableau]:
    """The one path walker.  Each level tries _options(cur, nu, steps),
    the legal moves in steps in ascending step order, so paths come out in
    ascending sort_key: all of them while removals are left in the budget,
    else those that remove nothing.  A move is skipped when its distance
    to nu exceeds the steps left after it."""
    results: list[KroneckerTableau] = []
    path: list[Step] = []

    def walk(cur: Partition, left: int, spent: int):
        if not left:
            results.append(KroneckerTableau(lam, tuple(path)))
            return
        left -= 1
        for st, nxt, removes, dist in _options(cur, nu, steps)[spent == budget]:
            if dist > left:
                continue
            path.append(st)
            walk(nxt, left, spent + removes)
            path.pop()

    if _distance(lam, nu) <= s:
        walk(lam, s, 0)
    return results


def enumerate_std(lam: Partition, nu: Partition, s: int) -> list[KroneckerTableau]:
    """All paths of s integral steps from lam to nu, depth-first in step
    order: every legal move, under a removal budget no path can exceed."""
    return _walk(lam, nu, s, s)


def enumerate_std0(lam: Partition, nu: Partition, s: int) -> list[KroneckerTableau]:
    """The quotient-basis subset of enumerate_std, in the same order: the
    walk under the _STD0 row of the triple's class, or UnsupportedFamily.
    Std0 depends on the weight mu only through its size s."""
    row = _STD0.get(classify(lam, nu, s))
    if row is None:
        names = " and ".join(tag.value for tag in _STD0)
        raise UnsupportedFamily(
            f"no quotient basis for lambda={lam}, nu={nu}, s={s}: only {names} triples have one"
        )
    budget, steps = row
    return _walk(lam, nu, s, budget(lam, s), steps)
