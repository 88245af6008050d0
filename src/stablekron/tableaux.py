"""Paths on the partition-algebra branching graph.

A path of length s from lam to nu is a sequence of integral steps, each
removing a box (or nothing) and then adding a box (or nothing).  This
module enumerates the full path sets, the quotient subsets for the two
families where they are defined (maximal depth and one-row pairs), the
adjacent-step swap, and the classification of triples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, total_ordering

from .partitions import (
    Partition,
    add_box,
    horizontal_strip,
    intersect,
    remove_box,
)


class UnsupportedFamily(ValueError):
    """The quotient basis is only defined for maximal-depth and one-row triples."""


@total_ordering
@dataclass(frozen=True, slots=True)
class Step:
    """One integral step: remove a box in row ``remove_row``, add one in
    row ``add_row``.  Row 0 means no change at that half-level."""

    remove_row: int
    add_row: int

    def __post_init__(self):
        if self.remove_row < 0 or self.add_row < 0:
            raise ValueError("row indices must be >= 0")

    @classmethod
    def add(cls, i: int) -> "Step":
        return cls(0, i)

    @classmethod
    def remove(cls, i: int) -> "Step":
        return cls(i, 0)

    @classmethod
    def dummy(cls, i: int) -> "Step":
        return cls(i, i)

    @property
    def sort_key(self) -> tuple:
        """Key realizing the total order: move-up < dummy < move-down,
        refined within each kind."""
        p, q = self.remove_row, self.add_row
        if p > q:
            return (0, q, -p)
        if p == q:
            return (1, -p)
        return (2, -p, q)

    def __lt__(self, other: "Step") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        p, q = self.remove_row, self.add_row
        if p == q:
            return f"d{p}"
        if q == 0:
            return f"r{p}"
        if p == 0:
            return f"a{q}"
        return f"m({p},{q})"


def parse_step(text: str) -> Step:
    """Inverse of str(Step): "a2", "r1", "d0" or "m(p,q)".  Anything else
    raises ValueError naming the text."""
    text = text.strip()
    try:
        if text.startswith("m(") and text.endswith(")"):
            p, q = (int(x) for x in text[2:-1].split(","))
            return Step(p, q)
        make = {"a": Step.add, "r": Step.remove, "d": Step.dummy}[text[:1]]
        return make(int(text[1:]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"cannot parse step {text!r}") from exc


def apply_step(lam: Partition, st: Step):
    """Apply one step, or None when either half is illegal."""
    cur = lam
    if st.remove_row:
        cur = remove_box(cur, st.remove_row)
        if cur is None:
            return None
    if st.add_row:
        cur = add_box(cur, st.add_row)
    return cur


@dataclass(frozen=True)
class KroneckerTableau:
    """A path in the branching graph: a start partition plus its steps.

    Levels are recomputed on demand; two paths are equal iff their
    (start, steps) data agree.
    """

    start: Partition
    steps: tuple[Step, ...]

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

    def is_valid(self) -> bool:
        cur = self.start
        for st in self.steps:
            cur = apply_step(cur, st)
            if cur is None:
                return False
        return True

    @property
    def sort_key(self) -> tuple:
        return tuple(st.sort_key for st in self.steps)

    def __str__(self) -> str:
        return "·".join(str(st) for st in self.steps)


def parse_tableau(start: Partition, text: str) -> KroneckerTableau:
    """Parse the "r1·d1·a1" format (empty string is the empty path)."""
    text = text.strip()
    try:
        steps = tuple(parse_step(tok) for tok in text.split("·")) if text else ()
    except ValueError as exc:
        raise ValueError(f"cannot parse tableau {text!r}: {exc}") from exc
    return KroneckerTableau(start, steps)


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
        and s == max(lam.size, nu.size) - inter.size
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


@cache
def _steps(rows: int) -> tuple[Step, ...]:
    """Every step a partition with this many rows could take, in ascending
    step order: remove in rows 0..rows, add in rows 0..rows + 1.  Row 0 is
    no change; the walker and apply_step decide which of them are legal."""
    return tuple(sorted(Step(p, q) for p in range(rows + 1) for q in range(rows + 2)))


@cache
def _adds(rows: int) -> tuple[Step, ...]:
    """The pure adds of _steps(rows), in the same order."""
    return tuple(st for st in _steps(rows) if st.add_row and not st.remove_row)


_ONE_ROW_STEPS = (Step.remove(1), Step.dummy(1), Step.add(1))


def _walk(lam: Partition, nu: Partition, s: int, table, budget) -> list[KroneckerTableau]:
    """The one path walker.  Each level tries table(len(cur)) in ascending
    step order, so paths come out in ascending sort_key; at most budget
    steps may remove a box (a dummy step removes one).  A step is skipped
    past the budget, on a row it cannot remove from, or when nu is out of
    reach: over = |cur| - |cur & nu| and short = |nu| - |cur & nu| each
    move by at most one a step, so both must stay <= the steps left."""
    results: list[KroneckerTableau] = []
    path: list[Step] = []

    def walk(cur: Partition, left: int, spent: int, over: int, short: int):
        if not left:
            results.append(KroneckerTableau(lam, tuple(path)))
            return
        left -= 1
        for st in table(len(cur)):
            p, q = st.remove_row, st.add_row
            if p and (spent == budget or cur.row(p) == cur.row(p + 1)):
                continue
            o, sh = over, short
            if p:
                if cur.row(p) > nu.row(p):
                    o -= 1
                else:
                    sh += 1
            if q:
                if cur.row(q) - (p == q) < nu.row(q):
                    sh -= 1
                else:
                    o += 1
            if o > left or sh > left:
                continue
            nxt = apply_step(cur, st)
            if nxt is not None:
                path.append(st)
                walk(nxt, left, spent + (p > 0), o, sh)
                path.pop()

    shared = sum(map(min, lam, nu))
    if lam.size - shared <= s and nu.size - shared <= s:
        walk(lam, s, 0, lam.size - shared, nu.size - shared)
    return results


def enumerate_std(lam: Partition, nu: Partition, s: int) -> list[KroneckerTableau]:
    """All paths of s integral steps from lam to nu, depth-first in step
    order: the walker over every step, with a budget no path can exceed."""
    return _walk(lam, nu, s, _steps, s)


def enumerate_std0(lam: Partition, nu: Partition, s: int) -> list[KroneckerTableau]:
    """The quotient-basis subset of enumerate_std, in the same order.

    Maximal depth (s = |nu| - |lam|): the whole of Std, which consists of
    pure add paths, so the walker tries only adds and has no removal
    budget.  One-row pairs: paths over {r(1), d(1), a(1)} whose total
    number of removals (every step with removal half in row 1, so d(1)
    counts too) is at most |lam|.  Anything else is unsupported.
    """
    tag = classify(lam, nu, s)
    if tag is TripleClass.MAXIMAL_DEPTH:
        return _walk(lam, nu, s, _adds, 0)
    if tag is TripleClass.ONE_ROW_PAIR:
        return _walk(lam, nu, s, lambda rows: _ONE_ROW_STEPS, lam.size)
    raise UnsupportedFamily(
        f"no quotient basis for lambda={lam}, nu={nu}, s={s}: only "
        "maximal-depth (|lambda| + s = |nu|) and one-row triples have one"
    )


def swap(t: KroneckerTableau, k: int):
    """Exchange steps k and k+1 (1-indexed), or None when the exchanged
    path is not valid."""
    if not 1 <= k < t.length:
        raise IndexError(f"swap position {k} out of range for length {t.length}")
    before = t.levels()[k - 1]
    mid = apply_step(before, t.steps[k])
    if mid is None or apply_step(mid, t.steps[k - 1]) is None:
        return None
    steps = list(t.steps)
    steps[k - 1], steps[k] = steps[k], steps[k - 1]
    return KroneckerTableau(t.start, tuple(steps))

