"""Reference code the tests compare the library against; not collected.

The "r1·d1·a1" tableau parser, the one-step definition, the
adjacent-step swap, the breadth-first swap closure and the reading word
of one member.  One step is judged by Partition's own validation alone
(reference_step), so the replay, is_path and swap share no legality code
with tableaux.frame_end, the library's one closed form.  The library
finds each semistandard orbit at its least member,
holds it, and builds the members and the reading word from it (see
stablekron.orbits for the proof); the closure and reading_word_of here
are the definitions those orbits and their words are checked against.
The closure is the only way to see orbits that are not semistandard,
whose members no least member gives, so it holds them in an orbit type
of its own.

classical_by_replay finds a pure-add orbit's classical filling by
replaying its representative level by level, the definition that
orbits.to_classical, which reads the filling off the steps, is checked
against.  centralizer_order is the definition the character oracle's
class sizes are checked against, and one_row_closed_form the closed form
of the stable Kronecker coefficient on a one-row pair, which uses no
library code, that both engines are checked against.  intersect and
horizontal_strip define the co-Pieri horizontal family that
tableaux.classify reads off interlacing rows.  skew_ssyt and lr_tableaux
list the classical fillings, semistandard and Littlewood-Richardson, that
orbits.to_classical is checked against at maximal depth; they share no
code with orbits or characters._fillings.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from functools import cache
from operator import neg

from stablekron.orbits import ReadingWord, frames
from stablekron.partitions import Partition, parse_partition
from stablekron.tableaux import KroneckerTableau, Step, enumerate_std0


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


def parse_tableau(start: Partition, text: str) -> KroneckerTableau:
    """Parse the "r1·d1·a1" format (empty string is the empty path)."""
    text = text.strip()
    try:
        steps = tuple(parse_step(tok) for tok in text.split("·")) if text else ()
    except ValueError as exc:
        raise ValueError(f"cannot parse tableau {text!r}: {exc}") from exc
    return KroneckerTableau(start, steps)


def T(start: str, text: str) -> KroneckerTableau:
    """A tableau from its start partition's text and its steps' text."""
    return parse_tableau(parse_partition(start), text)


@cache
def reference_step(lam: Partition, p: int, q: int):
    """lam with a box removed in row p, then one added in row q (row 0: no
    change), or None when either half is not a partition.  Judged by
    Partition's own validation alone."""
    parts = [*lam, *[0] * (p + q)]
    try:
        if p:
            parts[p - 1] -= 1
            Partition(parts)
        if q:
            parts[q - 1] += 1
        return Partition(parts)
    except ValueError:
        return None


def apply_step(lam: Partition, st: Step):
    """The shape one step leads to from lam, or None when the step is not
    legal there, by reference_step."""
    return reference_step(lam, st.remove_row, st.add_row)


def replay(t: KroneckerTableau):
    """The partitions at levels 0..s of t, one apply_step each, or None
    when some step is not legal where it is taken."""
    out = [t.start]
    for st in t.steps:
        nxt = apply_step(out[-1], st)
        if nxt is None:
            return None
        out.append(nxt)
    return out


def is_path(t: KroneckerTableau) -> bool:
    """Whether every step of t is legal where it is taken."""
    return replay(t) is not None


def swap(t: KroneckerTableau, k: int):
    """Exchange steps k and k+1 (1-indexed), or None when the exchanged
    path is not valid."""
    if not 1 <= k < t.length:
        raise IndexError(f"swap position {k} out of range for length {t.length}")
    before = replay(t)[k - 1]
    mid = apply_step(before, t.steps[k])
    if mid is None or apply_step(mid, t.steps[k - 1]) is None:
        return None
    steps = list(t.steps)
    steps[k - 1], steps[k] = steps[k], steps[k - 1]
    return KroneckerTableau(t.start, tuple(steps))


def reading_word_of(t: KroneckerTableau, mu: Partition) -> ReadingWord:
    """t's (step, frame) pairs sorted by step, equal steps by weakly
    decreasing frame; ValueError when |mu| is not t's length."""
    pairs = sorted(zip(t.steps, map(neg, frames(mu)), strict=True))
    return ReadingWord(tuple(st for st, _ in pairs), tuple(-f for _, f in pairs))


class ClosureOrbit(namedtuple("ClosureOrbit", "weight members word")):
    """A swap closure with every member listed, sorted; the first is the
    representative."""

    __slots__ = ()

    @property
    def representative(self) -> KroneckerTableau:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


def orbit_of(t: KroneckerTableau, mu: Partition) -> tuple[ClosureOrbit, bool]:
    """Breadth-first closure of t under defined swaps inside a frame, and
    whether every such swap is defined at every member (semistandard)."""
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
    members = tuple(sorted(seen, key=lambda m: m.steps))
    return ClosureOrbit(mu, members, reading_word_of(t, mu)), semistandard


def enumerate_orbits(
    lam: Partition, nu: Partition, s: int, mu: Partition
) -> list[tuple[ClosureOrbit, bool]]:
    """All orbits (semistandard or not) with their flags, ordered by
    representative."""
    if mu.size != s:
        raise ValueError(f"|mu| = {mu.size} must equal s = {s}")
    # Std0 comes in ascending sort_key, so each unseen path is the least
    # member of its orbit and the orbits come out in representative order.
    seen: set[KroneckerTableau] = set()
    orbits = []
    for t in enumerate_std0(lam, nu, s):
        if t not in seen:
            orb, semistandard = orbit_of(t, mu)
            seen.update(orb.members)
            orbits.append((orb, semistandard))
    return orbits


def classical_by_replay(o) -> list[list] | None:
    """The skew filling with frame numbers of a pure-add orbit, found by
    replaying its representative through its levels: each box goes to the
    column its row has reached at the level after its step.  None when some
    step removes a box or is d0."""
    rep = o.representative
    if any(st.remove_row or not st.add_row for st in rep.steps):
        return None
    lam = rep.start
    levels = replay(rep)
    nu = levels[-1]
    rows = [
        [None] * lam.row(i) + [0] * (nu.row(i) - lam.row(i))
        for i in range(1, len(nu) + 1)
    ]
    for st, level, frame in zip(rep.steps, levels[1:], frames(o.weight)):
        row = st.add_row
        rows[row - 1][level.row(row) - 1] = frame
    return rows


def centralizer_order(rho) -> int:
    """z_rho = prod_i i^{m_i} m_i! over cycle-length multiplicities m_i."""
    z = 1
    mult: dict[int, int] = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    for i, m in mult.items():
        z *= i**m * math.factorial(m)
    return z


def one_row_closed_form(a: int, b: int, mu: tuple) -> int:
    """g((a), (b), mu) as the number of lattice semistandard orbits, each
    one triple (r, d, d2): frame 1 takes r removals, d dummies and
    mu_1 - r - d adds, frame 2 takes d2 dummies and mu_2 - d2 adds, frame
    3 takes mu_3 adds.  The lattice word allows no removal past frame 1
    and no frame past 3, and needs d2 <= r, mu_2 <= r + d and mu_3 <= d2.
    Removals and dummies share the budget a, which also keeps a dummy
    off an empty row in every order of its frame.  The row ends at b,
    which fixes d2."""
    if len(mu) > 3:
        return 0
    m1, m2, m3 = (*mu, 0, 0, 0)[:3]
    count = 0
    for r in range(min(a, m1) + 1):
        for d in range(max(m2 - r, 0), min(a, m1) - r + 1):
            d2 = a - r + (m1 - r - d) + m2 + m3 - b
            count += m3 <= d2 <= min(r, m2, a - r - d)
    return count


def intersect(a: Partition, b: Partition) -> Partition:
    """Rowwise minimum: the largest partition contained in both."""
    return Partition(min(x, y) for x, y in zip(a, b))


def horizontal_strip(outer: Partition, inner: Partition) -> bool:
    """True iff outer/inner, with inner contained in outer, has no two
    boxes in the same column."""
    return all(outer.row(i) <= inner.row(i - 1) for i in range(2, len(outer) + 1))


def skew_ssyt(outer: Partition, inner: Partition, content) -> list[list]:
    """Every semistandard filling of outer/inner with content[v - 1]
    entries v, as to_classical writes one: row i holds None on the inner
    cells, then its entries.  Rows weakly increase and columns strictly
    increase; cells are filled row by row, left to right."""
    cells = [(i, j) for i, row in enumerate(outer) for j in range(inner.row(i + 1), row)]
    grid = [[None] * row for row in outer]
    left = list(content)
    out = []

    def fill(k):
        if k == len(cells):
            out.append([row.copy() for row in grid])
            return
        i, j = cells[k]
        west = grid[i][j - 1] if j else None
        north = grid[i - 1][j] if i else None
        lo = max(west or 1, (north or 0) + 1)
        for v in range(lo, len(left) + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                grid[i][j] = v
                fill(k + 1)
                grid[i][j] = None
                left[v - 1] += 1

    if sum(content) == len(cells):
        fill(0)
    return out


def lr_tableaux(outer: Partition, inner: Partition, content) -> list[list]:
    """The fillings of skew_ssyt whose reverse reading word, rows top to
    bottom and each row right to left, is a lattice word: every prefix
    holds at least as many v - 1 as v."""

    def lattice(filling):
        seen = [0] * (len(content) + 2)
        for row in filling:
            for v in reversed(row):
                if v is not None:
                    seen[v] += 1
                    if v > 1 and seen[v] > seen[v - 1]:
                        return False
        return True

    return [f for f in skew_ssyt(outer, inner, content) if lattice(f)]
