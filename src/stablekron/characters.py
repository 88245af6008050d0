"""Independent oracles: symmetric-group characters, Kronecker
coefficients and their stable limits, Littlewood-Richardson coefficients,
Kostka numbers and standard-tableaux counts.

Everything here is exact integer arithmetic and deliberately shares no
code with the path/orbit pipeline, so the two can cross-validate each
other.

Characters run on the abacus (James-Kerber, The Representation Theory of
the Symmetric Group, 2.7): a shape is its beta-set held as an int bead
mask, and a rim-hook removal is a few bit operations on it (_hooks).

kronecker reads whole character columns.  _column(mask, n, kmax) is chi
of the shape at every class of n with parts <= kmax, in partitions_of
order.  That order puts the classes with parts <= k at the tail, so each
shape keeps one column, at the largest kmax asked so far: a smaller kmax
reads a suffix of it, and a larger one computes only the missing blocks
of first parts and puts them in front.  The block for first part k >= 2
is the signed sum of the columns (at kmax = k) of the shapes left by each
k-rim hook; the block for k = 1 is the one class (1^n), where chi is f^lam
in closed form (_standard).  Block lengths are one integer per (n, k)
(_count); the class sizes n!/z_rho (_sizes) are built, from tables of
smaller classes, only for an n at which a coefficient is evaluated.  So
a warm coefficient is one pass over a size table and three columns.

character(lam, rho) stays a one-class recursion with its own memo keyed
on (mask, remaining cycles), since a column costs every class of n:
chi^(40,30,20,10) at (25,25,25,25) is one of p(100) ~ 1.9e8 classes,
and the one-class recursion finds it in under a millisecond.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from operator import add, mul, sub

from .partitions import Partition, contains, format_partition, pad, parse_partition


class SizeMismatch(ValueError):
    """Character and coefficient arguments must partition the same n."""


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples, lex-descending."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(n: int) -> list[Partition]:
    """All partitions of every size 0..n."""
    return [Partition(p) for m in range(n + 1) for p in partitions_of(m)]


# Shared read-mostly memo table; inserts are idempotent so concurrent use
# is benign.  Keyed on (bead mask, remaining cycles), largest cycle
# stripped first.
_CHAR_CACHE: dict[tuple[int, tuple[int, ...]], int] = {}


def _mask(lam: tuple[int, ...]) -> int:
    """The beta-set of lam as an int: one bead at lam_i + len(lam) - 1 - i."""
    length = len(lam)
    return sum(1 << (part + length - 1 - i) for i, part in enumerate(lam))


def _shape(mask: int) -> tuple[int, ...]:
    """The partition with beta-set mask; only the cache file needs it."""
    beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
    return tuple(b - i for i, b in enumerate(beads))[::-1]


def _hooks(mask: int, k: int) -> Iterator[tuple[int, int]]:
    """Each k-rim hook of the shape as (mask without it, leg parity): the
    hook is a bead at b moved to an empty b - k, and its leg is the beads
    in between."""
    hooks = mask & ~(mask << k) & ~((1 << k) - 1)
    while hooks:
        top = hooks & -hooks
        hooks ^= top
        low = top >> k
        moved = mask ^ top ^ low
        moved >>= (moved ^ (moved + 1)).bit_length() - 1  # zero parts out
        yield moved, (mask & (top - low)).bit_count() & 1


def _char(mask: int, rho: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama at one class, largest cycle stripped first."""
    if not rho:
        return 1
    key = (mask, rho)
    cached = _CHAR_CACHE.get(key)
    if cached is not None:
        return cached
    rest = rho[1:]
    value = 0
    for moved, odd in _hooks(mask, rho[0]):
        term = _char(moved, rest)
        value += -term if odd else term
    _CHAR_CACHE[key] = value
    return value


def character(lam: Partition, rho) -> int:
    """chi^lam at cycle type rho, by rim-hook recursion."""
    rho_parts = Partition(rho)
    if lam.size != rho_parts.size:
        raise SizeMismatch(f"|{lam}| != |{rho_parts}|")
    return _char(_mask(lam), tuple(rho_parts))


@functools.cache
def _count(n: int, kmax: int) -> int:
    """Classes of S_n with parts <= kmax: p_k(n) = p_k(n - k) + p_{k-1}(n)."""
    if kmax > n:
        return _count(n, n)
    return _count(n - kmax, kmax) + _count(n, kmax - 1) if kmax else int(not n)


@functools.cache
def _sizes(n: int, kmax: int) -> tuple[int, ...]:
    """n!/z_rho for each class rho of S_n with parts <= kmax, in
    partitions_of order: rho = k^m sigma, with sigma's parts < k, has
    perm(n, km) / (k^m m!) times the size of sigma in S_{n - km}."""
    kmax = min(kmax, n)
    out = []
    for k in range(kmax, 1, -1):
        for m in range(n // k, 0, -1):
            scale = math.perm(n, k * m) // (k**m * math.factorial(m))
            out += [scale * size for size in _sizes(n - k * m, k - 1)]
    return (*out, 1) if kmax or not n else ()  # (1^n) last; kmax = 0 < n: none


def _standard(mask: int, n: int) -> int:
    """f of the shape (mask, size n): n! prod_{a<b} (b - a) / prod_b b!
    over its beads a, b."""
    beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
    num, den = math.factorial(n), 1
    for j, b in enumerate(beads):
        den *= math.factorial(b)
        for a in beads[:j]:
            num *= b - a
    return num // den


# Character columns, keyed on the bead mask: (largest kmax so far, column).
_COLUMNS: dict[int, tuple[int, tuple[int, ...]]] = {}
# No coefficient past n = 135: p(136) > 10^10 classes, over 3 TB of columns.
_MAX_N = 135


def _column(mask: int, n: int, kmax: int) -> tuple[int, ...]:
    """chi of the shape (mask, size n) at each class of n with parts <=
    kmax, in partitions_of order.  The stored column of the shape is
    sliced or extended: the block of classes with first part k >= 2 is the
    signed sum of the columns, at kmax = k, of the shapes its k-rim hooks
    leave, and the block for k = 1 is f of the shape."""
    kmax = min(kmax, n)
    entry = _COLUMNS.get(mask)
    if entry is None:
        entry = _COLUMNS[mask] = (1, (_standard(mask, n),)) if n else (0, (1,))
    top, column = entry
    if kmax < top:
        return column[len(column) - _count(n, kmax):]
    if kmax > top:
        head = []
        for k in range(kmax, top, -1):
            block = (0,) * _count(n - k, k)
            for moved, odd in _hooks(mask, k):
                block = tuple(map(sub if odd else add, block, _column(moved, n - k, k)))
            head += block
        column = tuple(head) + column
        _COLUMNS[mask] = (kmax, column)
    return column


def _kronecker(n: int, *masks: int) -> int:
    """g of the three shapes of size n given by their bead masks."""
    if n > _MAX_N:
        raise ValueError(f"cannot evaluate at n = {n}: S_n has over 10^10 classes for n > {_MAX_N}")
    a, b, c = (_column(mask, n, n) for mask in masks)
    total = sum(map(mul, map(mul, _sizes(n, n), a), map(mul, b, c)))
    value, rest = divmod(total, math.factorial(n))
    if rest or value < 0:
        raise ArithmeticError(f"character sum {total} is not a multiple >= 0 of {n}!")
    return value


def kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """g(lam, mu, nu) = sum_rho chi^lam chi^mu chi^nu / z_rho."""
    n = lam.size
    if mu.size != n or nu.size != n:
        raise SizeMismatch("all three partitions must have equal size")
    return _kronecker(n, _mask(lam), _mask(mu), _mask(nu))


def padded_kronecker(lam: Partition, nu: Partition, mu: Partition, n: int) -> int:
    """g of the three partitions padded to total n.  Padding p adds a
    first part n - |p|, that is one bead at n - |p| + len(p) above the
    beads of p.  A first part 0 comes only with p = () and n = 0, where
    the masks 1 and 0 both give the column (1,)."""
    masks = []
    for p in (lam, nu, mu):
        first = n - p.size
        if first < p.row(1):
            pad(p, n)  # raises FirstRowTooShort with pad's message
        masks.append(_mask(p) | 1 << first + len(p))
    return _kronecker(n, *masks)


def min_padding(lam: Partition, nu: Partition, mu: Partition) -> int:
    """Smallest n for which all three pads are partitions."""
    return max(
        (p.size + (p[0] if p else 0) for p in (lam, nu, mu)), default=0
    )


def stable_kronecker_oracle(lam: Partition, nu: Partition, mu: Partition) -> int:
    """Limit of the padded coefficients, evaluated once at
    n2 = max(min_padding, floor((|lam| + |nu| + |mu| + lam_1 + nu_1 + mu_1) / 2)),
    from which on they are constant (Briand-Orellana-Rosas, The stability
    of the Kronecker product of Schur functions, J. Algebra 2011).

    The tests check n2 against n* = max(|lam| + |nu| + |mu|, min_padding),
    from which on constancy has this short proof: for n >= |p| + p_1,
    chi^{p[n]} is a character polynomial of weighted degree |p|
    (Macdonald, Symmetric Functions and Hall Polynomials, I.7 Ex. 14); the
    S_n-mean of a product of cycle-count binomials of weighted degree d is
    the same for every n >= d (Diaconis-Shahshahani 1994).
    """
    total = sum(p.size + p.row(1) for p in (lam, nu, mu))
    n = max(total // 2, min_padding(lam, nu, mu))
    return padded_kronecker(lam, nu, mu, n)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c^nu_{lam,mu}: column-strict fillings of nu/lam with content mu
    whose reverse reading word is a lattice permutation.

    Enumerated directly over skew fillings; independent of the path
    machinery.
    """
    # Containment changes no value: with lam not inside nu the filler has
    # more cells than entries and finds nothing.  It stays so that such
    # input is answered before any search starts.
    if lam.size + mu.size != nu.size or not contains(lam, nu):
        return 0
    return _fillings(nu, lam, mu, lattice=True)


def _fillings(outer: Partition, inner: Partition, content: tuple, lattice: bool) -> int:
    """Fillings of outer/inner holding content[v - 1] entries v, weakly
    increasing along rows and strictly down columns.

    Cells are filled in reverse reading order: rows top to bottom, each
    row right to left, so an entry lies between the cell above plus 1 (1
    when that cell is in inner or absent) and the cell to its right
    (len(content) at the row's end).  With lattice, a value v > 1 is
    placed only while fewer v than v - 1 have been placed: every prefix of
    the reverse reading word is then a lattice word, and a bad prefix is
    cut at once.
    """
    grid = [[0] * row for row in outer]  # 0 in every cell of inner
    cells = [
        (i, j)
        for i, row in enumerate(outer)
        for j in range(row - 1, inner.row(i + 1) - 1, -1)
    ]
    placed = [0] * (len(content) + 1)  # placed[v]: entries v so far

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        i, j = cells[k]
        row = grid[i]
        lo = grid[i - 1][j] + 1 if i else 1
        hi = row[j + 1] if j + 1 < len(row) else len(content)
        count = 0
        for v in range(lo, hi + 1):
            if placed[v] == content[v - 1]:
                continue
            if lattice and v > 1 and placed[v] == placed[v - 1]:
                continue
            row[j] = v
            placed[v] += 1
            count += fill(k + 1)
            placed[v] -= 1
        return count

    return fill(0)


def kostka(beta: Partition, content) -> int:
    """Semistandard fillings of shape beta with the given content.

    The content may be any composition (tuple of nonnegative counts).
    """
    content = tuple(content)
    if beta.size != sum(content):
        raise SizeMismatch(f"|{beta}| != |{format_partition(content)}|")
    return _fillings(beta, Partition(), content, lattice=False)


def standard_count(mu: Partition) -> int:
    """f^mu, the number of standard tableaux of shape mu, in the bead
    closed form that the character columns start from."""
    return _standard(_mask(mu), mu.size)


def save_character_cache(path: str) -> None:
    """Write the memo table as sorted "shape|cycles|value" lines."""
    masks = {mask for mask, _ in _CHAR_CACHE}
    shapes = {mask: format_partition(_shape(mask)) for mask in masks}
    lines = sorted(
        f"{shapes[mask]}|{','.join(map(str, rho)) or '0'}|{v}"
        for (mask, rho), v in _CHAR_CACHE.items()
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def load_character_cache(path: str) -> int:
    """Merge entries from a cache file; returns the number loaded."""
    loaded = 0
    masks: dict[str, int] = {}  # one parse per distinct shape text
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            lam_s, rho_s, val = line.split("|")
            if lam_s not in masks:
                masks[lam_s] = _mask(parse_partition(lam_s))
            rho = () if rho_s == "0" else tuple(int(x) for x in rho_s.split(","))
            _CHAR_CACHE[(masks[lam_s], rho)] = int(val)
            loaded += 1
    return loaded
