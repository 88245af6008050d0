"""Integer partitions and the arithmetic every other module is built on.

Partitions are stored normalized: strictly positive parts, weakly
decreasing, no trailing zeros.  The empty partition is ``Partition()``.
All operations are pure functions over immutable values.
"""

from __future__ import annotations


class FirstRowTooShort(ValueError):
    """Padding to n would not produce a partition (n - |lam| < lam_1)."""


class Partition(tuple):
    """A weakly decreasing sequence of positive integers.

    Trailing zeros in the input are stripped; anything else that is not
    weakly decreasing and positive raises ValueError.
    """

    def __new__(cls, parts=()):
        given = tuple(parts)
        parts = tuple(int(p) for p in given)
        if parts != given:
            raise ValueError(f"parts must be integers, got {given}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {p}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"parts must weakly decrease, got {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def row(self, i: int) -> int:
        """Part in row i (1-indexed), 0 beyond the last row."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def __str__(self) -> str:
        return format_partition(self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"


EMPTY = Partition()


def parse_partition(text: str) -> Partition:
    """Parse the "a,b,c" text format; "" and "0" both mean the empty partition."""
    text = text.strip()
    if text in ("", "0"):
        return EMPTY
    return Partition(int(p) for p in text.split(","))


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "0"


def contains(inner: Partition, outer: Partition) -> bool:
    """True iff inner_i <= outer_i for every row."""
    return len(inner) <= len(outer) and all(
        a <= b for a, b in zip(inner, outer)
    )


def pad(lam: Partition, n: int) -> Partition:
    """Prepend a first row so the total is n: (n - |lam|, lam_1, lam_2, ...)."""
    first = n - lam.size
    if lam and first < lam[0]:
        raise FirstRowTooShort(f"cannot pad {lam!r} to {n}: first row {first} < {lam[0]}")
    if first < 0:
        raise FirstRowTooShort(f"cannot pad {lam!r} to {n}: {n} < {lam.size}")
    return Partition((first, *lam))  # first = 0 only for lam = (), and 0 is stripped
