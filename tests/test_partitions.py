import pytest
from hypothesis import given, strategies as st

from stablekron.partitions import (
    FirstRowTooShort,
    NotContained,
    Partition,
    contains,
    format_partition,
    horizontal_strip,
    intersect,
    pad,
    parse_partition,
)


def P(text):
    return parse_partition(text)


def all_partitions(max_size):
    out = [Partition()]
    def gen(prefix, remaining, cap):
        for part in range(min(remaining, cap), 0, -1):
            out.append(Partition(prefix + [part]))
            gen(prefix + [part], remaining - part, part)
    gen([], max_size, max_size)
    return out


def test_construction_normalizes_trailing_zeros():
    assert Partition((3, 1, 0, 0)) == Partition((3, 1))
    assert Partition(()) == Partition((0, 0))


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(ValueError):
        Partition((2.7, 1))
    with pytest.raises(ValueError):
        Partition(("3",))


def test_size_and_length():
    assert P("3,3,2").size == 8
    assert len(P("3,3,2")) == 3
    assert P("").size == 0 and len(P("")) == 0


def test_parse_format_roundtrip_examples():
    assert str(P("3,3,2")) == "3,3,2"
    assert parse_partition("0") == Partition()
    assert parse_partition("") == Partition()
    assert format_partition(Partition()) == "0"


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=6))
def test_parse_format_roundtrip(parts):
    lam = Partition(sorted(parts, reverse=True))
    assert parse_partition(format_partition(lam)) == lam


def test_contains():
    assert contains(P(""), P("3,1"))
    assert contains(P("2,1"), P("3,3,2"))
    assert not contains(P("2,2"), P("3,1"))


def test_intersect():
    assert intersect(P("7,5,1,1"), P("6,3,3")) == P("6,3,1")
    assert intersect(P("4"), P("4")) == P("4")
    assert intersect(P(""), P("2,1")) == P("")


def test_pad():
    assert pad(P("2,1"), 6) == P("3,2,1")
    assert pad(P("4"), 9) == P("5,4")
    with pytest.raises(FirstRowTooShort):
        pad(P("2,1"), 4)


def test_pad_depth_roundtrip():
    for lam in all_partitions(6):
        n = lam.size + (lam[0] if lam else 0) + 2
        padded = pad(lam, n)
        assert padded.size == n
        assert Partition(padded[1:]) == lam  # depth is |lam|


def test_intersect_is_greatest_lower_bound():
    universe = all_partitions(6)
    for a in universe:
        for b in universe:
            both = intersect(a, b)
            assert contains(both, a) and contains(both, b)
            for c in universe:
                if contains(c, a) and contains(c, b):
                    assert contains(c, both)


def test_horizontal_strip():
    assert horizontal_strip(P("6,3,3"), P("6,3,1"))
    assert not horizontal_strip(P("3,3"), P("2,1"))
    assert horizontal_strip(P("4,2"), P("4,2"))
    with pytest.raises(NotContained):
        horizontal_strip(P("2"), P("3"))
