import pytest
from hypothesis import given, strategies as st

from stablekron.partitions import (
    FirstRowTooShort,
    NotContained,
    Partition,
    add_box,
    contains,
    format_partition,
    horizontal_strip,
    intersect,
    pad,
    parse_partition,
    remove_box,
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


def test_add_box():
    assert add_box(P("2,1"), 1) == P("3,1")
    assert add_box(P("2,1"), 2) == P("2,2")
    assert add_box(P("2,1"), 3) == P("2,1,1")
    assert add_box(P(""), 1) == P("1")


def test_add_box_invalid():
    assert add_box(P("1,1"), 2) is None  # row 2 would exceed row 1
    assert add_box(P("2,1"), 4) is None  # skips a row


def test_remove_box():
    assert remove_box(P("2,1"), 1) == P("1,1")
    assert remove_box(P("2,2"), 1) is None
    assert remove_box(P("2,1"), 2) == P("2")
    assert remove_box(P("1"), 1) == P("")  # single-box row disappears


def test_add_remove_inverse():
    for lam in all_partitions(6):
        for i in range(1, len(lam) + 2):
            grown = add_box(lam, i)
            if grown is not None:
                assert remove_box(grown, i) == lam
        for i in range(1, len(lam) + 1):
            shrunk = remove_box(lam, i)
            if shrunk is not None:
                assert add_box(shrunk, i) == lam


def test_add_and_remove_box_equal_validated_construction():
    # add_box/remove_box skip Partition's validation; each result must be
    # exactly what the validating constructor gives, or None where that
    # constructor refuses the changed parts
    for lam in all_partitions(8):
        for i in range(1, len(lam) + 3):
            for op, delta in ((add_box, 1), (remove_box, -1)):
                parts = list(lam) + [0, 0]
                parts[i - 1] += delta
                try:
                    want = Partition(parts)
                except ValueError:
                    want = None
                got = op(lam, i)
                assert got == want, (op.__name__, lam, i)
                if want is not None:
                    assert type(got) is Partition and repr(got) == repr(want)


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
