import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from reference import centralizer_order, horizontal_strip
from stablekron import characters
from stablekron.characters import (
    SizeMismatch,
    character,
    kostka,
    kronecker,
    load_character_cache,
    lr_coefficient,
    min_padding,
    padded_kronecker,
    partitions_of,
    partitions_up_to,
    save_character_cache,
    stable_kronecker_oracle,
    standard_count,
)
from stablekron.partitions import FirstRowTooShort, Partition, contains, pad, parse_partition


def P(text):
    return parse_partition(text)


def test_partitions_of():
    fives = list(partitions_of(5))
    assert len(fives) == 7
    assert fives[0] == (5,) and fives[-1] == (1, 1, 1, 1, 1)
    assert fives == sorted(fives, reverse=True)
    assert list(partitions_of(0)) == [()]


def test_partitions_up_to():
    shapes = partitions_up_to(4)
    assert len(shapes) == 1 + 1 + 2 + 3 + 5
    assert all(isinstance(p, Partition) for p in shapes)


def test_centralizer_order():
    assert centralizer_order((3, 1, 1)) == 6
    assert centralizer_order(()) == 1
    for n in range(1, 9):
        assert sum(
            math.factorial(n) // centralizer_order(rho) for rho in partitions_of(n)
        ) == math.factorial(n)
    # the class tables hold n!/z_rho and the number of classes, at every kmax
    for n in range(13):
        for kmax in range(n + 2):
            rhos = list(partitions_of(n, kmax))
            sizes = characters._sizes(n, kmax)
            assert len(sizes) == characters._count(n, kmax) == len(rhos)
            for rho, size in zip(rhos, sizes):
                assert size * centralizer_order(rho) == math.factorial(n), (rho, kmax)


def test_class_count_is_the_partition_count():
    for n in range(31):
        for k in range(n + 3):
            assert characters._count(n, k) == sum(1 for _ in partitions_of(n, k)), (n, k)
    assert characters._count(0, 0) == 1
    assert characters._count(3, 0) == 0
    assert characters._sizes(0, 0) == (1,)
    assert characters._sizes(3, 0) == ()


def test_character_trivial_and_sign():
    for rho in partitions_of(6):
        assert character(P("6"), rho) == 1
        sign = (-1) ** sum(k - 1 for k in rho)
        assert character(P("1,1,1,1,1,1"), rho) == sign


def test_character_small_table():
    assert character(P("2,1"), (1, 1, 1)) == 2
    assert character(P("2,1"), (2, 1)) == 0
    assert character(P("2,1"), (3,)) == -1
    assert character(P("3,2"), (1, 1, 1, 1, 1)) == 5


def test_character_size_mismatch():
    with pytest.raises(SizeMismatch):
        character(P("2,1"), (2, 2))


def test_character_row_orthogonality():
    for n in range(1, 7):
        shapes = [Partition(p) for p in partitions_of(n)]
        for a, b in itertools.combinations_with_replacement(shapes, 2):
            inner = sum(
                character(a, rho)
                * character(b, rho)
                * (math.factorial(n) // centralizer_order(rho))
                for rho in partitions_of(n)
            )
            assert inner == (math.factorial(n) if a == b else 0)


def test_character_degree_is_hook_count():
    for n in range(1, 8):
        for p in partitions_of(n):
            lam = Partition(p)
            assert character(lam, (1,) * n) == standard_count(lam)


def test_kronecker_known_values():
    assert kronecker(P("2,1"), P("2,1"), P("2,1")) == 1
    assert kronecker(P("1,1"), P("1,1"), P("2")) == 1
    assert kronecker(P("1,1"), P("1,1"), P("1,1")) == 0
    # one factor trivial: reduces to the inner product delta
    for p in partitions_of(4):
        for q in partitions_of(4):
            want = 1 if p == q else 0
            assert kronecker(P("4"), Partition(p), Partition(q)) == want


def test_kronecker_symmetric():
    shapes = [Partition(p) for p in partitions_of(4)]
    for a, b, c in itertools.combinations(shapes, 3):
        base = kronecker(a, b, c)
        for x, y, z in itertools.permutations((a, b, c)):
            assert kronecker(x, y, z) == base


def test_kronecker_size_mismatch():
    with pytest.raises(SizeMismatch):
        kronecker(P("2,1"), P("2,1"), P("2"))


def test_min_padding_and_padded():
    assert min_padding(P("2,1"), P("3"), P("1")) == 6
    assert padded_kronecker(P(""), P(""), P(""), 3) == 1
    assert padded_kronecker(P("1"), P("1"), P("1"), 4) == 1


def test_stable_oracle_small_values():
    assert stable_kronecker_oracle(P(""), P(""), P("")) == 1
    assert stable_kronecker_oracle(P("1"), P("1"), P("1")) == 1
    assert stable_kronecker_oracle(P("1"), P("1"), P("")) == 1
    assert stable_kronecker_oracle(P("2"), P("2"), P("2")) == 2
    assert stable_kronecker_oracle(P("2"), P("1"), P("1")) == 1


def test_stable_oracle_survives_early_plateau():
    # the padded sequence here is 0, 1, 1, 2, 2, ...: two equal values
    # appear before the true limit, so naive early stopping returns 1
    assert stable_kronecker_oracle(P("4"), P("4"), P("3")) == 2


@pytest.mark.parametrize(
    "lam, nu, mu, n_two",
    [
        ("", "", "", 0),  # padded_kronecker(∅, ∅, ∅, 0) is already 1
        ("1", "1", "", 2),
        ("5", "", "", 10),  # min_padding exceeds the total size
        ("4", "4", "3", 11),
        ("2,1", "2,1", "2,1", 7),  # min_padding 5 < n2 < n* = 9
        ("7,5,1,1", "6,3,3", "2,2,1", 23),  # criterion 4's triple; n* = 31
    ],
)
def test_stable_oracle_evaluates_once_at_n_star(monkeypatch, lam, nu, mu, n_two):
    calls = []

    def fake(*args):
        calls.append(args)
        return 7

    monkeypatch.setattr(characters, "padded_kronecker", fake)
    assert stable_kronecker_oracle(P(lam), P(nu), P(mu)) == 7
    assert calls == [(P(lam), P(nu), P(mu), n_two)]


def test_padded_kronecker_is_constant_from_n_two_to_n_star():
    # n* is where the character-polynomial proof starts; the oracle
    # evaluates at the Briand-Orellana-Rosas point n2 <= n*, so the padded
    # value must already be the limit there.  Some triples change value
    # just below n2, so the point cannot be set one lower.
    triples = list(itertools.combinations_with_replacement(partitions_up_to(5), 3))
    assert len(triples) == 1330
    sharp = 0
    for lam, nu, mu in triples:
        floor = min_padding(lam, nu, mu)
        n_star = max(lam.size + nu.size + mu.size, floor, 1)
        n_two = max(sum(p.size + p.row(1) for p in (lam, nu, mu)) // 2, floor)
        assert n_two <= n_star
        limit = padded_kronecker(lam, nu, mu, n_two)
        for n in range(n_two + 1, n_star + 1):
            assert padded_kronecker(lam, nu, mu, n) == limit, (lam, nu, mu, n)
        assert stable_kronecker_oracle(lam, nu, mu) == limit
        if n_two > floor and padded_kronecker(lam, nu, mu, n_two - 1) != limit:
            sharp += 1
    assert sharp == 584


def test_class_table():
    for n in range(13):
        rhos = list(partitions_of(n))
        sizes = characters._sizes(n, n)
        assert len(sizes) == len(rhos)
        for rho, size in zip(rhos, sizes):
            assert size * centralizer_order(rho) == math.factorial(n)
        assert sum(sizes) == math.factorial(n)


def test_column_is_character_class_by_class(monkeypatch):
    # the column recursion and the one-class recursion check each other
    monkeypatch.setattr(characters, "_COLUMNS", {})
    for n in range(11):
        for lam in map(Partition, partitions_of(n)):
            for kmax in range(n + 1):
                assert characters._column(characters._mask(lam), n, kmax) == tuple(
                    character(lam, rho) for rho in partitions_of(n, kmax)
                ), (lam, kmax)


@pytest.mark.parametrize("order", ["descending", "shuffled"])
def test_column_grows_in_any_order(monkeypatch, order):
    # each shape keeps one column: a smaller kmax slices it, a larger one
    # extends it, so the order of the requests must not change a value
    monkeypatch.setattr(characters, "_COLUMNS", {})
    asks = [
        (lam, kmax)
        for n in range(11)
        for lam in map(Partition, partitions_of(n))
        for kmax in range(n, -1, -1)
    ]
    if order == "shuffled":
        random.Random(0).shuffle(asks)
    for lam, kmax in asks:
        assert characters._column(characters._mask(lam), lam.size, kmax) == tuple(
            character(lam, rho) for rho in partitions_of(lam.size, kmax)
        ), (lam, kmax)


def test_columns_hold_one_entry_per_shape(monkeypatch):
    columns = {}
    monkeypatch.setattr(characters, "_COLUMNS", columns)
    assert stable_kronecker_oracle(P("7,5,1,1"), P("6,3,3"), P("2,2,1")) == 72
    assert len(columns) < 500  # a column per (mask, kmax) asked would make 1,473
    for mask, (top, column) in columns.items():
        n = sum(characters._shape(mask))
        assert characters._mask(characters._shape(mask)) == mask
        assert len(column) == characters._count(n, top)


def test_padded_kronecker_pads_the_masks():
    shapes = partitions_up_to(6)
    for lam, nu, mu in itertools.combinations_with_replacement(shapes, 3):
        floor = min_padding(lam, nu, mu)
        for n in range(floor, floor + 5):
            assert padded_kronecker(lam, nu, mu, n) == kronecker(
                pad(lam, n), pad(nu, n), pad(mu, n)
            ), (lam, nu, mu, n)
    # too small an n fails in the first shape that pad rejects, with its text
    for lam, nu, mu in itertools.product(shapes, repeat=3):
        for n in (min_padding(lam, nu, mu) - 1, lam.size - 1, mu.size - 1):
            with pytest.raises(FirstRowTooShort) as want:
                for p in (lam, nu, mu):
                    pad(p, n)
            with pytest.raises(FirstRowTooShort) as got:
                padded_kronecker(lam, nu, mu, n)
            assert str(got.value) == str(want.value)


def test_kronecker_is_the_class_sum():
    for n in range(8):
        shapes = [Partition(p) for p in partitions_of(n)]
        for a, b, c in itertools.combinations_with_replacement(shapes, 3):
            total = sum(
                character(a, rho) * character(b, rho) * character(c, rho)
                * (math.factorial(n) // centralizer_order(rho))
                for rho in partitions_of(n)
            )
            assert kronecker(a, b, c) * math.factorial(n) == total, (a, b, c)


def test_character_reads_no_column(monkeypatch):
    # one class of a shape of 100: a column would hold p(100) values
    columns = {}
    monkeypatch.setattr(characters, "_COLUMNS", columns)
    assert character(P("40,30,20,10"), (25,) * 4) == 0
    assert columns == {}


def test_oracle_refuses_an_n_no_memory_holds(monkeypatch):
    # past _MAX_N the class table has over 10^10 entries; ḡ((300),(300),∅)
    # = 1 is evaluated at n2 = 600, and the refusal builds no column
    top = characters._MAX_N
    assert characters._count(top, top) < 10**10 <= characters._count(top + 1, top + 1)
    columns = {}
    monkeypatch.setattr(characters, "_COLUMNS", columns)
    with pytest.raises(ValueError, match="n = 600"):
        stable_kronecker_oracle(P("300"), P("300"), P(""))
    assert columns == {}


@pytest.mark.parametrize("planted", [2, -3])
def test_kronecker_rejects_corrupt_character(monkeypatch, planted):
    # g((2),(2),(2)) = (chi((2))^3 + 1) / 2! with the true chi = 1; a planted
    # 2 gives 9, no multiple of 2!, and -3 gives -26, a negative multiple.
    # The column of (2) holds chi at the classes (2) and (1,1).
    monkeypatch.setitem(characters._COLUMNS, characters._mask((2,)), (2, (planted, 1)))
    with pytest.raises(ArithmeticError):
        kronecker(P("2"), P("2"), P("2"))


def test_lr_known_values():
    assert lr_coefficient(P("2,1"), P("2,1"), P("3,2,1")) == 2
    assert lr_coefficient(P("2,1"), P(""), P("2,1")) == 1
    assert lr_coefficient(P("2,1"), P("2"), P("2,2")) == 0  # sizes differ
    assert lr_coefficient(P("2,2"), P("1"), P("3,1")) == 0  # not contained


def test_lr_answers_an_outside_start_before_any_search(monkeypatch):
    # sizes agree, but (3) is not inside (2,2): the answer 0 comes from
    # the containment test, before the filler starts
    def search(*args, **kwargs):
        raise AssertionError("the filler ran")

    monkeypatch.setattr(characters, "_fillings", search)
    assert lr_coefficient(P("3"), P("1"), P("2,2")) == 0


def test_lr_pieri_rule():
    # multiplying by a one-row shape adds a horizontal strip
    for nu_parts in partitions_of(5):
        nu = Partition(nu_parts)
        for lam_parts in partitions_of(3):
            lam = Partition(lam_parts)
            want = int(
                contains(lam, nu) and horizontal_strip(nu, lam)
            )
            assert lr_coefficient(lam, P("2"), nu) == want


def test_kostka_values():
    assert kostka(P("2,1"), (1, 1, 1)) == 2
    assert kostka(P("2,1"), (2, 1)) == 1
    assert kostka(P("3"), (1, 1, 1)) == 1
    assert kostka(P("1,1"), (2,)) == 0
    assert kostka(P(""), ()) == 1
    with pytest.raises(SizeMismatch):
        kostka(P("2,1"), (2, 2))


@given(st.permutations([2, 1, 1]))
def test_kostka_content_permutation_invariant(content):
    assert kostka(P("2,1,1"), tuple(content)) == kostka(P("2,1,1"), (2, 1, 1))


def test_kostka_sum_is_standard_count():
    # content (1,...,1) gives standard tableaux
    for p in partitions_of(5):
        lam = Partition(p)
        assert kostka(lam, (1,) * 5) == standard_count(lam)


def test_standard_count():
    assert standard_count(P("")) == 1
    assert standard_count(P("2,1")) == 2
    assert standard_count(P("3,2")) == 5
    for n in range(1, 7):
        assert sum(
            standard_count(Partition(p)) ** 2 for p in partitions_of(n)
        ) == math.factorial(n)


def test_character_cache_roundtrip(tmp_path, monkeypatch):
    cache = {}
    monkeypatch.setattr(characters, "_CHAR_CACHE", cache)
    character(P("3,2"), (2, 2, 1))  # fills a fresh memo
    character(P("2,1"), (3,))
    cache[(characters._mask(()), ())] = 1
    saved = dict(cache)
    path = tmp_path / "characters.cache"
    save_character_cache(str(path))
    lines = path.read_text().splitlines()
    assert lines == sorted(lines) and len(lines) == len(saved)
    assert all(line.count("|") == 2 for line in lines)
    cache.clear()
    assert load_character_cache(str(path)) == len(saved)
    assert cache == saved


def test_character_cache_file_format(tmp_path, monkeypatch):
    monkeypatch.setattr(characters, "_CHAR_CACHE", {})
    character(P("3,2"), (2, 2, 1))
    path = tmp_path / "characters.cache"
    save_character_cache(str(path))
    assert path.read_text().splitlines() == ["1|1|1", "3,2|2,2,1|1", "3|2,1|1"]
    # the file feeds character only: a planted chi^(2)((2)) = 2 is read back
    path.write_text("2|2|2\n")
    assert load_character_cache(str(path)) == 1
    assert character(P("2"), (2,)) == 2


def test_character_closed_forms_at_wide_masks(monkeypatch):
    # chi at (n-1,1), (n-2,2) and (n-2,1,1) from the fixed points m1 and
    # 2-cycles m2 of rho, by counting fixed points on 1-sets, 2-sets and
    # ordered pairs; no rim hook is involved
    monkeypatch.setattr(characters, "_CHAR_CACHE", {})
    for n in range(4, 28):
        for rho in partitions_of(n):
            m1, m2 = rho.count(1), rho.count(2)
            x = m1 - 1
            assert character(Partition((n - 1, 1)), rho) == m1 - 1
            assert character(Partition((n - 2, 2)), rho) == math.comb(m1, 2) + m2 - m1
            assert character(Partition((n - 2, 1, 1)), rho) == x * (x - 1) // 2 - m2


def test_bead_mask_roundtrip():
    for lam in partitions_up_to(10):
        mask = characters._mask(lam)
        assert characters._shape(mask) == lam
        assert not mask & 1  # no bead for a zero part
