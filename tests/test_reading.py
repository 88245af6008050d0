from operator import gt

import pytest

from reference import T, one_row_closed_form, orbit_of, parse_step, reading_word_of
from stablekron.orbits import WeightedOrbit, enumerate_sstd, frame_pairs
from stablekron.partitions import Partition, contains, parse_partition
from stablekron.reading import (
    ReadingWord,
    is_lattice,
    reading_word,
    stable_kronecker,
    stable_kronecker_copieri,
)
from stablekron.characters import partitions_of, partitions_up_to, stable_kronecker_oracle
from stablekron.tableaux import TripleClass, UnsupportedFamily, classify


def P(text):
    return parse_partition(text)


def test_step_order():
    assert parse_step("r1") < parse_step("d0")
    assert parse_step("a2") > parse_step("a1")
    assert parse_step("d1") == parse_step("d1")


def test_reading_word_example():
    orbit, _ = orbit_of(T("2,1", "a1·a2·a2·a3·a3"), P("2,2,1"))
    word = reading_word(orbit)
    assert [str(st) for st in word.steps] == ["a1", "a2", "a2", "a3", "a3"]
    assert word.frames == (1, 2, 1, 3, 2)
    assert str(word) == "[a1 a2 a2 a3 a3 | 1 2 1 3 2]"


def test_reading_word_is_member_independent():
    for seed, mu in [
        (T("2,1", "a1·a2·a2·a3·a3"), P("2,2,1")),
        (T("4", "r1·d1·a1"), P("2,1")),
        (T("4", "d1·a1·r1"), P("2,1")),
    ]:
        orbit, _ = orbit_of(seed, mu)
        words = {reading_word_of(m, mu) for m in orbit.members}
        assert len(words) == 1
        assert words.pop() == reading_word(orbit)


def test_reading_word_one_row():
    word = reading_word_of(T("4", "r1·d1·a1"), P("2,1"))
    # move-up first, then the dummy, then the move-down
    assert [str(st) for st in word.steps] == ["r1", "d1", "a1"]
    assert word.frames == (1, 1, 2)
    # a weight of another size has no frame for some step
    for mu in (P("2"), P("2,2")):
        with pytest.raises(ValueError):
            reading_word_of(T("4", "r1·d1·a1"), mu)


def test_is_lattice():
    assert is_lattice(ReadingWord((), (1, 2, 1, 3, 2)))
    assert is_lattice(ReadingWord((), ()))
    assert not is_lattice(ReadingWord((), (1, 2, 2)))
    assert not is_lattice(ReadingWord((), (2,)))


def _maximal_depth(n):
    """Every maximal-depth triple with |nu| <= n, as (lam, nu, mu)."""
    for nu in partitions_up_to(n):
        for lam in partitions_up_to(nu.size):
            if contains(lam, nu):
                for mu in map(Partition, partitions_of(nu.size - lam.size)):
                    yield lam, nu, mu


def _frame_test(o):
    above, below = frame_pairs(o.weight)
    return all(map(gt, above(o.steps), below(o.steps)))


def test_frame_test_is_lattice_of_the_word():
    # the word-free test on the least member against is_lattice of the
    # word, on every orbit of the maximal-depth triples with |nu| <= 7
    # and the one-row triples with rows <= 6 and |mu| <= 5
    rows = [Partition((a,)) for a in range(7)]
    triples = [*_maximal_depth(7)]
    triples += [(lam, nu, mu) for lam in rows for nu in rows for mu in partitions_up_to(5)]
    seen = []
    for lam, nu, mu in triples:
        for o in enumerate_sstd(lam, nu, mu.size, mu):
            lattice = is_lattice(o.word)
            assert _frame_test(o) == lattice, (lam, nu, mu, o.steps)
            seen.append(lattice)
    assert (len(triples), len(seen), sum(seen)) == (2654, 6409, 1132)


def test_copieri_equals_the_word_count_on_the_maximal_depth_sweep():
    # the count by frames against counting lattice words, on all 4,136
    # maximal-depth triples with |nu| <= 8
    triples = total = 0
    for lam, nu, mu in _maximal_depth(8):
        words = sum(is_lattice(o.word) for o in enumerate_sstd(lam, nu, mu.size, mu))
        got = stable_kronecker_copieri(lam, nu, mu)
        assert got == words, (lam, nu, mu)
        triples += 1
        total += got
    assert (triples, total) == (4136, 1351)


def test_count_builds_no_word(monkeypatch):
    # neither the count nor the enumeration reads an orbit's word, and
    # the size read from the steps is the number of members
    def word(self):
        raise AssertionError("word built")

    monkeypatch.setattr(WeightedOrbit, "word", property(word))
    orbits = counted = 0
    for lam, nu, mu in _maximal_depth(6):
        counted += stable_kronecker_copieri(lam, nu, mu)
        for o in enumerate_sstd(lam, nu, mu.size, mu):
            assert o.size == len(o.members), (lam, nu, mu, o.steps)
            orbits += 1
    assert orbits > counted > 0
    with pytest.raises(AssertionError, match="word built"):
        enumerate_sstd(P("2,1"), P("3,3,2"), 5, P("2,2,1"))[0].word


def test_copieri_count_maximal_depth():
    assert stable_kronecker_copieri(P("2,1"), P("3,3,2"), P("2,2,1")) == 1


def test_copieri_count_one_row():
    assert stable_kronecker_copieri(P("4"), P("4"), P("2,2,1")) == 1
    assert stable_kronecker_copieri(P("4"), P("4"), P("3")) == 2
    assert stable_kronecker_copieri(P("4"), P("4"), P("2,1")) == 2
    assert stable_kronecker_copieri(P("4"), P("4"), P("1,1,1")) == 1


def test_one_row_closed_form_equals_both_engines():
    # the closed form in tests/reference.py against the oracle and the
    # lattice count on every one-row pair with rows <= 8 and |mu| <= 6;
    # both engines give 0 whenever mu has more than three parts
    checked = long = 0
    for a in range(9):
        for b in range(9):
            for mu in partitions_up_to(6):
                lam, nu = Partition((a,)), Partition((b,))
                got = stable_kronecker_oracle(lam, nu, mu)
                assert got == stable_kronecker_copieri(lam, nu, mu), (a, b, mu)
                assert got == one_row_closed_form(a, b, tuple(mu)), (a, b, mu)
                if len(mu) > 3:
                    assert got == 0, (a, b, mu)
                    long += 1
                checked += 1
    assert (checked, long) == (2430, 567)


def test_copieri_rejects_other_families():
    with pytest.raises(UnsupportedFamily):
        stable_kronecker_copieri(P("2,1"), P("2,1"), P("1"))


def test_copieri_supported_exactly_on_classified_families():
    # enumerate_std0 alone decides support; it must agree with classify
    supported = (TripleClass.MAXIMAL_DEPTH, TripleClass.ONE_ROW_PAIR)
    tags = set()
    for lam in partitions_up_to(4):
        for nu in partitions_up_to(4):
            for mu in partitions_up_to(3):
                tag = classify(lam, nu, mu.size)
                tags.add(tag)
                try:
                    stable_kronecker_copieri(lam, nu, mu)
                    raised = False
                except UnsupportedFamily:
                    raised = True
                assert raised == (tag not in supported), (lam, nu, mu, tag)
    assert tags == set(TripleClass)


def test_router_prefers_lattice_count():
    value, method = stable_kronecker(P("2,1"), P("3,3,2"), P("2,2,1"))
    assert (value, method) == (1, "copieri")


def test_router_fallback():
    lam, nu, mu = P("2,1"), P("2,1"), P("1")
    value, method = stable_kronecker(lam, nu, mu)
    assert method == "oracle"
    assert value == stable_kronecker_oracle(lam, nu, mu)


def test_lattice_orbit_counts_match_sstd_filter():
    lam, nu, mu = P("2,1"), P("3,3,2"), P("2,2,1")
    orbits = enumerate_sstd(lam, nu, mu.size, mu)
    lattice = [o for o in orbits if is_lattice(reading_word(o))]
    assert len(orbits) == 4 and len(lattice) == 1
