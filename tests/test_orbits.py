import itertools
from operator import gt

import pytest

from reference import (
    T,
    apply_step,
    classical_by_replay,
    enumerate_orbits,
    lr_tableaux,
    orbit_of,
    reading_word_of,
    replay,
    skew_ssyt,
    swap,
)
from stablekron import orbits, tableaux
from stablekron.orbits import enumerate_sstd, frame_pairs, frames, to_classical
from stablekron.reading import stable_kronecker_copieri
from stablekron.characters import partitions_of
from stablekron.partitions import Partition, contains, parse_partition
from stablekron.tableaux import KroneckerTableau, Step, UnsupportedFamily, enumerate_std0


def P(text):
    return parse_partition(text)


def _boundaries(mu):
    """Positions k after which the frame changes."""
    fr = frames(mu)
    return frozenset(k for k in range(1, len(fr)) if fr[k - 1] != fr[k])


def test_boundaries():
    assert _boundaries(P("2,2,1")) == frozenset({2, 4})
    assert _boundaries(P("5")) == frozenset()
    assert _boundaries(P("")) == frozenset()
    assert _boundaries(P("1,1,1")) == frozenset({1, 2})


def test_frame_of():
    assert frames(P("2,2,1")) == (1, 1, 2, 2, 3)
    assert frames(P("5")) == (1, 1, 1, 1, 1)
    assert frames(P("")) == ()
    assert frames(P("1,1,1")) == (1, 2, 3)
    for parts in partitions_of(6):
        assert len(frames(Partition(parts))) == 6


def test_orbit_of_pure_add():
    orbit, _ = orbit_of(T("2,1", "a1·a2·a2·a3·a3"), P("2,2,1"))
    assert orbit.size == 4
    assert str(orbit.representative) == "a1·a2·a2·a3·a3"
    texts = {str(m) for m in orbit.members}
    assert texts == {
        "a1·a2·a2·a3·a3",
        "a1·a2·a3·a2·a3",
        "a2·a1·a2·a3·a3",
        "a2·a1·a3·a2·a3",
    }


def test_orbit_of_wrong_length():
    with pytest.raises(ValueError):
        orbit_of(T("2,1", "a1·a2"), P("2,2,1"))


def test_orbit_of_one_row():
    orbit, _ = orbit_of(T("4", "r1·d1·a1"), P("2,1"))
    assert orbit.size == 2  # r1·d1 swaps to d1·r1; position 2 is a boundary
    assert {str(m) for m in orbit.members} == {"r1·d1·a1", "d1·r1·a1"}


def test_semistandard_failure():
    # with a single frame every position is interior, and a2·a1·a2 does
    # not admit the swap at position 2
    orbit, semistandard = orbit_of(T("2,1", "a1·a2·a2"), P("3"))
    assert orbit.size == 2
    assert not semistandard
    assert enumerate_sstd(P("2,1"), P("3,3"), 3, P("3")) == []


def test_semistandard_flag_matches_definition():
    # the flag orbit_of records equals trying every interior swap afresh
    cases = [
        (P("2,1"), P("3,3,2"), 5, P("2,2,1")),
        (P("2,1"), P("3,3"), 3, P("3")),
        (P("4"), P("4"), 3, P("2,1")),
        (P("3"), P("2"), 3, P("1,1,1")),
    ]
    seen = set()
    for lam, nu, s, mu in cases:
        fr = frames(mu)
        for o, semistandard in enumerate_orbits(lam, nu, s, mu):
            want = all(
                swap(m, k) is not None
                for m in o.members
                for k in range(1, s)
                if fr[k - 1] == fr[k]
            )
            assert semistandard == want
            seen.add(want)
    assert seen == {True, False}


def test_orbits_partition_std0():
    cases = [
        (P("2,1"), P("3,3,2"), 5, P("2,2,1")),
        (P("4"), P("4"), 3, P("2,1")),
        (P("3"), P("2"), 3, P("1,1,1")),
    ]
    for lam, nu, s, mu in cases:
        orbits = [o for o, _ in enumerate_orbits(lam, nu, s, mu)]
        members = [m for o in orbits for m in o.members]
        assert len(members) == len(set(members))
        assert set(members) == set(enumerate_std0(lam, nu, s))


def test_orbit_representatives_ascend_and_are_least():
    cases = [
        (P("2,1"), P("3,3,2"), 5, P("2,2,1")),
        (P("2,1"), P("3,3"), 3, P("1,1,1")),
        (P("4"), P("4"), 3, P("2,1")),
        (P("3"), P("2"), 3, P("1,1,1")),
        (P("3"), P("3"), 4, P("2,2")),
    ]
    for lam, nu, s, mu in cases:
        orbits = [o for o, _ in enumerate_orbits(lam, nu, s, mu)]
        keys = [o.representative.steps for o in orbits]
        assert len(orbits) > 1 and keys == sorted(set(keys))
        for o in orbits:
            assert o.representative.steps == min(m.steps for m in o.members)


def _view(o):
    """What a library orbit and a closure orbit share.  The library holds
    the least member and builds the rest from its steps: size is prod
    mu_c! / prod m_i! over the runs of equal steps inside a frame, and the
    word one sort of its pairs; the closure counts its members and sorts
    one member's pairs."""
    return o.weight, o.representative, o.members, o.size, o.word


def test_sstd_subset_of_orbits():
    lam, nu, s, mu = P("2,1"), P("3,3,2"), 5, P("2,2,1")
    sstd = enumerate_sstd(lam, nu, s, mu)
    assert len(sstd) == 4
    every = {_view(o): flag for o, flag in enumerate_orbits(lam, nu, s, mu)}
    assert all(every[_view(o)] for o in sstd)


def _upto(n):
    return [Partition(p) for m in range(n + 1) for p in partitions_of(m)]


def _equivalence_triples():
    """Every maximal-depth triple with |nu| <= 6 and every one-row triple
    with rows <= 4 and |mu| <= 4, as (lam, nu, s, mu)."""
    for nu in _upto(6):
        for lam in _upto(nu.size):
            if contains(lam, nu):
                s = nu.size - lam.size
                for mu in map(Partition, partitions_of(s)):
                    yield lam, nu, s, mu
    rows = [Partition((a,)) for a in range(5)]
    for lam in rows:
        for nu in rows:
            for mu in _upto(4):
                yield lam, nu, mu.size, mu


def test_sstd_equals_semistandard_bfs_orbits():
    # the least-member test against the swap closure: the same
    # representatives, members, sizes, words and order as the closures
    # flagged semistandard
    count = members = 0
    for lam, nu, s, mu in _equivalence_triples():
        want = [_view(o) for o, semistandard in enumerate_orbits(lam, nu, s, mu) if semistandard]
        got = enumerate_sstd(lam, nu, s, mu)
        assert [_view(o) for o in got] == want, (lam, nu, mu)
        assert all(o.start == lam for o in got)
        count += len(got)
        members += sum(o.size for o in got)
    assert (count, members) == (1512, 2228)


def test_members_are_distinct_orders():
    # one frame of eight equal steps has one order, not 8! permutations
    (o,) = enumerate_sstd(P(""), P("8"), 8, P("8"))
    assert o.size == 1
    assert [str(m) for m in o.members] == ["·".join(["a1"] * 8)]


def test_after_is_every_order():
    # _after against replaying every distinct order by the one-step rule
    # of tests/reference.py, which shares no code with frame_end: of every
    # multiset of at most four steps legal at a shape with at most five
    # boxes, and of at most three steps with rows <= len(shape) + 2 at a
    # shape with at most four boxes, legal there or not.  In the second
    # domain some multisets hold a step not legal at the shape, yet some
    # order that takes it later is a path ("later").
    def any_steps(shape):
        return sorted(Step(p, q) for p, q in itertools.product(range(len(shape) + 3), repeat=2))

    def legal_steps(shape):
        return [st for st in any_steps(shape) if apply_step(shape, st) is not None]

    domains = [(5, 4, legal_steps, (13162, 3798, 0)), (4, 3, any_steps, (57578, 836, 1693))]
    for size, most, candidates, counts in domains:
        checked = legal = later = 0
        for shape in _upto(size):
            legal_here = set(legal_steps(shape))
            for k in range(most + 1):
                for steps in itertools.combinations_with_replacement(candidates(shape), k):
                    paths = [KroneckerTableau(shape, order) for order in set(itertools.permutations(steps))]
                    replays = list(map(replay, paths))
                    ok = [levels is not None for levels in replays]
                    want = None
                    if all(ok):
                        ends = {levels[-1] for levels in replays}
                        assert len(ends) == 1, (shape, steps)
                        (want,) = ends
                    got = orbits._after(shape, steps)
                    assert got == want, (shape, steps)
                    if want is not None:
                        # frame ends are built unvalidated: each must be the very Partition
                        assert type(got) is Partition and repr(got) == repr(want), (shape, steps)
                    checked += 1
                    legal += want is not None
                    later += any(ok) and not set(steps) <= legal_here
        assert (checked, legal, later) == counts


def test_after_needs_no_recursion():
    # a frame of 5000 steps is one pass of gap tests and one closed-form
    # end shape, at any recursion limit
    orbits._after.cache_clear()
    a1, a2, r1, r2 = Step.add(1), Step.add(2), Step.remove(1), Step.remove(2)
    assert orbits._after(Partition(), (a1,) * 5000) == Partition((5000,))
    assert orbits._after(P("3"), (r1,) * 4) is None
    assert orbits._after(P("6"), (r1,) * 3 + (a1,) * 3) == P("6")
    # a2 then r2 is a path from (1), r2 first is not
    assert orbits._after(P("1"), (r2, a2)) is None


def _orbits(lam, nu, mu):
    return [o.members for o in enumerate_sstd(lam, nu, mu.size, mu)]


def test_sstd_walks_once_per_size(monkeypatch):
    # every weight of size 5 shares one Std0 walk, and each weight's
    # orbits are those a cold walk gives it
    lam, nu = P("2,1"), P("3,3,2")
    weights = [Partition(mu) for mu in partitions_of(5)]
    cold = {}
    for mu in weights:
        orbits._std0_paths.cache_clear()
        cold[mu] = _orbits(lam, nu, mu)
    walks = 0
    real = tableaux._walk

    def walk(*args):
        nonlocal walks
        walks += 1
        return real(*args)

    orbits._std0_paths.cache_clear()
    monkeypatch.setattr(tableaux, "_walk", walk)
    assert {mu: _orbits(lam, nu, mu) for mu in weights} == cold
    assert walks == 1
    assert sum(map(len, cold.values())) > len(weights)


def test_std0_paths_walk_once_per_triple(monkeypatch):
    # _std0_paths asks for Std0 once per (lam, nu, s), whatever the
    # weights of size s, and holds each path's descent mask
    asked = []
    real = orbits.enumerate_std0

    def enumerate_paths(*triple):
        asked.append(triple)
        return real(*triple)

    orbits._std0_paths.cache_clear()
    monkeypatch.setattr(orbits, "enumerate_std0", enumerate_paths)
    triples = [(P("2,1"), P("3,3,2"), 5), (P(""), P("3,2,1"), 6), (P("4"), P("4"), 3), (P("3"), P("2"), 5)]
    for lam, nu, s in triples * 2:
        for mu in map(Partition, partitions_of(s)):
            enumerate_sstd(lam, nu, s, mu)
    assert asked == triples
    for lam, nu, s in triples:
        paths, masks = orbits._std0_paths(lam, nu, s)
        assert paths == tuple(t.steps for t in real(lam, nu, s))
        descents = [{k for k in range(1, s) if path[k - 1] > path[k]} for path in paths]
        assert [{k for k in range(s) if mask >> k & 1} for mask in masks] == descents
        assert any(descents) and not all(descents)
    assert asked == triples  # the reads just made were warm


def test_sstd_one_step_frames_need_no_after(monkeypatch):
    # under the weight (1^s) every frame holds one step, whose one order is
    # the path's own: each Std0 path is an orbit of size 1, in Std0's
    # order, and _after is never asked
    calls = 0
    real = orbits._after

    def after(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(orbits, "_after", after)
    triples = [
        (lam, nu, nu.size - lam.size) for nu in _upto(7) for lam in _upto(nu.size) if contains(lam, nu)
    ]
    rows = [Partition((a,)) for a in range(6)]
    triples += [(lam, nu, s) for lam in rows for nu in rows for s in range(7)]
    paths = 0
    for lam, nu, s in triples:
        std0 = enumerate_std0(lam, nu, s)
        got = enumerate_sstd(lam, nu, s, Partition((1,) * s))
        assert [o.members for o in got] == [(t,) for t in std0], (lam, nu, s)
        assert all(o.size == 1 for o in got)
        paths += len(std0)
    assert calls == 0
    assert (len(triples), paths) == (701, 3307)


def test_unsupported_is_raised_afresh(monkeypatch):
    # a triple off the _STD0 table is asked about, and refused, every time
    walks = 0
    real = orbits.enumerate_std0

    def enumerate_paths(*triple):
        nonlocal walks
        walks += 1
        return real(*triple)

    monkeypatch.setattr(orbits, "enumerate_std0", enumerate_paths)
    held = orbits._std0_paths.cache_info().currsize
    for expected in (1, 2, 3):
        with pytest.raises(UnsupportedFamily):
            enumerate_sstd(P("2,1"), P("2,1"), 1, P("1"))
        assert walks == expected
    assert orbits._std0_paths.cache_info().currsize == held


def test_word_is_the_reading_word_of_every_member():
    # the word each orbit builds from its least member, against
    # the definition in tests/reference.py at every member
    triples = [
        (lam, nu, nu.size - lam.size)
        for nu in _upto(6)
        for lam in _upto(nu.size)
        if contains(lam, nu)
    ]
    rows = [Partition((a,)) for a in range(6)]
    triples += [(lam, nu, s) for lam in rows for nu in rows for s in range(6)]
    members = 0
    for lam, nu, s in triples:
        for mu in map(Partition, partitions_of(s)):
            for o in enumerate_sstd(lam, nu, s, mu):
                for m in o.members:
                    assert o.word == reading_word_of(m, mu), (lam, nu, mu, m)
                members += o.size
    assert members == 6047


def test_sstd_empty_case():
    assert enumerate_sstd(P(""), P("2,1"), 3, P("3")) == []


def test_sstd_weight_size_mismatch():
    with pytest.raises(ValueError):
        enumerate_sstd(P("2,1"), P("3,3,2"), 5, P("2,1"))


def test_to_classical():
    orbit, _ = orbit_of(T("2,1", "a1·a2·a2·a3·a3"), P("2,2,1"))
    assert to_classical(orbit) == [
        [None, None, 1],
        [None, 1, 2],
        [2, 3],
    ]


def test_to_classical_rejects_one_row():
    orbit, _ = orbit_of(T("4", "r1·d1·a1"), P("2,1"))
    assert to_classical(orbit) is None


def test_to_classical_is_the_replay():
    # the filling read off the steps, against the replay of the
    # representative's levels in tests/reference.py: every maximal-depth
    # triple with |nu| <= 7, and every one-row triple with rows <= 5 and
    # |mu| <= 4, whose orbits are pure-add only where |nu| = |lam| + |mu|
    maximal = [
        (lam, nu, mu)
        for nu in _upto(7)
        for lam in _upto(nu.size)
        if contains(lam, nu)
        for mu in map(Partition, partitions_of(nu.size - lam.size))
    ]
    rows = [Partition((a,)) for a in range(6)]
    one_row = [(lam, nu, mu) for lam in rows for nu in rows for mu in _upto(4)]
    counts = []
    for triples in (maximal, one_row):
        filled = empty = 0
        for lam, nu, mu in triples:
            for o in enumerate_sstd(lam, nu, mu.size, mu):
                got = to_classical(o)
                assert got == classical_by_replay(o), (lam, nu, mu, o)
                filled += got is not None
                empty += got is None
        counts.append((filled, empty))
    assert counts == [(3181, 0), (38, 802)]


def test_to_classical_is_onto_the_classical_fillings():
    # at every maximal-depth triple with |nu| <= 8, to_classical maps the
    # semistandard orbits onto the semistandard fillings of nu/lam with
    # content mu, and the orbits that pass the lattice count's test onto
    # the Littlewood-Richardson tableaux, both listed in tests/reference.py
    # by their definitions; sorted lists, so no filling is hit twice
    triples = orbits_seen = lattice_seen = 0
    for nu in _upto(8):
        for lam in _upto(nu.size):
            if not contains(lam, nu):
                continue
            for mu in map(Partition, partitions_of(nu.size - lam.size)):
                found = enumerate_sstd(lam, nu, mu.size, mu)
                above, below = frame_pairs(mu)
                lattice = [o for o in found if all(map(gt, above(o.steps), below(o.steps)))]
                got = sorted(map(to_classical, found))
                assert got == sorted(skew_ssyt(nu, lam, mu)), (lam, nu, mu)
                got = sorted(map(to_classical, lattice))
                assert got == sorted(lr_tableaux(nu, lam, mu)), (lam, nu, mu)
                assert stable_kronecker_copieri(lam, nu, mu) == len(lattice), (lam, nu, mu)
                triples += 1
                orbits_seen += len(found)
                lattice_seen += len(lattice)
    assert (triples, orbits_seen, lattice_seen) == (4136, 10981, 1351)
