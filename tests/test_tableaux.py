import itertools
import pickle
import re

import pytest

from reference import (
    T,
    apply_step,
    horizontal_strip,
    intersect,
    is_path,
    parse_step,
    parse_tableau,
    reference_step,
    swap,
)
from stablekron import orbits, tableaux
from stablekron.characters import partitions_up_to
from stablekron.partitions import Partition, contains, parse_partition
from stablekron.tableaux import (
    KroneckerTableau,
    Step,
    TripleClass,
    UnsupportedFamily,
    classify,
    enumerate_std,
    enumerate_std0,
)


def P(text):
    return parse_partition(text)


# ---------------------------------------------------------------- steps


def test_step_str_parse_roundtrip():
    for st in (Step.add(2), Step.remove(1), Step.dummy(0), Step(2, 5), Step(5, 2)):
        assert parse_step(str(st)) == st
    assert str(Step(2, 5)) == "m(2,5)"
    assert str(Step.dummy(3)) == "d3"


def test_step_parse_rejects_garbage():
    for text in ("x3", "", " ", "a", "m(1)", "r-1", "m(2,-1)"):
        with pytest.raises(ValueError, match=re.escape(repr(text.strip()))):
            parse_step(text)
    with pytest.raises(ValueError, match="r1··a1"):
        parse_tableau(P("2,1"), "r1··a1")


def test_step_order_examples():
    # move-up < dummy < move-down, refined within each kind
    assert parse_step("r4") < parse_step("r1")
    assert parse_step("r1") < parse_step("d5")
    assert parse_step("d5") < parse_step("d1") < parse_step("d0")
    assert parse_step("d0") < parse_step("a1") < parse_step("a2")
    assert parse_step("r1") < parse_step("m(2,1)")  # pure removes sort first
    assert parse_step("m(3,1)") < parse_step("m(2,1)")
    assert parse_step("m(1,2)") < parse_step("a1")


def test_step_order_is_total():
    steps = [Step(p, q) for p in range(9) for q in range(9)]
    keys = [st.sort_key for st in steps]
    assert len(set(keys)) == len(keys)
    for a, b in itertools.combinations(steps, 2):
        assert (a < b) != (b < a)
    # a Step is the flat tuple (kind, a, b, remove_row, add_row) whose
    # first three are the sort_key: native tuple order is the sort_key order
    assert sorted(steps) == sorted(steps, key=lambda st: st.sort_key)
    for st, (p, q) in zip(steps, itertools.product(range(9), repeat=2)):
        assert (st.remove_row, st.add_row) == (p, q)
        assert pickle.loads(pickle.dumps(st)) == st
    assert repr(Step(2, 5)) == "Step(2, 5)"


def test_step_is_a_flat_tuple_of_ints():
    # no element is a nested tuple, so comparing and hashing a step
    # never recurses
    for p, q in itertools.product(range(9), repeat=2):
        st = Step(p, q)
        assert all(type(x) is int for x in st), st
        assert st.sort_key == tuple(st)[:3]


def test_apply_step():
    assert apply_step(P("2,1"), Step.add(2)) == P("2,2")
    assert apply_step(P("2,1"), Step.remove(2)) == P("2")
    assert apply_step(P("2,1"), Step.dummy(1)) == P("2,1")
    assert apply_step(P("2,2"), Step(2, 1)) == P("3,1")  # moves a box up
    assert apply_step(P("2,2"), Step.remove(1)) is None
    assert apply_step(P("1"), Step.add(3)) is None
    assert apply_step(P(""), Step.dummy(1)) is None


def test_moves_is_the_one_step_definition():
    # _moves agrees with Partition's own validation on every step that
    # could touch a row, and lists exactly the legal steps in order.
    # _moves builds its shapes unvalidated, so each must be the very
    # Partition the validating constructor gives.
    shapes = partitions_up_to(6) + [Partition((1,) * 40), Partition((40,))]
    for lam in shapes:
        legal = []
        for p, q in itertools.product(range(len(lam) + 3), repeat=2):
            want = reference_step(lam, p, q)
            got = tableaux._moves(lam).get(Step(p, q))
            assert got == want, (lam, p, q)
            if want is not None:
                assert type(got) is Partition and repr(got) == repr(want), (lam, p, q)
                legal.append(Step(p, q))
        assert list(tableaux._moves(lam)) == sorted(legal, key=lambda st: st.sort_key), lam


def test_options_are_moves_in_the_step_set():
    # the walker's table lists the legal moves in the step set in _moves
    # order, the ones that remove nothing as a subsequence, and each
    # target's distance to nu
    shapes = partitions_up_to(5)
    one_row = frozenset((Step.remove(1), Step.dummy(1), Step.add(1)))
    for cur, nu, steps in itertools.product(shapes, shapes, (None, one_row)):
        every, keep = tableaux._options(cur, nu, steps)
        moves = [(st, nxt) for st, nxt in tableaux._moves(cur).items() if steps is None or st in steps]
        assert [(st, nxt) for st, nxt, _, _ in every] == moves, (cur, nu, steps)
        assert keep == tuple(o for o in every if o[0].remove_row == 0), (cur, nu, steps)
        for st, nxt, removes, dist in every:
            assert removes == (st.remove_row > 0)
            assert dist == tableaux._distance(nxt, nu), (cur, nu, st)


# -------------------------------------------------------------- tableaux


def test_tableau_levels_and_end():
    t = T("4", "r1·d1·a1")
    assert t.levels() == [P("4"), P("3"), P("3"), P("4")]
    assert t.levels()[-1] == P("4")
    assert is_path(t)


def test_tableau_str_parse_roundtrip():
    t = T("2,1", "a1·a2·a2·a3·a3")
    assert str(t) == "a1·a2·a2·a3·a3"
    assert parse_tableau(P("2,1"), str(t)) == t
    assert parse_tableau(P("4"), "") == KroneckerTableau(P("4"), ())


def test_invalid_tableau():
    t = T("1", "r1·r1")
    assert not is_path(t)
    with pytest.raises(ValueError):
        t.levels()


# ---------------------------------------------------------- enumeration


def test_std_endpoints_from_empty():
    # three steps from the empty partition reach exactly the partitions
    # of size at most 3
    reachable = {
        nu
        for nu in map(P, ["", "1", "2", "1,1", "3", "2,1", "1,1,1", "4", "2,2"])
        if enumerate_std(P(""), nu, 3)
    }
    assert reachable == set(map(P, ["", "1", "2", "1,1", "3", "2,1", "1,1,1"]))


def test_std_is_every_path_in_step_order():
    # Each step changes the number of rows by at most one, so an s-step
    # path between partitions of at most 3 rows, s <= 3, never uses row 5.
    shapes = partitions_up_to(3)
    checked = 0
    for lam in shapes:
        paths = [(lam, ())]
        for s in range(4):
            if s:
                paths = [
                    (nxt, steps + (Step(p, q),))
                    for cur, steps in paths
                    for p in range(5)
                    for q in range(5)
                    if (nxt := reference_step(cur, p, q)) is not None
                ]
            for nu in shapes:
                want = sorted(
                    (steps for end, steps in paths if end == nu),
                    key=lambda steps: [st.sort_key for st in steps],
                )
                assert [t.steps for t in enumerate_std(lam, nu, s)] == want, (lam, nu, s)
                checked += 1
    assert checked == 196


def test_std_contains_std0():
    for lam, nu, s in [(P("4"), P("4"), 3), (P("2,1"), P("3,3,2"), 5)]:
        assert set(enumerate_std0(lam, nu, s)) <= set(enumerate_std(lam, nu, s))
    # at maximal depth Std0 is the whole of Std, in the same order; a start
    # outside nu has no path at all
    shapes = partitions_up_to(6)
    checked = 0
    for nu in shapes:
        for lam in shapes:
            if lam.size <= nu.size:
                s = nu.size - lam.size
                want = enumerate_std(lam, nu, s)
                assert enumerate_std0(lam, nu, s) == want, (lam, nu)
                assert bool(want) == contains(lam, nu), (lam, nu)
                checked += contains(lam, nu)
    assert checked > 100


def test_std0_maximal_depth_is_pure_add():
    paths = enumerate_std0(P("2,1"), P("3,3"), 3)
    assert [str(p) for p in paths] == ["a1·a2·a2", "a2·a1·a2"]
    for p in paths:
        assert all(st.remove_row == 0 < st.add_row for st in p.steps)


@pytest.fixture
def cold_moves():
    """The process-wide move, option and Std0 caches, emptied before the
    test, so that _moves.cache_info() counts the shapes whose moves the
    test builds, and again after it."""
    tableaux._moves.cache_clear()
    tableaux._options.cache_clear()
    orbits._std0_paths.cache_clear()
    yield
    tableaux._moves.cache_clear()
    tableaux._options.cache_clear()
    orbits._std0_paths.cache_clear()


def test_std0_maximal_depth_not_contained(cold_moves):
    assert enumerate_std0(P("2,2"), P("3,1"), 0) == []
    # a start outside nu is answered without building a single level
    assert enumerate_std0(P("1,1,1,1"), P("12,12,12"), 32) == []
    assert tableaux._moves.cache_info().misses == 0
    # while a start inside nu builds the moves of every shape it walks
    assert len(enumerate_std0(P("1"), P("2,1"), 2)) == 2
    assert tableaux._moves.cache_info().misses == 3


def test_std0_one_row_budget():
    # removal budget |lam| counts dummy steps in row 1 as well, so a
    # one-box start admits no depth-3 loop at all
    assert enumerate_std0(P("1"), P("1"), 3) == []
    assert len(enumerate_std0(P("4"), P("4"), 3)) == 7


def test_std0_is_std_filtered_by_definition():
    # Std0 of each family is the list of Std paths within its removal
    # budget and step set, in the same order.  The rows are written out
    # here, not read from _STD0: maximal depth has budget 0 and every step;
    # a one-row pair has budget |lam| over {r1, d1, a1}, and a removal
    # half (so d1 too) spends one.
    one_row = {Step.remove(1), Step.dummy(1), Step.add(1)}
    rows = [Partition((a,) if a else ()) for a in range(5)]
    shapes = partitions_up_to(5)
    cases = [
        (lam, nu, s, lam.size, one_row)
        for lam, nu, s in itertools.product(rows, rows, range(6))
    ] + [
        (lam, nu, nu.size - lam.size, 0, None)
        for lam, nu in itertools.product(shapes, shapes)
        if contains(lam, nu)
    ]
    families = set()
    for lam, nu, s, budget, allowed in cases:
        want = [
            t
            for t in enumerate_std(lam, nu, s)
            if (allowed is None or set(t.steps) <= allowed)
            and sum(st.remove_row > 0 for st in t.steps) <= budget
        ]
        assert enumerate_std0(lam, nu, s) == want, (lam, nu, s)
        families.add(classify(lam, nu, s))
    # a row added to _STD0 needs its case here
    assert families == set(tableaux._STD0)


def test_std0_is_closed_under_valid_swaps():
    # membership in every _STD0 row is order-free: a defined swap of
    # adjacent steps never leaves Std0, as the orbits grouping proof needs
    shapes = partitions_up_to(5)
    families, swaps = set(), 0
    for lam, nu, s in itertools.product(shapes, shapes, range(7)):
        try:
            paths = enumerate_std0(lam, nu, s)
        except UnsupportedFamily:
            continue
        families.add(classify(lam, nu, s))
        members = set(paths)
        for t in paths:
            for k in range(1, s):
                swapped = swap(t, k)
                if swapped is not None:
                    assert swapped in members, (t, k)
                    swaps += 1
    assert families == set(tableaux._STD0)
    assert swaps >= 7000


class _FirstPath(Exception):
    pass


def test_reach_test_is_exact(monkeypatch):
    # nu is reachable from lam in s steps exactly when _distance allows it.
    # Std is non-empty iff the walker completes a path, so the walk stops
    # at its first one (s = 6 alone has 1.7 million paths here).
    def first_path(*args):
        raise _FirstPath

    monkeypatch.setattr(tableaux, "KroneckerTableau", first_path)
    shapes = partitions_up_to(4)
    checked = 0
    for lam, nu, s in itertools.product(shapes, shapes, range(7)):
        try:
            nonempty = bool(enumerate_std(lam, nu, s))
        except _FirstPath:
            nonempty = True
        assert nonempty == (tableaux._distance(lam, nu) <= s), (lam, nu, s)
        checked += 1
    assert checked == 1008


def test_walk_has_no_dead_ends(monkeypatch):
    # the reach test prunes tightly: the walker expands a shape only on a
    # proper prefix of some returned path (one-row Std0 is left out, since
    # its removal budget does leave dead ends, e.g. ((1), (1), 3))
    calls = 0
    real = tableaux._options

    def options(cur, nu, steps):
        nonlocal calls
        calls += 1
        return real(cur, nu, steps)

    monkeypatch.setattr(tableaux, "_options", options)
    shapes = partitions_up_to(4)
    walks = [(enumerate_std, lam, nu, s) for lam, nu, s in itertools.product(shapes, shapes, range(6))]
    walks += [
        (enumerate_std0, lam, nu, nu.size - lam.size)
        for lam, nu in itertools.product(shapes, shapes)
        if lam.size <= nu.size
    ]
    assert len(walks) == 956
    for enumerate_paths, lam, nu, s in walks:
        calls = 0
        paths = enumerate_paths(lam, nu, s)
        prefixes = {t.steps[:k] for t in paths for k in range(s)}
        assert calls == len(prefixes), (enumerate_paths.__name__, lam, nu, s)


BOTH = (enumerate_std, enumerate_std0)


@pytest.mark.parametrize(
    "lam,nu,s,calls",
    [
        ("2,1", "3,3,2", 5, BOTH),  # maximal depth
        ("", "3,2,1", 6, BOTH),
        ("4", "4", 3, BOTH),  # one-row
        ("3", "2", 5, BOTH),
        ("2,1", "2,1", 2, (enumerate_std,)),  # no quotient basis
        ("2", "2,1", 3, (enumerate_std,)),
    ],
)
def test_paths_come_in_ascending_sort_key(lam, nu, s, calls):
    for enumerate_paths in calls:
        keys = [t.steps for t in enumerate_paths(P(lam), P(nu), s)]
        assert len(keys) > 1
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_std0_unsupported():
    # the failure is not cached: every call raises it again
    for _ in range(2):
        with pytest.raises(UnsupportedFamily) as exc:
            enumerate_std0(P("2,1"), P("2,1"), 1)
        assert str(exc.value) == (
            "no quotient basis for lambda=2,1, nu=2,1, s=1: "
            "only maximal-depth and one-row triples have one"
        )


def test_std0_returns_a_fresh_list():
    first = enumerate_std0(P("2,1"), P("3,3,2"), 5)
    want = list(first)
    first.clear()
    first.append(None)
    second = enumerate_std0(P("2,1"), P("3,3,2"), 5)
    assert second == want and len(want) == 16
    assert second is not enumerate_std0(P("2,1"), P("3,3,2"), 5)


def test_warm_std0_is_the_cold_walk():
    # enumerate_std0, asked twice, and the Std0 that orbits._std0_paths holds,
    # cold and warm, are the walk under the triple's _STD0 row
    shapes = partitions_up_to(4)
    walked = 0
    orbits._std0_paths.cache_clear()
    for lam, nu, s in itertools.product(shapes, shapes, range(5)):
        row = tableaux._STD0.get(classify(lam, nu, s))
        if row is None:
            continue
        budget, steps = row
        cold = tableaux._walk(lam, nu, s, budget(lam, s), steps)
        assert enumerate_std0(lam, nu, s) == enumerate_std0(lam, nu, s) == cold, (lam, nu, s)
        paths = tuple(t.steps for t in cold)
        assert orbits._std0_paths(lam, nu, s)[0] == orbits._std0_paths(lam, nu, s)[0] == paths
        walked += 1
    assert walked > 100


def test_std0_walks_on_every_call(monkeypatch):
    # tableaux holds no Std0: each call is a fresh walk
    walks = 0
    real = tableaux._walk

    def walk(*args):
        nonlocal walks
        walks += 1
        return real(*args)

    monkeypatch.setattr(tableaux, "_walk", walk)
    for expected in (1, 2, 3):
        assert len(enumerate_std0(P("2,1"), P("3,3,2"), 5)) == 16
        assert walks == expected
    # and none of its caches is keyed on a triple
    cached = [value.__wrapped__ for value in vars(tableaux).values() if hasattr(value, "cache_info")]
    assert cached and all(f.__code__.co_varnames[:3] != ("lam", "nu", "s") for f in cached)


# ---------------------------------------------------------------- swaps


def test_swap_example():
    t = T("2,1", "a1·a2·a2")
    assert str(swap(t, 1)) == "a2·a1·a2"
    assert swap(t, 2) == t  # equal steps: exchanging them is a no-op
    assert swap(T("2,1", "a2·a1·a2"), 2) is None  # a2·a2·a1 is not a path


def test_swap_bad_position():
    with pytest.raises(IndexError):
        swap(T("4", "r1·d1·a1"), 3)
    with pytest.raises(IndexError):
        swap(T("4", "r1·d1·a1"), 0)


def test_swap_is_an_involution():
    for t in enumerate_std(P("2"), P("2,1"), 3):
        for k in range(1, t.length):
            other = swap(t, k)
            if other is not None:
                assert is_path(other)
                assert swap(other, k) == t


# ----------------------------------------------------- classification


@pytest.mark.parametrize(
    "lam,nu,mu,tag",
    [
        ("2,1", "3,3,2", "2,2,1", TripleClass.MAXIMAL_DEPTH),
        ("", "2,1", "3", TripleClass.MAXIMAL_DEPTH),
        ("4", "4", "2,2,1", TripleClass.ONE_ROW_PAIR),
        ("", "", "2", TripleClass.ONE_ROW_PAIR),
        ("7,5,1,1", "5,3,3", "2,2,1", TripleClass.CO_PIERI_HORIZONTAL),
        ("3,1", "2,2", "1", TripleClass.CO_PIERI_HORIZONTAL),
        ("4,2", "3,3,1", "2", TripleClass.CO_PIERI_HORIZONTAL),  # three rows against two
        ("3,1", "2,2", "2", TripleClass.UNKNOWN),  # interlaced, s past the distance
        ("1,1,1", "1", "2", TripleClass.UNKNOWN),  # lengths differ by two
        ("2,1", "2,1", "1", TripleClass.CO_PIERI_STAIRCASE),
        ("4,2", "4,2", "2", TripleClass.CO_PIERI_STAIRCASE),
        ("7,5,1,1", "6,3,3", "2,2,1", TripleClass.UNKNOWN),
        ("2,2", "2,1", "3", TripleClass.UNKNOWN),
    ],
)
def test_classify(lam, nu, mu, tag):
    assert classify(P(lam), P(nu), P(mu).size) is tag


def test_classify_precedence():
    # a staircase pair that is also maximal depth keeps the first tag
    assert classify(P(""), P("2,1"), 3) is TripleClass.MAXIMAL_DEPTH
    # one-row beats the staircase reading of ((1),(1),...)
    assert classify(P("1"), P("1"), 1) is TripleClass.ONE_ROW_PAIR


def test_classify_co_pieri_horizontal_is_the_strip_definition():
    # the interlacing test equals the definition: both skews over lam & nu
    # are horizontal strips and s is the distance, on every triple that
    # the first two tags leave
    shapes = partitions_up_to(8)
    checked = found = 0
    for lam, nu in itertools.product(shapes, repeat=2):
        inter = intersect(lam, nu)
        strips = horizontal_strip(lam, inter) and horizontal_strip(nu, inter)
        distance = max(lam.size, nu.size) - inter.size
        for s in range(11):
            if lam.size + s == nu.size or (len(lam) <= 1 and len(nu) <= 1):
                continue
            want = strips and s == distance
            assert (classify(lam, nu, s) is TripleClass.CO_PIERI_HORIZONTAL) == want, (lam, nu, s)
            checked += 1
            found += want
    assert (checked, found) == (45_829, 1_191)
