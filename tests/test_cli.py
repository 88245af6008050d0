import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reference import swap
from stablekron import characters, cli
from stablekron.cli import main
from stablekron.orbits import enumerate_sstd, frames
from stablekron.partitions import parse_partition
from stablekron.reading import is_lattice, reading_word


def run(*argv):
    """Exit code, stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_usage_error(argv):
    code, out, err = run(*argv)
    assert code == 2, argv
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)


def test_count_text():
    code, out, _ = run("count", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1")
    assert code == 0
    assert out.strip() == "1 (copieri)"


def test_count_json():
    code, out, _ = run(
        "count", "-l", "4", "-n", "4", "-m", "3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "lambda": "4",
        "nu": "4",
        "mu": "3",
        "value": 2,
        "method": "copieri",
    }


def test_oracle_stable_forces_the_oracle():
    # count picks its engine; oracle stable is the way to force the oracle
    code, out, _ = run("oracle", "stable", "-l", "4", "-n", "4", "-m", "3")
    assert code == 0
    assert out.strip() == "2"


def test_count_auto_falls_back():
    code, out, _ = run("count", "-l", "2,1", "-n", "2,1", "-m", "1")
    assert code == 0
    assert out.strip().endswith("(oracle)")


def test_enumerate_sstd_unsupported_is_domain_error():
    code, out, err = run("enumerate", "sstd", "-l", "2,1", "-n", "2,1", "-m", "1")
    assert code == 2
    assert not out
    assert err == (
        "error: no quotient basis for lambda=2,1, nu=2,1, s=1: "
        "only maximal-depth and one-row triples have one\n"
    )


def test_enumerate_std0():
    code, out, _ = run("enumerate", "std0", "-l", "4", "-n", "4", "-s", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "7 tableaux"
    assert sorted(lines[1:]) == sorted(
        [
            "r1·d1·a1",
            "r1·a1·d1",
            "d1·r1·a1",
            "d1·d1·d1",
            "d1·a1·r1",
            "a1·r1·d1",
            "a1·d1·r1",
        ]
    )


def test_enumerate_std():
    code, out, _ = run("enumerate", "std", "-l", "1", "-n", "1", "-s", "1")
    assert code == 0
    assert out.splitlines() == ["2 tableaux", "d1", "d0"]
    code, out, _ = run(
        "enumerate", "std", "-l", "1", "-n", "1", "-s", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"count": 2, "tableaux": ["d1", "d0"]}


def test_enumerate_std_requires_length():
    code, _, err = run("enumerate", "std", "-l", "4", "-n", "4")
    assert code == 2 and "required: -s" in err


def test_enumerate_sstd_requires_weight():
    code, _, err = run("enumerate", "sstd", "-l", "4", "-n", "4")
    assert code == 2 and "required: -m" in err


def test_enumerate_sstd():
    code, out, _ = run(
        "enumerate", "sstd", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "4 orbits"
    assert sum(1 for line in lines[1:] if line.endswith(" lattice")) == 1


def test_enumerate_latt():
    code, out, _ = run(
        "enumerate", "latt", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 orbits"
    assert "a1·a2·a2·a3·a3" in lines[1]


def test_enumerate_json():
    code, out, _ = run(
        "enumerate",
        "sstd",
        "-l", "2,1",
        "-n", "3,3,2",
        "-m", "2,2,1",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 4
    first = obj["orbits"][0]
    assert first["weight"] == [2, 2, 1]
    assert first["representative"] == "a1·a2·a2·a3·a3"
    assert first["size"] == 4
    assert first["classical"] == [[None, None, 1], [None, 1, 2], [2, 3]]
    assert first["reading"]["frames"] == [1, 2, 1, 3, 2]
    assert first["reading"]["lattice"] is True
    assert sum(o["reading"]["lattice"] for o in obj["orbits"]) == 1


def test_enumerate_json_orbit_keys():
    # every orbit listed is semistandard, and the output says so; a
    # one-row orbit has no classical filling
    shape = ["weight", "representative", "size", "semistandard", "classical", "reading"]
    for triple, keys in [
        (("2,1", "3,3,2", "2,2,1"), shape),
        (("4", "4", "2,1"), [key for key in shape if key != "classical"]),
    ]:
        lam, nu, mu = triple
        code, out, _ = run("enumerate", "sstd", "-l", lam, "-n", nu, "-m", mu, "--format", "json")
        assert code == 0
        orbits = json.loads(out)["orbits"]
        assert orbits, triple
        for orbit in orbits:
            assert list(orbit) == keys, triple
            assert orbit["semistandard"] is True


def test_enumerate_dot():
    code, out, _ = run(
        "enumerate", "sstd", "-l", "4", "-n", "4", "-m", "2,1", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph swaps {")
    assert out.rstrip().endswith("}")


def _dot_by_swaps(orbits):
    """The swap graph drawn by calling swap at every interior position."""
    lines = ["digraph swaps {"]
    for idx, orbit in enumerate(orbits):
        fr = frames(orbit.weight)
        for m in orbit.members:
            lines.append(f'  "{idx}:{m}";')
            for k in range(1, m.length):
                if fr[k - 1] != fr[k]:
                    continue
                other = swap(m, k)
                if other is not None and other.steps > m.steps:
                    lines.append(f'  "{idx}:{m}" -> "{idx}:{other}" [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "lam, nu, mu",
    [
        ("2,1", "3,3,2", "2,2,1"),  # maximal depth
        ("3", "2", "2,1"),  # one-row
        ("1", "3,2", "2,2"),  # maximal depth with a1·a1 inside a frame
    ],
)
def test_enumerate_dot_equals_swap_graph(lam, nu, mu):
    weight = parse_partition(mu)
    orbits = enumerate_sstd(parse_partition(lam), parse_partition(nu), weight.size, weight)
    lattice = [o for o in orbits if is_lattice(reading_word(o))]
    for kind, listed in (("sstd", orbits), ("latt", lattice)):
        code, out, _ = run("enumerate", kind, "-l", lam, "-n", nu, "-m", mu, "--format", "dot")
        assert code == 0
        assert out == _dot_by_swaps(listed), kind
    assert " -> " in _dot_by_swaps(orbits)  # the sstd graph has edges


def test_enumerate_sstd_golden_output():
    # every orbit's representative, size, reading word and lattice flag,
    # byte for byte in each format: "$ <argv>" and then its exact stdout
    text = (Path(__file__).parent / "golden_enumerate_sstd.txt").read_text(encoding="utf-8")
    sections = re.split(r"^\$ (.*)\n", text, flags=re.M)[1:]
    assert len(sections) == 12
    for argv, want in zip(sections[::2], sections[1::2]):
        assert run(*argv.split()) == (0, want, ""), argv


def test_enumerate_is_deterministic():
    args = ("enumerate", "sstd", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1")
    _, first, _ = run(*args)
    _, second, _ = run(*args)
    assert first == second


def test_classify_text():
    code, out, _ = run("classify", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1")
    assert code == 0
    assert out.startswith("maximal-depth:")


def test_classify_json():
    code, out, _ = run(
        "classify", "-l", "2,1", "-n", "2,1", "-m", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["class"] == "co-pieri-staircase"


def test_verify_one_row_small():
    code, out, _ = run(
        "verify", "one-row", "--max-part", "2", "--max-mu", "2"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"


def test_verify_dims_small():
    code, out, _ = run("verify", "dims", "--max-size", "2", "--max-s", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"


def test_oracle_lr():
    code, out, _ = run(
        "oracle", "lr", "-l", "2,1", "-m", "2,1", "-n", "3,2,1"
    )
    assert code == 0 and out.strip() == "2"


def test_oracle_char():
    code, out, _ = run("oracle", "char", "-l", "2,1", "-r", "3")
    assert code == 0 and out.strip() == "-1"


def test_oracle_stable():
    code, out, _ = run("oracle", "stable", "-l", "2", "-n", "2", "-m", "2")
    assert code == 0 and out.strip() == "2"


def test_oracle_kostka():
    code, out, _ = run("oracle", "kostka", "-b", "2,1", "-m", "1,1,1")
    assert code == 0 and out.strip() == "2"


def test_oracle_fstd():
    code, out, _ = run("oracle", "fstd", "-m", "3,2")
    assert code == 0 and out.strip() == "5"


def test_oracle_size_mismatch():
    code, _, err = run("oracle", "kron", "-l", "2,1", "-m", "2,1", "-n", "2")
    assert code == 2 and err.startswith("error:")


def test_size_mismatch_messages_use_partition_text():
    for argv, message in (
        (("oracle", "char", "-l", "2,1", "-r", "2"), "error: |2,1| != |2|"),
        (("oracle", "kostka", "-b", "2", "-m", "1,1,1"), "error: |2| != |1,1,1|"),
    ):
        code, out, err = run(*argv)
        assert code == 2 and out == ""
        assert err.splitlines() == [message]
        assert "Partition(" not in err


def test_bad_count_names_the_option_and_the_text():
    for argv, message in (
        (("enumerate", "std", "-l", "4", "-n", "4", "-s", "x"), "argument -s: "),
        (("verify", "dims", "--max-s", "x"), "argument --max-s: "),
    ):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}expected an integer >= 0, got 'x'"]


# The partition options each oracle reads, written out independently of the CLI.
_ORACLE_READS = {
    "char": "-l -r",
    "kron": "-l -m -n",
    "stable": "-l -n -m",
    "lr": "-l -m -n",
    "kostka": "-b -m",
    "fstd": "-m",
}


@pytest.mark.parametrize(
    "kind, flag",
    [
        (kind, flag)
        for kind, reads in _ORACLE_READS.items()
        for flag in ("-l", "-n", "-m", "-r", "-b")
        if flag not in reads.split()
    ],
)
def test_oracle_rejects_an_option_it_does_not_read(kind, flag):
    assert_usage_error(["oracle", kind, flag, "1"])


@pytest.mark.parametrize(
    "argv", [("--help",), ("enumerate", "std", "--help"), ("oracle", "kostka", "--help")]
)
def test_help_exits_zero(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    usage = out.getvalue()
    assert usage.startswith("usage: stablekron")
    if argv[0] == "oracle":
        assert "--beta" in usage and "--mu" in usage
        assert "--lam" not in usage and "-l" not in usage


def test_bad_partition_text():
    for argv in (["count", "-l", "1,2"], ["count", "-l", "1,2", "-n", "1", "-m", "1"]):
        assert_usage_error(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "std", "-l", "4", "-n", "4", "-s", "-2"),
        ("enumerate", "std0", "-l", "4", "-n", "4", "-s", "-1"),
        ("verify", "maximal-depth", "--max-nu", "-1"),
        ("verify", "one-row", "--max-part", "-1"),
        ("verify", "one-row", "--max-mu", "-1"),
        ("verify", "dims", "--max-size", "-1"),
        ("verify", "dims", "--max-s", "-1"),
        # not negative, but too deep for the recursion: the same contract
        ("enumerate", "std0", "-l", "0", "-n", "1100", "-s", "1100"),
        # a weight whose frame layout would not fit in memory
        ("count", "-l", "0", "-n", "0", "-m", "1000000000000"),
        ("enumerate", "sstd", "-l", "0", "-n", "0", "-m", "1000000000000"),
        # options that are gone: DOT is --format dot, and count picks its engine
        ("enumerate", "std", "-l", "4", "-n", "4", "-s", "3", "--dot"),
        ("enumerate", "sstd", "-l", "4", "-n", "4", "-m", "2,1", "--dot"),
        ("count", "-l", "4", "-n", "4", "-m", "3", "--method", "oracle"),
        # a --format the command does not offer
        ("enumerate", "std", "-l", "4", "-n", "4", "-s", "3", "--format", "dot"),
        ("count", "-l", "4", "-n", "4", "-m", "3", "--format", "dot"),
        ("verify", "dims", "--format", "text"),
        # -m or -s where it would be ignored
        ("enumerate", "std0", "-l", "4", "-n", "4", "-s", "3", "-m", "2,1"),
        ("enumerate", "sstd", "-l", "4", "-n", "4", "-m", "2,1", "-s", "9"),
        # a count that is not an integer
        ("enumerate", "std", "-l", "4", "-n", "4", "-s", "x"),
        ("verify", "dims", "--max-s", "x"),
    ],
)
def test_negative_argument_is_usage_error(argv):
    assert_usage_error(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "kostka", "-b", "1000000000", "-m", "1000000000"),
        ("oracle", "lr", "-l", "0", "-m", "1000000000", "-n", "1000000000"),
    ],
)
def test_out_of_memory_is_usage_error(argv, monkeypatch):
    # these would allocate a 10**9-cell grid; stand in for the allocation
    # failing, as allocating it for real would take the test machine's memory
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(characters, "_fillings", exhausted)
    assert run(*argv) == (2, "", "error: MemoryError\n")


def test_verify_mismatch_exits_one(monkeypatch):
    row = {"lambda": "2,1", "nu": "3", "mu": "1", "copieri": 1, "oracle": 2}
    sweep = (lambda *bounds: [row, row], {"max_size": 4, "max_s": 3})
    monkeypatch.setitem(cli._SWEEPS, "dims", sweep)
    mismatch = "MISMATCH (2,1; 3; 1) copieri=1 oracle=2\n"
    assert run("verify", "dims") == (1, mismatch * 2 + "FAIL (2 mismatches)\n", "")


_PARTS = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda parts: [str(p) for p in sorted(parts, reverse=True)]
)


@st.composite
def malformed_partition_text(draw):
    """Partition text that is wrong by construction."""
    tokens = draw(_PARTS)
    at = draw(st.integers(0, len(tokens) - 1))
    how = draw(st.sampled_from(("empty", "junk", "negative", "increasing", "zero")))
    if how == "empty":  # "1,,2", ",1", "1,"
        tokens.insert(draw(st.integers(0, len(tokens))), "")
    elif how == "junk":
        tokens[at] = draw(st.sampled_from(("x", "1x", "1 2", "2\t1", "1.5", "--1", "0x1")))
    elif how == "negative":
        tokens[at] = "-" + tokens[at]
    elif how == "increasing":  # "2,3"
        tokens.append(str(int(tokens[-1]) + draw(st.integers(1, 3))))
    else:  # a zero with a positive part after it: "2,0,1"
        tokens.insert(at, "0")
    pad = draw(st.sampled_from(("", " ", "\t")))
    return pad + ",".join(tokens) + pad


@settings(deadline=None)
@given(
    malformed_partition_text(),
    st.sampled_from(("--lam", "--nu", "--mu")),
    st.sampled_from(
        (("count",), ("classify",), ("enumerate", "sstd"), ("oracle", "stable"))
    ),
)
def test_malformed_partition_is_usage_error(text, flag, command):
    assert_usage_error([*command, "-l", "1", "-n", "2", "-m", "1", f"{flag}={text}"])


def test_blank_partition_text_is_the_empty_partition():
    for text in ("", " ", "\t", "0", " 0 "):
        code, out, err = run("count", f"--lam={text}", "-n", "1", "-m", "1")
        assert (code, out, err) == (0, "1 (copieri)\n", "")


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(("std", "std0")),
    st.sampled_from(("0", "1")),
    st.sampled_from(("0", "1")),
    st.one_of(st.integers(max_value=-1), st.integers(10**5, 10**12)),
)
def test_negative_or_huge_length_is_usage_error(kind, lam, nu, s):
    # the path walker recurses once per step and its first descent on these
    # triples is at least s/2 deep, so a huge length hits the recursion
    # limit (which Hypothesis raises by a few thousand) after few steps
    assert_usage_error(["enumerate", kind, "-l", lam, "-n", nu, "-s", str(s)])


@settings(deadline=None)
@given(
    st.sampled_from(("maximal-depth", "one-row", "dims")),
    st.sampled_from(("--max-nu", "--max-part", "--max-mu", "--max-size", "--max-s")),
    st.integers(max_value=-1),
)
def test_negative_verify_bound_is_usage_error(family, bound, value):
    assert_usage_error(["verify", family, f"{bound}={value}"])


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "one-row", "--max-nu", "99", "--max-part", "1", "--max-mu", "1"),
        ("verify", "maximal-depth", "--max-s", "0"),
        ("verify", "dims", "--max-part", "2"),
    ],
)
def test_verify_rejects_another_familys_bound(argv):
    assert_usage_error(argv)
