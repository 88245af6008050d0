import json

import pytest

from stablekron.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1")
    assert code == 0
    assert out.strip() == "1 (copieri)"


def test_count_json(capsys):
    code, out, _ = run(
        capsys, "count", "-l", "4", "-n", "4", "-m", "3", "--format", "json"
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


def test_count_forced_oracle(capsys):
    code, out, _ = run(
        capsys, "count", "-l", "4", "-n", "4", "-m", "3", "--method", "oracle"
    )
    assert code == 0
    assert out.strip() == "2 (oracle)"


def test_count_auto_falls_back(capsys):
    code, out, _ = run(capsys, "count", "-l", "2,1", "-n", "2,1", "-m", "1")
    assert code == 0
    assert out.strip().endswith("(oracle)")


def test_count_copieri_unsupported_is_domain_error(capsys):
    code, out, err = run(
        capsys, "count", "-l", "2,1", "-n", "2,1", "-m", "1", "--method", "copieri"
    )
    assert code == 2
    assert not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "lambda=2,1, nu=2,1" in lines[0] and "Partition(" not in lines[0]


def test_enumerate_std0(capsys):
    code, out, _ = run(capsys, "enumerate", "std0", "-l", "4", "-n", "4", "-s", "3")
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


def test_enumerate_std_requires_length(capsys):
    code, _, err = run(capsys, "enumerate", "std", "-l", "4", "-n", "4")
    assert code == 2 and "requires -s" in err


def test_enumerate_sstd_requires_weight(capsys):
    code, _, err = run(capsys, "enumerate", "sstd", "-l", "4", "-n", "4")
    assert code == 2 and "requires -m" in err


def test_enumerate_sstd(capsys):
    code, out, _ = run(
        capsys, "enumerate", "sstd", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "4 orbits"
    assert sum(1 for line in lines[1:] if line.endswith(" lattice")) == 1


def test_enumerate_latt(capsys):
    code, out, _ = run(
        capsys, "enumerate", "latt", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 orbits"
    assert "a1·a2·a2·a3·a3" in lines[1]


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys,
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


def test_enumerate_dot(capsys):
    code, out, _ = run(
        capsys, "enumerate", "sstd", "-l", "4", "-n", "4", "-m", "2,1", "--dot"
    )
    assert code == 0
    assert out.startswith("digraph swaps {")
    assert out.rstrip().endswith("}")


def test_enumerate_is_deterministic(capsys):
    args = ("enumerate", "sstd", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "-l", "2,1", "-n", "3,3,2", "-m", "2,2,1")
    assert code == 0
    assert out.startswith("maximal-depth:")


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", "-l", "2,1", "-n", "2,1", "-m", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["class"] == "co-pieri-staircase"


def test_verify_one_row_small(capsys):
    code, out, _ = run(
        capsys, "verify", "one-row", "--max-part", "2", "--max-mu", "2"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"


def test_verify_dims_small(capsys):
    code, out, _ = run(capsys, "verify", "dims", "--max-size", "2", "--max-s", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"


def test_oracle_lr(capsys):
    code, out, _ = run(
        capsys, "oracle", "lr", "-l", "2,1", "-m", "2,1", "-n", "3,2,1"
    )
    assert code == 0 and out.strip() == "2"


def test_oracle_char(capsys):
    code, out, _ = run(capsys, "oracle", "char", "-l", "2,1", "-r", "3")
    assert code == 0 and out.strip() == "-1"


def test_oracle_stable(capsys):
    code, out, _ = run(capsys, "oracle", "stable", "-l", "2", "-n", "2", "-m", "2")
    assert code == 0 and out.strip() == "2"


def test_oracle_kostka(capsys):
    code, out, _ = run(capsys, "oracle", "kostka", "-b", "2,1", "-m", "1,1,1")
    assert code == 0 and out.strip() == "2"


def test_oracle_fstd(capsys):
    code, out, _ = run(capsys, "oracle", "fstd", "-m", "3,2")
    assert code == 0 and out.strip() == "5"


def test_oracle_size_mismatch(capsys):
    code, _, err = run(capsys, "oracle", "kron", "-l", "2,1", "-m", "2,1", "-n", "2")
    assert code == 2 and err.startswith("error:")


def test_bad_partition_text(capsys):
    for argv in (["count", "-l", "1,2"], ["count", "-l", "1,2", "-n", "1", "-m", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")



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
    ],
)
def test_negative_argument_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
