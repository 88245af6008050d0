import types
from pathlib import Path

import stablekron

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_snippet_runs_as_written(capsys):
    namespace: dict = {}
    exec(readme_library_snippet(), namespace)
    lam, nu, mu = namespace["lam"], namespace["nu"], namespace["mu"]
    assert namespace["stable_kronecker"](lam, nu, mu) == (1, "copieri")
    assert len(capsys.readouterr().out.splitlines()) == 4  # one line per orbit


def test_public_names_are_the_readme_api():
    names = {
        name
        for name, value in vars(stablekron).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == {
        "Partition",
        "parse_partition",
        "stable_kronecker",
        "stable_kronecker_oracle",
        "enumerate_std0",
        "enumerate_sstd",
        "reading_word",
        "is_lattice",
    }
