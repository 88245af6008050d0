"""Wrong-answer mutants that the tier-1 suite must kill.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

Each row of MUTANTS is one edit of a file: (file, text, replacement,
why).  For each row the script copies the checkout to a temporary
directory, makes the edit there (the text must occur exactly once in the
file, or the script stops with an error), and runs the suite there with
``pytest -x``.  It prints the first test that fails, the mutant's
killer, or SURVIVED.  The unmutated copy runs first and must pass.  The
script exits 1 if any mutant survives, and never edits the checkout.

A survivor is one of two things.  Either the mutant is equivalent, and
the code it changes is dead: the code goes, and the proof goes into the
docstring at its site.  Or the suite has a gap, and a new test kills the
mutant.  A row is never dropped to make the script pass.  The table
leaves out safety code that no answer depends on: validation of outside
input, and the ArithmeticError check in characters._kronecker.

pytest does not collect this file; its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build")

T = "src/stablekron/tableaux.py"
O = "src/stablekron/orbits.py"
R = "src/stablekron/reading.py"
C = "src/stablekron/characters.py"

MUTANTS = [
    (T, "if q > 1 and lo[q - 1] < hi[q]:", "if q > 1 and lo[q - 1] <= hi[q]:",
     "frame_end: the q-test asks for a gap of 2"),
    (T, "if q > 1 and", "if q and",
     "frame_end: the q-test also runs for row 1, against the slot 0"),
    (T, "if p and lo[p]", "if lo[p]",
     "frame_end: the p-test also runs for p = 0"),
    (T, "return max(cur.size, nu.size) - sum(", "return min(cur.size, nu.size) - sum(",
     "_distance: the smaller size, not the larger"),
    (T, "all(map(le, lam[1:], (*nu, 0)))", "all(map(le, lam[1:], nu))",
     "classify: lam's rows past nu's are not read as 0"),
    (T, "and s == _distance(lam, nu)", "and s >= _distance(lam, nu)",
     "classify: co-Pieri horizontal at s past the distance"),
    (T, "if len(lam) <= 1 and len(nu) <= 1:", "if len(lam) <= 1 or len(nu) <= 1:",
     "classify: one-row when either shape has one row"),
    (T, "(lambda lam, s: 0, None)", "(lambda lam, s: 0, frozenset(map(Step.add, range(1, 4))))",
     "_STD0 maximal depth: adds to rows 1-3 only"),
    (T, "lambda lam, s: lam.size, frozenset", "lambda lam, s: lam.size - 1, frozenset",
     "_STD0 one-row: the removal budget less 1"),
    (T, "frozenset((Step.remove(1), Step.dummy(1), Step.add(1)))", "frozenset((Step.remove(1), Step.add(1)))",
     "_STD0 one-row: no d1 step"),
    (T, "if _distance(lam, nu) <= s:", "if True:",
     "_walk: the root reach test bypassed"),
    (O, "if path[k - 1] > path[k])", "if path[k - 1] >= path[k])",
     "_std0_paths: equal steps count as a descent"),
    (O, "if mu.size != s:", "if False:",
     "enumerate_sstd: no |mu| = s check"),
    (O, "for k in range(1, len(fr)) if", "for k in range(2, len(fr)) if",
     "_layout: the interior mask misses position 1"),
    (O, "for part in mu if part > 1)", "for part in mu if part > 2)",
     "_layout: frames of two steps go unchecked by _after"),
    (O, "for j in range(mu[f])]", "for j in range(mu[f] - 1)]",
     "_layout: the lattice test skips each frame's last step"),
    (R, "all(map(gt, above(o.steps)", "all(map(lambda a, b: a >= b, above(o.steps)",
     "lattice count: >= for >"),
    (O, "for st, frame in zip(steps, frames(o.weight)):", "for st, frame in zip(sorted(steps), frames(o.weight)):",
     "to_classical: reads the sorted steps, not the least member"),
    (R, 'return stable_kronecker_oracle(lam, nu, mu), "oracle"', 'return 0, "oracle"',
     "router: the fallback answers 0"),
    (C, "(mask & (top - low)).bit_count()", "(mask & (top - 1)).bit_count()",
     "_hooks: the leg parity counts every bead below the hook's head"),
    (C, "return (*out, 1) if kmax or not n else ()", "return (*out, 1)",
     "_sizes: the class (1^n) kept at kmax = 0 < n"),
    (C, "num *= b - a", "num *= b - a + 1",
     "_standard: each bead gap one too large"),
    (C, "n = max(total // 2, min_padding", "n = max(total // 2 - 1, min_padding",
     "n2: the oracle one below the stable range"),
    (C, "placed[v] == placed[v - 1]:", "placed[v] > placed[v - 1]:",
     "_fillings: the lattice test lets a v tie v - 1"),
    (C, "if lam.size + mu.size != nu.size or not contains(lam, nu):", "if lam.size + mu.size != nu.size:",
     "lr_coefficient: no containment test before the search"),
]


def first_failure(copy: Path) -> str | None:
    """The first test that fails in copy's suite, or None when it passes."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(copy / "src"), env.get("PYTHONPATH"))))
    try:
        done = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return None
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return f"pytest exit {done.returncode}: {(done.stdout + done.stderr).strip()[-300:]}"


def mutated_copy(tmp: str, edit=None) -> Path:
    """A fresh copy of the checkout in tmp, with the (file, old, new) edit
    made in it."""
    copy = Path(tempfile.mkdtemp(dir=tmp))
    shutil.copytree(ROOT, copy, dirs_exist_ok=True, ignore=IGNORE)
    if edit is not None:
        file, old, new = edit
        target = copy / file
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    return copy


def main() -> int:
    start = time.monotonic()
    lines = []
    for file, old, _, _ in MUTANTS:
        text = (ROOT / file).read_text(encoding="utf-8")
        if text.count(old) != 1:
            sys.exit(f"error: {file} holds {old!r} {text.count(old)} times, not once")
        lines.append(text[: text.index(old)].count("\n") + 1)
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        failed = first_failure(mutated_copy(tmp))
        if failed is not None:
            sys.exit(f"error: the unmutated suite fails: {failed}")
        for i, ((file, old, new, why), line) in enumerate(zip(MUTANTS, lines), start=1):
            began = time.monotonic()
            killer = first_failure(mutated_copy(tmp, (file, old, new)))
            survivors += killer is None
            verdict = "SURVIVED" if killer is None else f"killed by {killer}"
            took = time.monotonic() - began
            print(f"{i:2} {Path(file).name}:{line} {why}: {verdict} ({took:.1f} s)", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} survived, {time.monotonic() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
