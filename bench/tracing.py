"""Per-layer measurements for the traced run.

The layers are the package's modules.  A Tracer wraps public functions
from outside the package and keeps inclusive times, call counts and the
results it needs for counts and ratios.  Probes time what no wrapper can
see: Std0 level replay, the on-disk character cache, a cold padded
Kronecker coefficient and the import of the command line.  A function or
module that no longer exists is reported absent, never as a crash.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Functions timed from outside: the blocking steps of each engine plus the
# check-side oracles.
TRACED = (
    "tableaux.classify",
    "tableaux.enumerate_std0",
    "orbits.enumerate_sstd",
    "reading.reading_word",
    "reading.is_lattice",
    "characters.stable_kronecker_oracle",
    "characters.lr_coefficient",
    "characters.kostka",
)
MODULES = ("partitions", "tableaux", "orbits", "reading", "characters", "cli")


class Tracer:
    """Installs timing wrappers on every stablekron module that binds a
    traced function, so calls from one module into another are seen."""

    def __init__(self):
        self.seconds: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.absent: set[str] = set()
        self.probed: set[str] = set()
        self.std0: list = []  # every path enumerate_std0 returned
        self.sstd: list = []  # ((lam, nu, mu), orbits, members) per enumerate_sstd call
        self.lattice = 0
        modules = []
        for name in MODULES:
            try:
                modules.append(importlib.import_module(f"stablekron.{name}"))
            except ImportError:
                pass
        for qualname in TRACED:
            self._wrap(qualname, modules)

    def _wrap(self, qualname: str, modules: list) -> None:
        module_name, name = qualname.split(".")
        original = getattr(sys.modules.get(f"stablekron.{module_name}"), name, None)
        if original is None:
            self.absent.add(qualname)
            return
        hook = getattr(self, f"_on_{name}", None)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.seconds[qualname] += time.perf_counter() - start
                self.calls[qualname] += 1
            if hook is not None:
                hook(args, result)
            return result

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _on_enumerate_std0(self, args, result) -> None:
        self.std0.extend(result)

    def _on_enumerate_sstd(self, args, result) -> None:
        lam, nu, _, mu = args
        self.sstd.append(((lam, nu, mu), len(result), sum(o.size for o in result)))

    def _on_is_lattice(self, args, result) -> None:
        self.lattice += bool(result)

    def run_cli(self, commands: list[list[str]]) -> None:
        """Run command lines in this process, so the wrappers see them."""
        from stablekron import cli

        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

    def probe_unreached(self, probes: dict) -> None:
        """Time each traced function the workload never called on its
        probe arguments, so every layer metric is a measurement."""
        for qualname, arglist in probes.items():
            if self.calls[qualname] or qualname in self.absent:
                continue
            module_name, name = qualname.split(".")
            function = getattr(sys.modules[f"stablekron.{module_name}"], name)
            for args in arglist:
                function(*args)
            self.probed.add(qualname)

    def replay(self) -> dict:
        """Rebuild the levels of every Std0 path the workload enumerated."""
        if not self.std0 or not hasattr(self.std0[0], "levels"):
            return {}
        start = time.perf_counter()
        built = sum(len(path.levels()) for path in self.std0)
        return {"partitions.replay_s": time.perf_counter() - start, "partitions.levels_built": built}

    def metrics(self) -> dict:
        s, c = self.seconds, self.calls
        out = {}

        def timed(metric, *qualnames):
            if not any(q in self.absent for q in qualnames):
                out[metric] = sum(s[q] for q in qualnames)

        timed("tableaux.classify_s", "tableaux.classify")
        timed("tableaux.enumerate_std0_s", "tableaux.enumerate_std0")
        timed("orbits.enumerate_sstd_s", "orbits.enumerate_sstd")
        timed("reading.lattice_s", "reading.reading_word", "reading.is_lattice")
        timed("characters.stable_oracle_s", "characters.stable_kronecker_oracle")
        timed("characters.lr_s", "characters.lr_coefficient")
        timed("characters.kostka_s", "characters.kostka")
        if "characters.stable_kronecker_oracle" not in self.absent:
            out["characters.oracle_calls"] = c["characters.stable_kronecker_oracle"]
        paths = len(self.std0)
        orbits = sum(o for _, o, _ in self.sstd)
        members = sum(m for _, _, m in self.sstd)
        if "tableaux.enumerate_std0" not in self.absent:
            out["tableaux.std0_paths"] = paths
        if "orbits.enumerate_sstd" not in self.absent:
            out["orbits.sstd_orbits"] = orbits
            out["orbits.sstd_members"] = members
            if paths and "tableaux.enumerate_std0" not in self.absent:
                out["orbits.kept_share"] = members / paths
            if "reading.is_lattice" not in self.absent:
                out["reading.lattice_orbits"] = self.lattice
                if orbits:
                    out["reading.lattice_share"] = self.lattice / orbits
        out.update(self.replay())
        return out


def cache_probe(workdir: Path, cache_dir: str | None) -> dict:
    """Save and load of the character memo the workload left behind: the
    file of the cached command-line pass if there is one, else this
    process's memo."""
    from stablekron import characters

    load = getattr(characters, "load_character_cache", None)
    save = getattr(characters, "save_character_cache", None)
    if load is None or save is None:
        return {}
    out = {}
    left = next(Path(cache_dir).iterdir(), None) if cache_dir else None
    if left is None:
        left = workdir / "memo.cache"
        start = time.perf_counter()
        save(str(left))
        out["cli.cache_save_s"] = time.perf_counter() - start
    start = time.perf_counter()
    out["cli.cache_entries"] = load(str(left))
    out["cli.cache_load_s"] = time.perf_counter() - start
    if "cli.cache_save_s" not in out:
        start = time.perf_counter()
        save(str(workdir / "resaved.cache"))
        out["cli.cache_save_s"] = time.perf_counter() - start
    out["cli.cache_bytes"] = left.stat().st_size
    return out


PADDED_PROBE = """\
import time
from stablekron.characters import padded_kronecker
from stablekron.partitions import Partition
args = Partition((7, 5, 1, 1)), Partition((6, 3, 3)), Partition((2, 2, 1)), 31
start = time.perf_counter()
padded_kronecker(*args)
print(time.perf_counter() - start)
"""


def _child(code: str, env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def padded_kronecker_probe(env: dict, cwd: Path) -> dict:
    """One cold padded_kronecker of the criterion-4 triple at n = 31, in its own interpreter."""
    proc = _child(PADDED_PROBE, env, cwd)
    if proc.returncode != 0:
        return {}
    return {"characters.padded_kronecker_s": float(proc.stdout.split()[-1])}


def import_probe(env: dict, cwd: Path, repeats: int = 7) -> dict:
    """Start-up of `import stablekron.cli` minus a bare interpreter, medians of alternating runs."""
    bare, full = [], []
    for _ in range(repeats):
        for code, into in (("pass", bare), ("import stablekron.cli", full)):
            start = time.perf_counter()
            proc = _child(code, env, cwd)
            into.append(time.perf_counter() - start)
            if proc.returncode != 0:
                return {}
    return {"cli.import_s": statistics.median(full) - statistics.median(bare)}
