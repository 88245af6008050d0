"""Smoke check of the benchmark on the tiny input cut; about two minutes.

    python3 bench/smoke.py

Asserts that every workload prints every end_to_end metric of
BENCHMARK.json untraced and every per_layer metric traced, with every
check passing; that a deliberately wrong expected value makes failed_frac
positive; that --record and --compare work; and that the benchmark
refuses to run in a directory without the stablekron sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--seconds", "1", "--cut", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(*args: str) -> dict:
    proc = run(*args)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == KEYS and out["attempted"] >= 1, out
    return out


def main() -> None:
    workloads = [w["name"] for w in SPEC["workloads"]]
    for name in workloads:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            out = result("--workload", name, "--seed", "7", "--trace", trace)
            missing = {m["name"] for m in SPEC[group]} - set(out["metrics"])
            assert not missing, f"{name} trace {trace}: missing {sorted(missing)}"
            assert out["correct"] and out["failed"] == 0, out
            print(f"ok: {name} trace {trace}: every {group} metric, {out['attempted']} operations checked")
        out = result("--workload", name, "--trace", "0", "--wrong-expected")
        assert not out["correct"] and out["failed"] > 0, out
        print(f"ok: {name}: a wrong expected value gives failed_frac {out['failed'] / out['attempted']:.4f}")

    (BENCH / ".tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=BENCH / ".tmp"))
    try:
        record = work / "record.json"
        proc = run("--record", str(record), "--runs", "2")
        assert record.exists(), proc.stderr
        proc = run("--compare", str(record), str(record))
        assert proc.returncode == 0 and "WORSE" not in proc.stdout, proc.stdout + proc.stderr
        print("ok: --record and --compare")

        bare = work / "bare"
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".tmp", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("--workload", workloads[0], cwd=bare, script=bare / "bench" / "run.py")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok: refuses to run without the sources")
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    main()
