"""The stablekron benchmark: standard library only.

One run of one workload (the form BENCHMARK.json names):

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

runs whole passes over the workload's inputs, each in a fresh worker
interpreter (bench/worker.py) started one at a time, until --seconds have
passed.  It prints a human report, a `meta` line (git rev, dirty tree,
Python, nproc, seed) and, as its last line, a JSON object with `correct`,
`attempted`, `failed` and `metrics`: every end_to_end metric of
BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.  A
traced run alternates untraced and traced passes; `trace.overhead` is the
traced passes' operation time over the untraced ones', minus one.

    python3 bench/run.py --record bench/results/BENCH_<rev>.json --runs 10
    python3 bench/run.py --compare OLD.json NEW.json

--record runs every workload --runs times (seeds 1..runs, interleaved)
plus one traced run each, writes the results with medians and spreads,
and says which spreads exceed a third of their bound.  --compare prints
every metric of every workload as a ratio to its base, marks what is
worse than its bound, and marks as unresolved what spreads wider than it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 15  # set-ups per untraced run, for the median setup_s

# Tail percentile per workload: the highest with at least ten samples past
# it in one pass, or for the command line in one run of 30 s.
TAIL = {"sweep-maxdepth": 99, "oracle": 95, "cli": 90}

# What each workload's report calls the shared metrics.
ALIASES = {
    "sweep-maxdepth": {"ops_per_s": "triples_per_s", "op_p50_ms": "triple_p50_ms", "op_tail_ms": "triple_tail_ms"},
    "oracle": {"ops_per_s": "triples_per_s", "op_p50_ms": "triple_p50_ms", "op_tail_ms": "triple_tail_ms"},
    "cli": {},
}


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text())


def git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def meta(seed: int | None) -> dict:
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": git("rev-parse", "--short", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def start_worker(spec: dict) -> tuple[float, dict]:
    """Run one worker; return when it was started and what it printed."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=170,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker for {spec['workload']} exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.splitlines()[-1])


def rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile q among n samples."""
    return max(1, math.ceil(n * q / 100))


def percentile(values: list[float], q: float) -> float:
    return sorted(values)[rank(len(values), q) - 1]


def slowest_share(times: list[float]) -> float:
    """Summed time of the slowest 1% of a pass's operations, at least one."""
    return sum(sorted(times)[-math.ceil(len(times) / 100):])


def end_to_end(name: str, passes: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    times = [t for p in passes for t in p["times"]]
    q = TAIL[name]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(len(p["times"]) / sum(p["times"]) for p in passes),
        "op_p50_ms": percentile(times, 50) * 1e3,
        "op_tail_ms": percentile(times, q) * 1e3,
        "slowest_1pct_s": statistics.median(slowest_share(p["times"]) for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    notes = [
        f"op_tail_ms is p{q} of {len(times)} operations ({len(times) - rank(len(times), q)} beyond it)",
        f"slowest_1pct_s is the median over {len(passes)} passes of the slowest "
        f"{math.ceil(len(passes[0]['times']) / 100)} operations' summed time",
        f"setup_s is the median of {len(setups)} set-ups",
    ]
    c4 = passes[0].get("c4_index")
    if c4 is not None:
        c4_times = [p["times"][c4] for p in passes]
        notes.append(f"c4_oracle_s {statistics.median(c4_times):.6g} s (median of {len(c4_times)})")
    for mode, indices in passes[0].get("split", {}).items():
        sample = [p["times"][i] for p in passes for i in indices]
        notes.append(f"{mode}_p50_ms {percentile(sample, 50) * 1e3:.6g} ms, {mode}_tail_ms "
                     f"{percentile(sample, q) * 1e3:.6g} ms (p{q} of {len(sample)})")
    return metrics, notes


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if "layers" in p]
    untraced = [p for p in passes if "layers" not in p]
    names = {k for p in traced for k in p["layers"]}
    metrics = {k: statistics.median_low(p["layers"][k] for p in traced if k in p["layers"]) for k in sorted(names)}
    metrics["trace.overhead"] = (
        statistics.median(sum(p["times"]) for p in traced)
        / statistics.median(sum(p["times"]) for p in untraced)
        - 1
    )
    probed = sorted({q for p in traced for q in p["probed"]})
    notes = [f"timed on probe inputs, as the workload never calls them: {', '.join(probed)}"] if probed else []
    return metrics, notes


def run_workload(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "stablekron" / "__init__.py").is_file():
        print(f"error: no stablekron sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    (BENCH / ".tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".tmp"))
    try:
        cache_dir = workdir / "cache"
        cache_dir.mkdir()
        base = {
            "workload": args.workload,
            "seed": args.seed,
            "cut": args.cut,
            "wrong_expected": args.wrong_expected,
            "cache_dir": str(cache_dir),
            "workdir": str(workdir),
            "setup_only": False,
        }
        passes, setups = [], []
        start = time.perf_counter()
        while len(passes) < (2 if args.trace else 1) or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(passes) % 2 == 1
            spawned, result = start_worker({**base, "pass": len(passes), "traced": traced})
            setups.append(result["first_call"] - spawned)
            passes.append(result)
        while not args.trace and len(setups) < SETUPS:
            spawned, result = start_worker({**base, "pass": len(setups), "traced": False, "setup_only": True})
            setups.append(result["first_call"] - spawned)
        if args.trace:
            metrics, notes = per_layer(passes)
            metrics.update(tracing.padded_kronecker_probe(worker_env(), ROOT))
            metrics.update(tracing.import_probe(worker_env(), ROOT))
        else:
            metrics, notes = end_to_end(args.workload, passes, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    aliases = ALIASES[args.workload]
    print(f"stablekron bench: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(passes)} passes in {time.perf_counter() - start:.1f} s")
    for name in units:
        value = f"{metrics[name]:.6g}" if name in metrics else "absent"
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:28} {value:>12} {units[name]}{alias}")
    print(f"  {'failed_frac':28} {failed / attempted:>12.6g} ratio  ({failed} of {attempted} operations)")
    for note in notes:
        print(f"  {note}")
    print("meta " + json.dumps({**meta(args.seed), "workload": args.workload, "cut": args.cut}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }))
    return 0


# --- recording and comparing -------------------------------------------------


def run_self(workload: str, seed: int, trace: int, seconds: int, cut: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--cut", cut],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    return result


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: list[dict]) -> dict:
    names = {k for r in runs for k in r["metrics"]}
    out = {}
    for name in sorted(names):
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        out[name] = {"median": statistics.median(values), "spread": spread(values), "values": values}
    return out


def record(args: argparse.Namespace) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            runs[w].append(run_self(w, i + 1, 0, args.seconds, args.cut))
            values = {k: v["value"] for k, v in runs[w][-1]["metrics"].items()}
            print(f"{w} seed {i + 1}: {json.dumps(values)}", flush=True)
    traced = {w: run_self(w, args.runs + 1, 1, args.seconds, args.cut) for w in workloads}
    out = {
        "meta": meta(None),
        "run_seconds": args.seconds,
        "cut": args.cut,
        "workloads": {
            w: {"runs": runs[w], "summary": summarize(runs[w]), "traced": traced[w]} for w in workloads
        },
    }
    Path(args.record).write_text(json.dumps(out, indent=1) + "\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for w in workloads:
        for name, s in out["workloads"][w]["summary"].items():
            spread_ = s["spread"]
            ok = name == "setup_s" or (spread_ is not None and spread_ < bounds[name] / 3)
            steady &= ok
            print(f"{w:15} {name:14} median {s['median']:12.6g}  spread {spread_ and round(spread_, 4)}"
                  f"  bound {bounds[name]}  {'ok' if ok else 'SPREAD > bound/3'}")
    return 0 if steady else 1


def compare(a_path: str, b_path: str) -> int:
    spec = load_spec()
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            print(f"{name}: missing from one file")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, m in e2e.items():
            sa, sb = wa["summary"].get(metric), wb["summary"].get(metric)
            if sa is None or sb is None:
                print(f"{name:15} {metric:28} absent")
                continue
            ratio = sb["median"] / sa["median"]
            lower = m["better"] == "lower"
            if lower:
                beyond, all_better = ratio > 1 + m["bound"], max(sb["values"]) < min(sa["values"])
            else:
                beyond, all_better = ratio < 1 - m["bound"], min(sb["values"]) > max(sa["values"])
            if any(s is None or s > m["bound"] for s in (sa["spread"], sb["spread"])) and not all_better:
                verdict = "unresolved"
            elif beyond:
                verdict = "WORSE than bound"
                worse += 1
            else:
                verdict = "ok"
            print(f"{name:15} {metric:28} {sb['median']:12.6g} / {sa['median']:12.6g} {m['unit']:6}"
                  f" = {ratio:7.4f}  (bound {m['bound']}, {m['better']} is better)  {verdict}")
        la, lb = wa["traced"]["metrics"], wb["traced"]["metrics"]
        for metric in (m["name"] for m in spec["per_layer"]):
            if metric not in la or metric not in lb:
                print(f"{name:15} {metric:28} absent")
            elif la[metric]["value"]:
                print(f"{name:15} {metric:28} {lb[metric]['value']:12.6g} / {la[metric]['value']:12.6g}"
                      f" {la[metric]['unit']:6} = {lb[metric]['value'] / la[metric]['value']:7.4f}")
            else:
                print(f"{name:15} {metric:28} {lb[metric]['value']:12.6g} / 0")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cut", choices=("full", "tiny"), default="full",
                        help="input set; tiny is the smoke check's")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="corrupt one expected value, to see the check fail")
    parser.add_argument("--record", metavar="OUT")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.record:
        return record(args)
    if not args.workload:
        parser.error("one of --workload, --record or --compare is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
