"""One pass of one benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 bench/worker.py '<json spec>'

bench/run.py starts one worker at a time.  The spec holds workload, seed,
pass, cut, traced, setup_only, wrong_expected, cache_dir and workdir.  A
fresh interpreter per pass means the process-wide character memo starts
empty, as it does for every command-line user.

The worker builds the inputs (seed and pass choose their order, never
their set), times every operation, checks every output outside the timed
region and prints one JSON object as the last line of its stdout.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = json.loads((BENCH / "pins.json").read_text())["triples"]

# "tiny" is the smoke check's cut: the same code paths in a second or two.
CUTS = {
    "full": {"max_nu": 8, "max_part": 5, "max_mu": 4, "max_pin_size": None},
    "tiny": {"max_nu": 4, "max_part": 2, "max_mu": 2, "max_pin_size": 12},
}
C4 = ((7, 5, 1, 1), (6, 3, 3), (2, 2, 1))

# Acceptance criterion 1 lists these seven paths exactly.
STD0_4_4_3 = sorted(["r1·d1·a1", "r1·a1·d1", "d1·r1·a1", "d1·d1·d1", "d1·a1·r1", "a1·r1·d1", "a1·d1·r1"])


def partitions(n: int, max_part: int | None = None):
    """Partitions of n as tuples, largest first part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def inside(nu: tuple, row: int = 0, cap: int | None = None):
    """Partitions contained in nu, each exactly once."""
    yield ()
    if row < len(nu):
        for part in range(nu[row] if cap is None else min(cap, nu[row]), 0, -1):
            for rest in inside(nu, row + 1, part):
                yield (part,) + rest


def maxdepth_triples(max_nu: int) -> list[tuple]:
    """Every (lam, nu, mu) with lam inside nu and |lam| + |mu| = |nu| <= max_nu."""
    return [
        (lam, nu, mu)
        for m in range(max_nu + 1)
        for nu in partitions(m)
        for lam in inside(nu)
        for mu in partitions(m - sum(lam))
    ]


def one_row_triples(max_part: int, max_mu: int) -> list[tuple]:
    rows = [(a,) if a else () for a in range(max_part + 1)]
    mus = [mu for m in range(max_mu + 1) for mu in partitions(m)]
    return [(lam, nu, mu) for lam in rows for nu in rows for mu in mus]


def parse(text: str) -> tuple:
    return () if text == "0" else tuple(int(x) for x in text.split(","))


def pinned(cut: dict) -> dict:
    """The cut's non-family triples, mapped to their pinned values."""
    out = {}
    for pin in PINS:
        triple = tuple(parse(pin[k]) for k in ("lambda", "nu", "mu"))
        if cut["max_pin_size"] is None or sum(map(sum, triple)) <= cut["max_pin_size"]:
            out[triple] = pin["value"]
    return out


def as_partitions(triples) -> list[tuple]:
    from stablekron.partitions import Partition

    return [tuple(map(Partition, t)) for t in triples]


# --- workloads: (input groups, the timed call, expected values) ----------
#
# The groups run one after another; the seed permutes each group's order.


def sweep_maxdepth(cut, cache_dir):
    from stablekron.reading import stable_kronecker

    def expect(ops):
        from stablekron.characters import lr_coefficient

        return [lr_coefficient(lam, mu, nu) for lam, nu, mu in ops]

    groups = [as_partitions(maxdepth_triples(cut["max_nu"]))]
    return groups, lambda t: stable_kronecker(*t)[0], expect


def oracle(cut, cache_dir):
    from stablekron.characters import stable_kronecker_oracle

    pins = pinned(cut)

    def expect(ops):
        from stablekron.reading import stable_kronecker_copieri

        return [pins[t] if t in pins else stable_kronecker_copieri(*t) for t in ops]

    groups = [as_partitions(one_row_triples(cut["max_part"], cut["max_mu"])), as_partitions(pins)]
    return groups, lambda t: stable_kronecker_oracle(*t), expect


def _p(text: str):
    from stablekron.partitions import Partition

    return Partition(parse(text))


def _lr(lam, mu, nu):
    from stablekron.characters import lr_coefficient

    return lr_coefficient(_p(lam), _p(mu), _p(nu))


def _stable(lam, nu, mu):
    from stablekron.characters import stable_kronecker_oracle

    return stable_kronecker_oracle(_p(lam), _p(nu), _p(mu))


def _sstd_count(lam, nu, mu):
    """|SStd| = sum over beta of g(lam, nu, beta) K(beta, mu), with g = LR at maximal depth."""
    from stablekron.characters import kostka

    betas = [",".join(map(str, b)) for b in partitions(_p(mu).size)]
    return sum(_lr(lam, beta, nu) * kostka(_p(beta), _p(mu)) for beta in betas)


def _orbits(count):
    return (f"{count} orbits", count)


def _pin(lam, nu, mu):
    return pinned(CUTS["full"])[(parse(lam), parse(nu), parse(mu))]


# The README's fast commands, each with its expected output: derived from an
# independent engine or pinned, and summarized as cli_value summarizes.
CLI_COMMANDS = {
    "count -l 2,1 -n 3,3,2 -m 2,2,1": lambda: f"{_lr('2,1', '2,2,1', '3,3,2')} (copieri)",
    "count -l 4 -n 4 -m 2,2,1": lambda: f"{_stable('4', '4', '2,2,1')} (copieri)",
    "count -l 2,1 -n 2,1 -m 1": lambda: f"{_pin('2,1', '2,1', '1')} (oracle)",
    "count -l 3,1 -n 2,2 -m 2": lambda: f"{_pin('3,1', '2,2', '2')} (oracle)",
    "enumerate std0 -l 4 -n 4 -s 3": lambda: ("7 tableaux", STD0_4_4_3),
    "enumerate sstd -l 2,1 -n 3,3,2 -m 2,2,1": lambda: _orbits(_sstd_count("2,1", "3,3,2", "2,2,1")),
    "enumerate latt -l 2,1 -n 3,3,2 -m 2,2,1": lambda: _orbits(_lr("2,1", "2,2,1", "3,3,2")),
    # Both skews over (5,3,1) are horizontal strips and |mu| = 5 = |lam| - 9.
    "classify -l 7,5,1,1 -n 5,3,3 -m 2,2,1": lambda: "co-pieri-horizontal: horizontal-strip skews (case ii)",
    "oracle char -l 2,1 -r 3": lambda: "-1",  # the character table of S_3
}


def cli_value(argv: list[str], proc) -> object:
    """What the check compares: the exit code and a summary of stdout."""
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return ("exit", proc.returncode)
    if argv[0] != "enumerate":
        return lines[0]
    return (lines[0], sorted(lines[1:]) if argv[1] == "std0" else len(lines) - 1)


def cli_env(cache_dir: str | None) -> dict:
    env = dict(os.environ)
    env.pop("KRON_CACHE_DIR", None)
    if cache_dir:
        env["KRON_CACHE_DIR"] = cache_dir
    return env


def cli(cut, cache_dir):
    """Each command once with KRON_CACHE_DIR unset and once set to cache_dir."""
    envs = {False: cli_env(None), True: cli_env(cache_dir)}

    def call(op):
        command, cached = op
        argv = command.split()
        proc = subprocess.run(
            [sys.executable, "-m", "stablekron.cli", *argv],
            cwd=ROOT, env=envs[cached], capture_output=True, text=True, timeout=120,
        )
        return cli_value(argv, proc)

    def expect(ops):
        wanted = {command: want() for command, want in CLI_COMMANDS.items()}
        return [wanted[command] for command, _ in ops]

    return [[(command, cached) for command in CLI_COMMANDS for cached in (False, True)]], call, expect


WORKLOADS = {"sweep-maxdepth": sweep_maxdepth, "oracle": oracle, "cli": cli}


# --- one pass ---------------------------------------------------------------


def timed(ops, call) -> tuple[list, list]:
    """Run every operation; one that raises gets the value None, which fails its check."""
    times, values = [], []
    reported = False
    for op in ops:
        start = time.perf_counter()
        try:
            value = call(op)
        except Exception:  # the pass goes on; the operation counts as failed
            if not reported:
                traceback.print_exc()
                reported = True
            value = None
        times.append(time.perf_counter() - start)
        values.append(value)
    return times, values


def dims_failures(tracer, ops, values) -> set:
    """Operations whose orbit count breaks |SStd| = sum_beta g(lam, nu, beta) K(beta, mu),
    with g the values the workload computed; checked where every beta is an operation."""
    if "characters.kostka" in tracer.absent:
        return set()
    from stablekron.characters import kostka  # the traced wrapper
    from stablekron.partitions import Partition

    g = dict(zip(ops, values))
    index = {op: i for i, op in enumerate(ops)}
    kostkas = {}
    bad = set()
    for (lam, nu, mu), orbits, _ in tracer.sstd:
        betas = [Partition(b) for b in partitions(mu.size)]
        if (lam, nu, mu) not in index or any(g.get((lam, nu, b)) is None for b in betas):
            continue
        want = 0
        for beta in betas:
            if (beta, mu) not in kostkas:
                kostkas[(beta, mu)] = kostka(beta, mu)
            want += g[(lam, nu, beta)] * kostkas[(beta, mu)]
        if orbits != want:
            bad.add(index[(lam, nu, mu)])
    return bad


def traced_layers(spec, tracer, ops, values) -> tuple[dict, set]:
    """Per-layer metrics of a traced pass and the operations the dims check failed."""
    import tracing

    bad = set()
    if spec["workload"] == "cli":
        for env in (cli_env(None), cli_env(spec["cache_dir"])):
            os.environ.clear()
            os.environ.update(env)
            tracer.run_cli([command.split() for command in CLI_COMMANDS])
    else:
        bad = dims_failures(tracer, ops, values)
    layers = tracing.cache_probe(Path(spec["workdir"]), spec["cache_dir"])
    tracer.probe_unreached(
        {
            "characters.stable_kronecker_oracle": as_partitions(pinned(CUTS["tiny"])),
            "characters.lr_coefficient": [
                (lam, mu, nu) for lam, nu, mu in as_partitions(maxdepth_triples(4))
            ],
        }
    )
    layers.update(tracer.metrics())
    return layers, bad


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def run_pass(spec: dict) -> dict:
    name, cut = spec["workload"], CUTS[spec["cut"]]
    tracer = None
    if spec["traced"]:  # first, so the workloads import the wrapped functions
        from tracing import Tracer

        tracer = Tracer()
    groups, call, expect = WORKLOADS[name](cut, spec["cache_dir"])
    rng = random.Random(spec["seed"] * 1000 + spec["pass"])
    order, start = [], 0
    for group in groups:
        order += rng.sample(range(start, start + len(group)), len(group))
        start += len(group)
    canonical = [op for group in groups for op in group]
    ops = [canonical[i] for i in order]
    first_call = time.monotonic()
    if spec["setup_only"]:
        return {"first_call": first_call}
    times, values = timed(ops, call)
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)

    expected = expect(ops)
    if spec["wrong_expected"]:
        expected[0] = object()  # equals no output, so the first operation fails
    bad = {i for i, (got, want) in enumerate(zip(values, expected)) if got != want}
    by_input = [0.0] * len(ops)  # unpermuted, so that passes line up
    for i, t in zip(order, times):
        by_input[i] = t
    result = {"first_call": first_call, "times": by_input, "attempted": len(ops), "rss_mb": rss}
    if name == "oracle":
        result["c4_index"] = canonical.index(C4) if C4 in canonical else None
    if name == "cli":  # indices into times, for the report's per-mode figures
        result["split"] = {
            "cli": [i for i, (_, cached) in enumerate(canonical) if not cached],
            "cli_cached": [i for i, (_, cached) in enumerate(canonical) if cached],
        }
    if tracer is not None:
        result["layers"], dims_bad = traced_layers(spec, tracer, ops, values)
        result["probed"] = sorted(tracer.probed)
        bad |= dims_bad
    for i in sorted(bad)[:5]:
        print(f"check failed: {ops[i]}: got {values[i]!r}, expected {expected[i]!r}", file=sys.stderr)
    result["failed"] = len(bad)
    return result


def main() -> None:
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))


if __name__ == "__main__":
    main()
