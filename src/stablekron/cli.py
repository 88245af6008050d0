"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage or domain error.
Partitions are written "a,b,c" ("0" or "" for the empty partition).
Each subcommand accepts only the options it reads.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .characters import (
    character,
    kostka,
    kronecker,
    lr_coefficient,
    stable_kronecker_oracle,
    standard_count,
)
from .orbits import NotMaximalDepth, enumerate_sstd, frames, to_classical
from .partitions import Partition, parse_partition
from .reading import is_lattice, reading_word, stable_kronecker, stable_kronecker_copieri
from .tableaux import (
    KroneckerTableau,
    TripleClass,
    classify,
    enumerate_std,
    enumerate_std0,
)
from .verify import sweep_dims, sweep_maximal_depth, sweep_one_row


def _orbit_json(orbit) -> dict:
    obj = {
        "weight": list(orbit.weight),
        "representative": str(orbit.representative),
        "size": orbit.size,
        "semistandard": True,
    }
    try:
        obj["classical"] = to_classical(orbit)
    except NotMaximalDepth:
        pass
    word = reading_word(orbit)
    obj["reading"] = {
        "steps": [str(st) for st in word.steps],
        "frames": list(word.frames),
        "lattice": is_lattice(word),
    }
    return obj


def _orbit_dot(orbits) -> str:
    """Swap graph of semistandard orbits.  Every interior swap is defined
    on their members, so the neighbour at k is the member with steps k and
    k+1 exchanged; an edge goes from the lesser path to the greater."""
    lines = ["digraph swaps {"]
    for idx, orbit in enumerate(orbits):
        fr = frames(orbit.weight)
        for m in orbit.members:
            lines.append(f'  "{idx}:{m}";')
            steps = m.steps
            for k in range(1, m.length):
                if fr[k - 1] != fr[k] or not steps[k - 1] < steps[k]:
                    continue
                other = KroneckerTableau(
                    m.start, steps[: k - 1] + (steps[k], steps[k - 1]) + steps[k + 1 :]
                )
                lines.append(f'  "{idx}:{m}" -> "{idx}:{other}" [label="{k}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_count(args) -> int:
    lam, nu, mu = args.lam, args.nu, args.mu
    if args.method == "oracle":
        value, method = stable_kronecker_oracle(lam, nu, mu), "oracle"
    elif args.method == "copieri":
        value, method = stable_kronecker_copieri(lam, nu, mu), "copieri"
    else:
        value, method = stable_kronecker(lam, nu, mu)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "lambda": str(lam),
                    "nu": str(nu),
                    "mu": str(mu),
                    "value": value,
                    "method": method,
                }
            )
        )
    else:
        print(f"{value} ({method})")
    return 0


def cmd_enumerate_paths(args) -> int:
    walk = enumerate_std if args.kind == "std" else enumerate_std0
    paths = walk(args.lam, args.nu, args.s)
    if args.format == "json":
        print(json.dumps({"count": len(paths), "tableaux": [str(p) for p in paths]}))
    else:
        print(f"{len(paths)} tableaux")
        for p in paths:
            print(str(p))
    return 0


def cmd_enumerate_orbits(args) -> int:
    lam, nu, mu = args.lam, args.nu, args.mu
    orbits = enumerate_sstd(lam, nu, mu.size, mu)
    if args.kind == "latt":
        orbits = [o for o in orbits if is_lattice(reading_word(o))]
    if args.dot:
        print(_orbit_dot(orbits))
        return 0
    if args.format == "json":
        print(
            json.dumps(
                {
                    "count": len(orbits),
                    "orbits": [_orbit_json(o) for o in orbits],
                }
            )
        )
    else:
        print(f"{len(orbits)} orbits")
        for o in orbits:
            word = reading_word(o)
            flag = "lattice" if is_lattice(word) else "non-lattice"
            print(f"{o.representative}  size={o.size}  {word}  {flag}")
    return 0


# Each verify family: its sweep and its own bounds, in the sweep's argument
# order, with their defaults.  A family's subcommand accepts only these.
_SWEEPS = {
    "maximal-depth": (sweep_maximal_depth, {"max_nu": 6}),
    "one-row": (sweep_one_row, {"max_part": 4, "max_mu": 3}),
    "dims": (sweep_dims, {"max_size": 4, "max_s": 3}),
}


def cmd_verify(args) -> int:
    sweep, bounds = _SWEEPS[args.family]
    mismatches = sweep(*(getattr(args, name) for name in bounds))
    for miss in mismatches:
        print(
            "MISMATCH ({lambda}; {nu}; {mu}) copieri={copieri} oracle={oracle}".format(
                **miss
            )
        )
    print("PASS" if not mismatches else f"FAIL ({len(mismatches)} mismatches)")
    return 0 if not mismatches else 1


_CASE_LABELS = {
    TripleClass.MAXIMAL_DEPTH: "maximal depth: |lambda| + |mu| = |nu|",
    TripleClass.ONE_ROW_PAIR: "one-row pair (case i)",
    TripleClass.CO_PIERI_HORIZONTAL: "horizontal-strip skews (case ii)",
    TripleClass.CO_PIERI_STAIRCASE: "staircase (case iii)",
    TripleClass.UNKNOWN: "not a recognized family",
}


def cmd_classify(args) -> int:
    tag = classify(args.lam, args.nu, args.mu.size)
    if args.format == "json":
        print(json.dumps({"class": tag.value, "label": _CASE_LABELS[tag]}))
    else:
        print(f"{tag.value}: {_CASE_LABELS[tag]}")
    return 0


# Each oracle kind: its function and the partition options it reads, in order.
_ORACLES = {
    "char": (character, ("lam", "rho")),
    "kron": (kronecker, ("lam", "mu", "nu")),
    "stable": (stable_kronecker_oracle, ("lam", "nu", "mu")),
    "lr": (lr_coefficient, ("lam", "mu", "nu")),
    "kostka": (kostka, ("beta", "mu")),
    "fstd": (standard_count, ("mu",)),
}


def cmd_oracle(args) -> int:
    function, names = _ORACLES[args.kind]
    value = function(*(getattr(args, name) for name in names))
    if args.format == "json":
        print(json.dumps({"value": value}))
    else:
        print(value)
    return 0


def _partition_arg(text: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _count_arg(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """A usage error raises for `main` to report; subparsers inherit this."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stablekron",
        description=(
            "Stable Kronecker coefficients via lattice Kronecker tableaux. "
            "The one-row family means lambda and nu are both one-row "
            "partitions (mu arbitrary)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_partitions(p, *names):
        for name in names:  # -l/--lam, -n/--nu, -m/--mu, -r/--rho, -b/--beta
            flags = f"-{name[0]}", f"--{name}"
            p.add_argument(*flags, type=_partition_arg, default=Partition())

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("count", help="compute one stable Kronecker coefficient")
    add_partitions(p, "lam", "nu", "mu")
    p.add_argument("--method", choices=("auto", "copieri", "oracle"), default="auto")
    add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list paths or orbits")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("std", "std0"):
        k = kinds.add_parser(kind)
        add_partitions(k, "lam", "nu")
        k.add_argument("-s", type=_count_arg, required=True, help="path length")
        add_format(k)
        k.set_defaults(func=cmd_enumerate_paths)
    for kind in ("sstd", "latt"):
        k = kinds.add_parser(kind)
        add_partitions(k, "lam", "nu")
        k.add_argument("-m", "--mu", type=_partition_arg, required=True)
        output = k.add_mutually_exclusive_group()
        output.add_argument("--dot", action="store_true", help="emit the swap graph as DOT")
        # no default, so any explicit --format conflicts with --dot
        output.add_argument("--format", choices=("text", "json"))
        k.set_defaults(func=cmd_enumerate_orbits)

    p = sub.add_parser("verify", help="run an oracle-equivalence sweep")
    families = p.add_subparsers(dest="family", required=True)
    for family, (_, bounds) in _SWEEPS.items():
        f = families.add_parser(family)
        for name, default in bounds.items():
            f.add_argument(f"--{name.replace('_', '-')}", type=_count_arg, default=default)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="name the family of a triple")
    add_partitions(p, "lam", "nu", "mu")
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("oracle", help="evaluate one oracle directly")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, (_, names) in _ORACLES.items():
        k = kinds.add_parser(kind)
        add_partitions(k, *names)
        add_format(k)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # A reader that closes the pipe early (| head) ends the command
    # silently, as it ends other filters, not in a BrokenPipeError.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
