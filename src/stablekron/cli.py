"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage or domain error.
Partitions are written "a,b,c" ("0" or "" for the empty partition).
"""

from __future__ import annotations

import argparse
import json
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


def cmd_enumerate(args) -> int:
    lam, nu = args.lam, args.nu
    if args.dot and args.kind in ("std", "std0"):
        raise ValueError("--dot draws orbits: use it with enumerate sstd/latt")
    if args.dot and args.format == "json":
        raise ValueError("--dot writes DOT, not JSON: drop --format json")
    if args.kind in ("std", "std0"):
        if args.s is None:
            raise ValueError("enumerate std/std0 requires -s")
        if args.mu is not None:
            raise ValueError("enumerate std/std0 takes no -m: the path length is -s")
        if args.s < 0:
            raise ValueError(f"-s must be >= 0, got {args.s}")
        paths = (
            enumerate_std(lam, nu, args.s)
            if args.kind == "std"
            else enumerate_std0(lam, nu, args.s)
        )
        if args.format == "json":
            print(json.dumps({"count": len(paths), "tableaux": [str(p) for p in paths]}))
        else:
            print(f"{len(paths)} tableaux")
            for p in paths:
                print(str(p))
        return 0
    if args.mu is None:
        raise ValueError("enumerate sstd/latt requires -m")
    if args.s is not None:
        raise ValueError("enumerate sstd/latt takes no -s: the path length is |mu|")
    mu = args.mu
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
    values = [getattr(args, name) for name in bounds]
    for name, value in zip(bounds, values):
        if value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 0, got {value}")
    mismatches = sweep(*values)
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


def cmd_oracle(args) -> int:
    if args.kind == "char":
        value = character(args.lam, args.rho)
    elif args.kind == "kron":
        value = kronecker(args.lam, args.mu, args.nu)
    elif args.kind == "stable":
        value = stable_kronecker_oracle(args.lam, args.nu, args.mu)
    elif args.kind == "lr":
        value = lr_coefficient(args.lam, args.mu, args.nu)
    elif args.kind == "kostka":
        value = kostka(args.beta, args.mu)
    else:
        value = standard_count(args.mu)
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


class _Parser(argparse.ArgumentParser):
    """A usage error is one "error:" line and exit 2; subparsers inherit this."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


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

    def add_triple(p, mu_default=Partition()):
        p.add_argument("-l", "--lam", type=_partition_arg, default=Partition())
        p.add_argument("-n", "--nu", type=_partition_arg, default=Partition())
        p.add_argument("-m", "--mu", type=_partition_arg, default=mu_default)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("count", help="compute one stable Kronecker coefficient")
    add_triple(p)
    p.add_argument("--method", choices=("auto", "copieri", "oracle"), default="auto")
    add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list paths or orbits")
    p.add_argument("kind", choices=("std", "std0", "sstd", "latt"))
    add_triple(p, mu_default=None)
    p.add_argument("-s", type=int, default=None, help="path length (std/std0)")
    p.add_argument("--dot", action="store_true", help="emit the swap graph as DOT")
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run an oracle-equivalence sweep")
    families = p.add_subparsers(dest="family", required=True)
    for family, (_, bounds) in _SWEEPS.items():
        f = families.add_parser(family)
        for name, default in bounds.items():
            f.add_argument(f"--{name.replace('_', '-')}", type=int, default=default)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="name the family of a triple")
    add_triple(p)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("oracle", help="evaluate one oracle directly")
    p.add_argument("kind", choices=("char", "kron", "stable", "lr", "kostka", "fstd"))
    add_triple(p)
    p.add_argument("-r", "--rho", type=_partition_arg, default=Partition())
    p.add_argument("-b", "--beta", type=_partition_arg, default=Partition())
    add_format(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
