"""Command-line front end.

Each cmd_* works out its command's result and returns it; main alone
prints it, in the --format asked for, and returns the exit code: 0
success, 1 verification mismatch, 2 usage or domain error (an input too
deep for the recursion limit or too large for memory among them).
`count` names the engine it used; `oracle stable` forces the character
oracle.  Partitions are written "a,b,c" ("0" or "" for the empty
partition).  Each subcommand accepts only the options it reads.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .characters import (
    character, kostka, kronecker, lr_coefficient, stable_kronecker_oracle, standard_count
)
from .orbits import enumerate_sstd, frames, to_classical
from .partitions import Partition, parse_partition
from .reading import is_lattice, reading_word, stable_kronecker
from .tableaux import KroneckerTableau, TripleClass, classify, enumerate_std, enumerate_std0
from .verify import sweep_dims, sweep_maximal_depth, sweep_one_row


def cmd_count(args) -> dict:
    lam, nu, mu = args.lam, args.nu, args.mu
    value, method = stable_kronecker(lam, nu, mu)
    return {"lambda": str(lam), "nu": str(nu), "mu": str(mu), "value": value, "method": method}


def cmd_enumerate_paths(args) -> dict:
    walk = enumerate_std if args.kind == "std" else enumerate_std0
    paths = [str(p) for p in walk(args.lam, args.nu, args.s)]
    return {"count": len(paths), "tableaux": paths}


def _paths_text(result) -> str:
    return "\n".join([f"{result['count']} tableaux", *result["tableaux"]])


def cmd_enumerate_orbits(args) -> list:
    orbits = enumerate_sstd(args.lam, args.nu, args.mu.size, args.mu)
    if args.kind == "latt":
        orbits = [o for o in orbits if is_lattice(reading_word(o))]
    return orbits


def _orbits_text(orbits) -> str:
    lines = [f"{len(orbits)} orbits"]
    for o in orbits:
        word = reading_word(o)
        flag = "lattice" if is_lattice(word) else "non-lattice"
        lines.append(f"{o.representative}  size={o.size}  {word}  {flag}")
    return "\n".join(lines)


def _orbits_json(orbits) -> str:
    out = []
    for orbit in orbits:
        obj = {
            "weight": list(orbit.weight),
            "representative": str(orbit.representative),
            "size": orbit.size,
            "semistandard": True,
        }
        if (classical := to_classical(orbit)) is not None:
            obj["classical"] = classical
        word = reading_word(orbit)
        steps = [str(st) for st in word.steps]
        obj["reading"] = {"steps": steps, "frames": [*word.frames], "lattice": is_lattice(word)}
        out.append(obj)
    return json.dumps({"count": len(out), "orbits": out})


def _orbits_dot(orbits) -> str:
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
                if fr[k - 1] == fr[k] and steps[k - 1] < steps[k]:
                    swapped = steps[: k - 1] + (steps[k], steps[k - 1]) + steps[k + 1 :]
                    other = KroneckerTableau(m.start, swapped)
                    lines.append(f'  "{idx}:{m}" -> "{idx}:{other}" [label="{k}"];')
    lines.append("}")
    return "\n".join(lines)


# Each verify family: its sweep and its own bounds, in the sweep's argument
# order, with their defaults.  A family's subcommand accepts only these.
_SWEEPS = {
    "maximal-depth": (sweep_maximal_depth, {"max_nu": 6}),
    "one-row": (sweep_one_row, {"max_part": 4, "max_mu": 3}),
    "dims": (sweep_dims, {"max_size": 4, "max_s": 3}),
}


def cmd_verify(args) -> list:
    sweep, bounds = _SWEEPS[args.family]
    return sweep(*(getattr(args, name) for name in bounds))


def _verify_text(mismatches) -> str:
    line = "MISMATCH ({lambda}; {nu}; {mu}) copieri={copieri} oracle={oracle}"
    verdict = f"FAIL ({len(mismatches)} mismatches)" if mismatches else "PASS"
    return "\n".join([*(line.format(**miss) for miss in mismatches), verdict])


_CASE_LABELS = {
    TripleClass.MAXIMAL_DEPTH: "maximal depth: |lambda| + |mu| = |nu|",
    TripleClass.ONE_ROW_PAIR: "one-row pair (case i)",
    TripleClass.CO_PIERI_HORIZONTAL: "horizontal-strip skews (case ii)",
    TripleClass.CO_PIERI_STAIRCASE: "staircase (case iii)",
    TripleClass.UNKNOWN: "not a recognized family",
}


def cmd_classify(args) -> dict:
    tag = classify(args.lam, args.nu, args.mu.size)
    return {"class": tag.value, "label": _CASE_LABELS[tag]}


# Each oracle kind: its function and the partition options it reads, in order.
_ORACLES = {
    "char": (character, ("lam", "rho")),
    "kron": (kronecker, ("lam", "mu", "nu")),
    "stable": (stable_kronecker_oracle, ("lam", "nu", "mu")),
    "lr": (lr_coefficient, ("lam", "mu", "nu")),
    "kostka": (kostka, ("beta", "mu")),
    "fstd": (standard_count, ("mu",)),
}


def cmd_oracle(args) -> dict:
    function, names = _ORACLES[args.kind]
    return {"value": function(*(getattr(args, name) for name in names))}


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
        description="Stable Kronecker coefficients via lattice Kronecker tableaux. "
        "The one-row family means lambda and nu are both one-row partitions (mu arbitrary).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_partitions(p, *names):
        for name in names:  # -l/--lam, -n/--nu, -m/--mu, -r/--rho, -b/--beta
            flags = f"-{name[0]}", f"--{name}"
            p.add_argument(*flags, type=_partition_arg, default=Partition())

    def add_command(p, func, **formats):
        """p runs func, and main prints its result by formats[--format]:
        text is the default, and --format is offered where there is a choice."""
        if len(formats) > 1:
            p.add_argument("--format", choices=tuple(formats), default="text")
        p.set_defaults(func=func, formats=formats, format="text")

    # a result that is a dict is its own JSON object, and its text a template
    p = sub.add_parser("count", help="compute one stable Kronecker coefficient")
    add_partitions(p, "lam", "nu", "mu")
    add_command(p, cmd_count, text="{value} ({method})".format_map, json=json.dumps)

    p = sub.add_parser("enumerate", help="list paths or orbits")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("std", "std0"):
        k = kinds.add_parser(kind)
        add_partitions(k, "lam", "nu")
        k.add_argument("-s", type=_count_arg, required=True, help="path length")
        add_command(k, cmd_enumerate_paths, text=_paths_text, json=json.dumps)
    for kind in ("sstd", "latt"):
        k = kinds.add_parser(kind)
        add_partitions(k, "lam", "nu")
        k.add_argument("-m", "--mu", type=_partition_arg, required=True)
        add_command(
            k, cmd_enumerate_orbits, text=_orbits_text, json=_orbits_json, dot=_orbits_dot
        )

    p = sub.add_parser("verify", help="run an oracle-equivalence sweep")
    families = p.add_subparsers(dest="family", required=True)
    for family, (_, bounds) in _SWEEPS.items():
        f = families.add_parser(family)
        for name, default in bounds.items():
            f.add_argument(f"--{name.replace('_', '-')}", type=_count_arg, default=default)
    add_command(p, cmd_verify, text=_verify_text)

    p = sub.add_parser("classify", help="name the family of a triple")
    add_partitions(p, "lam", "nu", "mu")
    add_command(p, cmd_classify, text="{class}: {label}".format_map, json=json.dumps)

    p = sub.add_parser("oracle", help="evaluate one oracle directly")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, (_, names) in _ORACLES.items():
        k = kinds.add_parser(kind)
        add_partitions(k, *names)
        add_command(k, cmd_oracle, text="{value}".format_map, json=json.dumps)

    return parser


def main(argv=None) -> int:
    """Run one command: the one place that prints a result or an error."""
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
        print(args.formats[args.format](result))
    except (ValueError, RecursionError, MemoryError) as exc:
        # str(MemoryError()) is empty, so an empty message names the exception
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 1 if args.command == "verify" and result else 0


def entry() -> None:
    # A reader that closes the pipe early (| head) ends the command
    # silently, as it ends other filters, not in a BrokenPipeError.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
