"""Regenerate bench/pins.json, the pinned values of the non-family triples.

    PYTHONPATH=src python3 bench/make_pins.py

Each triple lies outside the two families the lattice count supports, so
the benchmark can only check the oracle's answer against a value fixed in
advance.  Every value is the stable oracle's limit, cross-checked here
against one padded Kronecker coefficient three sizes past the n at which
the oracle starts, so a pin never rests on the oracle's stopping rule
alone.  The criterion-4 triple dominates: about 8 s on a 2-CPU x86 machine.
"""

from __future__ import annotations

import json
from pathlib import Path

from stablekron.characters import padded_kronecker, stable_kronecker_oracle
from stablekron.partitions import parse_partition

TRIPLES = [
    ("2,1", "2,1", "1"),
    ("3,1", "2,2", "1"),
    ("3,1", "2,2", "2"),
    ("2,1", "2,1", "2,1"),
    ("2,2", "2,1,1", "1,1"),
    ("3,2", "3,1", "2,1"),
    ("7,5,1,1", "6,3,3", "2,2,1"),
]

C4_NOTE = (
    "Tier-1 acceptance criterion 4 pins 1 for this triple and is left "
    "failing on purpose. This pin records the program's own value so the "
    "benchmark can time the triple; it does not judge that dispute."
)


def oracle_start(lam, nu, mu) -> int:
    """The first n stable_kronecker_oracle evaluates (mirrors its bound)."""
    parts = (lam, nu, mu)
    slack = max((p[0] for p in parts if p), default=0)
    min_pad = max(p.size + (p[0] if p else 0) for p in parts)
    return max(min_pad, sum(p.size for p in parts) + slack, 1)


def main() -> None:
    pins = []
    for text in TRIPLES:
        lam, nu, mu = map(parse_partition, text)
        value = stable_kronecker_oracle(lam, nu, mu)
        n = oracle_start(lam, nu, mu) + 3
        check = padded_kronecker(lam, nu, mu, n)
        if check != value:
            raise SystemExit(f"{text}: oracle {value} but padded at n={n} is {check}")
        pin = {"lambda": text[0], "nu": text[1], "mu": text[2], "value": value, "checked_at_n": n}
        if text == ("7,5,1,1", "6,3,3", "2,2,1"):
            pin["note"] = C4_NOTE
        pins.append(pin)
        print(pin)
    out = Path(__file__).with_name("pins.json")
    out.write_text(json.dumps({"triples": pins}, indent=1) + "\n")


if __name__ == "__main__":
    main()
