"""Stable Kronecker coefficients from lattice Kronecker tableaux."""

from .characters import stable_kronecker_oracle
from .orbits import enumerate_sstd
from .partitions import Partition, parse_partition
from .reading import is_lattice, reading_word, stable_kronecker
from .tableaux import enumerate_std0

__version__ = "0.1.0"
