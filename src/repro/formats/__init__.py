"""Multi-snapshot storage formats: CSR, O-CSR and PMA.

These are the three formats the paper compares in Fig. 13(b).  All
implement :class:`~repro.formats.base.MultiSnapshotStorage` over a
:class:`~repro.formats.base.WindowSelection`, so they can be swapped
freely inside the benches.
"""

from .base import (
    RANDOM_ACCESS_CYCLES,
    WORDS_PER_CYCLE,
    AccessCost,
    MultiSnapshotStorage,
    WindowSelection,
)
from .csr import SnapshotCSRStorage
from .ocsr import OCSRStorage
from .pma import PackedMemoryArray, PMAStorage

FORMATS = {
    "CSR": SnapshotCSRStorage,
    "O-CSR": OCSRStorage,
    "PMA": PMAStorage,
}

__all__ = [
    "AccessCost",
    "MultiSnapshotStorage",
    "WindowSelection",
    "RANDOM_ACCESS_CYCLES",
    "WORDS_PER_CYCLE",
    "SnapshotCSRStorage",
    "OCSRStorage",
    "PackedMemoryArray",
    "PMAStorage",
    "FORMATS",
]
