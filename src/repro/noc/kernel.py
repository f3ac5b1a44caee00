"""Simulation kernel names.

Every network advances through one loop, :meth:`repro.noc.network.Network.step`:
each cycle it visits every NI, router and ejection link in index order.
Two kernel names survive from when a second, activity-gated loop
existed; both select that one loop.  ``kernel=`` arguments are still
validated so a misspelt name fails loudly.
"""

from __future__ import annotations

from typing import Optional

KERNELS = ("reference", "activity")


def resolve_kernel(name: Optional[str] = None) -> str:
    """Validate a kernel name; ``None`` means ``"reference"``."""
    if name is None:
        return "reference"
    name = str(name).strip().lower()
    if name not in KERNELS:
        raise ValueError(
            f"unknown simulation kernel {name!r}; choose one of {KERNELS}"
        )
    return name
