"""SearchSpace — the design-space DSL over the ARI knob axes.

A :class:`SearchSpace` is a frozen base :class:`~repro.experiments.
runner.RunSpec` (benchmark, scheme, cycles, mesh, seed, ... — everything
the search does *not* vary) plus an ordered set of discrete axes over
RunSpec fields (everything it does).  The axes use the same grammar as
``repro sweep --axis`` (:mod:`repro.experiments.specgrid`), including the
``lo..hi[:step]`` range shorthand::

    space = SearchSpace.parse(
        RunSpec("bfs", "ada-ari", cycles=600, mesh=4),
        ["injection_speedup=1..6", "num_split_queues=1,2,4",
         "starvation_threshold=16,64,250,1000"],
    )

A *point* is a plain dict mapping axis names to values; ``spec_for``
turns a point into the RunSpec it denotes.  Points are canonically keyed
by :meth:`point_key` (sorted-key JSON), which is what strategies and the
trial ledger use for dedup and replay matching.

Everything here is deterministic: sampling and mutation take the
caller's ``random.Random``, grid order is the axis declaration order,
and :meth:`fingerprint` hashes the full space (base spec + axes) so a
persisted search ledger can refuse to resume against a different space.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.experiments.runner import RunSpec
from repro.experiments.specgrid import SPEC_FIELDS, parse_axes

Point = Dict[str, object]

#: RunSpec fields a search may not vary: fault plans belong to the
#: objective (resilience objectives install their own), telemetry makes
#: runs live/uncacheable, and both kernel names run the same loop, so
#: a kernel axis would only buy duplicate results.
EXCLUDED_FIELDS = ("faults", "fault_detour", "telemetry", "kernel")

#: The default ARI knob space (`repro search` with no ``--space``): the
#: paper's central tuning triple.  Speedups above the Eq. 2 bound and
#: split-queue counts above the VC count are deliberately included —
#: they are exactly what the validate_spec pruning gate removes for
#: free, before any simulation budget is spent.
DEFAULT_AXES: Tuple[Tuple[str, Tuple[object, ...]], ...] = (
    ("injection_speedup", (1, 2, 3, 4, 6)),
    ("num_split_queues", (1, 2, 4, 6)),
    ("starvation_threshold", (16, 64, 250, 1000)),
)


class SearchSpaceError(ValueError):
    """Malformed axis set: unknown/excluded field, empty values."""


@dataclass(frozen=True)
class SearchSpace:
    """A frozen base spec plus ordered discrete axes over RunSpec fields."""

    base: RunSpec
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]

    # -- construction --------------------------------------------------------
    @staticmethod
    def from_axes(
        base: RunSpec, axes: Mapping[str, Sequence[object]]
    ) -> "SearchSpace":
        """Validate and freeze an axes mapping (declaration order kept)."""
        frozen: List[Tuple[str, Tuple[object, ...]]] = []
        for name, values in axes.items():
            if name not in SPEC_FIELDS:
                raise SearchSpaceError(
                    f"unknown RunSpec field {name!r}; "
                    f"valid: {', '.join(SPEC_FIELDS)}"
                )
            if name in EXCLUDED_FIELDS:
                raise SearchSpaceError(
                    f"field {name!r} cannot be a search axis "
                    f"(excluded: {', '.join(EXCLUDED_FIELDS)})"
                )
            unique: List[object] = []
            for v in values:
                if v not in unique:
                    unique.append(v)
            if not unique:
                raise SearchSpaceError(f"axis {name!r} has no values")
            frozen.append((name, tuple(unique)))
        if not frozen:
            raise SearchSpaceError("a search space needs at least one axis")
        return SearchSpace(base=base, axes=tuple(frozen))

    @staticmethod
    def parse(base: RunSpec, texts: Sequence[str]) -> "SearchSpace":
        """Build a space from ``--space name=v1,v2|lo..hi[:step]`` options."""
        return SearchSpace.from_axes(base, parse_axes(texts))

    @staticmethod
    def default(base: RunSpec) -> "SearchSpace":
        """The default ARI knob space over ``base``."""
        return SearchSpace(base=base, axes=DEFAULT_AXES)

    # -- geometry ------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def values(self, name: str) -> Tuple[object, ...]:
        for axis, vals in self.axes:
            if axis == name:
                return vals
        raise SearchSpaceError(f"no axis named {name!r}")

    @property
    def size(self) -> int:
        """Number of distinct points (product of axis cardinalities)."""
        n = 1
        for _, vals in self.axes:
            n *= len(vals)
        return n

    # -- points --------------------------------------------------------------
    def spec_for(self, point: Point) -> RunSpec:
        """The RunSpec a point denotes (axis values over the base spec)."""
        return replace(self.base, **point)

    def point_key(self, point: Point) -> str:
        """Canonical string identity of a point (sorted-key JSON)."""
        return json.dumps(point, sort_keys=True)

    def contains(self, point: Point) -> bool:
        """True when every axis is present with an in-range value."""
        if set(point) != set(self.names):
            return False
        return all(point[name] in vals for name, vals in self.axes)

    def sample(self, rng) -> Point:
        """One uniform point, drawn from the caller's seeded RNG."""
        return {name: rng.choice(vals) for name, vals in self.axes}

    def mutate(self, point: Point, rng) -> Point:
        """A neighbor of ``point``: one randomly chosen axis moves.

        Numeric axes step to an adjacent value in their declared order
        (a local move, what hill-climbing wants); non-numeric axes jump
        to a uniformly chosen different value.  Axes with a single value
        cannot move and are never chosen; a fully rigid space returns
        the point unchanged.
        """
        movable = [
            (name, vals) for name, vals in self.axes if len(vals) > 1
        ]
        if not movable:
            return dict(point)
        name, vals = movable[rng.randrange(len(movable))]
        out = dict(point)
        idx = vals.index(out[name])
        numeric = all(isinstance(v, (int, float)) for v in vals)
        if numeric:
            if idx == 0:
                idx = 1
            elif idx == len(vals) - 1:
                idx -= 1
            else:
                idx += rng.choice((-1, 1))
        else:
            others = [i for i in range(len(vals)) if i != idx]
            idx = others[rng.randrange(len(others))]
        out[name] = vals[idx]
        return out

    def grid_points(self) -> Iterator[Point]:
        """Every point, cartesian order over axis declaration order."""
        names = self.names
        for combo in itertools.product(*(vals for _, vals in self.axes)):
            yield dict(zip(names, combo))

    # -- identity ------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "base": asdict(self.base),
            "axes": [[name, list(vals)] for name, vals in self.axes],
        }

    def fingerprint(self) -> str:
        """Content hash of the full space (base spec + axes)."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha1(blob.encode()).hexdigest()[:20]

    def describe(self) -> List[str]:
        """Human-readable axis lines for reports and CLI output."""
        return [
            f"{name} = {', '.join(str(v) for v in vals)}"
            for name, vals in self.axes
        ]
