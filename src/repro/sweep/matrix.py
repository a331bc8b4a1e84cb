"""Declarative scenario matrices for parallel sweeps.

A :class:`ScenarioMatrix` is the cartesian product of a workload family's GEMM
shapes with platforms (device + topology + GPU count), collectives, imbalance
factors, seeds and :class:`~repro.core.config.OverlapSettings` overrides.
Expanding it yields a deterministic, duplicate-free list of
:class:`Scenario` jobs, each carrying a content-derived job ID so that a
re-run (or a resumed run) maps onto exactly the same job set.

Scenarios are built from plain strings and numbers -- not live model objects
-- so they can cross process boundaries and round-trip through JSON configs.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.comm.primitives import CollectiveKind
from repro.comm.topology import known_topologies
from repro.core.config import OverlapProblem, OverlapSettings
from repro.gpu.device import device_by_name
from repro.gpu.gemm import GemmShape
from repro.plans.store import plan_key

#: OverlapSettings fields a matrix is allowed to vary (a grid axis of the
#: design-space exploration, not arbitrary code injection from JSON configs).
SETTINGS_AXES = frozenset(
    {
        "max_first_group",
        "max_last_group",
        "max_exhaustive_waves",
        "signal_poll_us",
        "comm_launch_us",
        "executor_jitter",
        "bandwidth_samples_per_decade",
        "bandwidth_profile_noise",
        "seed",
    }
)


@dataclass(frozen=True)
class Platform:
    """One simulated machine: device + interconnect + collective size."""

    device: str
    topology: str
    gpus: int

    def __post_init__(self) -> None:
        if self.gpus < 2:
            raise ValueError("a platform needs at least 2 GPUs")


@dataclass(frozen=True)
class Scenario:
    """One fully-specified sweep job, reconstructible from primitives."""

    workload: str
    m: int
    n: int
    k: int
    device: str
    topology: str
    gpus: int
    collective: str
    imbalance: float = 1.0
    seed: int = 0
    #: Sorted (name, value) pairs overriding the base OverlapSettings.
    settings_overrides: tuple[tuple[str, float], ...] = ()

    @property
    def shape(self) -> GemmShape:
        return GemmShape(m=self.m, n=self.n, k=self.k)

    @property
    def job_id(self) -> str:
        """Deterministic content-derived ID, stable across runs and hosts."""
        return f"{self.workload}-{plan_key(self.to_dict())[:12]}"

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "device": self.device,
            "topology": self.topology,
            "gpus": self.gpus,
            "collective": self.collective,
            "imbalance": self.imbalance,
            "seed": self.seed,
            "settings_overrides": {name: value for name, value in self.settings_overrides},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Scenario":
        overrides = _normalize_overrides(payload.get("settings_overrides", {}))
        return cls(
            workload=str(payload["workload"]),
            m=int(payload["m"]),
            n=int(payload["n"]),
            k=int(payload["k"]),
            device=str(payload["device"]),
            topology=str(payload["topology"]),
            gpus=int(payload["gpus"]),
            collective=str(payload["collective"]),
            imbalance=float(payload.get("imbalance", 1.0)),
            seed=int(payload.get("seed", 0)),
            settings_overrides=overrides,
        )

    # -- materialisation ---------------------------------------------------------

    def to_problem(self) -> OverlapProblem:
        topologies = known_topologies()
        if self.topology not in topologies:
            raise KeyError(f"unknown topology {self.topology!r}; known: {sorted(topologies)}")
        topology = topologies[self.topology].with_n_gpus(self.gpus)
        return OverlapProblem(
            shape=self.shape,
            device=device_by_name(self.device),
            topology=topology,
            collective=CollectiveKind.from_name(self.collective),
            imbalance=self.imbalance,
        )

    def to_settings(self) -> OverlapSettings:
        """Default :class:`OverlapSettings` with this scenario's seed and overrides."""
        overrides = dict(self.settings_overrides)
        overrides.setdefault("seed", self.seed)
        return OverlapSettings(**_coerce_override_types(overrides))


def _normalize_overrides(overrides: Mapping) -> tuple[tuple[str, float], ...]:
    unknown = set(overrides) - SETTINGS_AXES
    if unknown:
        raise KeyError(
            f"unknown OverlapSettings axes {sorted(unknown)}; allowed: {sorted(SETTINGS_AXES)}"
        )
    normalized = tuple(sorted((str(name), float(value)) for name, value in overrides.items()))
    for name, value in normalized:
        if not math.isfinite(value):  # an integral field cannot even be cast
            raise ValueError(f"{name} must be finite, got {value}")
    OverlapSettings(**_coerce_override_types(dict(normalized)))  # raises on an invalid value
    return normalized


def _coerce_override_types(overrides: Mapping[str, float]) -> dict:
    """Cast normalised float overrides back to the field's declared type."""
    integral = {"max_first_group", "max_last_group", "max_exhaustive_waves",
                "bandwidth_samples_per_decade", "seed"}
    return {
        name: int(value) if name in integral else float(value)
        for name, value in overrides.items()
    }


@dataclass(frozen=True)
class ScenarioMatrix:
    """Declarative grid of scenarios: shapes x platforms x collectives x ...

    ``expand()`` is deterministic (axes are iterated in declaration order) and
    duplicate-free (repeated axis values or colliding combinations collapse to
    one scenario).  Every axis value is checked when the matrix is built: an
    unknown device, topology or collective, or an imbalance the problem
    rejects, raises here rather than failing each job that uses it.
    """

    name: str
    workload: str
    shapes: tuple[GemmShape, ...]
    platforms: tuple[Platform, ...]
    collectives: tuple[str, ...]
    imbalances: tuple[float, ...] = (1.0,)
    seeds: tuple[int, ...] = (0,)
    settings_grid: tuple[tuple[tuple[str, float], ...], ...] = ((),)

    def __post_init__(self) -> None:
        if not self.shapes or not self.platforms or not self.collectives:
            raise ValueError("a matrix needs at least one shape, platform and collective")
        # Materialise one problem per platform x collective x imbalance, so
        # the rules the jobs apply reject a bad axis value before any job runs.
        shape = self.shapes[0]
        for platform in self.platforms:
            for collective in self.collectives:
                for imbalance in self.imbalances:
                    Scenario(self.workload, shape.m, shape.n, shape.k, platform.device,
                             platform.topology, platform.gpus, collective, imbalance).to_problem()

    def __len__(self) -> int:
        return len(self.expand())

    def expand(self) -> list[Scenario]:
        """The full job list: deterministic order, duplicates collapsed."""
        scenarios: list[Scenario] = []
        seen: set[str] = set()
        for shape in self.shapes:
            for platform in self.platforms:
                for collective in self.collectives:
                    for imbalance in self.imbalances:
                        for seed in self.seeds:
                            for overrides in self.settings_grid:
                                scenario = Scenario(
                                    workload=self.workload,
                                    m=shape.m,
                                    n=shape.n,
                                    k=shape.k,
                                    device=platform.device,
                                    topology=platform.topology,
                                    gpus=platform.gpus,
                                    collective=collective,
                                    imbalance=imbalance,
                                    seed=seed,
                                    settings_overrides=overrides,
                                )
                                if scenario.job_id in seen:
                                    continue
                                seen.add(scenario.job_id)
                                scenarios.append(scenario)
        return scenarios

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        workload: str,
        shapes: Iterable[GemmShape | tuple[int, int, int]],
        platforms: Iterable[Platform | tuple[str, str, int]],
        collectives: Iterable[str],
        imbalances: Iterable[float] = (1.0,),
        seeds: Iterable[int] = (0,),
        settings_grid: Iterable[Mapping] = ({},),
    ) -> "ScenarioMatrix":
        """Permissive constructor accepting tuples and dicts for the axes."""
        return cls(
            name=name,
            workload=workload,
            shapes=tuple(
                s if isinstance(s, GemmShape) else GemmShape(*s) for s in shapes
            ),
            platforms=tuple(
                p if isinstance(p, Platform) else Platform(*p) for p in platforms
            ),
            collectives=tuple(str(c) for c in collectives),
            imbalances=tuple(float(i) for i in imbalances),
            seeds=tuple(int(s) for s in seeds),
            settings_grid=tuple(_normalize_overrides(o) for o in settings_grid),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workload": self.workload,
            "shapes": [[s.m, s.n, s.k] for s in self.shapes],
            "platforms": [[p.device, p.topology, p.gpus] for p in self.platforms],
            "collectives": list(self.collectives),
            "imbalances": list(self.imbalances),
            "seeds": list(self.seeds),
            "settings_grid": [dict(overrides) for overrides in self.settings_grid],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ScenarioMatrix":
        """Rebuild a matrix from :meth:`to_dict` output (the JSON config form)."""
        return cls.build(
            name=str(payload["name"]),
            workload=str(payload.get("workload", payload["name"])),
            shapes=[tuple(s) for s in payload["shapes"]],
            platforms=[tuple(p) for p in payload["platforms"]],
            collectives=payload["collectives"],
            imbalances=payload.get("imbalances", (1.0,)),
            seeds=payload.get("seeds", (0,)),
            settings_grid=payload.get("settings_grid", ({},)),
        )
