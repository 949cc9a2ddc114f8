"""Benchmark workloads.

A workload is a scenario preset, a simulated duration and a pool size.
One benchmark run of a workload at seed ``n`` simulates every scenario
of its pool: the preset with ``rng_seed`` set to ``n * SEED_STRIDE + i``
for ``i`` in ``range(pool)``. Host time per scenario depends strongly on
the seed (the congestion preset's placement alone moves it by 2x), so a
run pools many scenarios to keep its medians steady from seed to seed.
See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from trustwatch.sim import PRESETS, ScenarioConfig

SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    preset: Callable[[], ScenarioConfig]
    duration_s: float
    pool: int
    traced: int  # scenarios of the pool that a traced run simulates

    def configs(self, seed: int) -> list[ScenarioConfig]:
        base = replace(self.preset(), duration_s=self.duration_s)
        return [replace(base, rng_seed=seed * SEED_STRIDE + i)
                for i in range(self.pool)]


def _scale200() -> ScenarioConfig:
    # the multi-hop preset at the same node density: area side x2, n x4
    base = PRESETS["multi-hop"]()
    return replace(base, node_count=200, area_width_m=2 * base.area_width_m,
                   area_height_m=2 * base.area_height_m,
                   flow_count=4 * base.flow_count,
                   malicious_count=4 * base.malicious_count)


def _adversarial() -> ScenarioConfig:
    return replace(PRESETS["multi-hop"](), adv_tampers_certificates=True,
                   adv_drops_feedback=True, adv_false_accuser=True,
                   drop_prob=0.5)


WORKLOADS = {w.name: w for w in (
    Workload("multihop", PRESETS["multi-hop"], duration_s=250.0, pool=14, traced=4),
    Workload("congestion", PRESETS["congestion"], duration_s=60.0, pool=38, traced=15),
    Workload("scale200", _scale200, duration_s=20.0, pool=10, traced=4),
    Workload("adversarial", _adversarial, duration_s=150.0, pool=13, traced=4),
)}
