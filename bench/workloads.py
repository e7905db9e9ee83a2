"""The benchmark's workloads: a config file each, plus the synthetic corpus
it trains on and the accuracy a model must beat to count as trained.

Every workload runs one full user session (config, train, export, load,
evaluate, analyze) with the `--seed` the benchmark is given as both the
corpus seed and `train.seed`; see README.md for why each one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int  # synthetic corpus size, train split
    n_test: int  # synthetic corpus size, test split
    chance: float  # accuracy of a constant guess; training must beat it
    held_out: str | None = None  # test env whose accuracy must also beat chance

    @property
    def config(self) -> Path:
        return CONFIGS / f"{self.name}.cfg"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("colored-irm", n_train=10000, n_test=5000, chance=0.5),
        Workload("rotated-erm", n_train=6000, n_test=1000, chance=0.1, held_out="rot0"),
        Workload("colored-fullsize", n_train=60000, n_test=10000, chance=0.5),
    )
}
