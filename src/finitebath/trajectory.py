"""Shared trajectory contract emitted by every solver.

A trajectory is a time-ordered table of joint populations p(eps_k, E) plus,
when the solver tracks them, the conditional system blocks.  A key is a
tuple of per-bath window indices; solvers without bath bookkeeping (the
fixed-reference-bath comparison equation) have the one empty key.  Every
solver emits one layout: the keys strictly ascending, and
``populations[:, n * d + k]`` is level k of ``keys[n]``, d the number of
system levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

JointState = tuple[int, tuple[int, ...]]


@dataclass
class Trajectory:
    solver: str
    times: np.ndarray
    keys: list[tuple[int, ...]]  # strictly ascending window keys
    populations: np.ndarray  # (T, len(keys) * d): level k of keys[n] in column n * d + k
    level_energies: np.ndarray  # (T, d_S), protocol applied
    bath_centers: list[np.ndarray]
    bath_volumes: list[np.ndarray]
    blocks: dict[tuple[int, ...], np.ndarray] | None = None  # key -> (T, d, d)
    # dp/dt at a time, or at each time of an array with one row of populations per time
    pop_rate: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    mi: np.ndarray | None = None
    mi_times: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_levels(self) -> int:
        return self.level_energies.shape[1]

    @cached_property
    def joint_index(self) -> list[JointState]:
        """The (level, key) of each population column."""
        return [(k, key) for key in self.keys for k in range(self.n_levels)]

    @cached_property
    def _labels(self) -> list[str]:
        names = []
        for key in self.keys:
            # the CSV's own precision, so that distinct windows get distinct labels
            label = "x".join(f"{self.bath_centers[n][j]:.12g}" for n, j in enumerate(key))
            names += [f"p_k{k}_E{label}" if key else f"p_k{k}" for k in range(self.n_levels)]
        return names

    def column_names(self) -> list[str]:
        """One label per population column, built once; each call gets a copy."""
        return list(self._labels)
