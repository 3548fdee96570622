"""Shared trajectory contract emitted by every solver.

A trajectory is a time-ordered table of joint populations p(eps_k, E) plus,
when the solver tracks them, the conditional system blocks.  The joint index
pairs a system level index with a tuple of per-bath window indices; solvers
without bath bookkeeping (the fixed-reference-bath comparison equation) use
the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

JointState = tuple[int, tuple[int, ...]]


@dataclass
class Trajectory:
    solver: str
    times: np.ndarray
    joint_index: list[JointState]
    populations: np.ndarray  # (T, N) aligned with joint_index
    level_energies: np.ndarray  # (T, d_S), protocol applied
    bath_centers: list[np.ndarray]
    bath_volumes: list[np.ndarray]
    blocks: dict[tuple[int, ...], np.ndarray] | None = None  # key -> (T, d, d)
    # dp/dt at a time, or at each time of an array with one row of populations per time
    pop_rate: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    mi: np.ndarray | None = None
    mi_times: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    _column_names: list[str] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_levels(self) -> int:
        return self.level_energies.shape[1]

    def column_names(self) -> list[str]:
        """One label per joint state, built on the first call; each call gets a copy."""
        if self._column_names is None:
            names = []
            for k, key in self.joint_index:
                if key:
                    label = "x".join(f"{self.bath_centers[n][j]:g}" for n, j in enumerate(key))
                    names.append(f"p_k{k}_E{label}")
                else:
                    names.append(f"p_k{k}")
            self._column_names = names
        return list(self._column_names)
