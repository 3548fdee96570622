"""Master equation for a system conditioned on coarse-grained bath energies.

The state is a map from a vector of bath window indices to an unnormalized
positive system block; its evolution couples neighboring blocks through
jump operators resolved by the resonance rule.  The generator of each
protocol segment is assembled once as sparse operators on the packed blocks.
Both the Markov form and the finite-time variant (all dissipation rates
multiplied by the envelope zeta(t)) are provided, together with the
autonomous population rate equation, stationary states, and a closed-form
oracle for the two-level case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components

from .errors import ConfigurationError, NumericalFailure
# transition_rates, the closed form of the population rates, is unused here
# but stays importable: perfbench/trace.py wraps it in this namespace
from .rates import RateTable, lamb_shift, transition_rates, xi_integral, zeta  # noqa: F401
from .trajectory import Trajectory

POSITIVITY_TOL = 1e-10


@dataclass
class ProtocolSegment:
    t_start: float
    levels: np.ndarray


@dataclass
class SystemSpec:
    """System levels, per-bath coupling operators, and the driving protocol.

    ``couplings[nu]`` is the list of coupling operators S^alpha (matrices in
    the level basis) attached to bath nu.  The protocol is a piecewise
    constant schedule of level energies; segment boundaries must be strictly
    increasing and each segment's gaps must be resolvable by the resonance
    rule of the rate tables in use.
    """

    levels: np.ndarray
    couplings: list[list[np.ndarray]]
    protocol: list[ProtocolSegment] | None = None

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        if self.protocol is not None:
            starts = [seg.t_start for seg in self.protocol]
            if any(b <= a for a, b in zip(starts, starts[1:])):
                raise ConfigurationError("protocol segment boundaries must be strictly increasing")
            for seg in self.protocol:
                seg.levels = np.asarray(seg.levels, dtype=float)

    @property
    def dim(self) -> int:
        return len(self.levels)

    @property
    def n_baths(self) -> int:
        return len(self.couplings)

    def segments(self, t0: float = 0.0) -> list[ProtocolSegment]:
        """Protocol segments of a run starting at t0; the first must start by t0."""
        if self.protocol is None:
            return [ProtocolSegment(t0, self.levels)]
        if self.protocol[0].t_start > t0 + 1e-12:
            raise ConfigurationError(
                f"protocol starts at t={self.protocol[0].t_start}, after the first "
                f"time t={t0}; no levels are defined before it"
            )
        return self.protocol


@dataclass
class ConditionedState:
    """Map from a bath-energy key to an unnormalized positive system block.

    Keys are tuples of per-bath window indices; the trace over all blocks is
    the total probability and is conserved by the generator, not enforced.
    """

    blocks: dict[tuple[int, ...], np.ndarray]
    time: float = 0.0

    def populations(self) -> dict[tuple[int, tuple[int, ...]], float]:
        out = {}
        for key, block in self.blocks.items():
            for k in range(block.shape[0]):
                out[(k, key)] = block[k, k].real
        return out


def s_omega_decomposition(s_op: np.ndarray, levels: np.ndarray) -> dict[float, np.ndarray]:
    """Split a coupling operator by system transition frequency.

    S_omega collects the matrix elements <k|S|q> with eps_q - eps_k = omega,
    i.e. the part of S through which the system hands energy omega to the
    bath.  The pieces sum back to S and satisfy S_{-omega} = S_omega^dag for
    Hermitian S.
    """
    levels = np.asarray(levels, dtype=float)
    d = len(levels)
    pieces: dict[float, np.ndarray] = {}
    for k in range(d):
        for q in range(d):
            if s_op[k, q] == 0:
                continue
            omega = round(float(levels[q] - levels[k]), 12)
            if omega not in pieces:
                pieces[omega] = np.zeros((d, d), dtype=complex)
            pieces[omega][k, q] = s_op[k, q]
    return pieces


def _merge_omegas(per_op: list[dict[float, np.ndarray]], d: int) -> dict[float, list[np.ndarray]]:
    omegas = sorted({w for p in per_op for w in p})
    return {
        w: [p.get(w, np.zeros((d, d), dtype=complex)) for p in per_op]
        for w in omegas
    }


def _omega_sets(couplings: list[list[np.ndarray]], levels: np.ndarray) -> list[set[float]]:
    """Transition frequencies of each bath's coupling operators at these levels."""
    return [{w for s in ops for w in s_omega_decomposition(s, levels)} for ops in couplings]


def reachable_keys(
    initial: set[tuple[int, ...]],
    tables: list[RateTable],
    omega_sets: list[set[float]],
) -> list[tuple[int, ...]]:
    """Closure of the initial keys under resonant window moves of every bath."""
    seen = set(initial)
    frontier = list(initial)
    while frontier:
        key = frontier.pop()
        for nu, table in enumerate(tables):
            for omega in omega_sets[nu]:
                for sign in (+1.0, -1.0):
                    j = table.target_window(key[nu], sign * omega)
                    if j is None:
                        continue
                    nxt = key[:nu] + (j,) + key[nu + 1 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
    return sorted(seen)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the trailing d x d matrices, broadcast over any leading axis.

    One broadcast multiply forms the same elementwise products a[i, j] *
    b[k, l] as np.kron, so the result is bit-identical to it.
    """
    d = a.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (d * d, d * d))


def _packed_operator(
    rows: np.ndarray, cols: np.ndarray, sups: np.ndarray, n_blocks: int, d: int
) -> sparse.csr_array:
    """CSR operator on the packed block vector from dense superoperator blocks.

    Block n of the packed vector holds the row-major ravel of rho_n at offset
    n d^2; ``sups[b]`` is the d^2 x d^2 map from block ``cols[b]`` into d/dt
    of block ``rows[b]``, and no (row, col) pair repeats.
    """
    d2 = d * d
    b, r, c = np.nonzero(sups)
    ij = (rows[b] * d2 + r, cols[b] * d2 + c)
    return sparse.csr_array((sups[b, r, c], ij), shape=(n_blocks * d2, n_blocks * d2))


class EmmeGenerator:
    """Conditioned-state generator for one protocol segment as sparse operators.

    The blocks are packed into one vector (block n at offset n d^2, row-major
    ravel, so that vec(A X B) = (A kron B^T) vec(X)).  ``coherent`` applies
    -i[H'(E), .] with H' the levels plus each bath's energy shift;
    ``dissipators[nu]`` holds bath nu's loss anticommutator and its gains,
    each gain fed by the block whose bath energy is lower by the emitted
    quantum, which conserves the coarse-grained total energy.  ``markov`` is
    their sum.  A bath's superoperator blocks depend only on its window, so
    each is built once per window (or window pair) and shared by the blocks.

    ``population_rates[nu]`` is the population-to-population block of
    ``dissipators[nu]`` (the packed entries n d^2 + k (d + 1), in the joint
    index order n d + k; the coherent part has no element there): entry
    (n d + k, m d + q) is the rate W_kq(E_i, E_j) / V_j of the jump from
    level q of block m to level k of block n.  A W that is negative beyond
    the roundoff of the largest table entry raises.
    """

    def __init__(
        self,
        levels: np.ndarray,
        couplings: list[list[np.ndarray]],
        tables: list[RateTable],
        keys: list[tuple[int, ...]],
    ):
        if len(tables) != len(couplings):
            raise ConfigurationError("one rate table per bath is required")
        self.keys = list(keys)
        key_index = {k: n for n, k in enumerate(self.keys)}
        d = len(levels)
        self.dim = d
        eye = np.eye(d)
        n_blocks = len(self.keys)
        windows = np.array(self.keys, dtype=int).reshape(n_blocks, len(tables))
        pops = (np.arange(n_blocks)[:, None] * (d * d) + np.arange(d) * (d + 1)).ravel()

        h_prime = np.tile(np.diag(np.asarray(levels, dtype=float)).astype(complex), (n_blocks, 1, 1))
        self.dissipators: list[sparse.csr_array] = []
        self.population_rates: list[sparse.csr_array] = []
        for nu, (table, s_ops) in enumerate(zip(tables, couplings)):
            s_omega = _merge_omegas([s_omega_decomposition(s, levels) for s in s_ops], d)
            h_ls = lamb_shift(table, s_omega, np.zeros((d, d)))[0]
            h_prime = h_prime + h_ls[windows[:, nu]]
            sources = {}  # window -> the source window of each frequency's gain, or None

            def gain(j: int, j_dn: int) -> np.ndarray:
                # rate gamma(E, E - omega)/V_{E-omega}, over the frequencies fed from j_dn
                out = np.zeros((d * d, d * d), dtype=complex)
                g = table.gamma[j, j_dn] / table.volumes[j_dn]
                for ops, src in zip(s_omega.values(), sources[j]):
                    if src == j_dn:
                        for a, ap in zip(*np.nonzero(g)):
                            out += g[a, ap] * _kron(ops[a], ops[ap].conj())
                return out

            def diagonal(j: int) -> np.ndarray:
                loss = np.zeros((d, d), dtype=complex)
                for omega, ops in s_omega.items():
                    # loss: bath window at E + omega absorbs the emitted quantum
                    j_up = table.target_window(j, omega)
                    if j_up is not None:
                        g = table.gamma[j_up, j] / table.volumes[j]
                        for a, ap in zip(*np.nonzero(g)):
                            loss += g[a, ap] * (ops[ap].conj().T @ ops[a])
                anticommutator = _kron(loss, eye) + _kron(eye, loss.T)
                return (gain(j, j) if j in sources[j] else 0.0) - 0.5 * anticommutator

            sups: list[np.ndarray] = []
            position: dict[tuple[int, int], int] = {}
            rows, cols, ids = [], [], []
            for n, key in enumerate(self.keys):
                j = key[nu]
                if j not in sources:
                    sources[j] = [table.target_window(j, -omega) for omega in s_omega]
                for j_src in dict.fromkeys([j] + sources[j]):
                    if j_src is None:
                        continue
                    src = key_index.get(key[:nu] + (j_src,) + key[nu + 1 :])
                    if src is None:
                        continue
                    if (j, j_src) not in position:
                        position[(j, j_src)] = len(sups)
                        sups.append(diagonal(j) if j_src == j else gain(j, j_src))
                    rows.append(n)
                    cols.append(src)
                    ids.append(position[(j, j_src)])
            self.dissipators.append(_packed_operator(
                np.array(rows, dtype=int), np.array(cols, dtype=int),
                np.array(sups).reshape(-1, d * d, d * d)[ids], n_blocks, d,
            ))
            self.population_rates.append(self.dissipators[-1][pops][:, pops].real)
            jumps = self.population_rates[-1].tocoo()
            w = jumps.data * np.repeat(table.volumes[windows[:, nu]], d)[jumps.col]
            w_min = np.min(w[jumps.row != jumps.col], initial=0.0)
            if w_min < -1e-12 * max(np.max(np.abs(table.gamma), initial=0.0), 1.0):
                raise NumericalFailure(f"negative transition rate W = {w_min:g} in bath {nu}")
        commutators = -1j * (_kron(h_prime, eye) - _kron(eye, h_prime.swapaxes(-1, -2)))
        block = np.arange(n_blocks)
        self.coherent = _packed_operator(block, block, commutators, n_blocks, d)
        self.markov = sum(self.dissipators, self.coherent)

    def derivative(self, y: np.ndarray, zeta_factors: list[float] | None = None) -> np.ndarray:
        """d/dt of the packed block vector; zeta_factors scale each bath's dissipator."""
        if zeta_factors is None:
            return self.markov @ y
        dy = self.coherent @ y
        for f, op in zip(zeta_factors, self.dissipators):
            dy += f * (op @ y)
        return dy

    def derivative_blocks(
        self, blocks: list[np.ndarray], zeta_factors: list[float] | None = None
    ) -> list[np.ndarray]:
        """d/dt of every block; zeta_factors scale each bath's dissipator."""
        dy = self.derivative(np.concatenate([b.ravel() for b in blocks]), zeta_factors)
        return list(dy.reshape(-1, self.dim, self.dim))


# ---------------------------------------------------------------------------
# time evolution


def _grid_segments(system: SystemSpec, t_grid: np.ndarray):
    """Split a strictly increasing grid by protocol segment; boundaries must sit on it."""
    if np.any(np.diff(t_grid) <= 0):
        raise ConfigurationError("time grid must be strictly increasing")
    segs = system.segments(t_grid[0])
    bounds = [seg.t_start for seg in segs]
    for b in bounds[1:]:
        if t_grid[0] < b < t_grid[-1] and np.min(np.abs(t_grid - b)) > 1e-9:
            raise ConfigurationError(
                f"protocol quench at t={b} does not align with the time grid"
            )
    pieces = []
    for n, seg in enumerate(segs):
        t0 = max(seg.t_start, t_grid[0])
        t1 = segs[n + 1].t_start if n + 1 < len(segs) else t_grid[-1]
        if t0 > t_grid[-1] or t1 < t_grid[0]:
            continue
        mask = (t_grid >= t0 - 1e-12) & (t_grid <= min(t1, t_grid[-1]) + 1e-12)
        # a grid point on a boundary is recorded with the segment that starts there
        if n + 1 < len(segs):
            mask &= t_grid < segs[n + 1].t_start - 1e-12
        pieces.append((seg, t0, min(t1, t_grid[-1]), t_grid[mask]))
    return pieces


def _integrate_segments(
    system: SystemSpec,
    t_grid: np.ndarray,
    y0: np.ndarray,
    segment_rhs: Callable[[ProtocolSegment], Callable[[float, np.ndarray], np.ndarray]],
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate y' = segment_rhs(seg)(t, y) across the protocol on the grid.

    ``segment_rhs`` is called once for every segment the grid reaches.  The
    state carries across quenches continuously; a grid point on a quench
    is recorded with the segment that starts there.  Returns the recorded
    times, the states (one row per time) and the level energies in force.
    """
    times: list[float] = []
    states: list[np.ndarray] = []
    levels: list[np.ndarray] = []
    y = y0
    for seg, t0, t1, grid in _grid_segments(system, t_grid):
        rhs = segment_rhs(seg)
        if grid.size and abs(grid[0] - t0) < 1e-12:
            times.append(float(grid[0]))
            states.append(y)
            levels.append(seg.levels)
            grid = grid[1:]
        if t1 > t0:
            sol = solve_ivp(
                rhs, (t0, t1), y, method="DOP853",
                t_eval=np.unique(np.concatenate([grid, [t1]])), rtol=rtol, atol=atol,
            )
            if not sol.success:
                raise NumericalFailure(f"integrator failed: {sol.message}")
            for m, t_rec in enumerate(sol.t):
                if grid.size and np.min(np.abs(grid - t_rec)) < 1e-12:
                    times.append(float(t_rec))
                    states.append(sol.y[:, m])
                    levels.append(seg.levels)
            y = sol.y[:, -1]
    return np.array(times), np.stack(states), np.stack(levels)


def evolve(
    state0: ConditionedState,
    system: SystemSpec,
    tables: list[RateTable],
    t_grid: np.ndarray,
    variant: str = "markov",
    *,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> Trajectory:
    """Integrate the conditioned-state master equation over a time grid.

    The trace is conserved by the generator and is deliberately not
    renormalized; drift beyond tolerance indicates a bug, not noise.  At
    protocol quenches the state is carried across continuously while the
    level energies and jump operators are rebuilt.  Raises on positivity
    violations beyond tolerance with a step-size diagnostic.
    """
    if variant not in ("markov", "redfield"):
        raise ConfigurationError(f"unknown variant {variant!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    omega_union: list[set[float]] = [set() for _ in tables]
    for seg in system.segments(t_grid[0]):
        for nu, omegas in enumerate(_omega_sets(system.couplings, seg.levels)):
            omega_union[nu] |= omegas
    keys = reachable_keys(set(state0.blocks), tables, omega_union)

    d = system.dim
    t_origin = t_grid[0]
    y0 = np.zeros((len(keys), d, d), dtype=complex)
    for n, key in enumerate(keys):
        if key in state0.blocks:
            y0[n] = state0.blocks[key]

    generators: list[tuple[float, EmmeGenerator]] = []

    def segment_rhs(seg: ProtocolSegment):
        gen = EmmeGenerator(seg.levels, system.couplings, tables, keys)
        generators.append((seg.t_start, gen))
        if variant == "markov":
            return lambda t, y: gen.markov @ y
        return lambda t, y: gen.derivative(y, [zeta(t - t_origin, tb.delta) for tb in tables])

    times, states, levels = _integrate_segments(
        system, t_grid, y0.ravel(), segment_rhs, rtol, atol
    )
    blocks = states.reshape(len(times), len(keys), d, d)
    hermitian = 0.5 * (blocks + blocks.conj().swapaxes(-1, -2))
    w_min = np.linalg.eigvalsh(hermitian).min(axis=-1)
    bad = np.argwhere((w_min < -POSITIVITY_TOL).T)
    if bad.size:
        n, m = bad[0]
        raise NumericalFailure(
            f"block {keys[n]} lost positivity at t={times[m]:g} "
            f"(min eigenvalue {w_min[m, n]:.3e}); tighten rtol/atol "
            f"(currently {rtol:g}/{atol:g})"
        )

    rate_model = PopulationRateModel(generators, tables, variant=variant, t_origin=t_origin)
    return Trajectory(
        solver=f"emme-{variant}",
        times=times,
        # populations are ordered as all levels of block 0, then block 1, ...
        joint_index=[(k, key) for key in keys for k in range(d)],
        populations=np.diagonal(blocks, axis1=2, axis2=3).real.reshape(len(times), -1).copy(),
        level_energies=levels,
        bath_centers=[tb.centers for tb in tables],
        bath_volumes=[tb.volumes for tb in tables],
        blocks={key: blocks[:, n] for n, key in enumerate(keys)},
        pop_rate=rate_model.dpdt,
        meta={"variant": variant, "rtol": rtol, "atol": atol},
    )


# ---------------------------------------------------------------------------
# population rate equation


class PopulationRateModel:
    """Autonomous classical master equation on the joint (level, windows) index.

    Reads the population block of each segment's generator (see
    ``EmmeGenerator.population_rates``), so it is the diagonal of the block
    generator exactly: jumps (eps_q, E_j) -> (eps_k, E_i) occur at
    rate W_kq(E_i, E_j) / V_j, with window moves in one bath component at a
    time.  ``generators`` holds (segment start, generator) pairs in time
    order, and the rates at time t are sum_nu f_nu(t) M_nu with f_nu = 1 in
    the Markov form and zeta_nu(t) in the finite-time form.
    """

    def __init__(
        self,
        generators: list[tuple[float, EmmeGenerator]],
        tables: list[RateTable],
        variant: str = "markov",
        t_origin: float = 0.0,
    ):
        self.tables = tables
        self.variant = variant
        self.t_origin = t_origin
        first = generators[0][1]
        self.joint_index = [(k, key) for key in first.keys for k in range(first.dim)]
        self._segments = [(t_start, gen.population_rates) for t_start, gen in generators]

    def _terms(self, t: float) -> list[tuple[float, sparse.csr_array]]:
        mats = self._segments[0][1]
        for t_start, m in self._segments:
            if t_start <= t + 1e-12:
                mats = m
        if self.variant == "markov":
            return [(1.0, m) for m in mats]
        return [(zeta(t - self.t_origin, tb.delta), m) for tb, m in zip(self.tables, mats)]

    def matrix(self, t: float) -> sparse.csr_array:
        return sum(f * m for f, m in self._terms(t))

    def dpdt(self, t: float, p: np.ndarray) -> np.ndarray:
        # one mat-vec per bath: forming the sum would cost more than the products
        return sum(f * (m @ p) for f, m in self._terms(t))


def stationary_populations(
    populations: dict[tuple[int, tuple[int, ...]], float],
    system: SystemSpec,
    tables: list[RateTable],
    levels: np.ndarray | None = None,
) -> dict[tuple[int, tuple[int, ...]], float]:
    """Long-time populations: joint-volume weighting on each connected component.

    Works for any number of baths; the weight of a joint state is the product
    of its window volumes, and each ergodic component keeps its initial
    probability.  For one bath and a fully connected shell this is
    p(eps_k, E_tot - eps_k) = P(E_tot) V_{E_tot-eps_k} / sum_q V_{E_tot-eps_q}.
    """
    lv = system.levels if levels is None else np.asarray(levels, dtype=float)
    omega_sets = _omega_sets(system.couplings, lv)
    keys = reachable_keys({key for (_, key) in populations}, tables, omega_sets)
    model = PopulationRateModel([(0.0, EmmeGenerator(lv, system.couplings, tables, keys))], tables)
    _, labels = connected_components(model.matrix(0.0) > 0, directed=False)
    p0 = np.array([populations.get(s, 0.0) for s in model.joint_index])
    weights = np.array(
        [
            np.prod([tables[nu].volumes[j] for nu, j in enumerate(key)])
            for (_, key) in model.joint_index
        ],
        dtype=float,
    )
    out = np.bincount(labels, p0)[labels] * weights / np.bincount(labels, weights)[labels]
    return dict(zip(model.joint_index, out))


# ---------------------------------------------------------------------------
# closed-form two-level oracle


def analytic_spin_solution(
    v_low: float,
    v_high: float,
    gamma: float,
    p0: tuple[float, float],
    t,
    xi_values=None,
) -> np.ndarray:
    """Closed-form populations of one two-level shell.

    The pair is (p(eps_1, E), p(eps_0, E + gap)) with window volumes
    (v_low, v_high).  p(t) = p_eq + (p(0) - p_eq) exp(-2 gammabar Xi(t)),
    with 2 gammabar = gamma (1/V_E + 1/V_{E+gap}); Xi(t) = t recovers the
    Markov form, a running integral of the envelope gives the finite-time
    variant.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    xi = t if xi_values is None else np.atleast_1d(np.asarray(xi_values, dtype=float))
    total = p0[0] + p0[1]
    p_eq = np.array([total * v_low / (v_low + v_high), total * v_high / (v_low + v_high)])
    two_gbar = gamma * (1.0 / v_low + 1.0 / v_high)
    decay = np.exp(-two_gbar * xi)
    out = p_eq[None, :] + (np.array(p0)[None, :] - p_eq[None, :]) * decay[:, None]
    return out


def spin_oracle_trajectory(
    state0: ConditionedState,
    system: SystemSpec,
    table: RateTable,
    t_grid: np.ndarray,
    variant: str = "markov",
) -> Trajectory:
    """Exact trajectory of the two-level model, shell by shell.

    Requires a two-level system, a single bath, a single coupling operator,
    and a static protocol; each conserved shell couples one excited block to
    one ground block and follows the closed form above.
    """
    if system.dim != 2 or system.n_baths != 1 or len(system.couplings[0]) != 1:
        raise ConfigurationError("the closed form covers one spin and one coupling operator")
    if system.protocol is not None and len(system.protocol) > 1:
        raise ConfigurationError("the closed form covers static protocols only")
    t_grid = np.asarray(t_grid, dtype=float)
    levels = system.levels
    gap = levels[1] - levels[0]
    pops0 = state0.populations()
    omega_sets = [{round(float(gap), 12), round(float(-gap), 12)}]
    keys = reachable_keys({key for (_, key) in pops0}, [table], omega_sets)
    joint_index = [(k, key) for key in keys for k in range(2)]
    xi = (
        t_grid - t_grid[0]
        if variant == "markov"
        else xi_integral(t_grid - t_grid[0], table.delta)
    )
    pops = np.zeros((t_grid.size, len(joint_index)))
    done = set()
    for key in keys:
        j = key[0]
        jp = table.target_window(j, gap)
        idx_exc = joint_index.index((1, key))
        if jp is not None and (j, jp) not in done:
            done.add((j, jp))
            idx_gnd = joint_index.index((0, (jp,)))
            p0_pair = (pops0.get((1, key), 0.0), pops0.get((0, (jp,)), 0.0))
            gamma = float(table.gamma[j, jp, 0, 0].real)
            sol = analytic_spin_solution(
                table.volumes[j], table.volumes[jp], gamma, p0_pair, t_grid, xi
            )
            pops[:, idx_exc] = sol[:, 0]
            pops[:, idx_gnd] = sol[:, 1]
        elif jp is None:
            pops[:, idx_exc] = pops0.get((1, key), 0.0)
        j_dn = table.target_window(j, -gap)
        if j_dn is None:
            idx = joint_index.index((0, key))
            pops[:, idx] = pops0.get((0, key), 0.0)
    return Trajectory(
        solver="analytic",
        times=t_grid,
        joint_index=joint_index,
        populations=pops,
        level_energies=np.tile(levels, (t_grid.size, 1)),
        bath_centers=[table.centers],
        bath_volumes=[table.volumes],
        meta={"variant": variant},
    )
