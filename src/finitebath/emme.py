"""Master equation for a system conditioned on coarse-grained bath energies.

The state is a map from a vector of bath window indices to an unnormalized
positive system block; its evolution couples neighboring blocks through
jump operators resolved by the resonance rule.  The generator of each
protocol segment is built as sparse operators on the packed blocks on the
integrator route only; the population rate equation is the transition rates
W on the joint index.  Both the Markov form and the finite-time variant (all
dissipation rates multiplied by the envelope zeta(t)) are provided, together
with stationary states and a closed-form oracle for the two-level case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy

from .errors import ConfigurationError, NumericalFailure
from .rates import RateTable, frequency, lamb_shift, transition_rates, xi_integral, zeta
from .trajectory import Trajectory

POSITIVITY_TOL = 1e-10
# largest relative change of the total probability either route accepts
TRACE_TOL = 1e-8
# the closed-form propagator of a shell component reads its populations in
# the coordinates Pi^{-1/2} p, so the eigenvectors' round-off reaches p
# amplified by sum_a p_a (Pi_max / Pi_a)^{1/2}; above this factor the
# component is propagated by expm at each point instead
AMPLIFICATION_LIMIT = 1e3
# integrator tolerances of the conditioned-state equation (its DOP853 route)
RTOL = 1e-11
ATOL = 1e-13


@dataclass
class ProtocolSegment:
    t_start: float
    levels: np.ndarray


@dataclass
class SystemSpec:
    """System levels, per-bath coupling operators, and the driving protocol.

    ``couplings[nu]`` is the list of coupling operators S^alpha (matrices in
    the level basis) attached to bath nu.  The protocol, a piecewise constant
    schedule of level energies, alone says which levels are in force when
    (by default, or if empty: ``levels`` from t = -inf on), and ``levels``
    must equal its first segment's.  Segments must share one level count
    and start in strictly increasing order.
    """

    levels: np.ndarray
    couplings: list[list[np.ndarray]]
    protocol: list[ProtocolSegment] | None = None

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        if not self.protocol:
            self.protocol = [ProtocolSegment(-np.inf, self.levels)]
        starts = [seg.t_start for seg in self.protocol]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigurationError("protocol segment boundaries must be strictly increasing")
        self._quenches = np.array(starts[1:])
        for seg in self.protocol:
            seg.levels = np.asarray(seg.levels, dtype=float)
            if seg.levels.shape != self.levels.shape:
                raise ConfigurationError(f"the protocol segment at t={seg.t_start} has "
                                         f"{seg.levels.size} levels, the system {self.dim}")
        if not np.array_equal(self.protocol[0].levels, self.levels):
            raise ConfigurationError(f"levels {self.levels.tolist()} differ from the first "
                                     f"protocol segment's {self.protocol[0].levels.tolist()}")

    @property
    def dim(self) -> int:
        return len(self.levels)

    @property
    def n_baths(self) -> int:
        return len(self.couplings)

    def segment_index(self, t):
        """Index of the segment in force at time t (or each time of an array).

        It counts the quenches (the starts after the first) at or before
        t + 1e-12: a time on a quench belongs to the segment that starts
        there, and a time before the first start to the first segment.
        """
        return self._quenches.searchsorted(t + 1e-12, side="right")

    def grid_segments(self, t_grid: np.ndarray):
        """(segment index, segment, t0, t1, its grid points) for each segment a grid reaches.

        The grid must be strictly increasing and start inside the protocol,
        and every quench inside it must sit on a grid point.  [t0, t1] is the
        part of the segment within the grid; the grid points are those the
        segment is in force at (see :meth:`segment_index`).
        """
        check_time_grid(t_grid)
        starts = [seg.t_start for seg in self.protocol]
        if starts[0] > t_grid[0] + 1e-12:
            raise ConfigurationError(f"protocol starts at t={starts[0]}, after the first time "
                                     f"t={t_grid[0]}; no levels are defined before it")
        for b in starts[1:]:
            if t_grid[0] < b < t_grid[-1] and np.min(np.abs(t_grid - b)) > 1e-9:
                raise ConfigurationError(f"protocol quench at t={b} does not align with "
                                         "the time grid")
        owner = self.segment_index(t_grid)
        pieces = []
        for n, (seg, end) in enumerate(zip(self.protocol, starts[1:] + [np.inf])):
            t0, t1, grid = max(seg.t_start, t_grid[0]), min(end, t_grid[-1]), t_grid[owner == n]
            if grid.size or t0 < t1:
                pieces.append((n, seg, t0, t1, grid))
        return pieces


@dataclass
class ConditionedState:
    """Map from a bath-energy key to an unnormalized positive system block.

    Keys are tuples of per-bath window indices; the trace over all blocks is
    the total probability and is conserved by the generator, not enforced.
    """

    blocks: dict[tuple[int, ...], np.ndarray]

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
            omega = frequency(levels[k], levels[q])
            if omega not in pieces:
                pieces[omega] = np.zeros((d, d), dtype=complex)
            pieces[omega][k, q] = s_op[k, q]
    return pieces


def _omega_sets(couplings: list[list[np.ndarray]], levels: np.ndarray) -> list[set[float]]:
    """Transition frequencies of each bath's coupling operators at these levels."""
    return [{w for s in ops for w in s_omega_decomposition(s, levels)} for ops in couplings]


def reachable_keys(
    initial: set[tuple[int, ...]],
    tables: list[RateTable],
    omega_sets: list[set[float]],
) -> list[tuple[int, ...]]:
    """Closure of the initial keys under resonant window moves of every bath.

    A bath's move depends only on its own window and the shift +-omega, so
    ``moves[nu][i]``, the windows bath nu reaches from window i, is resolved
    once per window the closure visits and distinct shift, not per key.
    """
    shifts = [{sign * omega for omega in omegas for sign in (+1.0, -1.0)} for omegas in omega_sets]
    moves: list[dict[int, set[int]]] = [{} for _ in tables]
    seen = set(initial)
    frontier = list(initial)
    while frontier:
        key = frontier.pop()
        for nu, (table, bath_moves) in enumerate(zip(tables, moves)):
            i = key[nu]
            if i not in bath_moves:
                bath_moves[i] = {table.target_window(i, s) for s in shifts[nu]} - {None}
            for j in bath_moves[i]:
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
) -> scipy.sparse.csr_array:
    """CSR operator on the packed block vector from dense superoperator blocks.

    Block n of the packed vector holds the row-major ravel of rho_n at offset
    n d^2; ``sups[b]`` is the d^2 x d^2 map from block ``cols[b]`` into d/dt
    of block ``rows[b]``, and no (row, col) pair repeats.
    """
    d2 = d * d
    b, r, c = np.nonzero(sups)
    ij = (rows[b] * d2 + r, cols[b] * d2 + c)
    return scipy.sparse.csr_array((sups[b, r, c], ij), shape=(n_blocks * d2, n_blocks * d2))


class EmmeGenerator:
    """Conditioned-state generator for one protocol segment as sparse operators.

    The blocks are packed into one vector (block n at offset n d^2, row-major
    ravel, so that vec(A X B) = (A kron B^T) vec(X)).  ``coherent`` applies
    -i[H'(E), .] with H' the levels plus each bath's energy shift, and is
    built (with the shifts) on first use, like ``markov``;
    ``dissipators[nu]`` holds bath nu's loss anticommutator and its gains,
    each gain fed by the block whose bath energy is lower by the emitted
    quantum, which conserves the coarse-grained total energy.  ``markov`` is
    their sum.  A bath's superoperator blocks depend only on its window:
    one pass per window the keys visit builds the block from each source
    window (its gains summed in frequency order; the window's own block
    also subtracts half the loss anticommutator), and every key whose
    source key exists shares it.
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

        self._levels = np.asarray(levels, dtype=float)
        self._tables = tables
        self._windows = np.array(self.keys, dtype=int).reshape(n_blocks, len(tables))
        self._s_omegas: list[dict[float, list[np.ndarray]]] = []
        self.dissipators: list[scipy.sparse.csr_array] = []
        for nu, (table, s_ops) in enumerate(zip(tables, couplings)):
            pieces = [s_omega_decomposition(s, levels) for s in s_ops]
            zero = np.zeros((d, d), dtype=complex)
            s_omega = {w: [p.get(w, zero) for p in pieces]
                       for w in sorted({w for p in pieces for w in p})}
            self._s_omegas.append(s_omega)

            def window_blocks(j: int) -> dict[int, np.ndarray]:
                blocks: dict[int, np.ndarray] = {}  # source window -> its block into window j
                loss = np.zeros((d, d), dtype=complex)
                for omega, ops in s_omega.items():
                    # loss: bath window at E + omega absorbs the emitted quantum
                    j_up = table.target_window(j, omega)
                    if j_up is not None:
                        g = table.gamma[j_up, j] / table.volumes[j]
                        for a, ap in zip(*np.nonzero(g)):
                            loss += g[a, ap] * (ops[ap].conj().T @ ops[a])
                    # gain at rate gamma(E, E - omega)/V_{E-omega}, fed from the window below
                    j_dn = table.target_window(j, -omega)
                    if j_dn is not None:
                        g = table.gamma[j, j_dn] / table.volumes[j_dn]
                        out = blocks.setdefault(j_dn, np.zeros((d * d, d * d), dtype=complex))
                        for a, ap in zip(*np.nonzero(g)):
                            out += g[a, ap] * _kron(ops[a], ops[ap].conj())
                blocks[j] = blocks.get(j, 0.0) - 0.5 * (_kron(loss, eye) + _kron(eye, loss.T))
                return blocks

            visited = {j: window_blocks(j) for j in {key[nu] for key in self.keys}}
            rows, cols, sups = [], [], []
            for n, key in enumerate(self.keys):
                for j_src, sup in visited[key[nu]].items():
                    src = key_index.get(key[:nu] + (j_src,) + key[nu + 1 :])
                    if src is not None:
                        rows.append(n)
                        cols.append(src)
                        sups.append(sup)
            self.dissipators.append(_packed_operator(
                np.array(rows), np.array(cols), np.array(sups), n_blocks, d))

    @cached_property
    def coherent(self) -> scipy.sparse.csr_array:
        """-i[H'(E), .] on the packed blocks; built on first use, as only the integrator applies it."""
        d, n_blocks = self.dim, len(self.keys)
        h_prime = np.tile(np.diag(self._levels).astype(complex), (n_blocks, 1, 1))
        for nu, (table, s_omega) in enumerate(zip(self._tables, self._s_omegas)):
            h_prime = h_prime + lamb_shift(table, s_omega)[self._windows[:, nu]]
        eye = np.eye(d)
        commutators = -1j * (_kron(h_prime, eye) - _kron(eye, h_prime.swapaxes(-1, -2)))
        block = np.arange(n_blocks)
        return _packed_operator(block, block, commutators, n_blocks, d)

    @cached_property
    def markov(self) -> scipy.sparse.csr_array:
        return sum(self.dissipators, self.coherent)

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


def check_time_grid(t_grid: np.ndarray) -> None:
    """Refuse a time grid that is empty, not one-dimensional or not strictly increasing (NaN included)."""
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.all(np.diff(t_grid) > 0):
        raise ConfigurationError("time grid must be a non-empty, strictly increasing list")


def _walk_segments(
    system: SystemSpec,
    t_grid: np.ndarray,
    y0: np.ndarray,
    segment_solver: Callable[[int, ProtocolSegment], Callable],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Carry a state across the protocol on the grid, one solver per segment.

    ``segment_solver(n, seg)`` is called once for every segment n the grid
    reaches and returns solve(t0, y, times): the states (one row per time)
    at the increasing times, all after t0, from y at t0.  The state carries
    across quenches continuously; a grid point on a quench is recorded with
    the segment that starts there.  Returns the recorded times, the states
    (one row per time) and the level energies in force.
    """
    times: list[np.ndarray] = []
    states: list[np.ndarray] = []
    y = y0
    for n, seg, t0, t1, grid in system.grid_segments(t_grid):
        solve = segment_solver(n, seg)
        if grid.size and abs(grid[0] - t0) < 1e-12:
            times.append(grid[:1])
            states.append(y[None])
            grid = grid[1:]
        if t1 > t0:
            targets = np.unique(np.concatenate([grid, [t1]]))
            out = solve(t0, y, targets)
            # t1 is recorded only if it is a grid point of this segment
            keep = np.isin(targets, grid)
            times.append(targets[keep])
            states.append(out[keep])
            y = out[-1]
    recorded = np.concatenate(times)
    levels = np.stack([seg.levels for seg in system.protocol])[system.segment_index(recorded)]
    return recorded, np.concatenate(states), levels


def dissipator_envelope(tables: list[RateTable], variant: str, t_origin: float = 0.0):
    """t -> the factor of each bath's dissipator at t, for one variant of the equation.

    None (every factor 1) in the Markov form; zeta_nu(t - t_origin), with
    the window width of bath nu, in the finite-time ("redfield") form.
    """
    if variant == "markov":
        return lambda t: None
    if variant == "redfield":
        return lambda t: [zeta(t - t_origin, tb.delta) for tb in tables]
    raise ConfigurationError(f"unknown variant {variant!r}")


def _distinct_levels(levels: np.ndarray) -> bool:
    """Whether no two transitions out of (or into) one level share a frequency.

    Frequencies are rounded by :func:`rates.frequency`; then every
    S_omega has at most one element per row and per column, so each
    dissipator and the energy shifts map diagonal blocks to diagonal blocks.
    """
    omegas = [[frequency(a, b) for b in levels] for a in levels]
    return all(len(set(row)) == len(row) for row in omegas + [list(c) for c in zip(*omegas)])


def connected_components(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Components of the undirected graph on nodes 0..n-1 with edges (rows[e], cols[e]).

    Returns the number of components and each node's label; labels count
    the components in the order of their first node, as
    ``scipy.sparse.csgraph.connected_components(directed=False)`` does.
    Union-find with path compression, the larger root attached under the
    smaller, so every root is its component's first node.
    """
    parent = list(range(n))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for a, b in zip(rows.tolist(), cols.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots, labels = np.unique([find(a) for a in range(n)], return_inverse=True)
    return roots.size, labels


def population_rates(levels: np.ndarray, couplings: list[list[np.ndarray]], tables: list[RateTable],
                     keys: list[tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    """COO arrays (bath, rows, cols, rates) of the rate equation on the joint index n d + k.

    Each positive W_kq(E_i, E_j) of :func:`transition_rates` for bath nu,
    with j its window in key m and i its window in key n (the other windows
    equal), gives a gain W / V_j at (n d + k, m d + q) and the matching loss
    -W / V_j at (m d + q, m d + q).  ``keys`` must be closed under the jumps,
    as :func:`reachable_keys` makes them (a KeyError otherwise).
    """
    d = len(levels)
    key_index = {key: n for n, key in enumerate(keys)}
    entries = []
    for nu, (table, s_ops) in enumerate(zip(tables, couplings)):
        jumps: dict[int, list] = {}  # source window -> (k, q, target window, W / V_j)
        for (k, q, i, j), w in transition_rates(table, s_ops, levels).items():
            if w > 0:
                jumps.setdefault(j, []).append((k, q, i, w / table.volumes[j]))
        for m, key in enumerate(keys):
            for k, q, i, rate in jumps.get(key[nu], ()):
                n = key_index[key[:nu] + (i,) + key[nu + 1 :]]
                entries += [(nu, n * d + k, m * d + q, rate), (nu, m * d + q, m * d + q, -rate)]
    bath, rows, cols, rates = np.array(entries, dtype=float).reshape(-1, 4).T
    return bath.astype(int), rows.astype(int), cols.astype(int), rates


def _population_solver(
    rates: tuple[np.ndarray, ...], log_weights: np.ndarray, clock: Callable, counters: dict
) -> Callable:
    """Closed-form solve(t0, p, times) of p' = f(t) W p for one segment (see :func:`_walk_segments`).

    W, the sum over baths of :func:`population_rates`, splits into shell components.
    Local detailed balance makes Pi^{-1/2} W_c Pi^{1/2} symmetric for the
    volume-product weights Pi, so one ``eigh`` per component that holds
    probability gives p(t) = Pi^{1/2} U exp(Lambda x) U^T Pi^{-1/2} p(t0) at
    every time at once, with x = clock(t) - clock(t0).  Pi is normalized
    within each component (``log_weights`` holds log Pi), and components
    without probability stay exactly 0.  A component whose probability sits
    on states far lighter than its heaviest (see ``AMPLIFICATION_LIMIT``) is
    propagated by ``expm`` at each time.  ``counters`` gets the calls added
    to ``eigh_calls`` and ``expm_calls``, the largest decomposed component in
    ``largest_component``, and appended to ``relaxation_rates`` the
    segment's list of the slowest relaxation rate of each occupied
    component of more than one state.
    """
    _, rows, cols, w = rates
    labels = connected_components(log_weights.size, rows[w > 0], cols[w > 0])[1]
    slowest: list[float] = []
    counters["relaxation_rates"].append(slowest)

    def solve(t0, p, times):
        x = clock(times) - clock(t0)
        out = np.zeros((times.size, p.size))
        for c in np.unique(labels[p != 0]):
            idx = np.flatnonzero(labels == c)
            sq = np.exp(0.5 * (log_weights[idx] - log_weights[idx].max()))
            local, mine = np.cumsum(labels == c) - 1, labels[rows] == c
            w_c = np.zeros((idx.size, idx.size))
            np.add.at(w_c, (local[rows[mine]], local[cols[mine]]), w[mine])
            sym = w_c * sq / sq[:, None]
            lam, u = np.linalg.eigh(0.5 * (sym + sym.T))
            counters["eigh_calls"] += 1
            if np.sum(np.abs(p[idx]) / sq) <= AMPLIFICATION_LIMIT:
                out[:, idx] = ((np.exp(np.outer(x, lam)) * (u.T @ (p[idx] / sq))) @ u.T) * sq
            else:
                out[:, idx] = [scipy.linalg.expm(w_c * x_m) @ p[idx] for x_m in x]
                counters["expm_calls"] += x.size
            counters["largest_component"] = max(counters["largest_component"], idx.size)
            if idx.size > 1:
                # the eigenvalue nearest 0 is the stationary state's
                slowest.append(float(-lam[-2]))
        return out

    return solve


def evolve(
    state0: ConditionedState,
    system: SystemSpec,
    tables: list[RateTable],
    t_grid: np.ndarray,
    variant: str = "markov",
) -> Trajectory:
    """Solve the conditioned-state master equation on a time grid.

    The route is chosen once; one walk of the protocol (see
    :func:`_walk_segments`) applies its segment solver.  Population route:
    when every initial block is diagonal (with a real diagonal), every
    segment's levels are distinct (see :func:`_distinct_levels`) and the
    variant is Markov or all baths share one window width, the blocks stay
    diagonal and the populations follow p' = f(t) W p with one envelope f,
    solved in closed form (see :func:`_population_solver`).  Otherwise the
    integrator route runs DOP853 on each segment's :class:`EmmeGenerator`
    at the fixed tolerances RTOL/ATOL.  The trace is conserved by the
    generator and is deliberately not renormalized; drift beyond tolerance
    indicates a bug, not noise.  At protocol quenches the state is carried
    across continuously while the level energies and jump operators are
    rebuilt.  Raises on a population (population route) or block
    eigenvalue (integrator route) below -``POSITIVITY_TOL``, and on a
    population sum that leaves the initial trace by more than ``TRACE_TOL``
    of it.  ``pop_rate`` is W p if every segment's levels are distinct;
    otherwise coherences feed the populations, and it is None.  ``meta``
    records the route; the population route adds its counters, the
    integrator route its tolerances.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    check_time_grid(t_grid)
    envelope = dissipator_envelope(tables, variant, t_grid[0])
    omega_union: list[set[float]] = [set() for _ in tables]
    for seg in system.protocol:
        for nu, omegas in enumerate(_omega_sets(system.couplings, seg.levels)):
            omega_union[nu] |= omegas
    keys = reachable_keys(set(state0.blocks), tables, omega_union)

    d = system.dim
    y0 = np.zeros((len(keys), d, d), dtype=complex)
    for n, key in enumerate(keys):
        if key in state0.blocks:
            y0[n] = state0.blocks[key]

    populations = np.diagonal(y0, axis1=1, axis2=2)
    diagonal = np.array_equal(y0, populations.real[:, :, None] * np.eye(d))
    distinct = all(_distinct_levels(seg.levels) for seg in system.protocol)
    one_envelope = variant == "markov" or len({tb.delta for tb in tables}) == 1
    closed = diagonal and distinct and one_envelope
    rate_model = PopulationRateModel(system, tables, keys, envelope) if distinct else None
    if closed:
        def clock(t):
            # the running integral of the one envelope (from the first grid point)
            return t if variant == "markov" else xi_integral(t - t_grid[0], tables[0].delta)

        windows = np.array(keys, dtype=int).reshape(len(keys), len(tables))
        log_weights = np.repeat(
            sum(np.log(tb.volumes[windows[:, nu]]) for nu, tb in enumerate(tables)), d)
        counters = {"eigh_calls": 0, "expm_calls": 0, "largest_component": 0,
                    "relaxation_rates": []}

        def segment_solver(n, seg):
            return _population_solver(rate_model.rates[n], log_weights, clock, counters)
    else:
        def segment_solver(n, seg):
            gen = EmmeGenerator(seg.levels, system.couplings, tables, keys)

            def solve(t0, y, times):
                sol = scipy.integrate.solve_ivp(
                    lambda t, y: gen.derivative(y, envelope(t)), (t0, times[-1]), y,
                    method="DOP853", t_eval=times, rtol=RTOL, atol=ATOL)
                if not sol.success:
                    raise NumericalFailure(f"integrator failed: {sol.message}")
                return sol.y.T

            return solve

    times, states, levels = _walk_segments(
        system, t_grid, populations.real.ravel() if closed else y0.ravel(), segment_solver)
    if closed:
        pops = states
        blocks = np.zeros((len(times), len(keys), d, d), dtype=complex)
        blocks[:, :, np.arange(d), np.arange(d)] = pops.reshape(len(times), len(keys), d)
        bad = np.argwhere(pops < -POSITIVITY_TOL)
        if bad.size:
            m, col = bad[0]
            raise NumericalFailure(f"block {keys[col // d]} lost positivity at t={times[m]:g} "
                                   f"(population {pops[m, col]:.3e})")
        meta = {"variant": variant, "route": "populations", **counters}
    else:
        blocks = states.reshape(len(times), len(keys), d, d)
        hermitian = 0.5 * (blocks + blocks.conj().swapaxes(-1, -2))
        w_min = np.linalg.eigvalsh(hermitian).min(axis=-1)
        bad = np.argwhere((w_min < -POSITIVITY_TOL).T)
        if bad.size:
            n, m = bad[0]
            raise NumericalFailure(f"block {keys[n]} lost positivity at t={times[m]:g} "
                                   f"(min eigenvalue {w_min[m, n]:.3e})")
        pops = np.diagonal(blocks, axis1=2, axis2=3).real.reshape(len(times), -1).copy()
        meta = {"variant": variant, "route": "integrator", "rtol": RTOL, "atol": ATOL}
    total = populations.real.sum()
    # negated so that a NaN fails too
    bad = np.flatnonzero(~(np.abs(pops.sum(axis=1) - total) <= TRACE_TOL * total))
    if bad.size:
        raise NumericalFailure(f"populations sum to {pops[bad[0]].sum():.6g} at "
                               f"t={times[bad[0]]:g}, not {total:.6g}")

    return Trajectory(
        solver=f"emme-{variant}",
        times=times,
        keys=keys,
        populations=pops,
        level_energies=levels,
        bath_centers=[tb.centers for tb in tables],
        bath_volumes=[tb.volumes for tb in tables],
        blocks={key: blocks[:, n] for n, key in enumerate(keys)},
        pop_rate=None if rate_model is None else rate_model.dpdt,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# population rate equation


class PopulationRateModel:
    """Autonomous classical master equation on the joint (level, windows) index.

    Jumps (eps_q, E_j) -> (eps_k, E_i) occur at rate W_kq(E_i, E_j) / V_j,
    with window moves in one bath component at a time: ``rates[n]`` holds
    :func:`population_rates` at the levels of protocol segment n.  At a
    time t the rates are sum_nu f_nu(t) W_nu of the segment in force, with
    f = ``envelope(t)`` (see :func:`dissipator_envelope`).
    """

    def __init__(self, system: SystemSpec, tables: list[RateTable], keys, envelope):
        self.system, self.envelope = system, envelope
        self.rates = [population_rates(seg.levels, system.couplings, tables, keys)
                      for seg in system.protocol]

    def dpdt(self, t, p: np.ndarray) -> np.ndarray:
        """dp/dt at time t, or at each time of an array with one row of p per time."""
        times, pops = np.atleast_1d(t), np.atleast_2d(p)
        owner, targets, flows = self.system.segment_index(times), [], []
        for n in np.unique(owner):
            bath, rows, cols, w = self.rates[n]
            at, factors = np.flatnonzero(owner == n)[:, None], self.envelope(times[owner == n])
            flows.append(pops[at, cols] * (w if factors is None else np.array(factors)[bath].T * w))
            targets.append(at * pops.shape[1] + rows)
        # one scatter for every (time, row), summing each entry's flows in order
        out = np.bincount(np.concatenate(targets, axis=None),
                          np.concatenate(flows, axis=None), minlength=pops.size)
        return out.reshape(np.shape(p))


def stationary_populations(
    populations: dict[tuple[int, tuple[int, ...]], float],
    system: SystemSpec,
    tables: list[RateTable],
) -> dict[tuple[int, tuple[int, ...]], float]:
    """Long-time populations: joint-volume weighting on each connected component.

    The levels are the first segment's.  Works for any number of baths; the
    weight of a joint state is the product of its window volumes, and each
    ergodic component keeps its initial probability.  For one bath and a
    fully connected shell this is
    p(eps_k, E_tot - eps_k) = P(E_tot) V_{E_tot-eps_k} / sum_q V_{E_tot-eps_q}.
    """
    omega_sets = _omega_sets(system.couplings, system.levels)
    keys = reachable_keys({key for (_, key) in populations}, tables, omega_sets)
    _, rows, cols, w = population_rates(system.levels, system.couplings, tables, keys)
    joint_index = [(k, key) for key in keys for k in range(system.dim)]
    labels = connected_components(len(joint_index), rows[w > 0], cols[w > 0])[1]
    p0 = np.array([populations.get(s, 0.0) for s in joint_index])
    weights = np.array(
        [np.prod([tables[nu].volumes[j] for nu, j in enumerate(key)]) for (_, key) in joint_index],
        dtype=float,
    )
    out = np.bincount(labels, p0)[labels] * weights / np.bincount(labels, weights)[labels]
    return dict(zip(joint_index, out))


# ---------------------------------------------------------------------------
# closed-form two-level oracle


def analytic_spin_solution(
    v_low: float,
    v_high: float,
    gamma: float,
    p0: tuple[float, float],
    xi,
) -> np.ndarray:
    """Closed-form populations of one two-level shell.

    The pair is (p(eps_1, E), p(eps_0, E + gap)) with window volumes
    (v_low, v_high).  p(t) = p_eq + (p(0) - p_eq) exp(-2 gammabar Xi(t)),
    with 2 gammabar = gamma (1/V_E + 1/V_{E+gap}), one row per entry of
    ``xi``; Xi(t) = t recovers the Markov form, a running integral of the
    envelope gives the finite-time variant.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
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
    and one protocol segment over the whole grid; each conserved shell
    couples one excited block to one ground block and follows the closed
    form above.
    """
    if system.dim != 2 or system.n_baths != 1 or len(system.couplings[0]) != 1:
        raise ConfigurationError("the closed form covers one spin and one coupling operator")
    t_grid = np.asarray(t_grid, dtype=float)
    pieces = system.grid_segments(t_grid)
    if len(pieces) > 1:
        raise ConfigurationError("the closed form covers static protocols only")
    levels = pieces[0][1].levels
    gap = levels[1] - levels[0]
    pops0 = state0.populations()
    omega_sets = [{frequency(levels[0], levels[1]), frequency(levels[1], levels[0])}]
    keys = reachable_keys({key for (_, key) in pops0}, [table], omega_sets)
    pos = {key: n for n, key in enumerate(keys)}  # level k of keys[n] is column 2 n + k
    xi = (
        t_grid - t_grid[0]
        if variant == "markov"
        else xi_integral(t_grid - t_grid[0], table.delta)
    )
    pops = np.zeros((t_grid.size, 2 * len(keys)))
    done = set()
    for key in keys:
        j = key[0]
        jp = table.target_window(j, gap)
        idx_exc = 2 * pos[key] + 1
        if jp is not None and (j, jp) not in done:
            done.add((j, jp))
            idx_gnd = 2 * pos[(jp,)]
            p0_pair = (pops0.get((1, key), 0.0), pops0.get((0, (jp,)), 0.0))
            gamma = float(table.gamma[j, jp, 0, 0].real)
            sol = analytic_spin_solution(table.volumes[j], table.volumes[jp], gamma, p0_pair, xi)
            pops[:, idx_exc] = sol[:, 0]
            pops[:, idx_gnd] = sol[:, 1]
        elif jp is None:
            pops[:, idx_exc] = pops0.get((1, key), 0.0)
        j_dn = table.target_window(j, -gap)
        if j_dn is None:
            pops[:, 2 * pos[key]] = pops0.get((0, key), 0.0)
    return Trajectory(
        solver="analytic",
        times=t_grid,
        keys=keys,
        populations=pops,
        level_energies=np.tile(levels, (t_grid.size, 1)),
        bath_centers=[table.centers],
        bath_volumes=[table.volumes],
        meta={"variant": variant},
    )
