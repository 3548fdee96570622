"""Exact benchmark on the full system (x) bath Hilbert space.

Honest brute force at desk scale: the total Hamiltonian splits into the
invariant subspaces spanned by connected (system level, bath window)
sectors; the blocks that the initial ensemble occupies are assembled
densely, diagonalized once per protocol segment, and mixed states are
propagated as pure-state ensembles (one member per occupied microlevel, or a
few random vectors from the occupied subspace).  Coarse-graining the result
gives the same trajectory contract as the master-equation solvers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from .bath import BathRealization, EnergyWindow, bath_dimension, window_slices
from .emme import SystemSpec, connected_components
from .errors import ConfigurationError, DimensionCapExceeded, NumericalFailure
from .trajectory import Trajectory

DEFAULT_DIM_CAP = 5000
NORM_TOL = 1e-8
# bytes of one batch's phase stack e^{-iE dt} phi0 (and of its product with
# the eigenvectors): wide enough that one product streams the eigenvector
# matrix once for several grid points, small enough to stay out of peak RSS
BATCH_BYTES = 2 * 2**20


@dataclass
class FullModel:
    """Total Hamiltonian H_S (x) 1 + lam sum_a S^a (x) B^a + 1 (x) H_B by invariant sectors.

    ``sectors`` holds (index, block) pairs: the ascending basis indices
    k * d_b + n of one connected component (see :func:`sector_components`)
    and the dense Hermitian block H[index][:, index].  H has no elements
    between different components.
    """

    sectors: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class FullEnsemble:
    """Weighted pure-state ensemble representing a mixed initial state.

    ``subspace_entropy`` is the von Neumann entropy of the intended initial
    mixed state (log of the number of occupied microlevels); it is invariant
    under the exact unitary evolution and reused for the mutual-information
    series.
    """

    members: np.ndarray  # (d, m) unit columns
    weights: np.ndarray
    kind: str
    subspace_entropy: float

    def __post_init__(self):
        norms = np.linalg.norm(self.members, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise ConfigurationError("ensemble members must be normalized")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ConfigurationError("ensemble weights must be a distribution")


def sector_components(
    s_ops: list[np.ndarray], realization: BathRealization
) -> list[np.ndarray]:
    """Basis indices of the invariant subspaces of H, one ascending array each.

    Sector (k, i) is system level k times bath window i.  Sectors (k, i) and
    (l, j) are linked when some operator has S^a[k, l] != 0 and a nonzero
    B^a block between windows i and j; H_S (x) 1 and 1 (x) H_B act within a
    sector, so H maps every connected component of this graph into itself
    whatever the levels.  Components come in the order of their first index.
    """
    windows = realization.windows
    slices = window_slices(windows)
    d_s = len(s_ops[0])
    links = np.zeros((d_s * len(windows),) * 2, dtype=bool)
    for s_op, b_op in zip(s_ops, realization.matrices):
        b_links = np.array([[np.any(b_op[si, sj]) for sj in slices] for si in slices])
        links |= np.kron(np.asarray(s_op) != 0, b_links)
    n_comp, labels = connected_components(len(links), *np.nonzero(links))
    # sector k * n_win + i covers basis indices k * d_b + slices[i]
    basis_labels = np.repeat(labels, np.tile([w.volume for w in windows], d_s))
    return [np.flatnonzero(basis_labels == c) for c in range(n_comp)]


def check_dimension(d_s: int, windows: list[EnergyWindow], dim_cap: int):
    """Refuse a total dimension d_s * d_b above the cap, before anything of that size exists."""
    dim = d_s * bath_dimension(windows)
    if dim > dim_cap:
        raise DimensionCapExceeded(f"total dimension {dim} exceeds the cap {dim_cap}")


def assemble(
    levels: np.ndarray,
    s_ops: list[np.ndarray],
    realization: BathRealization,
    dim_cap: int = DEFAULT_DIM_CAP,
    components: list[np.ndarray] | None = None,
) -> FullModel:
    """Exact blocks of H on ``components`` (default: all of them).

    Re-invoked for every protocol segment.  Each block is built from the
    system levels and the B^a blocks between the component's windows, with
    the same floating-point operations as the dense Kronecker form, so a
    component spanning the whole basis reproduces the dense H exactly.
    """
    levels = np.asarray(levels, dtype=float)
    d_s = len(levels)
    check_dimension(d_s, realization.windows, dim_cap)
    d_b = bath_dimension(realization.windows)
    if components is None:
        components = sector_components(s_ops, realization)
    lam = realization.lam
    windows = realization.windows
    slices = window_slices(windows)
    micro = realization.microlevels()
    window_of = np.repeat(np.arange(len(windows)), [w.volume for w in windows])
    sectors = []
    for index in components:
        k_of, n_of = np.divmod(index, d_b)
        h = np.zeros((index.size, index.size), dtype=complex)
        h[np.diag_indices(index.size)] = levels[k_of] + micro[n_of]
        # (k, i, rows in the block) of every sector (k, i) of the component
        parts, row = [], 0
        for sector in np.unique(k_of * len(windows) + window_of[n_of]):
            k, i = divmod(int(sector), len(windows))
            parts.append((k, i, slice(row, row + windows[i].volume)))
            row += windows[i].volume
        for s_op, b_op in zip(s_ops, realization.matrices):
            s_op = np.asarray(s_op)
            for k, i, rows in parts:
                for l, j, cols in parts:
                    if s_op[k, l] != 0:
                        h[rows, cols] += lam * (s_op[k, l] * b_op[slices[i], slices[j]])
        sectors.append((index, h))
    return FullModel(sectors)


def prepare_initial(
    kind: str,
    windows: list[EnergyWindow],
    window_index: int,
    system_state,
    d_s: int,
    members: int = 20,
    seed: int | None = None,
    fill: str = "full",
) -> FullEnsemble:
    """Build the initial ensemble in one bath window.

    kind "basis-ensemble" takes one member per occupied microlevel with
    equal weights (exact representation of the projector state); kind
    "typicality" draws ``members`` Haar-random unit vectors from the span of
    the occupied product states.  fill "half" occupies only the lower half
    of the window's levels.
    """
    if kind not in ("basis-ensemble", "typicality"):
        raise ConfigurationError(f"unknown ensemble kind {kind!r}")
    if fill not in ("full", "half"):
        raise ConfigurationError(f"unknown fill {fill!r}")
    if not 0 <= window_index < len(windows):
        raise ConfigurationError(f"unknown window index {window_index}")
    d_b = bath_dimension(windows)
    sl = window_slices(windows)[window_index]
    occupied = np.arange(sl.start, sl.stop)
    if fill == "half":
        occupied = occupied[: len(occupied) // 2]
    n_occ = len(occupied)

    sys_vec = np.zeros(d_s, dtype=complex)
    if np.isscalar(system_state):
        sys_vec[int(system_state)] = 1.0
    else:
        sys_vec[:] = np.asarray(system_state, dtype=complex)
        sys_vec /= np.linalg.norm(sys_vec)

    dim = d_s * d_b
    if kind == "basis-ensemble":
        cols = np.zeros((dim, n_occ), dtype=complex)
        for m, i in enumerate(occupied):
            vec = np.zeros((d_s, d_b), dtype=complex)
            vec[:, i] = sys_vec
            cols[:, m] = vec.ravel()
        weights = np.full(n_occ, 1.0 / n_occ)
        return FullEnsemble(cols, weights, kind, float(np.log(n_occ)))

    if members < 1:
        raise ConfigurationError("typicality requires at least one member")
    rng = np.random.default_rng(seed)
    cols = np.zeros((dim, members), dtype=complex)
    for m in range(members):
        coeff = rng.standard_normal(n_occ) + 1j * rng.standard_normal(n_occ)
        coeff /= np.linalg.norm(coeff)
        vec = np.zeros((d_s, d_b), dtype=complex)
        vec[:, occupied] = np.outer(sys_vec, coeff)
        cols[:, m] = vec.ravel()
    weights = np.full(members, 1.0 / members)
    return FullEnsemble(cols, weights, kind, float(np.log(n_occ)))


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of one Hermitian block.

    LAPACK's MRRR driver zheevr (Dhillon, Parlett & Voemel, ACM TOMS 32, 533
    (2006)): about twice as fast here as the zheevd behind ``np.linalg.eigh``,
    with O(n) workspace instead of O(n^2).  ``h`` is not overwritten, and a
    non-finite block is refused.
    """
    return scipy.linalg.eigh(h, driver="evr")


class _SegmentPropagator:
    """Eigendecomposition-based propagator for one static Hamiltonian.

    Works sector by sector on d-vectors; amplitudes outside the given
    sectors must be zero, and they stay zero.
    """

    def __init__(self, sectors: list[tuple[np.ndarray, np.ndarray]], dim: int):
        # a sector covering the whole basis is addressed by a slice, so
        # gathering its amplitudes copies nothing
        self.eig = [
            (slice(None) if index.size == dim else index, *_eigh(h)) for index, h in sectors
        ]
        self.dim = dim

    def prepare(self, psi: np.ndarray) -> list[np.ndarray]:
        return [evecs.conj().T @ psi[index] for index, _, evecs in self.eig]

    def states(self, phi0: list[np.ndarray], dts: np.ndarray):
        """Yield the member matrix at each time offset in ``dts``, one product per sector.

        The phases e^{-iE dt} phi0 of all offsets are stacked side by side,
        shaped (d_c, len(dts) * m), so one matrix product per sector carries
        every offset at once.
        """
        m = phi0[0].shape[1]
        products = []
        for (_, evals, evecs), phi in zip(self.eig, phi0):
            stack = np.exp(-1j * evals[:, None] * dts)[:, :, None] * phi[:, None, :]
            products.append(evecs @ stack.reshape(evals.size, -1))
        for b in range(len(dts)):
            cols = slice(b * m, (b + 1) * m)
            psi = np.zeros((self.dim, m), dtype=complex)
            for (index, _, _), product in zip(self.eig, products):
                psi[index] = product[:, cols]
            yield psi


def _occupied(index: np.ndarray, members: np.ndarray) -> bool:
    """Whether any member has a nonzero amplitude on these basis indices."""
    return bool(np.any(members[index] != 0))


def _levels_key(levels: np.ndarray) -> tuple:
    return tuple(np.round(levels, 12))


def propagate(
    ensemble: FullEnsemble,
    system: SystemSpec,
    realization: BathRealization,
    t_grid: np.ndarray,
    dim_cap: int,
    occupied: list[np.ndarray],
    counts: dict | None = None,
):
    """Yield (t, levels in force, member matrix) along a grid through the protocol.

    ``occupied`` lists the sector components (see :func:`sector_components`)
    the members occupy; only those are assembled and diagonalized, once per
    distinct level set.  The segments are ``SystemSpec.grid_segments``, so a
    quench must sit on the grid; there the members are carried to the
    boundary and the Hamiltonian is switched.  Within a segment the grid
    points go in batches of at most ``BATCH_BYTES`` of stacked phases, one
    eigenvector product per sector for each batch and each quench carry
    (see :meth:`_SegmentPropagator.states`); a point on the segment's start
    gets the members as they are.  ``counts``, if given, gets
    the number of those products added to ``"propagate_products"`` and the
    side of every diagonalized block appended to ``"diag_dims"``.  The scheme is
    exact diagonalization, so norms are preserved to roundoff; a drift
    beyond 1e-8 aborts at the first grid point where it shows.
    """
    dim = system.dim * bath_dimension(realization.windows)
    members = ensemble.members.shape[1]
    batch = max(1, BATCH_BYTES // (16 * members * sum(c.size for c in occupied)))
    props: dict[tuple, _SegmentPropagator] = {}
    counts = {} if counts is None else counts
    counts.setdefault("propagate_products", 0)
    counts.setdefault("diag_dims", [])

    def propagator_for(levels: np.ndarray) -> _SegmentPropagator:
        key = _levels_key(levels)
        if key not in props:
            model = assemble(levels, system.couplings[0], realization, dim_cap, occupied)
            props[key] = _SegmentPropagator(model.sectors, dim)
            counts["diag_dims"] += [int(index.size) for index, _ in model.sectors]
        return props[key]

    psi, prop = ensemble.members, None
    for _, seg, t0, _, grid in system.grid_segments(t_grid):
        if prop is not None:
            # carry the members across the quench, then switch the Hamiltonian
            (psi,) = prop.states(phi0, np.array([t0 - seg_t0]))
            counts["propagate_products"] += len(prop.eig)
        prop = propagator_for(seg.levels)
        phi0, seg_t0 = prop.prepare(psi), t0
        if grid.size and abs(grid[0] - t0) < 1e-12:
            # the members themselves, not V V^dag psi: unoccupied windows stay exactly 0
            _check_norms(psi, grid[0])
            yield grid[0], seg.levels, psi
            grid = grid[1:]
        for start in range(0, grid.size, batch):
            times = grid[start : start + batch]
            counts["propagate_products"] += len(prop.eig)
            for t, psi_t in zip(times, prop.states(phi0, times - seg_t0)):
                _check_norms(psi_t, t)
                yield t, seg.levels, psi_t


def _check_norms(psi: np.ndarray, t: float):
    norms = np.linalg.norm(psi, axis=0)
    drift = np.max(np.abs(norms - 1.0))
    # negated so that a NaN drift fails too
    if not drift <= NORM_TOL:
        raise NumericalFailure(f"member norm drifted by {drift:.2e} at t={t:g}")


def coarse_grain(
    psi: np.ndarray,
    weights: np.ndarray,
    d_s: int,
    windows: list[EnergyWindow],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ensemble-averaged populations p(eps_k, E) and blocks rho_S(E).

    rho_S(E) = tr_B[rho (1 (x) Pi_E)]; its trace is the window probability,
    so the populations sum to one.
    """
    d_b = bath_dimension(windows)
    m = psi.shape[1]
    tensor = psi.reshape(d_s, d_b, m)
    blocks = []
    pops = np.zeros((d_s, len(windows)))
    for j, sl in enumerate(window_slices(windows)):
        part = tensor[:, sl, :]
        block = np.einsum("aim,bim,m->ab", part, part.conj(), weights)
        blocks.append(block)
        pops[:, j] = np.real(np.diag(block))
    return pops, blocks


def quantum_mutual_information(
    psi: np.ndarray,
    weights: np.ndarray,
    d_s: int,
    d_b: int,
    initial_spectrum_entropy: float,
) -> float:
    """I = S(rho_S) + S(rho_B) - S(rho) for the ensemble-averaged state.

    With A = sqrt(w) psi arranged as a d_b x (d_s m) matrix, rho_B = A A^dag.
    When d_s m <= d_b the Gram matrix G = A^dag A, which has the same nonzero
    spectrum (Schmidt decomposition), gives S(rho_B), and rho_S is the sum
    over members of G's d_s x d_s diagonal blocks, transposed; otherwise
    rho_B is one matrix product.  So the matrix diagonalized has side
    min(d_b, d_s m).  S(rho) is constant under the exact unitary evolution
    and is taken from the initial spectrum rather than diagonalized.
    """
    tensor = psi.reshape(d_s, d_b, -1) * np.sqrt(weights)
    m = tensor.shape[2]
    # columns (k, member): A[n, k * m + mu] = sqrt(w_mu) psi[k * d_b + n, mu]
    a = tensor.transpose(1, 0, 2).reshape(d_b, d_s * m)
    if d_s * m <= d_b:
        gram = a.conj().T @ a
        # rho_S[k, l] = sum_mu G[(l, mu), (k, mu)]
        rho_s = np.einsum("lmkm->kl", gram.reshape(d_s, m, d_s, m))
        s_b = _entropy(gram)
    else:
        rho_s = np.einsum("kim,lim->kl", tensor, tensor.conj())
        s_b = _entropy(a @ a.conj().T)
    return float(_entropy(rho_s) + s_b - initial_spectrum_entropy)


def _entropy(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    w = np.clip(w.real, 0.0, None)
    w = w[w > 0]
    return float(-np.sum(w * np.log(w)))


def run_exact(
    system: SystemSpec,
    realization: BathRealization,
    ensemble: FullEnsemble,
    t_grid: np.ndarray,
    *,
    mi_stride: int = 0,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> Trajectory:
    """Full benchmark run: propagate, coarse-grain, optionally track mutual information.

    ``mi_stride`` > 0 samples the quantum mutual information every that many
    grid points; each sample diagonalizes one matrix of side
    min(d_b, d_s * members) (see :func:`quantum_mutual_information`).
    ``meta`` records ``mi_samples`` and that side as ``mi_gram_dim`` (0
    without samples), as ``propagate_products`` the number of batched
    eigenvector products of the walk and as ``diag_dims`` the side of every
    block it diagonalized (see :func:`propagate`).
    """
    if system.n_baths != 1:
        raise ConfigurationError("the exact benchmark supports a single bath")
    t_grid = np.asarray(t_grid, dtype=float)
    if ensemble.kind == "typicality" and ensemble.members.shape[1] < 20:
        warnings.warn(
            "fewer than 20 typicality members; sampling error "
            f"~{1.0 / np.sqrt(ensemble.members.shape[1] * np.exp(ensemble.subspace_entropy)):.1e} "
            "per population",
            stacklevel=2,
        )

    d_s = system.dim
    d_b = bath_dimension(realization.windows)
    # the split depends on S and B only, so it holds for every segment
    components = sector_components(system.couplings[0], realization)
    occupied = [c for c in components if _occupied(c, ensemble.members)]
    n_win = len(realization.windows)

    pops_out = np.zeros((t_grid.size, d_s * n_win))
    levels_out = np.zeros((t_grid.size, d_s))
    blocks_out = {(j,): np.zeros((t_grid.size, d_s, d_s), dtype=complex) for j in range(n_win)}
    mi_times, mi_vals = [], []
    counts: dict[str, int] = {}
    walk = propagate(ensemble, system, realization, t_grid, dim_cap, occupied, counts)
    for n, (t, levels, psi) in enumerate(walk):
        pops, blocks = coarse_grain(psi, ensemble.weights, d_s, realization.windows)
        # trajectory columns: all levels of window 0, then window 1, ...
        pops_out[n] = pops.T.ravel()
        levels_out[n] = levels
        for j in range(n_win):
            blocks_out[(j,)][n] = blocks[j]
        if mi_stride and n % mi_stride == 0:
            mi_times.append(t)
            mi_vals.append(
                quantum_mutual_information(
                    psi, ensemble.weights, d_s, d_b, ensemble.subspace_entropy
                )
            )

    joint_index = [(k, (j,)) for j in range(n_win) for k in range(d_s)]
    return Trajectory(
        solver="exact",
        times=t_grid,
        joint_index=joint_index,
        populations=pops_out,
        level_energies=levels_out,
        bath_centers=[realization.centers],
        bath_volumes=[realization.volumes.astype(float)],
        blocks=blocks_out,
        mi=np.array(mi_vals) if mi_vals else None,
        mi_times=np.array(mi_times) if mi_times else None,
        meta={
            "ensemble": ensemble.kind,
            "members": int(ensemble.members.shape[1]),
            "dimension": d_s * d_b,
            "sector_dims": [int(c.size) for c in components],
            # one entry per diagonalized block, once per distinct level set
            "diag_dims": counts["diag_dims"],
            "propagate_products": counts["propagate_products"],
            "mi_samples": len(mi_vals),
            "mi_gram_dim": min(d_b, d_s * ensemble.members.shape[1]) if mi_vals else 0,
        },
    )
