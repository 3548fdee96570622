"""Exact benchmark on the full system (x) bath Hilbert space.

Honest brute force at desk scale: the total Hamiltonian splits into the
invariant subspaces spanned by connected (system level, bath window)
sectors.  The initial state is the microcanonical |eps><eps| (x) Pi / n,
Pi the projector on the n occupied levels of one bath window, represented
exactly as a pure-state ensemble with one member |eps> (x) |i> per
occupied level i.  Every member lies in sector (eps, E_0), so the state
occupies one invariant subspace, and only that block is assembled densely
and diagonalized, once per protocol segment.  The coarse-grained
populations and blocks, the same trajectory contract as the master-equation
solvers, are quadratic forms in the phases e^{-iEt} of each segment's
eigenbasis (the energy-eigenbasis evaluation of <O(t)>, D'Alessio et al.,
Adv. Phys. 65, 239 (2016)), so their cost per grid point does not grow with
the number of members; member states are built only where something reads
them: the quench carries and the mutual-information samples.
:func:`run_exact` does all of this in one pass over the protocol segments
the time grid reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy

from .bath import BathRealization, EnergyWindow, bath_dimension, window_slices
from .emme import SystemSpec, connected_components
from .errors import ConfigurationError, DimensionCapExceeded, NumericalFailure
from .rates import FREQUENCY_DIGITS
from .trajectory import Trajectory

DEFAULT_DIM_CAP = 5000
# occupied levels of the initial window (see prepare_initial), the default first
FILLS = ("full", "half")
NORM_TOL = 1e-8
# bytes of one batch's phase stack e^{-iE dt} phi0 (and of its product with
# the eigenvectors): wide enough that one product streams the eigenvector
# matrix once for several grid points, small enough to stay out of peak RSS
BATCH_BYTES = 2 * 2**20
# the quadratic-form route (see _SegmentPropagator.blocks): bytes of one
# column chunk of a cell matrix, small because four such buffers are alive at
# once and at small d_c nothing larger sets the peak RSS; and bytes of the
# phases e^{-iEt} of one batch of grid points: every batch forms each cell
# anew, so a batch spans as many points as fit, in the presets a whole segment
FORM_BYTES = 2**19
PHASE_BYTES = 16 * 2**20


@dataclass
class FullEnsemble:
    """The microcanonical initial state |eps><eps| (x) Pi / n as a pure-state ensemble.

    |eps> is system level ``level`` of ``d_s``, and Pi projects onto the
    ``occupied`` bath levels i, n of them; the members are |eps> (x) |i>,
    one per occupied level with weight 1/n, so they represent the mixed
    state exactly.  Its von Neumann entropy, log n, is invariant under the
    exact unitary evolution and reused for the mutual-information series.
    The (d_s d_b) x n member matrix is built only on request (see
    :meth:`members`).
    """

    level: int
    d_s: int
    occupied: np.ndarray  # ascending bath basis indices
    d_b: int

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.occupied.size, 1.0 / self.occupied.size)

    @property
    def subspace_entropy(self) -> float:
        return float(np.log(self.occupied.size))

    @cached_property
    def rows(self) -> np.ndarray:
        """The basis index level * d_b + i of each member's one nonzero amplitude, ascending."""
        return self.level * self.d_b + self.occupied

    def members(self) -> np.ndarray:
        """The member matrix, one column |eps> (x) |i> per occupied level i."""
        cols = np.zeros((self.d_s * self.d_b, self.occupied.size), dtype=complex)
        cols[self.rows, np.arange(self.occupied.size)] = 1.0
        return cols


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
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact blocks of H = H_S (x) 1 + lam sum_a S^a (x) B^a + 1 (x) H_B on ``components``.

    Returns one (index, block) pair per component (default: all of them,
    see :func:`sector_components`): its ascending basis indices k * d_b + n
    and the dense Hermitian block H[index][:, index].  H has no elements
    between different components.  Re-invoked for every protocol segment.
    Each block is built from the system levels and the B^a blocks between
    the component's windows, with the same floating-point operations as the
    dense Kronecker form, so a component spanning the whole basis reproduces
    the dense H exactly.
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
    return sectors


def prepare_initial(
    windows: list[EnergyWindow],
    window_index: int,
    level: int,
    d_s: int,
    fill: str = FILLS[0],
) -> FullEnsemble:
    """The initial state |eps><eps| (x) Pi / n in one bath window.

    |eps> is system level ``level``; Pi projects onto the window's levels,
    or with fill "half" onto the lower half of them.
    """
    if fill not in FILLS:
        raise ConfigurationError(f"unknown fill {fill!r}")
    if not 0 <= window_index < len(windows):
        raise ConfigurationError(f"unknown window index {window_index}")
    if not 0 <= level < d_s:
        raise ConfigurationError(f"unknown system level {level}")
    sl = window_slices(windows)[window_index]
    occupied = np.arange(sl.start, sl.stop)
    if fill == "half":
        occupied = occupied[: len(occupied) // 2]
    if occupied.size == 0:
        raise ConfigurationError(f"window {window_index} has no level to occupy with fill {fill!r}")
    return FullEnsemble(level, d_s, occupied, bath_dimension(windows))


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of one Hermitian block.

    LAPACK's MRRR driver zheevr (Dhillon, Parlett & Voemel, ACM TOMS 32, 533
    (2006)): about twice as fast here as the zheevd behind ``np.linalg.eigh``,
    with O(n) workspace instead of O(n^2).  ``h`` is not overwritten, and a
    non-finite block is refused.
    """
    return scipy.linalg.eigh(h, driver="evr")


class _SegmentPropagator:
    """Eigendecomposition-based propagator for one static Hamiltonian block.

    Works on d-vectors whose amplitudes outside the block's basis indices
    ``index`` are zero; they stay zero.
    """

    def __init__(self, index: np.ndarray, h: np.ndarray, dim: int):
        # a block covering the whole basis is addressed by a slice, so
        # scattering its states is a plain copy; the eigenvectors are kept
        # row-major, so the rows of one sector state are one contiguous block
        self.evals, evecs = _eigh(h)
        self.evecs = np.ascontiguousarray(evecs)
        self.index = slice(None) if index.size == dim else index
        self.dim = dim

    def gather(self, ensemble: FullEnsemble) -> np.ndarray:
        """V^dag psi for the members of ``ensemble``, without a product.

        Member i is |eps> (x) |i>, whose one nonzero amplitude 1 sits in row
        ``ensemble.rows[i]``, which lies in the block, so V^dag psi is
        conj(V) at that row: one row gather of V.
        """
        rows = ensemble.rows
        if not isinstance(self.index, slice):
            rows = np.searchsorted(self.index, rows)
        phi = np.zeros((self.evals.size, rows.size), dtype=complex)
        # added to zeros like a product with the unit amplitudes: a -0.0 of conj reads +0.0
        phi += self.evecs[rows].T.conj()
        return phi

    def prepare(self, psi: np.ndarray) -> np.ndarray:
        """V^dag psi, as conj(V^T conj(psi)), which reads V without a conjugated copy.

        ``psi`` holds the member matrix's rows inside the block, its other
        rows being zero.
        """
        phi = self.evecs.T @ psi.conj()
        return np.conjugate(phi, out=phi)

    def states(self, phi0: np.ndarray, dts: np.ndarray):
        """Yield the member matrix at each time offset in ``dts``, from one product.

        The phases e^{-iE dt} phi0 of all offsets are stacked side by side,
        shaped (d_c, len(dts) * m), so one matrix product carries every
        offset at once.
        """
        m = phi0.shape[1]
        stack = np.exp(-1j * self.evals[:, None] * dts)[:, :, None] * phi0[:, None, :]
        product = self.evecs @ stack.reshape(self.evals.size, -1)
        for b in range(len(dts)):
            psi = np.zeros((self.dim, m), dtype=complex)
            psi[self.index] = product[:, b * m : (b + 1) * m]
            yield psi

    def blocks(self, phi0: np.ndarray, weights: np.ndarray, dts: np.ndarray,
               cells: list, out: np.ndarray) -> float:
        """Write the coarse-grained blocks at each offset into ``out`` (len(dts), n_win, d_s, d_s).

        With phi(t) = e^{-iEt} over the block's eigenvalues, R = Phi0 W
        Phi0^dag and V_(k,j) the eigenvector rows of sector state (k, j),
        every block entry is a quadratic form in the phases:

            rho_S(E_j)_kl(t) = phi(t)^T [R o (V_(k,j)^T conj(V_(l,j)))] conj(phi(t)),

        for a cell (j, k, l) of :func:`_cells`.  So a batch of offsets costs
        one (T x d_c)(d_c x d_c) product per cell, whatever the number of
        members.  The cell matrix is formed by column chunks of
        ``FORM_BYTES``, one chunk of one cell at a time, so no d_c x d_c
        matrix besides V is ever held.  For k = l it is Hermitian,
        R o conj(V_(k,j)^dag V_(k,j)), and only its upper triangle enters
        (the diagonal halved, twice the real part), which halves the work.
        Those Grams sum to V^dag V; the largest deviation of the sum from
        the identity is returned.
        """
        amp = phi0 * np.sqrt(weights)
        values = {cell[:3]: np.zeros(dts.size, dtype=complex) for cell in cells}
        deviation = 0.0
        v = self.evecs
        d_c = v.shape[0]
        points = max(2, PHASE_BYTES // (16 * d_c))
        # at least two offsets per batch: a one-row product takes BLAS's
        # matrix-vector route, whose rounding differs, and a point's value
        # should not depend on how the grid is batched
        n_batches = max(1, min(-(-dts.size // points), dts.size // 2))
        width = max(1, FORM_BYTES // (16 * d_c))
        # the Hermitian cells read only the rows of R down to the chunk's end
        upper = all(k == l for _, k, l, _, _ in cells)
        for batch in np.array_split(np.arange(dts.size), n_batches):
            phases = np.exp(-1j * dts[batch, None] * self.evals)
            for lo in range(0, d_c, width):
                hi = min(lo + width, d_c)
                chunk = np.arange(hi - lo)
                r = amp[: hi if upper else None] @ amp[lo:hi].conj().T
                gram = np.zeros((hi, hi - lo), dtype=complex)
                for j, k, l, rows_k, rows_l in cells:
                    hermitian = k == l
                    top = hi if hermitian else d_c
                    m = v[rows_k, :top].T @ v[rows_l, lo:hi].conj()
                    if hermitian:
                        gram += m
                    m *= r[:top]
                    if hermitian:
                        m[lo:hi][np.tri(hi - lo, k=-1, dtype=bool)] = 0.0
                        m[lo + chunk, chunk] *= 0.5
                    form = phases[:, :top] @ m
                    form *= np.conj(phases[:, lo:hi])
                    form = form.sum(axis=1)
                    values[j, k, l][batch] += 2 * form.real if hermitian else form
                gram[lo + chunk, chunk] -= 1.0
                # np.maximum keeps a NaN
                deviation = np.maximum(deviation, np.max(np.abs(gram)))
        for (j, k, l), value in values.items():
            out[:, j, k, l] = value
            out[:, j, l, k] = value.conj()
        return float(deviation)


def _cells(index: np.ndarray, d_b: int, windows: list[EnergyWindow]) -> list[tuple]:
    """The quadratic-form cells of the block with ascending basis indices ``index``.

    A cell is a window j and levels k <= l whose sector states (k, j) and
    (l, j) both lie in the block: a tuple (j, k, l, rows of (k, j), rows of
    (l, j)); the rows of one sector state are contiguous in ``index``.
    """
    n_win = len(windows)
    window_of = np.repeat(np.arange(n_win), [w.volume for w in windows])
    # sector key k * n_win + j of every row, ascending with the rows
    keys = index // d_b * n_win + window_of[index % d_b]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    rows = {divmod(int(keys[start]), n_win): slice(int(start), int(stop))
            for start, stop in zip(starts, [*starts[1:], index.size])}
    return [(j, k, l, rows_k, rows_l) for (k, j), rows_k in rows.items()
            for (l, i), rows_l in rows.items() if i == j and k <= l]


def _check_drift(norms: np.ndarray, t: float):
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

    Every member |eps> (x) |i> lies in sector (eps, E_0), so the members
    occupy one component of :func:`sector_components`, and only that block
    is assembled and diagonalized, once per distinct level set.  The
    segments are ``SystemSpec.grid_segments``, so a quench must sit on the
    grid; there the members are carried to the boundary and the Hamiltonian
    is switched.  A point on a segment's start is coarse-grained from the
    members as they are (see :func:`coarse_grain`), so windows they do not
    occupy hold exactly 0, and before the segment is diagonalized: only the
    carried members' rows inside the block are held through it (see
    :meth:`_SegmentPropagator.prepare`), and the initial members are
    projected by a row gather (see :meth:`_SegmentPropagator.gather`).
    Elsewhere populations and blocks come from quadratic forms in the
    segment's eigenbasis (see :meth:`_SegmentPropagator.blocks`), whose cost
    per grid point does not grow with the member count.  Member matrices
    are built only for the quench carries and the mutual-information
    samples, every ``mi_stride`` > 0 grid points, in batches of at most
    ``BATCH_BYTES`` of stacked phases, one eigenvector product each (see
    :meth:`_SegmentPropagator.states`); each sample diagonalizes one matrix
    of side min(d_b, d_s * members) (see :func:`quantum_mutual_information`).

    The scheme is exact diagonalization, so norms are preserved to roundoff:
    a member norm off 1 by more than ``NORM_TOL``, checked at each segment
    start and on the members' eigenbasis amplitudes, aborts the segment; a
    block trace off the weighted squared norms aborts at the first grid
    point where it shows, and a Gram sum V^dag V off the identity aborts
    the segment.  ``meta`` records
    ``mi_samples`` and that side as ``mi_gram_dim`` (0 without samples), as
    ``propagate_products`` the number of explicit eigenvector products (the
    quench carries and the batches of MI samples), as ``qf_cells`` the
    number of quadratic-form cells per segment and as ``diag_dims`` the side
    of the block at every diagonalization.
    """
    if system.n_baths != 1:
        raise ConfigurationError("the exact benchmark supports a single bath")
    t_grid = np.asarray(t_grid, dtype=float)
    d_s = system.dim
    windows = realization.windows
    n_win = len(windows)
    d_b = bath_dimension(windows)
    weights = ensemble.weights
    # the split depends on S and B only, so it holds for every segment
    components = sector_components(system.couplings[0], realization)
    sector = next(c for c in components if ensemble.rows[0] in c)
    cells = _cells(sector, d_b, windows)
    batch = max(1, BATCH_BYTES // (16 * weights.size * sector.size))
    psi = ensemble.members()

    blocks = np.zeros((t_grid.size, n_win, d_s, d_s), dtype=complex)
    sampled = np.zeros(t_grid.size, dtype=bool)
    if mi_stride:
        sampled[::mi_stride] = True
    mi_vals = []
    props: dict[tuple, _SegmentPropagator] = {}
    products = 0

    def mutual_information(psi: np.ndarray) -> float:
        return quantum_mutual_information(psi, weights, d_s, d_b, ensemble.subspace_entropy)

    prop, end = None, 0
    for _, seg, t0, _, grid in system.grid_segments(t_grid):
        carried = prop is not None
        if carried:
            # carry the members across the quench
            (psi,) = prop.states(phi0, np.array([t0 - seg_t0]))
            products += 1
        lo, end = end, end + grid.size
        if grid.size and abs(grid[0] - t0) < 1e-12:
            # the members themselves, not V V^dag psi: unoccupied windows stay exactly 0
            _check_drift(np.linalg.norm(psi, axis=0), grid[0])
            blocks[lo] = coarse_grain(psi, weights, d_s, windows)[1]
            if sampled[lo]:
                mi_vals.append(mutual_information(psi))
            grid, lo = grid[1:], lo + 1
        # no member matrix is held during a diagonalization: carried members
        # keep only their rows inside the block, and the initial ones are
        # dropped, since they enter through the ensemble (see
        # _SegmentPropagator.gather)
        psi = psi[sector] if carried else None
        key = tuple(np.round(seg.levels, FREQUENCY_DIGITS))
        if key not in props:
            # no reference to the Hamiltonian block outlives its diagonalization
            props[key] = _SegmentPropagator(
                *assemble(seg.levels, system.couplings[0], realization, dim_cap, [sector])[0],
                d_s * d_b)
        prop = props[key]
        phi0 = prop.prepare(psi) if carried else prop.gather(ensemble)
        seg_t0 = t0
        if not grid.size:
            continue
        dts = grid - seg_t0
        deviation = prop.blocks(phi0, weights, dts, cells, blocks[lo:end])
        if not deviation <= NORM_TOL:
            raise NumericalFailure(f"eigenvectors off unitary by {deviation:.2e} "
                                   f"in the segment from t={t0:g}")
        # eigh's eigenvalues are real, so every point keeps the member norms of phi0
        norms2 = np.sum(np.abs(phi0) ** 2, axis=0)
        _check_drift(np.sqrt(norms2), t0)
        trace_drift = np.abs(np.einsum("tjkk->t", blocks[lo:end]).real - norms2 @ weights)
        # negated so that a NaN fails too
        bad = np.flatnonzero(~(trace_drift <= NORM_TOL))
        if bad.size:
            raise NumericalFailure(f"block trace off the member norms by "
                                   f"{trace_drift[bad[0]]:.2e} at t={grid[bad[0]]:g}")
        wanted = dts[sampled[lo:end]]
        for start in range(0, wanted.size, batch):
            products += 1
            mi_vals += map(mutual_information, prop.states(phi0, wanted[start : start + batch]))

    return Trajectory(
        solver="exact",
        times=t_grid,
        keys=[(j,) for j in range(n_win)],
        populations=np.einsum("tjkk->tjk", blocks).real.reshape(t_grid.size, -1),
        level_energies=np.stack([seg.levels for seg in system.protocol])[
            system.segment_index(t_grid)],
        bath_centers=[realization.centers],
        bath_volumes=[realization.volumes.astype(float)],
        blocks={(j,): np.ascontiguousarray(blocks[:, j]) for j in range(n_win)},
        mi=np.array(mi_vals) if mi_vals else None,
        mi_times=t_grid[sampled] if mi_vals else None,
        meta={
            "members": int(weights.size),
            "dimension": d_s * d_b,
            "sector_dims": [int(c.size) for c in components],
            # one entry per diagonalization, once per distinct level set
            "diag_dims": [sector.size] * len(props),
            "propagate_products": products,
            "qf_cells": len(cells),
            "mi_samples": len(mi_vals),
            "mi_gram_dim": min(d_b, d_s * weights.size) if mi_vals else 0,
        },
    )
