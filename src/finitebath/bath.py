"""Coarse-grained finite baths.

A bath is defined purely by a layout of non-overlapping energy windows
[E - delta/2, E + delta/2), each holding ``volume`` microscopic levels, plus
the statistics of a random system-bath coupling operator.  Energies are
measured in units of the system splitting and hbar = k_B = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass
class EnergyWindow:
    """One coarse-grained energy window of the bath spectrum.

    ``microlevels`` is populated by :func:`build_spectrum`; until then it may
    be None.  The window projector is represented implicitly by the index
    range of its microlevels in the concatenated bath basis.
    """

    center: float
    width: float
    volume: int
    microlevels: np.ndarray | None = None

    @property
    def lo(self) -> float:
        return self.center - self.width / 2.0

    @property
    def hi(self) -> float:
        return self.center + self.width / 2.0


# the kinds of microscopic spectrum, the default first
SPECTRUM_KINDS = ("regular", "random-uniform")


@dataclass
class BathSpec:
    """Window layout and the kind of microscopic spectrum to generate.

    spectrum_kind is "regular" (equidistant grid inside each window) or
    "random-uniform" (i.i.d. uniform levels inside each window, sorted).
    Every check runs here, so a spec that constructs can always be built
    into a spectrum, whether or not a route ever does.
    """

    windows: list[EnergyWindow]
    spectrum_kind: str = SPECTRUM_KINDS[0]
    seed: int | None = None

    def __post_init__(self):
        if self.spectrum_kind not in SPECTRUM_KINDS:
            raise ConfigurationError(
                f"unknown spectrum kind {self.spectrum_kind!r}"
            )
        if self.spectrum_kind == "random-uniform" and self.seed is None:
            raise ConfigurationError("random-uniform spectrum requires a seed")
        for w in self.windows:
            if w.volume < 1:
                raise ConfigurationError(f"window at {w.center} has volume < 1")
        centers = [w.center for w in self.windows]
        if any(c2 <= c1 for c1, c2 in zip(centers, centers[1:])):
            raise ConfigurationError("window centers must be strictly increasing")
        for w1, w2 in zip(self.windows, self.windows[1:]):
            if w2.lo < w1.hi:
                raise ConfigurationError(
                    f"windows at {w1.center} and {w2.center} overlap"
                )


@dataclass
class CouplingSpec:
    """Statistics of one random coupling block structure.

    The coupling matrix has entries b(E,E') + c(E_i,E_j) on every microlevel
    pair connecting two distinct windows, where c is a zero-mean complex
    random variable of variance a^2 (real and imaginary parts independent
    with variance a^2/2 each).  Block-diagonal entries are zero.

    ``block_mean`` is either a complex constant applied to every ordered
    window pair or a dict keyed by ordered window-index pairs (i, j); only
    i < j entries need to be given, the mirror value is the conjugate.
    """

    lam: float
    block_mean: complex | dict[tuple[int, int], complex] = 0.0
    variance: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.variance < 0:
            raise ConfigurationError("coupling variance a^2 must be >= 0")
        if isinstance(self.block_mean, dict):
            for (i, j), v in list(self.block_mean.items()):
                mirror = self.block_mean.get((j, i))
                if mirror is not None and mirror != np.conj(v):
                    raise ConfigurationError(
                        f"block mean table not Hermitian-consistent at {(i, j)}"
                    )

    def block_mean_value(self, i: int, j: int) -> complex:
        """b(E_i, E_j) for the ordered window pair (i, j), i != j."""
        if isinstance(self.block_mean, dict):
            if (i, j) in self.block_mean:
                return complex(self.block_mean[(i, j)])
            if (j, i) in self.block_mean:
                return complex(np.conj(self.block_mean[(j, i)]))
            return 0.0
        # Hermiticity: the block below the diagonal carries the conjugate
        return complex(self.block_mean) if i < j else complex(np.conj(self.block_mean))

    def block_means(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``block_mean_value`` for each ordered window pair (lo[k], hi[k]), as one array."""
        if isinstance(self.block_mean, dict):
            return np.array([self.block_mean_value(i, j) for i, j in zip(lo, hi)], dtype=complex)
        b = complex(self.block_mean)
        return np.where(np.asarray(lo) < np.asarray(hi), b, b.conjugate())


@dataclass
class BathRealization:
    """A bath spectrum together with sampled coupling matrices.

    ``matrices[alpha]`` is the Hermitian coupling operator for operator index
    alpha on the concatenated microlevel basis, with zero block-diagonal part
    so that its microcanonical average vanishes in every window.  Immutable
    by convention once constructed.
    """

    windows: list[EnergyWindow]
    couplings: list[CouplingSpec]
    matrices: list[np.ndarray] = field(repr=False, default_factory=list)

    @property
    def lam(self) -> float:
        return self.couplings[0].lam

    @property
    def centers(self) -> np.ndarray:
        return np.array([w.center for w in self.windows])

    @property
    def volumes(self) -> np.ndarray:
        # float64: exact below 2**53, and products and logs cannot overflow
        return np.array([w.volume for w in self.windows], dtype=float)

    @property
    def delta(self) -> float:
        return self.windows[0].width

    def microlevels(self) -> np.ndarray:
        return np.concatenate([w.microlevels for w in self.windows])


def window_slices(windows: list[EnergyWindow]) -> list[slice]:
    """Index ranges of each window in the concatenated microlevel basis."""
    slices = []
    offset = 0
    for w in windows:
        slices.append(slice(offset, offset + w.volume))
        offset += w.volume
    return slices


def bath_dimension(windows: list[EnergyWindow]) -> int:
    return sum(w.volume for w in windows)


def build_spectrum(spec: BathSpec) -> list[EnergyWindow]:
    """Populate the microlevels of every window of a bath spec.

    Regular spectra use the grid E_i = center - delta/2 + i*delta/V for
    i = 0..V-1.  Random-uniform spectra draw V i.i.d. uniform samples in
    [center - delta/2, center + delta/2) and sort them; the result is
    deterministic for a given seed.
    """
    rng = np.random.default_rng(spec.seed)
    out = []
    for w in spec.windows:
        if spec.spectrum_kind == "regular":
            levels = w.lo + np.arange(w.volume) * (w.width / w.volume)
        else:
            levels = np.sort(rng.uniform(w.lo, w.hi, size=w.volume))
        out.append(EnergyWindow(w.center, w.width, w.volume, levels))
    return out


def sample_coupling(
    couplings: CouplingSpec | list[CouplingSpec],
    windows: list[EnergyWindow],
) -> BathRealization:
    """Draw the random coupling matrices for a bath spectrum.

    Upper blocks (window i < window j) get entries b(E_i,E_j) + c with c a
    complex Gaussian of variance a^2; lower blocks are fixed by Hermiticity
    and block-diagonal entries stay zero, which makes the microcanonical
    average of the result vanish exactly in every window.
    """
    if isinstance(couplings, CouplingSpec):
        couplings = [couplings]
    lams = {c.lam for c in couplings}
    if len(lams) > 1:
        raise ConfigurationError(
            "all coupling operators of one bath must share the energy scale lambda"
        )
    slices = window_slices(windows)
    dim = bath_dimension(windows)
    matrices = []
    for spec in couplings:
        rng = np.random.default_rng(spec.seed)
        sigma = np.sqrt(spec.variance / 2.0)
        mat = np.zeros((dim, dim), dtype=complex)
        for i in range(len(windows)):
            for j in range(i + 1, len(windows)):
                shape = (windows[i].volume, windows[j].volume)
                block = np.full(shape, spec.block_mean_value(i, j), dtype=complex)
                if spec.variance > 0:
                    block = block + sigma * (
                        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    )
                mat[slices[i], slices[j]] = block
                mat[slices[j], slices[i]] = block.conj().T
        matrices.append(mat)
    return BathRealization(windows, list(couplings), matrices)
