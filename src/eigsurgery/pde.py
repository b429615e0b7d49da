"""Finite-difference torsion and eigenvalue solvers on rasterized domains.

The Dirichlet Laplacian is the standard (2N+1)-point stencil restricted to
the occupied cells (Dirichlet conditions by node exclusion): the matrix has
``2N / h^2`` on the diagonal and ``-1 / h^2`` for each occupied face
neighbor.  With this convention domain monotonicity is an exact
matrix-theoretic fact - removing cells yields a principal submatrix, so the
torsion function decreases cell-wise (M-matrix comparison) and every
eigenvalue increases (Cauchy interlacing).
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import threading
from contextlib import ContextDecorator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg
from scipy import special
from scipy.linalg import LinAlgError, cython_blas, cython_lapack

from eigsurgery.domain import (
    EmptyDomainError, GridDomain, Strip, face_pairs, unit_ball_volume
)

DEFAULT_CG_TOL = 1e-10  # bound on the torsion solve's relative residual
DEFAULT_EIG_TOL = 1e-8  # the eigensolver's relative tolerance
_DENSE_CUTOFF = 400  # below this many cells the dense eigensolver is used
_SHIFT_FACTOR = 10  # the certificate's shift sits 10 tol below lambda_k
_CERTIFY_ROUNDS = 3  # Lanczos runs before a failed certificate raises
_FLOOR_FRACTION = 0.99  # Lanczos about sigma0 shifts to 0.99 x the lambda_1 floor
# On a raster whose band has at most this many entries, (b + 1) n for
# bandwidth b and n cells, factor_laplacian factors a band Cholesky; above
# it, a sparse LDL^T (one minimum-degree order).  That one factor serves the
# torsion solve, Lanczos and the certificate's count.  A band factorization
# and each dpbtf2 count cost about n b^2 flops and a band solve 4 n b;
# SuperLU's fill grows more slowly, so the sparse inverse wins on large wide
# rasters.  Timed over both corpora at h = 1/96, 1/112 and 1/128 (90 rasters,
# best of 3, k = 5, one BLAS thread), with every raster below a bound T on
# the band side: eigensolves without a factor took 6.44, 6.15, 6.20 and
# 6.59 s in all at T = 0.6, 1.2, 2.0 and 3.0 M entries, solve_raster 7.65,
# 7.11, 6.72 and 6.63 s.  The bandwidth alone does not separate the sides: at
# b = 108 the 1/96 ball (1.0 M entries) is faster on the band and the 1/128
# dumbbells (2.0 M) on the sparse LDL^T.  At 1/256, dumbbell-0 (15.9 M) takes
# 0.42 s for a band count against 0.19 s for SuperLU's certificate.  These
# timings predate the reversed-order factor and its faster band solves (see
# Factor), which favour the band side, and the bound's choosing the torsion's
# kind too, which spares a raster above it a band; the bound is not refitted
# here.
_BAND_ENTRIES = 1_200_000
# On the band side, Lanczos runs on its own band of A - sigma0 I where the
# bandwidth b is at most this, even when a torsion band at 0 is handed in.
# A band factorization costs about n b^2 flops and one ARPACK step about
# n (4 b + 4 ncv), with ncv = 20 for k <= 9, so refactoring at sigma0 costs
# b^2 / (4 (b + 20)) steps: at most 2.5 at b = 20, about 10 at b = 54 (the
# 1/64 dumbbells).  On the narrow tubes the shift saved 26-127 steps each;
# on dumbbells, balls, squares and blobs it saved none.  At the same sigma0
# the band beat the sparse LDL^T: solve_raster(k=5) on the 1/64 tubes took
# 4.6-8.4 ms against 6.0-9.6 ms (one BLAS thread), and band solves release
# the GIL where SuperLU's hold it.  These timings predate the reversed-order
# factor (see Factor), whose solves are cheaper while a factorization
# costs about 7% more; the bound is not refitted here.
_NARROW_BAND = 20

logger = logging.getLogger(__name__)

__all__ = [
    "Factor",
    "Spectrum",
    "TorsionField",
    "ball_lambda1",
    "build_laplacian",
    "eigenvalues",
    "factor_laplacian",
    "factored_torsion",
    "gamma_distance",
    "save_field",
    "save_spectrum",
    "solve_raster",
    "solve_torsion",
    "strip_max",
    "torsion_energy",
]


@dataclass(frozen=True)
class TorsionField:
    """Discrete torsion function on a domain, extended by zero outside.

    ``values`` covers the full occupancy window; it is zero on unoccupied
    cells and nonnegative everywhere (discrete maximum principle).
    """

    domain: GridDomain
    values: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def max(self) -> float:
        return float(self.values.max(initial=0.0))

    @property
    def integral(self) -> float:
        """L1 norm: sum of values times h^N."""
        return float(self.values.sum()) * self.domain.h**self.domain.N

    def rescaled(self, t: float, domain: GridDomain) -> "TorsionField":
        """Field on the metadata-rescaled domain: values scale by t^2."""
        return TorsionField(domain=domain, values=t**2 * self.values, residual=self.residual)


@dataclass(frozen=True)
class Spectrum:
    """Lowest-k Dirichlet eigenvalues, ascending.

    Accurate to the relative tolerance :data:`DEFAULT_EIG_TOL`.  A spectrum
    from :func:`eigenvalues` is certified: ``inertia_count`` is the number
    of eigenvalues of the Laplacian below ``shift``, counted by Sylvester's
    law of inertia (or by the full dense spectrum), and equals the number
    of listed eigenvalues below it, so none below lambda_k's cluster was
    missed.  Both are ``None`` on a spectrum built by hand.
    """

    eigenvalues: tuple[float, ...]
    shift: float | None = None
    inertia_count: int | None = None

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.eigenvalues)
        if not all(0 < v < math.inf for v in vals):
            raise ValueError("Dirichlet eigenvalues must be positive and finite")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def k(self) -> int:
        """The number of eigenvalues held."""
        return len(self.eigenvalues)

    def __getitem__(self, i: int) -> float:
        """1-based access: spectrum[1] is the first eigenvalue."""
        if not 1 <= i <= self.k:
            raise IndexError(f"eigenvalue index {i} outside 1..{self.k}")
        return self.eigenvalues[i - 1]

    def rescaled(self, t: float) -> "Spectrum":
        """Spectrum of the domain rescaled by t: eigenvalues divide by t^2."""
        return Spectrum(
            eigenvalues=tuple(v / t**2 for v in self.eigenvalues),
            shift=None if self.shift is None else self.shift / t**2,
            inertia_count=self.inertia_count,
        )


@dataclass(frozen=True, eq=False)
class _Stencil:
    """One raster's Dirichlet Laplacian: its occupied cells and face pairs.

    Built by :func:`_stencil`.  Every form of the Laplacian - the CSR
    matrix, the lower band, the sparse LDL^T and the band inertia count -
    is assembled from it, so all of them number the cells alike.
    ``cells`` holds the flat window position of each occupied cell in
    row-major order, and ``pairs`` one ``(j, i)`` pair of row arrays per
    axis: cell ``i`` is cell ``j``'s occupied neighbour one step along
    +axis, so ``i > j``.  ``b`` is the bandwidth, the largest row distance
    of a face pair.
    """

    occupancy: np.ndarray
    h: float
    cells: np.ndarray
    pairs: list[tuple[np.ndarray, np.ndarray]]
    b: int

    @property
    def n(self) -> int:
        """The number of occupied cells, the matrix's order."""
        return self.cells.size

    def diagonal(self, shift: float) -> float:
        """The diagonal entry of ``A - shift I``."""
        return 2.0 * self.occupancy.ndim / (self.h * self.h) - shift

    def fits(self, d: GridDomain) -> bool:
        """Whether the stencil was built for ``d``'s raster: its ``h`` and occupancy."""
        return d.h == self.h and np.array_equal(d.occupancy, self.occupancy)

    def check(self, d: GridDomain) -> None:
        """Raise ``ValueError`` unless the stencil was built for ``d``'s raster."""
        if not self.fits(d):
            raise ValueError("the band factor was built for a different raster")


def _stencil(d: GridDomain) -> _Stencil:
    """The :class:`_Stencil` of ``d``: its face pairs (:func:`face_pairs`) as rows."""
    occ = d.occupancy
    cells = np.flatnonzero(occ)
    if cells.size == 0:
        raise EmptyDomainError("cannot assemble a Laplacian on an empty domain")
    index = np.empty(occ.size, dtype=np.int64)  # read at occupied cells only
    index[cells] = np.arange(cells.size)
    pairs = [(index[p], index[q]) for p, q in face_pairs(occ)]
    b = max((int((i - j).max()) for j, i in pairs if j.size), default=0)
    return _Stencil(occupancy=occ, h=d.h, cells=cells, pairs=pairs, b=b)


def _shifted_laplacian(
    st: _Stencil, sigma: float = 0.0, perm: np.ndarray | None = None
) -> sparse.csr_matrix:
    """``A - sigma I`` in CSR form, assembled straight from the stencil.

    With ``perm`` the rows and columns are permuted: cell ``c`` becomes row
    and column ``perm[c]``.  Each row's columns come out sorted.  The
    matrix is symmetric, so its transpose is its CSC form.
    """
    # Row i's columns: its -axis neighbours (outermost axis first), i, its
    # +axis neighbours (innermost first), -1 if empty.  Row-major numbering
    # keeps that order, so each row's columns come out sorted.
    n, N = st.n, st.occupancy.ndim
    cols = np.full((n, 2 * N + 1), -1, dtype=np.int64)
    cols[:, N] = np.arange(n)
    for axis, (j, i) in enumerate(st.pairs):
        cols[j, 2 * N - axis] = i
        cols[i, axis] = j
    if perm is not None:
        permuted = np.empty_like(cols)
        permuted[perm] = np.where(cols >= 0, perm[cols], -1)
        cols = permuted
        cols.sort(axis=1)  # renumbering unsorts each row's columns
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    off = -1.0 / (st.h * st.h)
    vals = np.where(cols == np.arange(n)[:, None], st.diagonal(sigma), off)
    return sparse.csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))


def _capsule_routine(module: object, name: str, nargs: int) -> Callable[..., None]:
    """SciPy's BLAS or LAPACK ``name`` as a ctypes function of ``nargs`` pointers.

    ``module`` is ``scipy.linalg.cython_blas`` or ``cython_lapack``, which
    publish each routine's address in a capsule.  A ``CFUNCTYPE`` call
    releases the GIL while the routine runs, which SciPy's own wrappers do
    not, so threads can factor and solve at once.  ctypes checks nothing:
    the callers check every argument first.
    """
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The getter and setter of the thread count of SciPy's OpenBLAS, or ``None``.

    They are looked up through the extension that the LAPACK routines come
    from, so they act on the library that factors.  ``None`` where that
    library does not export them (a SciPy not built on scipy-openblas).
    """
    lib = ctypes.CDLL(cython_lapack.__file__)
    try:
        get = lib.scipy_openblas_get_num_threads
        put = lib.scipy_openblas_set_num_threads
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


class _OneBlasThread(ContextDecorator):
    """Runs its block, or the function it decorates, on one OpenBLAS thread.

    On these band matrices OpenBLAS's threading loses: the thread hand-offs
    in ``dpbtrf``'s and ``dpbtf2``'s small level-2 and level-3 updates cost
    more than a second core gives back.  On a 2-core VM, the minimum of 15
    interleaved runs (7 at 1/256), OpenBLAS's default of two threads
    against one: the 1/96 ball's band factorization (n = 9216, b = 108)
    15.2 against 10.2 ms and its ``dpbtf2`` count 29.5 against 15.7 ms,
    ``blobs-1``'s factorization at 1/96 5.6 against 3.4 ms, and
    ``dumbbell-0``'s at 1/256 (b = 216) 290 against 192 ms.  These timings
    are of the row-major band, before the factor was reversed to upper
    storage, and the last is of a band that no longer exists: at 15.9 M
    entries ``dumbbell-0`` at 1/256 lies above ``_BAND_ENTRIES`` and is
    factored as the sparse kind.  Band solves (two ``dtbsv`` passes) are
    not threaded, so they are left unpinned: on the 1/96 ball a solve took
    0.67 ms on one thread and on two.

    Reentrant and shared by threads: the thread count is one process-wide
    setting, so a depth count under a lock saves the caller's count on the
    outermost entry and restores it on the last exit, also when the block
    raises.  SciPy 1.17's OpenBLAS exports no thread-local setter.  A no-op
    without ``controls``.  NumPy's own OpenBLAS is a separate library with
    its own count, which this leaves as it is.
    """

    def __init__(self, controls: tuple[Callable[[], int], Callable[[int], None]] | None):
        self.controls = controls
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self) -> None:
        if self.controls is None:
            return
        get, put = self.controls
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                put(1)
            self._depth += 1

    def __exit__(self, *exc: object) -> None:
        if self.controls is None:
            return
        _, put = self.controls
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                put(self._saved)


_ONE_BLAS_THREAD = _OneBlasThread(_openblas_threads())


_DPBTRF = _capsule_routine(cython_lapack, "dpbtrf", 6)  # (uplo, n, kd, ab, ldab, info)
# dpbtrf's unblocked, right-looking form, with the same arguments
_DPBTF2 = _capsule_routine(cython_lapack, "dpbtf2", 6)
# (uplo, trans, diag, n, k, a, lda, x, incx): one triangular band solve
_DTBSV = _capsule_routine(cython_blas, "dtbsv", 9)
_L, _U, _N, _T = (ctypes.create_string_buffer(c, 1) for c in (b"L", b"U", b"N", b"T"))
_FLIP_CHUNK = 65_536  # doubles per chunk of the in-place band reversal, 512 KB


def _address(a: np.ndarray) -> int:
    """Address of a writeable contiguous array's data, for LAPACK.

    A third of the cost of ``a.ctypes.data``, which would be most of a
    small solve's overhead.  ``a.T`` is C-ordered for the F-ordered band.
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(a.T))


def _band_args(band: np.ndarray) -> tuple[np.ndarray, int]:
    """Check a band and pack the BLAS and LAPACK integer arguments.

    ``band`` must be a writeable F-ordered float64 array of shape
    ``(kd + 1, n)``.  Returns one ``intc`` array ``[n, kd, ldab, incx,
    info]``, with ``incx = 1`` for a contiguous vector, and its address
    ``p``: entry ``i`` is at ``p + 4 i``.  Each integer goes by that
    address, without a ctypes object per argument.
    """
    if not (
        band.dtype == np.float64
        and band.ndim == 2
        and band.flags.f_contiguous
        and band.flags.writeable
        and band.shape[0] >= 1
    ):
        raise ValueError("the band must be a writeable F-ordered float64 (kd+1, n) array")
    ints = np.array([band.shape[1], band.shape[0] - 1, band.shape[0], 1, 0], dtype=np.intc)
    return ints, _address(ints)


def _raise_info(info: int, routine: str) -> None:
    """Raise for a nonzero LAPACK ``info``, as SciPy's wrappers do."""
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")


def _band_cholesky(ab: np.ndarray) -> np.ndarray:
    """Factor a lower band in place by LAPACK ``dpbtrf``, without the GIL.

    ``ab`` holds ``M[i, j]`` at ``ab[i - j, j]`` for ``i >= j`` and becomes
    the band of the lower Cholesky factor; it is returned.  Raises
    ``LinAlgError`` if ``M`` is not positive definite.
    """
    ints, p = _band_args(ab)
    _DPBTRF(_L, p, p + 4, _address(ab), p + 8, p + 16)
    _raise_info(int(ints[4]), "pbtrf")
    return ab


def _reverse_in_place(ab: np.ndarray) -> np.ndarray:
    """Reverse an F-ordered band's memory in place, ``_FLIP_CHUNK`` doubles at a time.

    Flat entry ``d + c (kd + 1)`` moves to ``(kd - d) + (n - 1 - c) (kd + 1)``,
    so the lower band storage of ``L`` becomes the upper band storage of
    ``J L J``, ``J`` the order reversal.  Chunks from the two ends swap
    through one chunk-sized copy, so no second band is alive.
    """
    if not ab.flags.f_contiguous:
        raise ValueError("only an F-ordered band is reversed in place")
    flat = ab.ravel(order="F")  # a view of the F-ordered band
    size, half = flat.size, flat.size // 2
    for lo in range(0, half, _FLIP_CHUNK):
        hi = min(lo + _FLIP_CHUNK, half)
        head = flat[lo:hi].copy()
        flat[lo:hi] = flat[size - hi : size - lo][::-1]
        flat[size - hi : size - lo] = head[::-1]
    return ab


def _band_solve(band: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(R R^T)^-1 b`` for ``R`` in upper band storage, by two ``dtbsv``, without the GIL.

    ``R y = b`` ('U', 'N'), then ``R^T x = y`` ('U', 'T').  ``b`` is a
    vector of length ``n``; it is copied, never overwritten.
    """
    x = np.array(b, dtype=np.float64)  # BLAS overwrites its copy
    if x.shape != band.shape[-1:]:
        raise ValueError(
            f"right-hand side of shape {x.shape} for a band of {band.shape[-1]} rows"
        )
    ints, p = _band_args(band)  # held while BLAS reads the integers at p
    a, px = _address(band), _address(x)
    _DTBSV(_U, _N, _N, p, p + 4, a, p + 8, px, p + 12)
    _DTBSV(_U, _T, _N, p, p + 4, a, p + 8, px, p + 12)
    return x


def build_laplacian(d: GridDomain) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Sparse SPD Dirichlet Laplacian and the cell index map.

    Returns ``(A, index)`` where ``index`` holds the row number of each
    occupied cell and -1 elsewhere.
    """
    st = _stencil(d)
    index = np.full(d.shape, -1, dtype=np.int64)
    index.flat[st.cells] = np.arange(st.n)
    return _shifted_laplacian(st), index


@dataclass(eq=False)
class Factor:
    """Factor of one raster's shifted Laplacian ``A - shift I``, band or sparse.

    Built by :func:`factor_laplacian`, which picks the kind once, and used
    first by :func:`solve_torsion` and then by :func:`eigenvalues`, so a
    raster that needs both a torsion field and a spectrum is factored once:
    passed explicitly (see :func:`factored_torsion`), or parked by
    :func:`solve_torsion` for the thread's next :func:`eigenvalues` of the
    same raster (see :func:`solve_raster`).  In between,
    :meth:`solve` serves further back-solves on the raster and
    :meth:`residual` checks them.  :func:`eigenvalues` releases the factor
    when its Lanczos run ends, before its certificate calls :meth:`count`,
    which factors ``A - sigma I`` anew in this factor's kind and order and
    so works after :meth:`release`.  It releases the factor at once on a
    narrow raster, whose eigensolve factors its own at a shift just below
    lambda_1, and on a raster that takes the dense spectrum.  A released
    factor can no longer solve; its ``stencil`` still checks rasters and
    residuals, and its ``perm`` orders a retry's factor.

    The band kind is ``A - shift I = R R^T`` with ``R`` upper triangular,
    held in LAPACK upper band storage in the cells' row-major order (see
    :func:`factor_laplacian`), and :meth:`solve` makes two BLAS ``dtbsv``
    passes on it without the GIL: ``R y = b`` ('U', 'N'), then
    ``R^T x = y`` ('U', 'T').  In SciPy's OpenBLAS 0.3.30 (SkylakeX kernels,
    2-core VM, best of 5 x 200) on ``dumbbell-0`` at 1/64 (n = 4744,
    b = 54) these two take 0.084 and 0.070 ms, and the lower band's
    'L', 'N' 0.086 ms, but its 'L', 'T' 0.18 ms: LAPACK ``dpbtrs`` on the
    lower factor, which pays that one, took 0.30 ms a solve against 0.155.
    The sparse kind is :func:`_ldlt`'s LDL^T ``lu`` and its minimum-degree
    order ``perm``; its solves hold the GIL.
    """

    stencil: _Stencil
    band: np.ndarray | None  # the band kind's R, LAPACK upper band storage
    shift: float = 0.0  # the factor is of A - shift I
    lu: sparse_linalg.SuperLU | None = None  # the sparse kind's LDL^T
    perm: np.ndarray | None = None  # the sparse kind's order; None on bands

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``(A - shift I)^-1 b``: two triangular band solves, or SuperLU's."""
        if self.band is not None:
            return _band_solve(self.band, b)
        if self.lu is None:
            raise ValueError("the factor was released")
        return self.lu.solve(b)

    def residual(self, x: np.ndarray, b: np.ndarray | float) -> np.ndarray:
        """``(A - shift I) x - b`` from the stencil, axis by axis; needs no factor."""
        st = self.stencil
        off = -1.0 / (st.h * st.h)
        r = st.diagonal(self.shift) * x - b
        for j, i in st.pairs:
            r[j] += off * x[i]
            r[i] += off * x[j]
        return r

    def count(self, sigma: float) -> int:
        """Eigenvalues of ``A`` below ``sigma``, by an LDL^T of this kind and order.

        :func:`_band_inertia` on the band kind; on the sparse kind, the
        negative pivots of an :func:`_ldlt` in ``perm``.
        """
        if self.perm is None:
            return _band_inertia(self.stencil, sigma)
        return _negative_pivots(_ldlt(self.stencil, sigma, self.perm)[0])

    def release(self) -> None:
        """Drop the band or the LDL^T; they dominate the memory."""
        self.band = self.lu = None


def _reversed_band(st: _Stencil, shift: float) -> np.ndarray:
    """The lower band of ``J (A - shift I) J`` in LAPACK storage, from the stencil.

    ``J`` reverses the row-major cell order: cell ``c`` is row ``n - 1 - c``.
    A face pair ``(j, i)``, ``i > j``, puts its entry at ``ab[i - j, n - 1 - i]``
    of an F-ordered ``(b + 1, n)`` array, ``b`` being the stencil's bandwidth.
    """
    n = st.n
    ab = np.zeros((st.b + 1, n), order="F")
    ab[0] = st.diagonal(shift)
    for j, i in st.pairs:
        ab[i - j, n - 1 - i] = -1.0 / (st.h * st.h)
    return ab


# One slot per thread: the factor at 0 that solve_torsion, called without a
# factor, parks for the thread's next eigenvalues of the same raster.
_PARKED = threading.local()


def _unpark(d: GridDomain | None = None) -> Factor | None:
    """Empty this thread's slot; return the factor parked there if it fits ``d``.

    Every :func:`solve_torsion` and :func:`eigenvalues` entry and every
    :func:`_factor` call, before it allocates, empties the slot, so a parked
    factor never outlives the thread's next solver call and is never alive
    next to a factor that ``pde`` builds.  Without ``d``, or for another raster (another ``h``
    included), the parked factor is dropped and ``None`` returned.
    """
    factor, _PARKED.factor = getattr(_PARKED, "factor", None), None
    if d is None or factor is None or not factor.stencil.fits(d):
        return None
    return factor


@_ONE_BLAS_THREAD
def _factor(st: _Stencil, shift: float, perm: np.ndarray | None = None) -> Factor:
    """The :class:`Factor` of ``A - shift I``, ``A`` being ``st``'s Laplacian.

    The builder behind :func:`factor_laplacian`, for callers that hold the
    stencil already.  On the sparse kind, ``perm`` is the minimum-degree
    order of an earlier factor of the raster, which every shift shares
    (:func:`_ldlt`), so the pattern is not ordered again; the band kind
    ignores it.  A factor parked by :func:`solve_torsion` is dropped first.
    """
    _unpark()
    if (st.b + 1) * st.n > _BAND_ENTRIES:
        lu, perm = _ldlt(st, shift, perm)
        return Factor(st, None, shift, lu, perm)
    band = _band_cholesky(_reversed_band(st, shift))
    return Factor(st, _reverse_in_place(band), shift)


def factor_laplacian(d: GridDomain, shift: float = 0.0) -> Factor:
    """The :class:`Factor` of ``A - shift I``, ``A`` being ``d``'s Laplacian.

    At ``shift = 0`` the factor serves the torsion solve, Lanczos and the
    certificate; :func:`eigenvalues` factors a raster at a shift just below
    lambda_1 when it has no factor at 0 or the raster is narrow.  The kind
    is picked once, by the raster's band size ``(b + 1) n``: a band of at
    most ``_BAND_ENTRIES`` (1.2 M) entries gives the band kind, a larger one
    the sparse kind, :func:`_ldlt`'s sparse LDL^T in a minimum-degree order.

    In row-major order the Laplacian is an SPD band matrix whose bandwidth
    ``b`` is the largest row distance between face neighbours, about the
    occupied cells per row (per plane in 3-D).  For the band kind, the
    lower band of ``J (A - shift I) J``, ``J`` the reversal of the cell
    order (:func:`_reversed_band`), is assembled straight from the stencil
    and factored by LAPACK ``dpbtrf`` ('L') as ``L L^T``: ``n b^2`` time
    and ``(b + 1) n`` memory, so 3-D rasters pay far more than 2-D ones.
    Reversing the factor's memory in place (:func:`_reverse_in_place`) then
    gives the upper band storage of ``R = J L J``, so that
    ``A - shift I = R R^T`` in the original order, and :meth:`Factor.solve`
    runs on OpenBLAS's fast upper-band kernels.  The reversal costs about
    7% of a factorization (0.19 against 2.6 ms on ``dumbbell-0`` at 1/64).
    Factoring the upper band by ``dpbtrf`` ('U') instead is slower: 144
    against 101 ms over the 20 rasters of ``default_corpus(1/96)``, each the
    best of 3.  The factorization runs on one OpenBLAS thread
    (:class:`_OneBlasThread`).  The band kind raises ``LinAlgError`` if
    ``shift`` is not below lambda_1.  The sparse kind does not test
    definiteness: a ``shift`` at or above lambda_1 factors, and
    :func:`eigenvalues` refuses it once its certificate has found lambda_1.
    """
    return _factor(_stencil(d), shift)


def solve_torsion(d: GridDomain, factor: Factor | None = None) -> TorsionField:
    """Solve ``-Lap w = 1`` on occupied cells, w = 0 outside, by one direct solve.

    ``factor`` is :func:`factor_laplacian` of ``d``, band or sparse; without
    it one is factored here and, once the solve has passed its residual
    check, parked in a one-slot, per-thread hand-off: the same thread's next
    :func:`eigenvalues` of ``d`` without a factor takes it as if it were
    handed in, and any other solver call or factorization on the thread
    drops it first (:func:`_unpark`), so it lives at most until that call.
    A handed ``factor`` stays the caller's and is never parked.  ``A`` is an
    M-matrix, so ``w = A^-1 1`` is positive on every occupied cell.  Raises
    ``ValueError`` for a factor of another raster or of a shifted Laplacian.
    """
    parks = factor is None
    if parks:
        factor = factor_laplacian(d)
    else:
        _unpark()
        factor.stencil.check(d)
        if factor.shift != 0.0:
            raise ValueError(
                f"the torsion solve needs a factor of A, not of A - {factor.shift!r} I"
            )
    n = factor.stencil.n
    w = factor.solve(np.ones(n))
    residual = float(np.linalg.norm(factor.residual(w, 1.0)) / math.sqrt(n))
    if residual > DEFAULT_CG_TOL:
        raise RuntimeError(
            f"torsion solve residual {residual:.3e} above {DEFAULT_CG_TOL:g}"
        )
    values = np.zeros(d.shape)
    values.flat[factor.stencil.cells] = w
    if parks:
        _PARKED.factor = factor
    return TorsionField(domain=d, values=values, residual=residual)


def factored_torsion(d: GridDomain) -> tuple[TorsionField, Factor]:
    """:func:`solve_torsion` of ``d`` and the factor it was solved on.

    For callers that solve on the same raster again before its eigensolve,
    by :meth:`Factor.solve`, and then hand the factor to
    :func:`eigenvalues`, which runs Lanczos on it (unless the raster is
    narrow: its eigensolve then factors its own about a shift just below
    lambda_1) and releases it.  The factor is the caller's and is not
    parked, so other solver calls in between do not drop it.  A caller that
    needs the field and then the spectrum, with no solve in between, calls
    :func:`solve_torsion` and :func:`eigenvalues`, which share the factor
    through the hand-off.
    """
    factor = factor_laplacian(d)
    return solve_torsion(d, factor), factor


def torsion_energy(f: TorsionField) -> float:
    """Torsion energy ``E = -1/2 * integral(w)``; strictly negative."""
    return -0.5 * f.integral


def _ldlt(
    st: _Stencil, sigma: float, perm: np.ndarray | None = None
) -> tuple[sparse_linalg.SuperLU, np.ndarray]:
    """Sparse LDL^T of ``A - sigma I``, as a symmetric-mode LU, and its order.

    Without ``perm`` the matrix is assembled in row-major order and ordered by
    minimum degree on ``A + A^T``; the returned ``perm`` is that ordering (a
    copy of ``perm_c``: cell ``c`` is pivot ``perm[c]``).  With ``perm`` the
    matrix is assembled in that order and factored as it stands (``NATURAL``).
    Minimum degree reads only the sparsity pattern, which every shift shares,
    so this is the factor it would give again, without the ordering pass.
    Diagonal pivots only, so the row and column permutations agree and the
    diagonal of ``U`` is ``D``.  Single-column panels without supernode
    relaxation (``relax=1``, ``panel_size=1``) factor the five-point stencil's
    thin supernodes about a quarter faster than SuperLU's defaults, with the
    same pivot signs on 192 factorizations checked against them.  Other
    settings are untested: 32/32 and 64/32 aborted at process exit with a
    double free.  Raises ``RuntimeError`` if SuperLU permuted rows and columns
    apart.
    """
    M = _shifted_laplacian(st, sigma, perm)
    lu = sparse_linalg.splu(
        M.T,  # the CSC form of a symmetric CSR matrix, without a copy
        permc_spec="MMD_AT_PLUS_A" if perm is None else "NATURAL",
        diag_pivot_thresh=0.0,
        relax=1,
        panel_size=1,
        options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("symmetric-mode LU pivoted off the diagonal")
    # perm_c is a view that would keep the whole factor alive
    return lu, lu.perm_c.copy() if perm is None else perm


def _negative_pivots(lu: sparse_linalg.SuperLU) -> int:
    """Negative entries of ``D`` in an :func:`_ldlt` factor.

    By Sylvester's law of inertia ``A - sigma I = P^T L D L^T P`` has as
    many negative entries in ``D`` as ``A`` has eigenvalues below ``sigma``.
    """
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _band_inertia(st: _Stencil, sigma: float) -> int:
    """Eigenvalues of ``A`` below ``sigma``: the negative pivots of a band LDL^T.

    The band that :func:`factor_laplacian` factors, of ``J (A - sigma I) J``
    (``J`` reverses the row-major cell order, and the row numbers below are
    in that order), is factored without pivoting as ``L D L^T``.  It is
    congruent to ``A - sigma I``, so by Sylvester's law of inertia ``D`` has
    as many negative entries as ``A`` has eigenvalues below ``sigma``,
    whatever the order.  The positive pivots go
    through LAPACK ``dpbtf2``, without the GIL, which stops at the first
    non-positive one.  Reference ``dpbtf2`` is right-looking: each column's
    ``DSYR`` updates the trailing band window before the next pivot is read, so
    when it stops at column ``j``, ``ab[0, j]`` is the pivot ``d`` and columns
    ``j`` onwards hold the Schur complement ``S`` of the columns before ``j``.
    A negative ``d`` is counted, ``S`` loses column ``j`` by the rank-1 update
    ``S -= a a^T / d`` (``a = ab[1:, j]``, which touches only the next ``b``
    columns), and ``dpbtf2`` resumes on the columns after ``j``: the same
    elimination, one pivot at a time.  The blocked ``dpbtrf`` would not do
    here: above ``kd = 64`` it stops mid-panel, with the trailing columns not
    yet updated.  The band costs ``(b + 1) n`` doubles and about ``n b^2``
    flops; each negative pivot adds an update of ``b^2 / 2`` entries.  Tests
    check the counts against dense spectra in 2-D and 3-D.  Raises
    ``RuntimeError`` on an exactly zero or a non-finite pivot, where the
    unpivoted factor has no answer (a singular leading minor).
    """
    ab = _reversed_band(st, sigma)
    n, kd = st.n, st.b
    negative, start = 0, 0
    while start < n:
        window = ab[:, start:]
        ints, p = _band_args(window)
        _DPBTF2(_L, p, p + 4, _address(window), p + 8, p + 16)
        info = int(ints[4])
        if info <= 0:
            _raise_info(info, "pbtf2")
            break
        j = start + info - 1
        pivot = float(ab[0, j])
        if not -math.inf < pivot < 0.0:
            raise RuntimeError(f"band LDL^T pivot {pivot!r} at row {j} of {n}")
        negative += 1
        m = min(kd, n - 1 - j)
        r, c = _band_triangle(m)
        a = ab[1 : m + 1, j]
        ab[r - c, j + 1 + c] -= a[r] * (a[c] / pivot)
        start = j + 1
    if not np.isfinite(ab[0]).all():
        raise RuntimeError(f"band LDL^T of {n} rows has a non-finite pivot")
    return negative


@lru_cache(maxsize=8)
def _band_triangle(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of an ``m x m`` lower triangle, ``r >= c``, read-only."""
    r, c = np.tril_indices(m)
    r.flags.writeable = c.flags.writeable = False
    return r, c


def _longest_run(occupancy: np.ndarray, axis: int) -> int:
    """Most consecutive occupied cells along ``axis`` in any line of the raster."""
    lines = np.moveaxis(occupancy, axis, -1).reshape(-1, occupancy.shape[axis])
    padded = np.zeros((lines.shape[0], lines.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = lines
    edges = np.diff(padded.ravel())  # +1 where a run starts, -1 past its end
    return int((np.flatnonzero(edges < 0) - np.flatnonzero(edges > 0)).max())


def _lambda1_floor(d: GridDomain) -> float:
    """A lower bound on the Laplacian's lowest eigenvalue, without a solve.

    ``A`` is the sum over axes of the 1-D Dirichlet Laplacians along that
    axis, each block diagonal over the occupied runs of its lines.  A run
    of ``l`` cells has lowest eigenvalue ``(4 / h^2) sin^2(pi / (2 (l + 1)))``,
    which decreases with ``l``, so by Weyl's inequality ``lambda_1`` is at
    least the sum over axes of that value at the axis's longest run.  Exact
    on boxes; about 0.85 lambda_1 on balls and 0.45 lambda_1 on dumbbells.
    """
    occ = d.occupancy
    return sum(
        4.0 / (d.h * d.h) * math.sin(math.pi / (2 * (_longest_run(occ, axis) + 1))) ** 2
        for axis in range(occ.ndim)
    )


def _lanczos(
    solve: Callable[[np.ndarray], np.ndarray],
    sigma: float,
    n: int,
    k: int,
    v0: np.ndarray,
) -> np.ndarray:
    """The ``k`` eigenvalues nearest ``sigma``, ascending, by shift-invert Lanczos.

    ``solve`` applies ``(A - sigma I)^-1``.  With ``sigma`` below lambda_1
    they are the lowest ``k``.  In shift-invert mode ARPACK applies only
    ``OPinv``; the operator passed as ``A`` just gives the shape, so the
    Laplacian itself need not exist while Lanczos runs.
    """
    inverse = sparse_linalg.LinearOperator((n, n), matvec=solve, dtype=float)
    vals = sparse_linalg.eigsh(
        inverse,
        k=k,
        sigma=sigma,
        which="LM",
        v0=v0,
        tol=DEFAULT_EIG_TOL,
        maxiter=max(5000, 20 * n),
        OPinv=inverse,
        return_eigenvectors=False,
    )
    return np.sort(vals)


@_ONE_BLAS_THREAD
def eigenvalues(
    d: GridDomain,
    factor: Factor | None = None,
    *,
    k: int,
    seed: int = 0,
) -> Spectrum:
    """Lowest ``k`` Dirichlet eigenvalues of the FD Laplacian, certified.

    Two things are settled at entry.  A raster of at most ``_DENSE_CUTOFF``
    cells, or a ``k`` of at least ``n - 1``, takes the full dense spectrum,
    which is its own count.  Otherwise shift-invert Lanczos runs with a
    deterministic start vector on a :class:`Factor` of ``A - sigma0 I``,
    band or sparse as :func:`factor_laplacian` picks it.  A wide raster's
    ``factor`` (:func:`factor_laplacian` of ``d``, released once Lanczos
    ends) serves as the inverse of ``A`` about ``sigma0 = 0``, so the
    raster is factored once.  Called without a factor, the eigensolve takes
    the factor at 0 that this thread's :func:`solve_torsion` parked, if that
    was of ``d``'s raster (the same ``h`` and occupancy) and no solver call
    came in between, and uses it exactly as a handed one.  Every entry,
    with a factor or without, empties that slot, so a parked factor of
    another raster is dropped and a second eigensolve of ``d`` factors its
    own.  With no factor handed or parked, or on a narrow raster (bandwidth
    at most 20 cells, where a band refactoring costs fewer than 2.5 Lanczos
    steps), a ``factor`` handed in is released first and
    Lanczos runs on its own factor about ``sigma0``, 0.99 times a lambda_1
    floor that costs no solve (:func:`_lambda1_floor`): nearer lambda_1,
    Lanczos converges in fewer solves, most of all where the lowest
    eigenvalues cluster.  That factor is built from the stencil this
    eigensolve already holds, so the raster is described once.

    Each Lanczos spectrum is certified by an inertia count at the shift
    ``sigma = lambda_k (1 - 10 DEFAULT_EIG_TOL)``: the LDL^T of
    ``A - sigma I`` must have as many negative pivots as there are computed
    eigenvalues below ``sigma``, so no eigenvalue below lambda_k's cluster,
    copies of a multiple eigenvalue included, was missed.  The count is the
    Lanczos factor's :meth:`Factor.count`, in its kind and order.  Where
    the count has no answer at that shift (a singular leading minor), the
    shift moves once, halfway down to the largest computed value below it
    (or to ``sigma0``), so the same computed values lie below it.  The
    first computed value is then the certified lambda_1, and it must lie
    above ``sigma0`` (else ``RuntimeError``), so the ``k`` eigenvalues
    nearest ``sigma0`` are the lowest ``k``.  On a deficit, which is rare,
    Lanczos runs again for that many more eigenvalues about ``sigma0 > 0``,
    on a new factor in the replaced factor's order (a sparse one is not
    ordered again); if the count still disagrees after three rounds a
    ``RuntimeError`` is raised.

    Each shifted matrix is assembled once, straight from the stencil.  Each
    factor is freed before the next one is made, so one factor is alive at
    a time.  Every factorization, count and Lanczos step runs on one
    OpenBLAS thread (:class:`_OneBlasThread`).  Raises ``ValueError`` unless
    ``1 <= k <= n``, and for a factor of another raster.  Results are
    reproducible for a fixed seed and a fixed choice of inverse: Lanczos
    about 0 on a handed or parked factor, or about ``sigma0`` on its own,
    whose results differ in their last digits (by at most 1.3e-13 relative
    over ``default_corpus(1/96)``, k = 5).
    """
    if factor is None:
        factor = _unpark(d)
    else:
        _unpark()
        factor.stencil.check(d)
    st = _stencil(d) if factor is None else factor.stencil
    n = st.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= occupied cells, got k={k}, cells={n}")
    full = n <= _DENSE_CUTOFF or k >= n - 1
    if factor is not None and (full or st.b <= _NARROW_BAND):
        factor.release()  # the dense solve, or Lanczos's own inverse about sigma0
        factor = None
    if full:  # the full spectrum, which is its own count
        vals = scipy.linalg.eigvalsh(_shifted_laplacian(st).toarray())
        shift = float(vals[k - 1]) * (1.0 - _SHIFT_FACTOR * DEFAULT_EIG_TOL)
        return Spectrum(vals[:k], shift, int(np.count_nonzero(vals < shift)))
    v0 = np.random.default_rng(seed).standard_normal(n)
    wanted, perm = k, None
    for _ in range(_CERTIFY_ROUNDS):
        if factor is None:
            sigma0 = _FLOOR_FRACTION * _lambda1_floor(d)
            try:
                factor = _factor(st, sigma0, perm)
            except LinAlgError:
                raise RuntimeError(
                    f"Lanczos shift {sigma0:.9g} is not below lambda_1: "
                    "the band Cholesky of A - sigma0 I failed"
                ) from None
        sigma0, perm = factor.shift, factor.perm
        vals = _lanczos(factor.solve, sigma0, n, wanted, v0)
        factor.release()  # before the certificate's factorization
        # Just below lambda_k's cluster: a shift above it would also count
        # the copies of a multiple lambda_k beyond the k-th.
        shift = float(vals[k - 1]) * (1.0 - _SHIFT_FACTOR * DEFAULT_EIG_TOL)
        found = int(np.count_nonzero(vals < shift))
        try:
            count = factor.count(shift)
        except RuntimeError:
            # A leading minor of A - shift I is singular.  Once, move the
            # shift halfway down to the computed value below it (sigma0 if
            # none is), which leaves ``found`` as it is.
            shift = 0.5 * (shift + (float(vals[found - 1]) if found else sigma0))
            count = factor.count(shift)
        factor = None  # a retry factors A - sigma0 I, sigma0 > 0, in ``perm``
        if count == found:
            if vals[0] <= sigma0:
                raise RuntimeError(
                    f"Lanczos shift {sigma0:.9g} is not below lambda_1: "
                    f"the certified lambda_1 is {vals[0]:.9g}"
                )
            return Spectrum(vals[:k], shift, count)
        if count < found:
            break  # a computed value below the shift is not an eigenvalue
        logger.info(
            "eigensolve missed %d eigenvalue(s) below %.9g; solving again",
            count - found,
            shift,
        )
        wanted = min(wanted + count - found, n - 1)  # Lanczos finds at most n - 1
    raise RuntimeError(
        f"eigenvalue certificate failed: {count} negative pivots below the shift "
        f"{shift:.9g} against {found} computed eigenvalues"
    )


def solve_raster(
    d: GridDomain, *, k: int, seed: int = 0
) -> tuple[TorsionField, Spectrum]:
    """Torsion function and lowest ``k`` eigenvalues of ``d``.

    :func:`solve_torsion` then :func:`eigenvalues`, on one thread: the
    torsion's factor at 0, band or sparse by the raster's band size, is
    parked by the first and taken by the second as Lanczos's inverse, which
    releases it and certifies the spectrum by a count in the same kind and
    order (:meth:`Factor.count`).  A narrow raster's eigensolve releases it
    at once and factors its own about a shift just below lambda_1: a second
    factorization that costs fewer Lanczos steps than it saves.
    """
    f = solve_torsion(d)
    return f, eigenvalues(d, k=k, seed=seed)


def _aligned_offset(d1: GridDomain, d2: GridDomain) -> tuple[int, ...]:
    """Integer cell offset of d1's window inside d2's lattice."""
    if not math.isclose(d1.h, d2.h, rel_tol=1e-12):
        raise ValueError(
            f"mismatched lattice spacing: {d1.h!r} vs {d2.h!r} (rescale first)"
        )
    offs = []
    for o1, o2 in zip(d1.origin, d2.origin):
        shift = (o1 - o2) / d1.h
        if abs(shift - round(shift)) > 1e-9:
            raise ValueError("domain windows are not grid-aligned")
        offs.append(int(round(shift)))
    return tuple(offs)


def _paste(values: np.ndarray, offset: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    values = np.asarray(values)
    out = np.zeros(shape, dtype=values.dtype)
    sl = tuple(slice(o, o + s) for o, s in zip(offset, values.shape))
    out[sl] = values
    return out


def embed_union(
    d1: GridDomain, d2: GridDomain, a1: np.ndarray, a2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Paste two window arrays into a common bounding window (zero filled)."""
    off = _aligned_offset(d1, d2)
    lo = tuple(min(0, o) for o in off)
    hi = tuple(
        max(s2, o + s1) for s2, o, s1 in zip(d2.shape, off, d1.shape)
    )
    shape = tuple(h - l for h, l in zip(hi, lo))
    off1 = tuple(o - l for o, l in zip(off, lo))
    off2 = tuple(-l for l in lo)
    return _paste(a1, off1, shape), _paste(a2, off2, shape)


def gamma_distance(
    d1: GridDomain, d2: GridDomain, f1: TorsionField, f2: TorsionField
) -> float:
    """L1 distance between the torsion functions ``f1``, ``f2`` of two domains.

    Both lattices must share the spacing ``h`` (rescale first otherwise);
    windows may differ as long as they are grid-aligned.  For nested domains
    this equals ``2 (E(d1) - E(d2))`` up to solver tolerance.
    """
    w1, w2 = embed_union(d1, d2, f1.values, f2.values)
    return float(np.abs(w1 - w2).sum()) * d1.h**d1.N


def strip_max(f: TorsionField, s: Strip) -> float:
    """Maximum of the field over the strip's columns (0 if none)."""
    return float(f.values[s.columns(f.domain)].max(initial=0.0))


def _bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of ``fn`` in ``[lo, hi]``, given ``fn(lo) >= 0 > fn(hi)``.

    Halves the bracket until its ends are adjacent floats and returns the
    end where ``fn >= 0``: one ulp below a point where ``fn < 0``.
    """
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo
        if fn(mid) >= 0:
            lo = mid
        else:
            hi = mid


@lru_cache(maxsize=None)
def _bessel_first_zero(nu: float) -> float:
    """First positive zero of the Bessel function J_nu."""
    if nu == int(nu):
        return float(special.jn_zeros(int(nu), 1)[0])
    # Bracket the first zero; j_{nu,1} is increasing in nu and lies in
    # (nu, nu + pi + 2) for the orders used here.
    lo = max(nu, 1e-6)
    hi = nu + math.pi + 2.0
    while special.jv(nu, hi) > 0:  # pragma: no cover - safety margin
        hi += math.pi
    return _bisect(lambda x: float(special.jv(nu, x)), lo + 1e-9, hi)


@lru_cache(maxsize=None)
def ball_lambda1(N: int = 2) -> float:
    """First Dirichlet eigenvalue of the unit-measure ball, analytic.

    Equals ``omega_N^(2/N) * j_{N/2-1,1}^2`` where ``omega_N`` is the unit
    ball volume; at N=2 this is ``pi * j_{0,1}^2``.  Computed once per
    dimension so that constant selection carries no grid error.
    """
    omega = unit_ball_volume(N)
    j = _bessel_first_zero(N / 2 - 1)
    return omega ** (2.0 / N) * j**2


def save_field(f: TorsionField, path: str | Path) -> tuple[Path, Path]:
    """Write field values as a flat float64 binary plus a JSON header."""
    bin_path = Path(path).with_suffix(".bin")
    hdr_path = Path(path).with_suffix(".json")
    bin_path.write_bytes(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    header = {
        "shape": list(f.values.shape),
        "dtype": "<f8",
        "h": f.domain.h,
        "origin": list(f.domain.origin),
        "residual": f.residual,
    }
    hdr_path.write_text(json.dumps(header, sort_keys=True) + "\n", encoding="ascii")
    return bin_path, hdr_path


def save_spectrum(s: Spectrum, path: str | Path) -> Path:
    """Write a spectrum and its certificate (``shift``, ``inertia_count``) as JSON."""
    out = Path(path)
    out.write_text(
        json.dumps(
            {
                "eigenvalues": list(s.eigenvalues),
                "rel_tol": DEFAULT_EIG_TOL,
                "shift": s.shift,
                "inertia_count": s.inertia_count,
            },
            sort_keys=True,
        )
        + "\n",
        encoding="ascii",
    )
    return out
