"""Torsion solves, eigenvalues, gamma-distance: oracles and exact monotonicity."""

from __future__ import annotations

import json
import logging
import math
import sys
import threading
import time
from typing import Callable

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import LinAlgError

from eigsurgery import cli, pde
from eigsurgery.corpus import (
    ball,
    blob_union,
    default_corpus,
    generate,
    square,
    surgery_corpus,
    tube,
)
from eigsurgery.domain import GridDomain, Strip, from_mask, measure, rescale
from eigsurgery.harness import RunConfig, run_suite
from eigsurgery.pde import (
    DEFAULT_EIG_TOL,
    Spectrum,
    ball_lambda1,
    build_laplacian,
    eigenvalues,
    factor_laplacian,
    gamma_distance,
    save_field,
    save_spectrum,
    solve_raster,
    solve_torsion,
    strip_max,
    torsion_energy,
)

# Classical double-series value of max w on the unit square, evaluated
# independently (Fourier sine series, 400 x 400 terms).
SQUARE_MAX_W = 0.07367135327673606
SQUARE_INT_W = 0.035144253737774696
TWO_PI_SQ = 2 * math.pi**2
DISK_LAMBDA1 = 18.168414535537227  # pi * j_{0,1}^2


def single_cell(h: float = 0.125) -> GridDomain:
    return from_mask(np.ones((1, 1), dtype=bool), h)


def random_subdomain(d: GridDomain, rng: np.random.Generator) -> GridDomain:
    """Remove a random rectangle from a domain (possibly nothing)."""
    occ = d.occupancy.copy()
    nx, ny = occ.shape
    x0, y0 = rng.integers(0, nx - 2), rng.integers(0, ny - 2)
    dx, dy = rng.integers(1, max(2, nx // 3)), rng.integers(1, max(2, ny // 3))
    occ[x0 : x0 + dx, y0 : y0 + dy] = False
    if not occ.any():
        return d
    return GridDomain(h=d.h, origin=d.origin, occupancy=occ)


class TestTorsion:
    def test_single_cell_exact(self):
        h = 0.125
        f = solve_torsion(single_cell(h))
        assert f.max == pytest.approx(h**2 / 4, rel=1e-12)
        assert torsion_energy(f) == pytest.approx(-(h**4) / 8, rel=1e-12)

    def test_disk_center_value(self):
        r = 1 / math.sqrt(math.pi)
        d = ball(1 / 256, normalize=False)
        f = solve_torsion(d)
        assert f.max == pytest.approx(r**2 / 4, rel=0.02)

    def test_square_series_oracle(self):
        d = square(1 / 128, aligned="node")
        f = solve_torsion(d)
        assert f.max == pytest.approx(SQUARE_MAX_W, rel=0.01)
        assert f.integral == pytest.approx(SQUARE_INT_W, rel=0.01)

    @pytest.mark.parametrize("spec", default_corpus(1 / 64), ids=lambda s: s.name)
    def test_values_nonnegative_and_zero_outside(self, spec):
        d = generate(spec)
        f = solve_torsion(d)
        assert (f.values[d.occupancy] > 0).all()
        assert (f.values[~d.occupancy] == 0).all()
        assert f.residual <= 1e-12

    def test_residual_above_bound_raises(self, monkeypatch):
        monkeypatch.setattr(pde, "DEFAULT_CG_TOL", 0.0)
        with pytest.raises(RuntimeError, match="residual"):
            solve_torsion(ball(1 / 16))

    def test_distributional_subsolution(self):
        # -Lap w <= 1 at every lattice cell once w is extended by zero
        d = ball(1 / 64, normalize=False)
        f = solve_torsion(d)
        w = f.values
        h2 = d.h**2
        lap = np.zeros_like(w)
        lap[1:-1, 1:-1] = (
            4 * w[1:-1, 1:-1]
            - w[2:, 1:-1]
            - w[:-2, 1:-1]
            - w[1:-1, 2:]
            - w[1:-1, :-2]
        ) / h2
        assert lap.max() <= 1 + 1e-6

    def test_monotonicity_cellwise(self):
        rng = np.random.default_rng(3)
        d2 = ball(1 / 48, normalize=False)
        f2 = solve_torsion(d2)
        for _ in range(10):
            d1 = random_subdomain(d2, rng)
            f1 = solve_torsion(d1)
            assert (f1.values <= f2.values + 1e-8).all()


class TestEnergy:
    def test_disk_energy(self):
        r = 1 / math.sqrt(math.pi)
        f = solve_torsion(ball(1 / 256, normalize=False))
        assert torsion_energy(f) == pytest.approx(-math.pi * r**4 / 16, rel=0.02)

    def test_nested_energy_monotone(self):
        rng = np.random.default_rng(5)
        d2 = ball(1 / 48, normalize=False)
        e2 = torsion_energy(solve_torsion(d2))
        for _ in range(5):
            d1 = random_subdomain(d2, rng)
            assert torsion_energy(solve_torsion(d1)) >= e2 - 1e-12


def dense_torsion(occ: np.ndarray, h: float) -> float:
    """``T(S) = h^N 1^T L_S^-1 1`` of the cells ``occ``, by an exact dense
    solve; ``T`` of no cell is 0."""
    if not occ.any():
        return 0.0
    A = build_laplacian(GridDomain(h, (0.0,) * occ.ndim, np.pad(occ, 1)))[0].toarray()
    ones = np.ones(len(A))
    return h**occ.ndim * float(ones @ scipy.linalg.solve(A, ones, assume_a="pos"))


class TestSupermodularity:
    @given(
        pair=st.sampled_from([(16,), (5, 5), (7, 3), (3, 3, 3), (4, 3, 2)]).flatmap(
            lambda shape: st.tuples(arrays(bool, shape), arrays(bool, shape))
        )
    )
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_torsion_is_supermodular(self, pair):
        """``T(A | B) + T(A & B) >= T(A) + T(B)`` on subsets of one window.

        The lemma: ``T(S)`` is the maximum, over ``u`` supported on ``S``,
        of ``h^N (2 sum(u) - u^T L u)``, attained at the torsion function,
        which is nonnegative.  The grid Dirichlet form obeys
        ``a(u | v) + a(u & v) <= a(u) + a(v)`` (max and min cellwise),
        since ``(s - t)^2`` is submodular and ``s^2`` modular, and
        ``sum(u)`` is modular.  With ``u`` and ``v`` optimal on ``A`` and
        ``B``, ``u | v`` lives on ``A | B`` and ``u & v`` on ``A & B``, so
        the inequality holds; hence the torsion energy ``E = -T/2``, and
        ``E + c|.|`` with it, is submodular on the subsets of a raster.

        The slack is 1e-12 of ``T(A | B)``, the largest of the four: each
        solve's relative error is at most about ``kappa(L) n eps``, which
        is 4.1e-13 on the full 16-cell line (kappa 116) and less on every
        other window here, and on every subset, whose ``kappa`` is no
        larger by interlacing.
        """
        a, b = pair
        h = 1 / 8
        union, meet = dense_torsion(a | b, h), dense_torsion(a & b, h)
        gain = union + meet - dense_torsion(a, h) - dense_torsion(b, h)
        assert gain >= -1e-12 * union


class TestEigenvalues:
    def test_single_cell(self):
        h = 0.125
        s = eigenvalues(single_cell(h), k=1)
        assert s[1] == pytest.approx(4 / h**2, rel=1e-12)

    def test_unit_square(self):
        s = eigenvalues(square(1 / 128, aligned="node"), k=3)
        assert s[1] == pytest.approx(TWO_PI_SQ, rel=0.01)
        assert s[2] == pytest.approx(5 * math.pi**2, rel=0.01)
        assert s[3] == pytest.approx(5 * math.pi**2, rel=0.01)

    def test_unit_disk(self):
        s = eigenvalues(ball(1 / 256), k=1)
        assert s[1] == pytest.approx(DISK_LAMBDA1, rel=0.01)

    def test_k_bounds_checked(self):
        with pytest.raises(ValueError):
            eigenvalues(single_cell(), k=2)

    def test_deterministic(self):
        d = ball(1 / 64)
        a = eigenvalues(d, k=4, seed=1)
        b = eigenvalues(d, k=4, seed=1)
        assert a.eigenvalues == b.eigenvalues

    def test_interlacing(self):
        rng = np.random.default_rng(11)
        d2 = ball(1 / 48, normalize=False)
        s2 = eigenvalues(d2, k=5)
        for _ in range(5):
            d1 = random_subdomain(d2, rng)
            if d1.cell_count < 5:
                continue
            s1 = eigenvalues(d1, k=5)
            for i in range(1, 6):
                assert s1[i] >= s2[i] * (1 - 1e-6)

    def test_disjoint_union_merges_spectra(self):
        h = 1 / 32
        occ = np.zeros((30, 12), dtype=bool)
        occ[1:9, 1:9] = True
        occ[15:29, 2:10] = True
        d = from_mask(occ, h)
        full = eigenvalues(d, k=6)
        parts = []
        for sub in (occ[:10], occ[14:]):
            parts += list(eigenvalues(from_mask(sub, h), k=6).eigenvalues)
        merged = sorted(parts)[:6]
        assert np.allclose(full.eigenvalues, merged, rtol=1e-8)

    def test_rescale_compatibility_bit_exact(self):
        d = ball(1 / 64)
        s = eigenvalues(d, k=3)
        r = rescale(d, 2.0)
        assert s.rescaled(2.0).eigenvalues == tuple(v / 4 for v in s.eigenvalues)
        solved = eigenvalues(r, k=3)
        assert np.allclose(solved.eigenvalues, s.rescaled(2.0).eigenvalues, rtol=1e-9)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            Spectrum(eigenvalues=(2.0, 1.0))
        with pytest.raises(ValueError):
            Spectrum(eigenvalues=(-1.0,))
        for bad in ((math.nan,), (1.0, math.nan), (math.inf,), (1.0, math.inf)):
            with pytest.raises(ValueError, match="positive and finite"):
                Spectrum(eigenvalues=bad)

    def test_spectrum_k_is_its_length(self):
        s = Spectrum((1.0, 2.0))
        assert s.k == 2
        assert s.rescaled(2.0).k == 2
        assert s[2] == 2.0
        with pytest.raises(IndexError):
            s[3]


class TestGammaDistance:
    def test_identical_domains(self):
        d = ball(1 / 64, normalize=False)
        f = solve_torsion(d)
        assert gamma_distance(d, d, f, f) == pytest.approx(0.0, abs=1e-10)

    def test_nested_identity(self):
        rng = np.random.default_rng(7)
        d2 = ball(1 / 48, normalize=False)
        f2 = solve_torsion(d2)
        e2 = torsion_energy(f2)
        for _ in range(5):
            d1 = random_subdomain(d2, rng)
            f1 = solve_torsion(d1)
            dg = gamma_distance(d1, d2, f1=f1, f2=f2)
            e1 = torsion_energy(f1)
            assert dg == pytest.approx(2 * (e1 - e2), abs=2e-12 * f2.integral + 1e-14)

    def test_slit_square_positive(self):
        h = 1 / 64
        d2 = square(h)
        occ = d2.occupancy.copy()
        occ[occ.shape[0] // 2, : occ.shape[1] // 2] = False
        d1 = GridDomain(h=h, origin=d2.origin, occupancy=occ)
        assert gamma_distance(d1, d2, solve_torsion(d1), solve_torsion(d2)) > 0

    def test_mismatched_spacing_rejected(self):
        d1, d2 = ball(1 / 32), ball(1 / 48)
        f1, f2 = solve_torsion(d1), solve_torsion(d2)
        with pytest.raises(ValueError, match="spacing"):
            gamma_distance(d1, d2, f1, f2)


class TestStripMax:
    def test_disjoint_strip(self):
        f = solve_torsion(ball(1 / 64, normalize=False))
        assert strip_max(f, Strip(center=10.0, half_width=0.2)) == 0.0

    def test_covering_strip_is_global_max(self):
        f = solve_torsion(ball(1 / 64, normalize=False))
        assert strip_max(f, Strip(0.0, 5.0)) == f.max

    def test_strip_through_disk_center(self):
        f = solve_torsion(ball(1 / 256, normalize=False))
        got = strip_max(f, Strip(0.0, 0.05))
        assert got == pytest.approx(1 / (4 * math.pi), rel=0.02)


class TestBallLambda1:
    def test_n2(self):
        assert ball_lambda1(2) == pytest.approx(DISK_LAMBDA1, rel=1e-12)

    def test_n3(self):
        # j_{1/2,1} = pi, omega_3 = 4*pi/3
        expected = (4 * math.pi / 3) ** (2 / 3) * math.pi**2
        assert ball_lambda1(3) == pytest.approx(expected, rel=1e-9)


class TestExports:
    def test_field_round_trip(self, tmp_path):
        d = ball(1 / 32, normalize=False)
        f = solve_torsion(d)
        bin_path, hdr_path = save_field(f, tmp_path / "w")
        header = json.loads(hdr_path.read_text())
        back = np.frombuffer(bin_path.read_bytes(), dtype=header["dtype"])
        assert np.array_equal(back.reshape(header["shape"]), f.values)
        assert header["residual"] == f.residual

    def test_spectrum_json(self, tmp_path):
        s = eigenvalues(ball(1 / 32), k=2)
        path = save_spectrum(s, tmp_path / "spec.json")
        assert json.loads(path.read_text()) == {
            "eigenvalues": list(s.eigenvalues),
            "rel_tol": DEFAULT_EIG_TOL,
            "shift": s.shift,
            "inertia_count": s.inertia_count,
        }
        assert s.inertia_count == 1  # lambda_2 = lambda_3 on the disk

    def test_laplacian_matches_stencil(self):
        d = single_cell(0.5)
        A, _ = build_laplacian(d)
        assert A.shape == (1, 1)
        assert A[0, 0] == pytest.approx(4 / 0.25)


BOTH_CORPORA_64 = list(default_corpus(1 / 64)) + list(surgery_corpus(1 / 64))


def coo_laplacian(d: GridDomain) -> sparse.csr_matrix:
    """The stencil assembled pair by pair in COO form, then converted."""
    occ = d.occupancy
    n = int(occ.sum())
    index = -np.ones(occ.shape, dtype=np.int64)
    index[occ] = np.arange(n)
    h2 = d.h * d.h
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 2.0 * d.N / h2)]
    for axis in range(occ.ndim):
        lead = [slice(None)] * occ.ndim
        trail = [slice(None)] * occ.ndim
        lead[axis] = slice(1, None)
        trail[axis] = slice(None, -1)
        pair = occ[tuple(lead)] & occ[tuple(trail)]
        a = index[tuple(trail)][pair]
        b = index[tuple(lead)][pair]
        off = np.full(a.shape, -1.0 / h2)
        rows += [a, b]
        cols += [b, a]
        vals += [off, off]
    A = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return A.tocsr()


@pytest.mark.parametrize("spec", BOTH_CORPORA_64, ids=lambda spec: spec.name)
def test_csr_assembly_matches_coo(spec):
    d = generate(spec)
    A, index = build_laplacian(d)
    ref = coo_laplacian(d)
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)
    assert np.array_equal(index[d.occupancy], np.arange(A.shape[0]))
    assert (index[~d.occupancy] == -1).all()


@pytest.mark.parametrize("spec", BOTH_CORPORA_64, ids=lambda spec: spec.name)
def test_shifted_assembly_matches_the_permuted_matrix(spec):
    d = generate(spec)
    stencil = pde._stencil(d)
    n = stencil.n
    perm = np.random.default_rng(n).permutation(n)
    M = pde._shifted_laplacian(stencil, 7.5, perm)
    order = np.argsort(perm)  # order[r] is the cell in row r
    ref = (coo_laplacian(d) - 7.5 * sparse.identity(n, format="csr"))[order][:, order]
    ref.sort_indices()
    assert np.array_equal(M.indptr, ref.indptr)
    assert np.array_equal(M.indices, ref.indices)
    assert np.array_equal(M.data, ref.data)


def assert_torsion_matches_sparse_lu(d: GridDomain) -> None:
    """Band Cholesky against SuperLU on the same matrix, and its residual."""
    f = solve_torsion(d)
    A, _ = build_laplacian(d)
    ones = np.ones(A.shape[0])
    ref = sparse_linalg.spsolve(A.tocsc(), ones)
    w = f.values[d.occupancy]
    np.testing.assert_allclose(w, ref, rtol=1e-12, atol=0)
    assert (f.values[~d.occupancy] == 0).all()
    # the stencil residual is the matrix residual up to rounding
    residual = np.linalg.norm(A @ w - ones) / np.linalg.norm(ones)
    assert f.residual == pytest.approx(residual, abs=1e-12)


@pytest.mark.parametrize("spec", BOTH_CORPORA_64, ids=lambda spec: spec.name)
def test_band_solve_matches_sparse_lu(spec):
    assert_torsion_matches_sparse_lu(generate(spec))


def ball_3d() -> GridDomain:
    # unequal window sides give each axis its own stride
    x, y, z = np.indices((14, 9, 8))
    occ = (x - 6.5) ** 2 + (y - 4.0) ** 2 + (z - 3.5) ** 2 <= 2.9**2
    return GridDomain(h=1 / 8, origin=(0.0, 0.0, 0.0), occupancy=occ)


def test_band_solve_matches_sparse_lu_in_3d():
    assert_torsion_matches_sparse_lu(ball_3d())


def reversed_band(d: GridDomain, sigma: float = 0.0) -> np.ndarray:
    """LAPACK lower band storage of ``J (A - sigma I) J``, read off the sparse
    matrix; ``J`` reverses the cell order."""
    A = build_laplacian(d)[0].tocoo()
    n = A.shape[0]
    row, col = n - 1 - A.row, n - 1 - A.col
    low = row >= col
    ab = np.zeros((int((row - col).max()) + 1, n), order="F")
    ab[(row - col)[low], col[low]] = A.data[low]
    ab[0] -= sigma
    return ab


@pytest.mark.parametrize("sigma", [0.0, 7.5])
@pytest.mark.parametrize(
    "spec",
    [*BOTH_CORPORA_64, None],
    ids=lambda spec: "ball-3d" if spec is None else spec.name,
)
def test_every_stencil_form_matches_coo(spec, sigma):
    # the CSR matrix, the reversed band and the residual, each against the
    # pair-by-pair reference, none read off another
    d = ball_3d() if spec is None else generate(spec)
    stencil = pde._stencil(d)
    ref = coo_laplacian(d) - sigma * sparse.identity(stencil.n, format="csr")
    ref.sort_indices()
    M = pde._shifted_laplacian(stencil, sigma)
    assert np.array_equal(M.indptr, ref.indptr)
    assert np.array_equal(M.indices, ref.indices)
    assert np.array_equal(M.data, ref.data)

    ab = pde._reversed_band(stencil, sigma)
    flip = np.arange(stencil.n)[::-1]  # J: cell c is row n - 1 - c
    low = sparse.tril(ref[flip][:, flip]).tocoo()
    assert ab.shape == (int((low.row - low.col).max()) + 1, stencil.n)
    dense = np.zeros_like(ab)  # the band of J (A - sigma I) J's lower triangle
    dense[low.row - low.col, low.col] = low.data
    assert np.array_equal(ab, dense)

    rng = np.random.default_rng(stencil.n)
    x, b = rng.standard_normal(stencil.n), rng.standard_normal(stencil.n)
    got = pde.Factor(stencil=stencil, band=None, shift=sigma).residual(x, b)
    # each side rounds by at most 2N + 2 ulps of |A - sigma I| |x| + |b|
    scale = abs(ref) @ np.abs(x) + np.abs(b)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - (ref @ x - b)) <= 2 * (2 * d.N + 2) * eps * scale)


@pytest.mark.parametrize(
    "spec",
    [*BOTH_CORPORA_64, None],
    ids=lambda spec: "ball-3d" if spec is None else spec.name,
)
def test_band_lapack_matches_scipy_bit_for_bit(spec):
    d = ball_3d() if spec is None else generate(spec)
    low = scipy.linalg.cholesky_banded(reversed_band(d), lower=True)
    factor = factor_laplacian(d)
    # L of J A J = L L^T, memory reversed: the upper band storage of R = J L J
    R = np.asfortranarray(low[::-1, ::-1])
    assert np.array_equal(factor.band, R)
    b = np.random.default_rng(5).standard_normal(R.shape[1])
    kept = b.copy()
    kd = R.shape[0] - 1
    y = scipy.linalg.blas.dtbsv(kd, R, b)  # R y = b
    x = scipy.linalg.blas.dtbsv(kd, R, y, trans=1)  # R^T x = y
    assert np.array_equal(factor.solve(b), x)
    assert np.array_equal(b, kept)  # the right-hand side is not overwritten


def test_band_of_an_indefinite_shift_raises_like_scipy():
    d = ball(1 / 32)
    ab = reversed_band(d, sigma=1.05 * eigenvalues(d, k=1)[1])
    with pytest.raises(np.linalg.LinAlgError) as ref:
        scipy.linalg.cholesky_banded(ab, lower=True)
    with pytest.raises(np.linalg.LinAlgError, match="leading minor not positive definite") as got:
        pde._band_cholesky(ab)
    assert str(got.value) == str(ref.value)


def test_bad_band_arguments_raise_before_lapack(monkeypatch):
    def never(*args):
        raise AssertionError("LAPACK ran on unchecked arguments")

    factor = factor_laplacian(ball(1 / 16))
    n = factor.stencil.n
    monkeypatch.setattr(pde, "_DPBTRF", never)
    monkeypatch.setattr(pde, "_DTBSV", never)
    for b in (np.ones(n - 1), np.ones(n + 1), np.ones((n, 1)), np.ones((1, n))):
        with pytest.raises(ValueError, match="right-hand side"):
            factor.solve(b)
    ab = reversed_band(ball(1 / 16))
    for bad in (np.ascontiguousarray(ab), ab.astype(np.float32), ab[:, ::2], ab[0]):
        with pytest.raises(ValueError, match="F-ordered float64"):
            pde._band_cholesky(bad)
    with pytest.raises(ValueError, match="F-ordered band"):
        pde._reverse_in_place(np.ascontiguousarray(ab))


@pytest.mark.parametrize("size", [1, 2, 5, 6, 11])
def test_band_reversal_is_chunked_and_exact(monkeypatch, size):
    monkeypatch.setattr(pde, "_FLIP_CHUNK", 2)  # several chunks and a middle entry
    for shape in ((1, size), (size, 1)):
        ab = np.asfortranarray(np.arange(size, dtype=float).reshape(shape))
        want = ab[::-1, ::-1].copy()
        assert pde._reverse_in_place(ab) is ab
        assert np.array_equal(ab, want)


def watch_the_gil(work: Callable[[], None]) -> float:
    """Run ``work`` on a thread; the longest this thread waited to wake up, in s."""
    worker = threading.Thread(target=work)
    stall, last = 0.0, time.perf_counter()
    deadline = last + 60.0
    worker.start()
    while worker.is_alive() and last < deadline:
        time.sleep(0.001)  # yield the core, so only the GIL can hold this thread up
        now = time.perf_counter()
        stall, last = max(stall, now - last), now
    worker.join(timeout=1.0)
    assert not worker.is_alive()
    return stall


def band_entries(d: GridDomain) -> int:
    """The entries ``(b + 1) n`` of ``d``'s band, which pick the factor's kind."""
    stencil = pde._stencil(d)
    return (stencil.b + 1) * stencil.n


# A band of 300 rows' width: BLAS and LAPACK run far longer than the assembly.
# Its 9.03 M entries lie above the band-size bound, so the tests of the band
# kernels raise the bound to them.
WIDE_BAND = from_mask(np.ones((100, 300), dtype=bool), 1 / 256)


def test_factor_kind_is_picked_by_the_band_size(monkeypatch):
    d = ball(1 / 32)
    monkeypatch.setattr(pde, "_BAND_ENTRIES", band_entries(d))  # at the bound
    at = factor_laplacian(d)
    monkeypatch.setattr(pde, "_BAND_ENTRIES", band_entries(d) - 1)  # one entry above
    above = factor_laplacian(d)
    assert at.band is not None and at.lu is None and at.perm is None
    assert above.band is None and above.lu is not None and above.perm is not None


def test_band_factor_releases_the_gil(monkeypatch):
    monkeypatch.setattr(pde, "_BAND_ENTRIES", band_entries(WIDE_BAND))
    span = {}

    def factor():
        start = time.perf_counter()
        span["factor"] = factor_laplacian(WIDE_BAND)
        span["call"] = time.perf_counter() - start

    stall = watch_the_gil(factor)
    assert span["factor"].band is not None
    # holding the GIL, the factorization stalls this thread for most of the call
    assert stall < 0.1 * span["call"]


def test_band_solve_releases_the_gil(monkeypatch):
    monkeypatch.setattr(pde, "_BAND_ENTRIES", band_entries(WIDE_BAND))
    factor = factor_laplacian(WIDE_BAND)
    assert factor.band is not None
    b = np.ones(factor.stencil.n)
    calls = []

    def solve():
        for _ in range(10):
            start = time.perf_counter()
            factor.solve(b)
            calls.append(time.perf_counter() - start)

    # holding the GIL, a solve would stall this thread for most of it in
    # every round; one round's scheduling noise does not fail the test
    stall = min(watch_the_gil(solve) for _ in range(3))
    assert stall < 0.3 * float(np.median(calls))


@pytest.mark.parametrize(
    "mask",
    [np.indices((6, 7)).sum(axis=0) % 2 == 0, np.ones(9, dtype=bool)],
    ids=["no-face-pairs", "1-d"],
)
def test_edge_rasters_factor_solve_and_certify(mask):
    d = from_mask(mask, 1 / 8)
    stencil = pde._stencil(d)
    assert stencil.b == (0 if d.N == 2 else 1)
    A = build_laplacian(d)[0].toarray()
    factor = factor_laplacian(d)
    assert factor.band.shape == (stencil.b + 1, stencil.n)
    b = np.random.default_rng(3).standard_normal(stencil.n)
    np.testing.assert_allclose(factor.solve(b), np.linalg.solve(A, b), rtol=1e-12, atol=0)
    f = solve_torsion(d, factor)
    np.testing.assert_allclose(f.values[d.occupancy], np.linalg.solve(A, np.ones(stencil.n)))
    vals = np.linalg.eigvalsh(A)
    cuts = np.unique(np.concatenate([[0.5 * vals[0], 2 * vals[-1]], 0.5 * (vals[1:] + vals[:-1])]))
    for sigma in cuts[~np.isin(cuts, vals)]:  # a shift between two eigenvalues
        assert pde._band_inertia(stencil, sigma) == np.count_nonzero(vals < sigma)


def square_cell_eigenvalues(M: int, k: int) -> np.ndarray:
    """Closed-form lowest k eigenvalues of the M x M cell square, h = 1/M."""
    s2 = np.sin(np.arange(1, M + 1) * math.pi / (2 * (M + 1))) ** 2
    return np.sort((4 * M * M * (s2[:, None] + s2[None, :])).ravel())[:k]


def dense_eigenvalues(d: GridDomain, k: int) -> np.ndarray:
    return scipy.linalg.eigvalsh(build_laplacian(d)[0].toarray())[:k]


def dropping_eigsh(calls: list[int], rounds: int):
    """``eigsh`` that loses the second eigenvalue on its first ``rounds`` calls,
    as restarted Lanczos can lose a copy of a multiple eigenvalue."""
    eigsh = sparse_linalg.eigsh

    def run(A, k, **kwargs):
        calls.append(k)
        if len(calls) > rounds:
            return eigsh(A, k=k, **kwargs)
        vals = np.sort(eigsh(A, k=k + 1, **kwargs))
        return np.delete(vals, 1)

    return run


def recording_ldlt(monkeypatch) -> list[float]:
    """Record the shift of every sparse LDL^T ``eigenvalues`` makes."""
    shifts: list[float] = []
    ldlt = pde._ldlt

    def run(stencil, sigma, perm=None):
        shifts.append(sigma)
        return ldlt(stencil, sigma, perm)

    monkeypatch.setattr(pde, "_ldlt", run)
    return shifts


def recording_inertia(monkeypatch) -> list[float]:
    """Record the shift of every band certificate ``eigenvalues`` makes."""
    shifts: list[float] = []
    inertia = pde._band_inertia

    def run(stencil, sigma):
        shifts.append(sigma)
        return inertia(stencil, sigma)

    monkeypatch.setattr(pde, "_band_inertia", run)
    return shifts


def recording_splu(monkeypatch) -> list[tuple[str, list[str]]]:
    """Record each SuperLU factorization's ordering and the attributes read
    from its factor."""
    factors: list[tuple[str, list[str]]] = []
    splu = sparse_linalg.splu

    class Factor:
        def __init__(self, lu, reads):
            self._lu, self._reads = lu, reads

        def __getattr__(self, name):
            self._reads.append(name)
            return getattr(self._lu, name)

    def run(A, permc_spec, **kwargs):
        factors.append((permc_spec, []))
        return Factor(splu(A, permc_spec=permc_spec, **kwargs), factors[-1][1])

    monkeypatch.setattr(pde.sparse_linalg, "splu", run)
    return factors


class TestCertificate:
    """Each spectrum is certified by the inertia of ``A - sigma I``."""

    @pytest.mark.parametrize("k", [6, 7])
    def test_square_cell_keeps_double_eigenvalue(self, k):
        # lambda_5 = lambda_6, about 9.84 pi^2: the modes (1, 3) and (3, 1)
        s = eigenvalues(square(1 / 128, aligned="cell"), k=k)
        want = square_cell_eigenvalues(128, k)
        np.testing.assert_allclose(s.eigenvalues, want, rtol=1e-9, atol=0)
        assert s.inertia_count == sum(v < s.shift for v in s.eigenvalues)

    def test_ball_small_cells_matches_dense_on_every_seed(self):
        # the mixed corpus's ball-small-cells at 1/96: 2308 cells, h = 1/48
        spec = next(s for s in default_corpus(1 / 96) if s.name == "ball-small-cells")
        d = generate(spec)
        want = dense_eigenvalues(d, 5)
        for seed in range(40):
            got = eigenvalues(d, k=5, seed=seed)
            np.testing.assert_allclose(got.eigenvalues, want, rtol=1e-9, atol=0)

    def test_shift_sits_below_the_kth_cluster(self):
        d = square(1 / 64, aligned="cell")  # lambda_2 = lambda_3
        s = eigenvalues(d, k=3)
        assert s.shift < s[2] and s.shift == s[3] * (1 - 10 * DEFAULT_EIG_TOL)
        assert s.inertia_count == 1
        r = s.rescaled(2.0)
        assert (r.shift, r.inertia_count) == (s.shift / 4, 1)

    def test_dense_spectrum_counts_the_full_spectrum(self):
        s = eigenvalues(square(1 / 16, aligned="cell"), k=3)  # 256 cells: dense
        assert (s.inertia_count, s.shift) == (1, s[3] * (1 - 10 * DEFAULT_EIG_TOL))

    def test_missed_eigenvalue_is_solved_again(self, monkeypatch, caplog):
        d = ball(1 / 32)
        monkeypatch.setattr(pde, "_BAND_ENTRIES", 0)  # the sparse side
        calls: list[int] = []
        monkeypatch.setattr(pde.sparse_linalg, "eigsh", dropping_eigsh(calls, 1))
        shifts = recording_ldlt(monkeypatch)
        with caplog.at_level(logging.INFO, logger="eigsurgery.pde"):
            s = eigenvalues(d, k=4)
        assert calls == [4, 5]
        assert "missed 1 eigenvalue(s)" in caplog.text
        np.testing.assert_allclose(s.eigenvalues, dense_eigenvalues(d, 4), rtol=1e-9)
        # each round factors A - sigma0 I for Lanczos, then its certificate
        sigma0 = pde._FLOOR_FRACTION * pde._lambda1_floor(d)
        assert len(shifts) == 4 and shifts[0::2] == [sigma0, sigma0]
        assert sigma0 < shifts[1] and shifts[3] == s.shift

    def test_band_retry_inverts_by_the_sigma0_band(self, monkeypatch):
        d = ball(1 / 32)
        calls: list[int] = []
        monkeypatch.setattr(pde.sparse_linalg, "eigsh", dropping_eigsh(calls, 1))
        ldlt_shifts = recording_ldlt(monkeypatch)
        bands = recording_factors(monkeypatch)
        shifts = recording_inertia(monkeypatch)
        _, s = solve_raster(d, k=4)
        assert calls == [4, 5]
        # the torsion band's certificate fails, the retry runs about sigma0
        # on its own band, and both certificates count on the band
        sigma0 = pde._FLOOR_FRACTION * pde._lambda1_floor(d)
        assert [b.shift for b in bands] == [0.0, sigma0]
        assert len(shifts) == 2 and sigma0 < shifts[0] and shifts[1] == s.shift
        assert ldlt_shifts == []
        np.testing.assert_allclose(s.eigenvalues, dense_eigenvalues(d, 4), rtol=1e-9)

    def test_missed_eigenvalue_refactors_the_band_side(self, monkeypatch):
        d = ball(1 / 32)
        calls: list[int] = []
        monkeypatch.setattr(pde.sparse_linalg, "eigsh", dropping_eigsh(calls, 1))
        ldlt_shifts = recording_ldlt(monkeypatch)
        bands = recording_factors(monkeypatch)
        shifts = recording_inertia(monkeypatch)
        s = eigenvalues(d, k=4)
        assert calls == [4, 5]
        sigma0 = pde._FLOOR_FRACTION * pde._lambda1_floor(d)
        assert [b.shift for b in bands] == [sigma0, sigma0]
        assert len(shifts) == 2 and sigma0 < shifts[0] and shifts[1] == s.shift
        assert ldlt_shifts == []
        np.testing.assert_allclose(s.eigenvalues, dense_eigenvalues(d, 4), rtol=1e-9)

    def test_one_ordering_per_sparse_factor(self, monkeypatch):
        # a forced retry: the sigma0 factor, its certificate in its order,
        # and both again on the retry's new factor, in the same order
        d = ball(1 / 32)
        monkeypatch.setattr(pde, "_BAND_ENTRIES", 0)  # the sparse kind
        calls: list[int] = []
        monkeypatch.setattr(pde.sparse_linalg, "eigsh", dropping_eigsh(calls, 1))
        factors = recording_splu(monkeypatch)
        shifts = recording_ldlt(monkeypatch)
        s = eigenvalues(d, k=4)
        assert calls == [4, 5] and shifts[3] == s.shift
        assert [spec for spec, _ in factors] == ["MMD_AT_PLUS_A"] + 3 * ["NATURAL"]
        # only the certificates' factors are counted; the sigma0 ones are not
        assert ["U" in reads for _, reads in factors] == [False, True, False, True]

    @pytest.mark.parametrize("entries", [None, 0], ids=["band", "sparse"])
    def test_retry_builds_no_second_stencil(self, monkeypatch, entries):
        # the retry's factor about sigma0 is built on the eigensolve's stencil
        d = ball(1 / 32)
        if entries is not None:
            monkeypatch.setattr(pde, "_BAND_ENTRIES", entries)
        calls: list[int] = []
        monkeypatch.setattr(pde.sparse_linalg, "eigsh", dropping_eigsh(calls, 1))
        built: list[GridDomain] = []
        stencil = pde._stencil
        monkeypatch.setattr(pde, "_stencil", lambda d: built.append(d) or stencil(d))
        s = eigenvalues(d, k=4)
        assert calls == [4, 5] and built == [d]
        np.testing.assert_allclose(s.eigenvalues, dense_eigenvalues(d, 4), rtol=1e-9)

    def test_retry_asks_lanczos_for_at_most_n_minus_1(self, monkeypatch):
        # a first run that returns the top of the spectrum misses n - 2
        # eigenvalues; the retry asks for n - 1 of them, which eigsh allows
        d = from_mask(np.ones((21, 20), dtype=bool), 1 / 32)  # 420 cells
        n = d.cell_count
        every = dense_eigenvalues(d, n)
        asked: list[int] = []

        def fake(solve, sigma, size, k, v0):
            asked.append(k)
            return every[-k:] if len(asked) == 1 else every[:k]

        monkeypatch.setattr(pde, "_lanczos", fake)
        s = eigenvalues(d, k=2)
        assert asked == [2, n - 1]
        assert s.eigenvalues == tuple(every[:2]) and s.inertia_count == 1

    def test_band_path_makes_no_sparse_factorization(self, monkeypatch):
        d = ball(1 / 32)
        calls: list[int] = []
        monkeypatch.setattr(pde.sparse_linalg, "eigsh", dropping_eigsh(calls, 1))
        factors = recording_splu(monkeypatch)
        _, s = solve_raster(d, k=4)
        assert calls == [4, 5]
        assert factors == []  # no ordering, no SuperLU factor, no copy of U
        np.testing.assert_allclose(s.eigenvalues, dense_eigenvalues(d, 4), rtol=1e-9)

    def test_handed_sparse_factor_serves_lanczos_and_its_certificate(self, monkeypatch):
        d = ball(1 / 32)
        monkeypatch.setattr(pde, "_BAND_ENTRIES", band_entries(d) - 1)  # just above the bound
        calls: list[int] = []
        monkeypatch.setattr(pde.sparse_linalg, "eigsh", dropping_eigsh(calls, 1))
        factors = recording_splu(monkeypatch)
        shifts = recording_ldlt(monkeypatch)
        inertia = recording_inertia(monkeypatch)
        factor = factor_laplacian(d)
        s = eigenvalues(d, factor, k=4)
        assert calls == [4, 5] and factor.lu is None and inertia == []
        # Lanczos about 0 on the handed factor and its certificate in its
        # order, then the retry's factor about sigma0 and its certificate,
        # both in that order too
        sigma0 = pde._FLOOR_FRACTION * pde._lambda1_floor(d)
        assert [shifts[0], shifts[2], shifts[3]] == [0.0, sigma0, s.shift]
        assert sigma0 < shifts[1] and len(shifts) == 4
        assert [spec for spec, _ in factors] == ["MMD_AT_PLUS_A"] + 3 * ["NATURAL"]
        np.testing.assert_allclose(s.eigenvalues, dense_eigenvalues(d, 4), rtol=1e-9)

    @pytest.mark.parametrize("ratio", [1.2, 2.0, 3.0])
    @pytest.mark.parametrize("k", [3, 5])
    def test_sigma0_above_lambda1_is_refused(self, monkeypatch, ratio, k):
        # sigma0 = ratio x lambda_1: the certificate's retries still find
        # lambda_1, which then lies below sigma0
        lam1 = dense_eigenvalues(ball(1 / 32), 1)[0]
        monkeypatch.setattr(
            pde, "_lambda1_floor", lambda d: ratio * lam1 / pde._FLOOR_FRACTION
        )
        with pytest.raises(RuntimeError, match="not below lambda_1"):
            eigenvalues(ball(1 / 32), k=k)
        argv = ["spectrum", "--spec", "ball", "--h", "1/32", "--k", str(k)]
        assert cli.main(argv) == 2

    def test_shift_above_lambda1_raises_and_exits_2(self, monkeypatch):
        # a floor above lambda_1 puts sigma0 above the certified lambda_1,
        # which the eigensolve must refuse
        monkeypatch.setattr(
            pde, "_lambda1_floor", lambda d: 2 * dense_eigenvalues(d, 1)[0]
        )
        with pytest.raises(RuntimeError, match="not below lambda_1"):
            eigenvalues(ball(1 / 32), k=3)
        assert cli.main(["spectrum", "--spec", "ball", "--h", "1/32", "--k", "3"]) == 2

    def test_certificate_mismatch_raises_and_exits_2(self, monkeypatch):
        calls: list[int] = []
        monkeypatch.setattr(pde.sparse_linalg, "eigsh", dropping_eigsh(calls, 99))
        with pytest.raises(RuntimeError, match="certificate failed"):
            eigenvalues(ball(1 / 32), k=3)
        assert calls == [3, 4, 5]
        assert cli.main(["spectrum", "--spec", "ball", "--h", "1/32", "--k", "3"]) == 2

    def test_singular_certificate_shift_moves_once(self, monkeypatch):
        d = ball(1 / 32)  # lambda_2 = lambda_3: three values below the shift
        want = solve_raster(d, k=4)[1]
        shifts = recording_inertia(monkeypatch)
        record = pde._band_inertia

        def singular_first(stencil, sigma):
            if len(shifts) == 0:
                shifts.append(sigma)
                raise RuntimeError("band LDL^T pivot 0.0")
            return record(stencil, sigma)

        monkeypatch.setattr(pde, "_band_inertia", singular_first)
        s = eigenvalues(d, factor_laplacian(d), k=4)
        assert shifts[0] == want.shift
        assert len(shifts) == 2 and shifts[1] == s.shift
        assert s.shift == 0.5 * (want.shift + want[3])
        assert s.eigenvalues == want.eigenvalues
        assert s.inertia_count == want.inertia_count == 3

    def test_certificate_shift_moves_only_once(self, monkeypatch):
        def singular(stencil, sigma):
            raise RuntimeError("band LDL^T pivot 0.0")

        monkeypatch.setattr(pde, "_band_inertia", singular)
        d = ball(1 / 32)
        with pytest.raises(RuntimeError, match="band LDL"):
            eigenvalues(d, factor_laplacian(d), k=4)

    def test_sparse_certificate_shift_moves_only_once(self, monkeypatch):
        def singular(stencil, sigma, perm=None):
            if perm is None:  # the sigma0 factor
                return ldlt(stencil, sigma)
            raise RuntimeError("symmetric-mode LU pivoted off the diagonal")

        ldlt = pde._ldlt
        monkeypatch.setattr(pde, "_ldlt", singular)
        monkeypatch.setattr(pde, "_BAND_ENTRIES", 0)  # the sparse side
        d = ball(1 / 32)
        with pytest.raises(RuntimeError, match="pivoted off the diagonal"):
            eigenvalues(d, factor_laplacian(d), k=4)

    def test_zero_band_pivot_twice_raises_and_exits_2(self, monkeypatch):
        # both certificate shifts land on the diagonal entry 2N/h^2, where
        # the band LDL^T's first pivot is exactly zero
        inertia = pde._band_inertia
        shifts = []

        def at_the_diagonal(stencil, sigma):
            shifts.append(sigma)
            return inertia(stencil, stencil.diagonal(0.0))

        monkeypatch.setattr(pde, "_band_inertia", at_the_diagonal)
        with pytest.raises(RuntimeError, match="pivot 0.0 at row 0"):
            eigenvalues(ball(1 / 32), k=3)
        assert len(shifts) == 2 and shifts[1] < shifts[0]
        assert cli.main(["spectrum", "--spec", "ball", "--h", "1/32", "--k", "3"]) == 2

    def test_shared_factor_gives_the_same_spectrum(self):
        d = ball(1 / 64)
        band = factor_laplacian(d)
        f = solve_torsion(d, band)
        s = eigenvalues(d, band, k=4)
        assert band.band is None  # released once Lanczos ended
        assert np.array_equal(f.values, solve_torsion(d).values)
        alone = eigenvalues(d, k=4)
        np.testing.assert_allclose(s.eigenvalues, alone.eigenvalues, rtol=1e-12)

    def test_solve_raster_runs_the_shared_factor_protocol(self):
        d = ball(1 / 64)
        f, s = solve_raster(d, k=4, seed=3)
        band = factor_laplacian(d)
        assert np.array_equal(f.values, solve_torsion(d, band).values)
        assert s == eigenvalues(d, band, k=4, seed=3)
        assert s.inertia_count == sum(v < s.shift for v in s.eigenvalues)

    def test_factor_of_another_raster_is_rejected(self):
        d = ball(1 / 64)
        band = factor_laplacian(d)
        for other in (ball(1 / 48), rescale(d, 2.0)):
            with pytest.raises(ValueError, match="different raster"):
                solve_torsion(other, band)
            with pytest.raises(ValueError, match="different raster"):
                eigenvalues(other, band, k=2)
        eigenvalues(d, band, k=2)
        with pytest.raises(ValueError, match="released"):
            solve_torsion(d, band)


class TestSharedOrdering:
    """The certificate's LDL^T reuses the sigma0 factor's minimum-degree order."""

    @pytest.mark.parametrize(
        "spec",
        list(surgery_corpus(1 / 64)) + list(default_corpus(1 / 96)),
        ids=lambda spec: f"{spec.name}@{round(1 / spec.h)}",
    )
    def test_counts_like_a_fresh_ordering(self, spec):
        d = generate(spec)
        stencil = pde._stencil(d)
        s = eigenvalues(d, k=5)
        sigma0 = pde._FLOOR_FRACTION * pde._lambda1_floor(d)
        _, perm = pde._ldlt(stencil, sigma0)
        shared, _ = pde._ldlt(stencil, s.shift, perm)
        fresh, fresh_perm = pde._ldlt(stencil, s.shift)
        assert np.array_equal(fresh_perm, perm)  # the order reads only the pattern
        assert shared.nnz == fresh.nnz
        assert pde._negative_pivots(shared) == pde._negative_pivots(fresh)
        assert pde._negative_pivots(shared) == s.inertia_count
        assert pde._band_inertia(stencil, s.shift) == s.inertia_count

    @given(
        mask=st.tuples(st.integers(1, 20), st.integers(1, 20)).flatmap(
            lambda shape: arrays(bool, shape)
        ),
        t=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_counts_like_the_dense_spectrum(self, mask, t):
        if not mask.any():
            return
        d = from_mask(mask, 1 / 16)
        stencil = pde._stencil(d)
        n = stencil.n
        vals = dense_eigenvalues(d, n)
        # a shift between the j-th and (j+1)-th eigenvalue, or past either end
        j = min(int(t * (n + 1)), n)
        lo = vals[j - 1] if j else 0.0
        hi = vals[j] if j < n else 2 * vals[-1]
        if hi - lo < 1e-9 * vals[-1]:
            return  # copies of one eigenvalue
        _, perm = pde._ldlt(stencil, pde._FLOOR_FRACTION * pde._lambda1_floor(d))
        # Off the midpoint: the grid graph is bipartite, so the spectrum is
        # symmetric about the diagonal entry 2N/h^2, and the middle gap's
        # midpoint is that entry, where every first pivot is zero (see
        # test_no_ldlt_at_the_diagonal_entry).
        shared, _ = pde._ldlt(stencil, lo + (hi - lo) / math.e, perm)
        assert pde._negative_pivots(shared) == j

    @pytest.mark.parametrize("shape", [(1, 2), (3, 4)])
    def test_no_ldlt_at_the_diagonal_entry(self, shape):
        d = from_mask(np.ones(shape, dtype=bool), 1 / 16)
        stencil = pde._stencil(d)
        _, perm = pde._ldlt(stencil, pde._FLOOR_FRACTION * pde._lambda1_floor(d))
        with pytest.raises(RuntimeError, match="pivoted off the diagonal"):
            pde._ldlt(stencil, 2.0 * d.N / (d.h * d.h), perm)


def released_counts(monkeypatch, d: GridDomain, sigma: float) -> list[int]:
    """``Factor.count(sigma)`` of the band kind, then of the sparse kind, each
    called after ``release()``."""
    counts = []
    for entries in (band_entries(d), 0):
        with monkeypatch.context() as m:
            m.setattr(pde, "_BAND_ENTRIES", entries)
            factor = factor_laplacian(d)
        assert (factor.perm is None) == (entries > 0)
        factor.release()
        counts.append(factor.count(sigma))
    return counts


class TestBandInertia:
    """The band LDL^T that steps over negative pivots counts like the dense spectrum."""

    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 16), st.integers(1, 16)),
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        ),
        data=st.data(),
        t=st.floats(0.0, 1.0),
        below=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_like_the_dense_spectrum(self, shape, data, t, below):
        mask = data.draw(arrays(bool, shape))
        if not mask.any():
            return
        d = from_mask(mask, 1 / 16)
        stencil = pde._stencil(d)
        n = stencil.n
        vals = dense_eigenvalues(d, n)
        j = min(int(t * (n + 1)), n)
        if below and j < n:
            # 1e-7 below the (j+1)-th eigenvalue: j lie below, unless the
            # j-th is as close
            sigma = vals[j] * (1 - 1e-7)
            if j and vals[j - 1] >= sigma * (1 - 1e-9):
                return
        else:
            lo = vals[j - 1] if j else 0.0
            hi = vals[j] if j < n else 2 * vals[-1]
            if hi - lo < 1e-9 * vals[-1]:
                return  # copies of one eigenvalue
            sigma = lo + (hi - lo) / math.e  # off the diagonal entry (see below)
        assert pde._band_inertia(stencil, sigma) == j

    @pytest.mark.parametrize("shape", [(1, 2), (3, 4), (2, 3, 2)])
    def test_zero_pivot_at_the_diagonal_entry_raises(self, shape):
        d = from_mask(np.ones(shape, dtype=bool), 1 / 16)
        with pytest.raises(RuntimeError, match="pivot 0.0 at row 0"):
            pde._band_inertia(pde._stencil(d), 2.0 * d.N / (d.h * d.h))

    def test_counts_like_the_ldlt_on_the_blobs(self, monkeypatch):
        # the descent's inputs, at its k = 2, each also counted by both kinds
        # of Factor after release()
        for seed in range(60):
            d = blob_union(1 / 64, seed=seed)
            stencil = pde._stencil(d)
            s = eigenvalues(d, k=2)
            _, perm = pde._ldlt(stencil, 0.5 * s[1])
            lu, _ = pde._ldlt(stencil, s.shift, perm)
            count = pde._band_inertia(stencil, s.shift)
            assert count == pde._negative_pivots(lu) == s.inertia_count
            assert released_counts(monkeypatch, d, s.shift) == [s.inertia_count] * 2
        # a 3-D ball of 872 cells, against its dense spectrum
        x, y, z = np.indices((13, 14, 12))
        mask = (x - 6.0) ** 2 + (y - 6.5) ** 2 + (z - 5.5) ** 2 <= 5.9**2
        d = from_mask(mask, 1 / 16)
        s = eigenvalues(d, k=4)
        want = np.count_nonzero(dense_eigenvalues(d, d.cell_count) < s.shift)
        assert released_counts(monkeypatch, d, s.shift) == [want] * 2 == [s.inertia_count] * 2

    def test_band_inertia_releases_the_gil(self):
        stencil = pde._stencil(WIDE_BAND)
        span = {}

        def count():
            start = time.perf_counter()
            span["count"] = pde._band_inertia(stencil, 0.0)
            span["call"] = time.perf_counter() - start

        stall = watch_the_gil(count)
        assert span["count"] == 0
        # holding the GIL, the factorization stalls this thread for most of the call
        assert stall < 0.1 * span["call"]


class TestLambda1Floor:
    """``_lambda1_floor`` bounds lambda_1 from below without a solve."""

    @given(
        mask=st.tuples(st.integers(1, 20), st.integers(1, 20)).flatmap(
            lambda shape: arrays(bool, shape)
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_floor_below_lambda1_in_2d(self, mask):
        if not mask.any():
            return
        d = from_mask(mask, 1 / 16)
        lam1 = dense_eigenvalues(d, 1)[0]
        assert pde._lambda1_floor(d) <= lam1 * (1 + 1e-12)  # rounding, where exact

    @pytest.mark.parametrize("case", ["ball", "box", "random-0", "random-1", "random-2"])
    def test_floor_below_lambda1_in_3d(self, case):
        x, y, z = np.indices((7, 6, 8))
        if case == "ball":
            mask = (x - 3) ** 2 + (y - 2.5) ** 2 + (z - 3.5) ** 2 <= 2.9**2
        elif case == "box":
            mask = (x < 3) & (y < 4) & (z < 5)
        else:
            mask = np.random.default_rng(int(case[-1])).random(x.shape) < 0.6
        d = from_mask(mask, 1 / 8)
        floor, lam1 = pde._lambda1_floor(d), dense_eigenvalues(d, 1)[0]
        assert 0 < floor <= lam1 * (1 + 1e-12)
        if case == "box":
            assert floor == pytest.approx(lam1, rel=1e-12)

    @pytest.mark.parametrize(
        "d",
        [square(1 / 16, aligned="cell"), square(1 / 16, aligned="node"), tube(1 / 16)],
        ids=["square-cell", "square-node", "tube"],
    )
    def test_floor_is_exact_on_boxes(self, d):
        lam1 = dense_eigenvalues(d, 1)[0]
        assert pde._lambda1_floor(d) == pytest.approx(lam1, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        list(surgery_corpus(1 / 64)) + list(default_corpus(1 / 96)),
        ids=lambda spec: f"{spec.name}@{round(1 / spec.h)}",
    )
    def test_shifted_lanczos_matches_the_band(self, spec):
        # on a wide raster the eigensolve alone runs Lanczos about sigma0 on
        # its own band, the shared factor about 0; a narrow one takes its
        # sigma0 band both ways
        d = generate(spec)
        shifted = eigenvalues(d, k=5)
        _, band = solve_raster(d, k=5)
        np.testing.assert_allclose(
            shifted.eigenvalues, band.eigenvalues, rtol=1e-12, atol=0
        )


def box_eigenvalues(rows: int, cols: int, h: float, k: int) -> np.ndarray:
    """Closed-form lowest k eigenvalues of a rows x cols cell box."""
    s2 = [
        np.sin(np.arange(1, m + 1) * math.pi / (2 * (m + 1))) ** 2 for m in (rows, cols)
    ]
    return np.sort((4 / h**2 * (s2[0][:, None] + s2[1][None, :])).ravel())[:k]


def recording_factors(monkeypatch) -> list[pde.Factor]:
    """Record every factor ``eigenvalues`` makes."""
    factors: list[pde.Factor] = []
    build = pde._factor

    def run(stencil, shift, perm=None):
        factors.append(build(stencil, shift, perm))
        return factors[-1]

    monkeypatch.setattr(pde, "_factor", run)
    return factors


class TestNarrowBand:
    """A narrow raster runs Lanczos on its own band of ``A - sigma0 I``."""

    @pytest.mark.parametrize(
        "d",
        [
            tube(1 / 32),
            tube(1 / 24, length=6.0, width_cells=4),
            from_mask(np.ones((500, 1), dtype=bool), 1 / 16),
            from_mask(np.ones((300, 3), dtype=bool), 1 / 16),
        ],
        ids=["tube", "tube-thin", "strip-1", "strip-3"],
    )
    def test_spectrum_matches_dense(self, d):
        stencil = pde._stencil(d)
        assert stencil.n > pde._DENSE_CUTOFF
        assert stencil.b <= pde._NARROW_BAND
        want = dense_eigenvalues(d, 5)
        for s in (eigenvalues(d, k=5), solve_raster(d, k=5)[1]):
            np.testing.assert_allclose(s.eigenvalues, want, rtol=DEFAULT_EIG_TOL, atol=0)
            assert s.inertia_count == sum(v < s.shift for v in s.eigenvalues)

    @pytest.mark.parametrize(
        "spec",
        [
            s
            for s in list(surgery_corpus(1 / 64)) + list(default_corpus(1 / 96))
            if s.name in {"tube-0", "tube-1", "tube-2", "tube", "tube-long"}
        ],
        ids=lambda spec: f"{spec.name}@{round(1 / spec.h)}",
    )
    def test_band_at_sigma0_matches_the_sparse_ldlt(self, monkeypatch, spec):
        # the corpora's narrow rasters, at the sizes the benchmark runs
        d = generate(spec)
        assert pde._stencil(d).b <= pde._NARROW_BAND
        factors = recording_factors(monkeypatch)
        band = eigenvalues(d, k=5)
        monkeypatch.setattr(pde, "_BAND_ENTRIES", 0)  # the sparse LDL^T about sigma0
        sparse_ldlt = eigenvalues(d, k=5)
        # a factor about sigma0 for each run: a band, then a sparse LDL^T
        sigma0 = pde._FLOOR_FRACTION * pde._lambda1_floor(d)
        assert [(f.shift, f.perm is None) for f in factors] == [(sigma0, True), (sigma0, False)]
        np.testing.assert_allclose(
            band.eigenvalues, sparse_ldlt.eigenvalues, rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize(
        "rows, cols, narrow", [(40, 12, True), (21, 20, True), (64, 64, False)]
    )
    def test_boxes_certify_with_sigma0_just_below_lambda1(
        self, monkeypatch, rows, cols, narrow
    ):
        # the floor is exact on boxes, so sigma0 = 0.99 lambda_1
        d = from_mask(np.ones((rows, cols), dtype=bool), 1 / 64)
        assert (pde._stencil(d).b <= pde._NARROW_BAND) == narrow
        bands = recording_factors(monkeypatch)
        want = box_eigenvalues(rows, cols, d.h, 6)
        sigma0 = pde._FLOOR_FRACTION * pde._lambda1_floor(d)
        assert sigma0 == pytest.approx(pde._FLOOR_FRACTION * want[0], rel=1e-12)
        s = eigenvalues(d, k=6)
        assert [b.shift for b in bands] == [sigma0]  # narrow or not, without a factor
        np.testing.assert_allclose(s.eigenvalues, want, rtol=1e-9, atol=0)
        assert s.inertia_count == sum(v < s.shift for v in s.eigenvalues)

    @pytest.mark.parametrize("shared", [False, True], ids=["alone", "solve_raster"])
    def test_missed_eigenvalue_refactors_the_sigma0_band(self, monkeypatch, shared):
        d = tube(1 / 32)
        calls: list[int] = []
        monkeypatch.setattr(pde.sparse_linalg, "eigsh", dropping_eigsh(calls, 1))
        bands = recording_factors(monkeypatch)
        inertia = pde._band_inertia
        shifts = []

        def one_factor_alive(stencil, sigma):
            assert all(b.band is None for b in bands)
            shifts.append(sigma)
            return inertia(stencil, sigma)

        monkeypatch.setattr(pde, "_band_inertia", one_factor_alive)
        s = solve_raster(d, k=4)[1] if shared else eigenvalues(d, k=4)
        assert calls == [4, 5]
        sigma0 = pde._FLOOR_FRACTION * pde._lambda1_floor(d)
        assert [b.shift for b in bands] == [0.0] * shared + [sigma0, sigma0]
        assert len(shifts) == 2 and sigma0 < shifts[0] and shifts[1] == s.shift
        np.testing.assert_allclose(s.eigenvalues, dense_eigenvalues(d, 4), rtol=1e-9)

    def test_torsion_refuses_a_shifted_factor(self):
        d = tube(1 / 32)
        sigma0 = pde._FLOOR_FRACTION * pde._lambda1_floor(d)
        band = factor_laplacian(d, sigma0)
        b = np.random.default_rng(0).standard_normal(band.stencil.n)
        x = band.solve(b)
        assert np.linalg.norm(band.residual(x, b)) < 1e-9 * np.linalg.norm(b)
        with pytest.raises(ValueError, match="not of A - "):
            solve_torsion(d, band)


@pytest.fixture
def two_blas_threads():
    """Set SciPy's OpenBLAS to two threads, as a caller might; yield the getter."""
    if pde._ONE_BLAS_THREAD.controls is None:
        pytest.skip("SciPy's OpenBLAS exports no thread controls")
    get, put = pde._ONE_BLAS_THREAD.controls
    before = get()
    put(2)
    yield get
    put(before)


def recording_threads(monkeypatch, get) -> list[tuple[str, int]]:
    """Record the OpenBLAS thread count at every band factorization, band
    count, SuperLU factorization and Lanczos operator application."""
    seen: list[tuple[str, int]] = []

    def recorded(name, fn):
        def run(*args, **kwargs):
            seen.append((name, get()))
            return fn(*args, **kwargs)

        return run

    for name in ("_DPBTRF", "_DPBTF2"):
        monkeypatch.setattr(pde, name, recorded(name, getattr(pde, name)))
    monkeypatch.setattr(pde.sparse_linalg, "splu", recorded("splu", sparse_linalg.splu))
    lanczos = pde._lanczos

    def run(solve, *args):
        return lanczos(recorded("lanczos", solve), *args)

    monkeypatch.setattr(pde, "_lanczos", run)
    return seen


# a wide band-side raster (torsion band handed on), a narrow one (its own
# sigma0 band) and, with no band entries allowed, the sparse kind
PIN_CASES = [(ball(1 / 64), None), (tube(1 / 64), None), (ball(1 / 64), 0)]


class TestOneBlasThread:
    @pytest.mark.parametrize("d, entries", PIN_CASES)
    def test_every_kernel_runs_on_one_thread(self, monkeypatch, two_blas_threads, d, entries):
        if entries is not None:
            monkeypatch.setattr(pde, "_BAND_ENTRIES", entries)
        seen = recording_threads(monkeypatch, two_blas_threads)
        solve_raster(d, k=3)
        assert two_blas_threads() == 2
        eigenvalues(d, k=3)
        assert two_blas_threads() == 2
        factor_laplacian(d)
        assert two_blas_threads() == 2
        names = {name for name, _ in seen}
        assert "lanczos" in names
        assert ("_DPBTRF" in names) == (entries is None)
        assert ("splu" in names) == (entries == 0)
        assert ("_DPBTF2" in names) == (entries is None)
        assert all(count == 1 for _, count in seen)

    def test_restored_after_a_failed_factorization(self, two_blas_threads):
        d = ball(1 / 32)
        with pytest.raises(LinAlgError):
            factor_laplacian(d, 1.05 * eigenvalues(d, k=1)[1])
        assert two_blas_threads() == 2

    def test_restored_after_a_two_worker_suite(self, monkeypatch, two_blas_threads):
        seen = recording_threads(monkeypatch, two_blas_threads)
        config = RunConfig(K=200.0, k=3, mode="practical:1e12", workers=2)
        result = run_suite(surgery_corpus(1 / 32)[:2], config)
        assert len(result.rows) == 2
        assert two_blas_threads() == 2
        assert seen and all(count == 1 for _, count in seen)

    def test_no_op_without_the_thread_controls(self, monkeypatch, two_blas_threads):
        class NoSymbols:
            def __init__(self, path):
                pass

            def __getattr__(self, name):
                raise AttributeError(name)

        monkeypatch.setattr(pde.ctypes, "CDLL", NoSymbols)
        assert pde._openblas_threads() is None
        monkeypatch.setattr(pde._ONE_BLAS_THREAD, "controls", None)
        seen = recording_threads(monkeypatch, two_blas_threads)
        solve_raster(ball(1 / 64), k=3)
        assert seen and all(count == 2 for _, count in seen)
        assert two_blas_threads() == 2

    def test_nested_and_raising_blocks_restore_the_count(self, two_blas_threads):
        with pytest.raises(RuntimeError):
            with pde._ONE_BLAS_THREAD:
                with pde._ONE_BLAS_THREAD:
                    assert two_blas_threads() == 1
                assert two_blas_threads() == 1
                raise RuntimeError
        assert two_blas_threads() == 2

    def test_threads_share_the_pin(self, two_blas_threads):
        # more threads than cores, switching often: a lost update of the depth
        # count would restore the count early (a 2 read inside) or never
        errors: list[int] = []

        def enter_many():
            for _ in range(300):
                with pde._ONE_BLAS_THREAD:
                    with pde._ONE_BLAS_THREAD:
                        if two_blas_threads() != 1:
                            errors.append(two_blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_many) for _ in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert two_blas_threads() == 2

    def test_results_are_bit_identical_without_the_pin(self, monkeypatch, two_blas_threads):
        cases = PIN_CASES + [(ball(1 / 96), None), (blob_union(1 / 96, seed=1), None)]

        def solve_all():
            out = []
            for d, entries in cases:
                with monkeypatch.context() as m:
                    if entries is not None:
                        m.setattr(pde, "_BAND_ENTRIES", entries)
                    out.append(solve_raster(d, k=5))
            return out

        pinned = solve_all()
        monkeypatch.setattr(pde._ONE_BLAS_THREAD, "controls", None)
        for (f1, s1), (f2, s2) in zip(pinned, solve_all()):
            assert f1.values.tobytes() == f2.values.tobytes()
            assert f1.residual == f2.residual
            assert s1 == s2
