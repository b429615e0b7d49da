"""Each raster is solved once and factored once, with the configured seed.

The ``solves`` fixture records every torsion solve and eigensolve made from
inside the package, keyed by the occupancy bits, so a rescaled copy of a
raster counts as the same raster.  The solvers this module imports by name
are bound before the fixture patches the package, so the tests' own solves
of their inputs are not recorded.  The ``factorizations`` fixture records
every band Cholesky factorization and every sparse LDL^T shift; ``band_shifts``
adds the shift of each band factorization, and ``certificates`` records the
shift of each band inertia count.  ``stencils`` records every raster
description (``pde._stencil``) that ``pde`` builds.  ``solve_torsion`` called
without a factor parks its factor at 0 for the same thread's next
``eigenvalues`` of the same raster; the hand-off tests check that it is taken
there and nowhere else.
"""

from __future__ import annotations

import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

import eigsurgery
from eigsurgery import cli, corpus, domain, harness, inequalities, pde, surgery
from eigsurgery.corpus import CorpusSpec, ball, blob_union, square, tube
from eigsurgery.harness import RunConfig, run_one
from eigsurgery.pde import eigenvalues, solve_torsion

MODULES = (eigsurgery, cli, corpus, domain, harness, inequalities, pde, surgery)


def occupancy_key(d):
    return (d.occupancy.shape, d.occupancy.tobytes())


@pytest.fixture
def solves(monkeypatch):
    """Package solves as ``(solver, occupancy key, keyword arguments)``."""
    calls = []
    for name in ("solve_torsion", "eigenvalues"):
        original = getattr(pde, name)

        def recording(d, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, occupancy_key(d), kwargs))
            return _original(d, *args, **kwargs)

        for mod in MODULES:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, recording)
    return calls


@pytest.fixture
def factorizations(monkeypatch):
    """Band factorizations by occupancy key, and sparse LDL^T shifts."""
    rasters, shifts, lapack_calls = [], [], []
    original, ldlt, cholesky = pde._factor, pde._ldlt, pde._band_cholesky

    def recording_factor(stencil, shift, perm=None):
        factor = original(stencil, shift, perm)
        if factor.band is not None:  # the band kind
            rasters.append(occupancy_key(stencil))
        return factor

    def recording_ldlt(stencil, sigma, perm=None):
        shifts.append(sigma)
        return ldlt(stencil, sigma, perm)

    def recording_cholesky(ab):
        lapack_calls.append(ab.shape)
        return cholesky(ab)

    monkeypatch.setattr(pde, "_factor", recording_factor)
    monkeypatch.setattr(pde, "_ldlt", recording_ldlt)
    monkeypatch.setattr(pde, "_band_cholesky", recording_cholesky)
    yield rasters, shifts
    assert len(lapack_calls) == len(rasters)  # every band factorization was seen


@pytest.fixture
def band_shifts(factorizations, monkeypatch):
    """The shift of every band factorization, in order."""
    shifts = []
    recorded = pde._factor  # the factorizations fixture's recorder

    def recording(stencil, shift, perm=None):
        factor = recorded(stencil, shift, perm)
        if factor.band is not None:  # the band kind
            shifts.append(shift)
        return factor

    monkeypatch.setattr(pde, "_factor", recording)
    return shifts


@pytest.fixture
def certificates(monkeypatch):
    """The shift of every band certificate (``pde._band_inertia``), in order."""
    shifts = []
    inertia = pde._band_inertia

    def recording(stencil, sigma):
        shifts.append(sigma)
        return inertia(stencil, sigma)

    monkeypatch.setattr(pde, "_band_inertia", recording)
    return shifts


@pytest.fixture
def stencils(monkeypatch):
    """The occupancy key of every stencil ``pde`` builds, in order."""
    keys = []
    stencil = pde._stencil

    def recording(d):
        keys.append(occupancy_key(d))
        return stencil(d)

    monkeypatch.setattr(pde, "_stencil", recording)
    return keys


@pytest.fixture
def lanczos_applications(monkeypatch):
    """Lanczos operator applications, one entry per Lanczos run."""
    counts = []
    lanczos = pde._lanczos

    def counting(solve, sigma, n, k, v0):
        counts.append(0)

        def applied(b):
            counts[-1] += 1
            return solve(b)

        return lanczos(applied, sigma, n, k, v0)

    monkeypatch.setattr(pde, "_lanczos", counting)
    return counts


def suite_raster(name, h=1 / 64):
    return corpus.generate(next(s for s in corpus.surgery_corpus(h) if s.name == name))


def sigma0(d):
    return pde._FLOOR_FRACTION * pde._lambda1_floor(d)


def test_only_pde_factors():
    # callers ask pde.solve_raster for both solves; the band stays in pde
    holders = [mod.__name__ for mod in MODULES if hasattr(mod, "factor_laplacian")]
    assert holders == ["eigsurgery.pde"]


def test_run_one_factors_each_raster_once(solves, factorizations, certificates):
    rasters, shifts = factorizations
    config = RunConfig(K=200.0, k=2, mode="practical:1e12")
    specs = [CorpusSpec("ball", "ball", 1 / 64), *corpus.surgery_corpus(1 / 64)[:2]]
    for spec in specs:
        assert run_one(spec, config)["passed"]
    assert rasters == [key for name, key, _ in solves if name == "solve_torsion"]
    # the torsion's band serves the eigensolve; only the certificate
    # assembles A - sigma I, and counts on its band
    assert len(set(rasters)) == len(rasters) == len(specs)
    assert len(certificates) == len(specs) and min(certificates) > 0
    assert shifts == []


def test_run_one_makes_no_sparse_factorization(factorizations, certificates):
    # every suite raster at 1/64 lies on the band side of the bound
    rasters, shifts = factorizations
    config = RunConfig(K=200.0, k=2, mode="practical:1e12")
    for spec in corpus.surgery_corpus(1 / 64):
        run_one(spec, config)
    assert shifts == [] and len(certificates) >= 10


def test_descent_makes_no_sparse_factorization(factorizations, certificates):
    # the benchmark's pool of blob unions, each descended and certified on
    # its bands
    _, shifts = factorizations
    for seed in range(12):
        surgery.bounded_surgery(
            blob_union(1 / 64, seed=seed), K=100.0, k=2, mode="practical:1e6"
        )
    assert shifts == [] and len(certificates) >= 12


def test_raster_above_the_bound_makes_no_band(
    monkeypatch, factorizations, band_shifts, certificates
):
    rasters, shifts = factorizations
    d = suite_raster("dumbbell-0")
    stencil = pde._stencil(d)
    monkeypatch.setattr(pde, "_BAND_ENTRIES", (stencil.b + 1) * stencil.n - 1)
    orderings = []
    splu = pde.sparse_linalg.splu

    def recording_splu(A, permc_spec, **kwargs):
        orderings.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(pde.sparse_linalg, "splu", recording_splu)
    _, s = pde.solve_raster(d, k=5)
    # one sparse LDL^T at 0 for the torsion and Lanczos, then the
    # certificate's in its minimum-degree order; no band at all
    assert rasters == band_shifts == certificates == []
    assert shifts == [0.0, s.shift]
    assert orderings == ["MMD_AT_PLUS_A", "NATURAL"]


def test_eigensolve_without_a_factor_makes_two_sparse_factorizations(
    monkeypatch, factorizations
):
    rasters, shifts = factorizations
    monkeypatch.setattr(pde, "_BAND_ENTRIES", 0)  # the sparse kind
    d = ball(1 / 64)
    s = eigenvalues(d, k=3)
    assert rasters == []
    # Lanczos's inverse about 0 < sigma0 < lambda_1, then the certificate
    assert shifts == [sigma0(d), s.shift]
    assert 0 < shifts[0] < s[1]


def test_eigensolve_without_a_factor_stays_on_the_band(
    factorizations, band_shifts, certificates
):
    rasters, shifts = factorizations
    d = ball(1 / 64)
    s = eigenvalues(d, k=3)
    # Lanczos's band about sigma0, then the certificate's band count
    assert band_shifts == [sigma0(d)] and rasters == [occupancy_key(d)]
    assert certificates == [s.shift] and shifts == []


def test_noop_descent_factors_each_raster_once(solves, factorizations, certificates):
    rasters, shifts = factorizations
    d = square(1 / 32)
    _, report = surgery.bounded_surgery(d, K=100.0, k=1)
    assert report.verdict == "no-op"
    assert Counter(rasters)[occupancy_key(d)] == 1
    assert max(Counter(rasters).values()) == 1
    assert set(rasters) == {key for name, key, _ in solves if name == "solve_torsion"}
    assert 0.0 not in shifts + certificates


def test_run_one_solves_each_raster_once(solves):
    config = RunConfig(K=200.0, k=2, mode="practical:1e12")
    row = run_one(CorpusSpec("ball", "ball", 1 / 64), config)
    assert row["passed"]
    per_raster = Counter((name, key) for name, key, _ in solves)
    assert per_raster and max(per_raster.values()) == 1


def test_noop_descent_solves_once(solves):
    d = square(1 / 32)
    _, report = surgery.bounded_surgery(d, K=100.0, k=1)
    assert report.verdict == "no-op"
    # the rejected descent candidates are other rasters, each solved once
    per_raster = Counter((name, key) for name, key, _ in solves)
    assert per_raster[("solve_torsion", occupancy_key(d))] == 1
    assert per_raster[("eigenvalues", occupancy_key(d))] == 1
    assert max(per_raster.values()) == 1


def test_descent_solves_each_occupancy_once(solves):
    _, report = surgery.bounded_surgery(
        blob_union(1 / 64, seed=10), K=100.0, k=2, mode="practical:1e6"
    )
    assert report.log
    per_raster = Counter((name, key) for name, key, _ in solves)
    assert max(per_raster.values()) == 1


def test_descent_checks_the_reported_spectra(solves):
    _, report = surgery.bounded_surgery(
        blob_union(1 / 64, seed=3), K=100.0, k=2, mode="practical:1e6", seed=5
    )
    assert report.log
    eig_calls = [kwargs for name, _, kwargs in solves if name == "eigenvalues"]
    assert eig_calls == [{"k": 2, "seed": 5}] * 2
    # the descended domain's spectrum, rescaled to unit measure, is the report's
    by_name = {c.name: c for c in report.checks}
    t = by_name["volume_floor"].rhs ** (-1 / 2)
    for i in (1, 2):
        ctx = by_name[f"eigenvalue_growth_{i}"].context
        assert ctx["before"] == report.before["spectrum"][i - 1]
        assert ctx["after"] / t**2 == report.after["spectrum"][i - 1]


def test_whole_component_takes_the_parent_field(solves):
    d = tube(1 / 128)  # no active region: the whole tube is replaced by a ball
    _, report = surgery.strip_surgery(
        solve_torsion(d), eigenvalues(d, k=2), K=200.0, k=2, mode="practical:1e12"
    )
    assert "positive_energy" in {c.name for c in report.checks}
    assert [name for name, _, _ in solves if name == "solve_torsion"] == []


def test_run_one_solves_the_replaced_tube_once(solves):
    config = RunConfig(K=200.0, k=2, mode="practical:1e12")
    row = run_one(CorpusSpec("tube", "tube", 1 / 128), config)
    assert "empty_active_region" in row["surgery"]["flags"]
    per_raster = Counter((name, key) for name, key, _ in solves)
    assert per_raster and max(per_raster.values()) == 1


@pytest.mark.parametrize("seed, count", [(3, 5), (10, 22)])
def test_descent_factors_at_most_half_as_often(factorizations, seed, count):
    # band factorizations without the Schur-complement screens: 19 for seed
    # 3, 104 for seed 10; with the one-point bound alone, 9 and 53; the
    # two-point bound settles more losers by a second back-solve, seed 3's
    # 5-column low edge strip among them
    rasters, _ = factorizations
    _, report = surgery.bounded_surgery(
        blob_union(1 / 64, seed=seed), K=100.0, k=2, mode="practical:1e6"
    )
    assert report.log
    assert len(rasters) == count
    assert max(Counter(rasters).values()) == 1


def test_descent_computes_the_lambda1_floor_once(monkeypatch):
    # every later domain is a subset of the start domain, so the start
    # domain's floor bounds their lambda_1 too
    calls = []
    floor = surgery._lambda1_floor

    def counting(d):
        calls.append(occupancy_key(d))
        return floor(d)

    monkeypatch.setattr(surgery, "_lambda1_floor", counting)
    d = surgery._normalized(blob_union(1 / 64, seed=10))[0]
    f0, band0 = pde.factored_torsion(d)
    _, log, _ = surgery.subsolution_truncate(f0, 0.01, r0=4 * d.h, k=2, factor=band0)
    assert len(log) > 1 and calls == [occupancy_key(d)]


@pytest.mark.parametrize("name", ["tube-0", "tube-1", "tube-2"])
def test_narrow_raster_factors_its_band_at_sigma0(
    factorizations, band_shifts, certificates, name
):
    # the torsion's band at 0, parked and released at once, Lanczos's own
    # band at sigma0, the certificate
    rasters, shifts = factorizations
    d = suite_raster(name)
    solve_torsion(d)
    s = eigenvalues(d, k=5)
    assert band_shifts == [0.0, sigma0(d)]
    assert rasters == [occupancy_key(d)] * 2
    assert certificates == [s.shift] and shifts == []


def test_wide_raster_factors_once(factorizations, band_shifts, certificates):
    # the C03 pipeline: solve_torsion parks its band at 0, and the next
    # eigensolve of the raster runs Lanczos on it
    rasters, shifts = factorizations
    d = suite_raster("dumbbell-0")
    solve_torsion(d)
    s = eigenvalues(d, k=5)
    assert band_shifts == [0.0] and rasters == [occupancy_key(d)]
    assert certificates == [s.shift] and shifts == []
    assert s == pde.solve_raster(d, k=5)[1]
    _, factor = pde.factored_torsion(d)
    assert s == eigenvalues(d, factor, k=5)  # exactly as a handed factor


def test_narrow_eigensolve_without_a_factor(factorizations, band_shifts, certificates):
    rasters, shifts = factorizations
    d = suite_raster("tube-1")
    s = eigenvalues(d, k=5)
    assert band_shifts == [sigma0(d)] and rasters == [occupancy_key(d)]
    assert certificates == [s.shift] and shifts == []  # no sparse LDL^T


def test_lanczos_applications_at_k5(lanczos_applications):
    # about 0 on its torsion band, tube-1 takes 148; the wide dumbbell-0
    # keeps that band and its count
    pde.solve_raster(suite_raster("tube-1"), k=5)
    pde.solve_raster(suite_raster("dumbbell-0"), k=5)
    tube_1, dumbbell_0 = lanczos_applications
    assert tube_1 <= 25 and dumbbell_0 == 43


@pytest.mark.parametrize("name", ["tube-1", "dumbbell-0"])
def test_eigensolve_without_a_factor_builds_one_stencil(stencils, band_shifts, name):
    # Lanczos's factor about sigma0 is built on the eigensolve's own stencil
    d = suite_raster(name)
    eigenvalues(d, k=5)
    assert stencils == [occupancy_key(d)] and band_shifts == [sigma0(d)]


@pytest.mark.parametrize("name", ["tube-1", "dumbbell-0"])
def test_eigensolve_of_a_handed_factor_builds_no_stencil(stencils, band_shifts, name):
    # a narrow raster's own sigma0 band is built on the handed factor's stencil
    d = suite_raster(name)
    factor = pde.factor_laplacian(d)
    assert stencils == [occupancy_key(d)]
    eigenvalues(d, factor, k=5)
    assert stencils == [occupancy_key(d)]
    narrow = factor.stencil.b <= pde._NARROW_BAND
    assert band_shifts == ([0.0, sigma0(d)] if narrow else [0.0])


def test_torsion_then_spectrum_over_the_default_corpus(factorizations, band_shifts):
    rasters, shifts = factorizations
    wide = 0
    for spec in corpus.default_corpus(1 / 64):
        d = corpus.generate(spec)
        st = pde._stencil(d)
        band_shifts.clear()
        solve_torsion(d)
        eigenvalues(d, k=5)
        narrow = st.b <= pde._NARROW_BAND  # no raster here takes the dense spectrum
        assert band_shifts == ([0.0, sigma0(d)] if narrow else [0.0]), spec.name
        wide += not narrow
    assert shifts == [] and wide == 18  # all but tube and tube-long


def test_hand_off_skips_another_raster(band_shifts):
    d1, d2 = suite_raster("dumbbell-0"), suite_raster("dumbbell-1")
    solve_torsion(d1)
    eigenvalues(d2, k=5)
    eigenvalues(d1, k=5)  # the eigensolve of d2 dropped d1's parked band
    assert band_shifts == [0.0, sigma0(d2), sigma0(d1)]


def test_hand_off_skips_a_rescaled_copy(band_shifts):
    d = suite_raster("dumbbell-0")
    copy = domain.rescale(d, 2.0)  # the same occupancy at another h
    solve_torsion(d)
    s = eigenvalues(copy, k=5)
    assert band_shifts == [0.0, sigma0(copy)]
    assert s[1] == pytest.approx(eigenvalues(d, k=5)[1] / 4, rel=1e-7)


def test_second_eigensolve_factors_its_own(band_shifts):
    d = suite_raster("dumbbell-0")
    solve_torsion(d)
    first, second = eigenvalues(d, k=5), eigenvalues(d, k=5)
    assert band_shifts == [0.0, sigma0(d)]
    assert first.eigenvalues == pytest.approx(second.eigenvalues, rel=1e-7)


def test_hand_off_skips_another_thread(band_shifts):
    # the main thread's parked band is neither taken nor dropped by another
    # thread's eigensolve of the same raster
    d = suite_raster("dumbbell-0")
    solve_torsion(d)
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(eigenvalues, d, k=5).result()
    assert band_shifts == [0.0, sigma0(d)]
    eigenvalues(d, k=5)
    assert band_shifts == [0.0, sigma0(d)]


def test_two_threads_interleaving_two_rasters(band_shifts):
    # A solves d1, B solves d2, A's spectrum, B's spectrum: each thread's
    # slot keeps its own band at 0, so neither eigensolve factors
    d1, d2 = suite_raster("dumbbell-0"), suite_raster("dumbbell-1")
    a_solved, b_solved, a_done = threading.Event(), threading.Event(), threading.Event()

    def thread_b():
        assert a_solved.wait(60)
        solve_torsion(d2)
        b_solved.set()
        assert a_done.wait(60)
        return eigenvalues(d2, k=5)

    with ThreadPoolExecutor(max_workers=1) as pool:
        b = pool.submit(thread_b)
        solve_torsion(d1)
        a_solved.set()
        assert b_solved.wait(60)
        s1 = eigenvalues(d1, k=5)
        a_done.set()
        s2 = b.result()
    assert band_shifts == [0.0, 0.0]
    assert (s1, s2) == (pde.solve_raster(d1, k=5)[1], pde.solve_raster(d2, k=5)[1])


def test_threads_keep_their_own_hand_off_under_stress(band_shifts):
    # more threads than cores, switching often: if one thread's solve could
    # drop or take another's parked band, some wide eigensolve would factor
    # its own at sigma0
    def wide(d):
        st = pde._stencil(d)
        return st.n > pde._DENSE_CUTOFF and st.b > pde._NARROW_BAND

    rasters = [corpus.generate(s) for s in corpus.default_corpus(1 / 32)]
    rasters = [d for d in rasters if wide(d)][:4]
    assert len(rasters) == 4
    expected = [pde.solve_raster(d, k=3)[1] for d in rasters]
    band_shifts.clear()

    def rounds(d):
        spectra = []
        for _ in range(5):
            solve_torsion(d)
            spectra.append(eigenvalues(d, k=3))
        return spectra

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(rasters)) as pool:
            futures = [pool.submit(rounds, d) for d in rasters]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert band_shifts == [0.0] * 20
    assert results == [[s] * 5 for s in expected]


def test_parked_factor_is_dead_before_the_next_factorization(monkeypatch):
    # every band that pde assembles, for a factor or a count, is made after
    # each parked factor was dropped or released
    wide, narrow = suite_raster("dumbbell-0"), suite_raster("tube-1")
    refs, alive = [], []
    reversed_band = pde._reversed_band

    def recording(st, shift):
        alive.append(any(ref() is not None for ref in refs))
        return reversed_band(st, shift)

    monkeypatch.setattr(pde, "_reversed_band", recording)
    for d, then in ((wide, None), (narrow, narrow), (wide, narrow)):
        solve_torsion(d)
        refs.append(weakref.ref(pde._PARKED.factor))
        if then is not None:
            eigenvalues(then, k=5)
    # three bands at 0, and twice the narrow raster's band at sigma0 and its
    # count: the first after its parked band was taken and released, the
    # second after another raster's parked band was dropped
    assert alive == [False] * 7
    assert all(ref() is None for ref in refs)


def test_sparse_factor_is_handed_off(monkeypatch, factorizations):
    rasters, shifts = factorizations
    monkeypatch.setattr(pde, "_BAND_ENTRIES", 0)  # the sparse kind
    d = suite_raster("dumbbell-0")
    solve_torsion(d)
    s = eigenvalues(d, k=5)
    # one sparse LDL^T at 0 for the torsion and Lanczos, then the certificate
    assert rasters == [] and shifts == [0.0, s.shift]
    _, factor = pde.factored_torsion(d)
    assert s == eigenvalues(d, factor, k=5)


def test_failed_torsion_solve_parks_nothing(monkeypatch, band_shifts):
    d = suite_raster("dumbbell-0")
    solve_torsion(d)  # parks its band at 0
    tol = pde.DEFAULT_CG_TOL
    monkeypatch.setattr(pde, "DEFAULT_CG_TOL", 0.0)
    with pytest.raises(RuntimeError, match="residual"):
        solve_torsion(d)  # drops the parked band, then fails its check
    monkeypatch.setattr(pde, "DEFAULT_CG_TOL", tol)
    assert pde._PARKED.factor is None
    eigenvalues(d, k=5)
    assert band_shifts == [0.0, 0.0, sigma0(d)]


def test_torsion_solve_on_a_handed_factor_drops_the_parked_one(band_shifts):
    d = suite_raster("dumbbell-0")
    factor = pde.factor_laplacian(d)
    solve_torsion(d)  # parks a second band at 0
    solve_torsion(d, factor)  # a solver call: the parked band is dropped
    eigenvalues(d, k=5)
    assert band_shifts == [0.0, 0.0, sigma0(d)]
