"""Certified enumeration: the interval kernel and branch and prune.

The grid path (``enumerate_report`` with an explicit ``grid_n``, the only
entry point that takes one) is the reference the certified path must
reproduce: the same roots at 1e-7, the same Morse data and the same
degrees.  The kernel is checked against point evaluations of the residual
and the Jacobian at random points of random boxes, against the Krawczyk
operator's point images in exact rational arithmetic, and against the
one-term-at-a-time reference in ``reference_kernel.py``: bit for bit where
the arithmetic is the same, within rounding where the kernel takes products
in midpoint-radius form.
"""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cshlab import (
    ScalarModel,
    SolveOptions,
    SolverError,
    SystemModel,
    build_graph,
    complete_graph,
    cycle_graph,
    degree_by_enumeration,
    enumerate_report,
    estimate_threshold,
    path_graph,
)
import cshlab.solve as solve_mod
from cshlab import interval
from cshlab.graphs import average
from cshlab.scalar import jacobian
from cshlab.solve import (
    _CONVERGED,
    _branch_and_prune,
    _classify_root,
    _newton_batch,
    _scalar_problem,
    default_grid_n,
)

import reference_kernel

GRAPHS = {"K2": complete_graph(2), "P3": path_graph(3), "C4": cycle_graph(4),
          "K5": complete_graph(5)}
SIGN_PATTERNS = ((10.0, -1.0), (-10.0, 1.0), (-10.0, -1.0), (10.0, 1.0))


def _jittered(g, fbar, seed):
    d = np.random.default_rng(seed).uniform(-1.0, 1.0, g.ell)
    return fbar + 0.05 * abs(fbar) * (d - average(g, d))


def _assert_same_roots(certified, grid):
    assert len(certified) == len(grid)
    unused = list(grid)
    for r in certified:
        match = [s for s in unused if np.abs(s.point - r.point).max() <= 1e-7]
        assert len(match) == 1, r.point
        s = match[0]
        assert (s.morse_index, s.nondegenerate, s.sign_det) == (
            r.morse_index, r.nondegenerate, r.sign_det)
        unused.remove(s)


CROSS_CHECK = [(name, lam, fbar, None) for name in GRAPHS for lam, fbar in SIGN_PATTERNS]
CROSS_CHECK += [(name, -10.0, 1.0, seed) for seed, name in enumerate(GRAPHS, start=1)]


@pytest.mark.parametrize("name,lam,fbar,jitter", CROSS_CHECK)
def test_certified_degree_matches_grid(name, lam, fbar, jitter):
    g = GRAPHS[name]
    f = np.full(g.ell, fbar) if jitter is None else _jittered(g, fbar, jitter)
    m = ScalarModel(lam=lam, f=f)
    cert = degree_by_enumeration(g, m)
    grid = enumerate_report(g, m, grid_n=default_grid_n(g.ell))
    assert cert.enumeration.certified and not grid.certified
    assert cert.enumeration.grid_levels == [] and cert.enumeration.stable
    # the grid run's degree over the same ball
    roots = [r for r in grid.roots if np.abs(r.point).max() < cert.radius_used]
    assert cert.computed_degree == sum(r.sign_det for r in roots) == cert.expected_degree
    assert cert.morse_sum == sum((-1) ** r.morse_index for r in roots if r.nondegenerate)
    _assert_same_roots(cert.roots, roots)


def test_certified_polish_never_backtracks(monkeypatch):
    # every Newton or polish step of a certified run accepts the full step
    # in its first residual round, so a change to the line search's
    # backtracking cannot move a certified root, degree or threshold
    calls = []
    real_rows, real_steps, real_chunk = (solve_mod._residual_rows, solve_mod._newton_steps,
                                         solve_mod._newton_chunk)

    def rows_spy(problem, X):
        calls.append("r")
        return real_rows(problem, X)

    def steps_spy(problem, X, F):
        calls.append("s")
        return real_steps(problem, X, F)

    def chunk_spy(problem, X, opts):
        calls.append("C")
        return real_chunk(problem, X, opts)

    monkeypatch.setattr(solve_mod, "_residual_rows", rows_spy)
    monkeypatch.setattr(solve_mod, "_newton_steps", steps_spy)
    monkeypatch.setattr(solve_mod, "_newton_chunk", chunk_spy)
    for name in ("P3", "C4", "K5"):
        g = GRAPHS[name]
        assert degree_by_enumeration(g, ScalarModel(lam=-10.0, f=np.ones(g.ell))).enumeration.certified
    est = estimate_threshold(GRAPHS["K2"], np.full(2, -1.0), "strict_min_neg",
                             bracket=(-5.0, -3.0), tol=1e-4)
    assert est.consistent and est.lo <= -4.0 <= est.hi
    # a chunk opens with its base residual; each step is followed by
    # exactly one residual round (other residual calls come before a chunk)
    trace = "".join(calls)
    assert trace.count("s") > 100
    assert re.fullmatch(r"(?:r*Cr(?:sr)*)+", trace), trace


@pytest.mark.parametrize("g,m", [
    (complete_graph(2), ScalarModel(lam=-12.0, f=np.full(2, -0.8), p=2)),
    (complete_graph(2), ScalarModel(lam=-10.0, f=np.ones(2), sigma=0.5)),
    (path_graph(3), ScalarModel(lam=-10.0, f=np.ones(3), p=2, sigma=0.5)),
    (complete_graph(2), ScalarModel(lam=8.0, f=np.full(2, -1.0), p=3, sigma=0.0)),
], ids=["c11-p2", "sigma-half", "P3-p2-sigma-half", "p3-sigma0"])
def test_certified_generalized_model_matches_grid(g, m):
    box = (-9.0, 3.0)
    cert = enumerate_report(g, m, box=box, check_box=False)
    grid = enumerate_report(g, m, box=box, grid_n=default_grid_n(g.ell), check_box=False)
    assert cert.certified and cert.unresolved == 0 and cert.boxes > 0
    assert cert.roots
    _assert_same_roots(cert.roots, grid.roots)
    assert sum(r.sign_det for r in cert.roots) == sum(r.sign_det for r in grid.roots)


def _models():
    rng = np.random.default_rng(7)
    g = build_graph([("a", 1.0), ("b", 2.0), ("c", 0.5)],
                    [("a", "b", 1.0), ("b", "c", 0.4), ("a", "c", 2.5)])
    for p in (1, 2, 3):
        for sigma in (0.0, 0.5, 1.0):
            for lam in (-7.0, 3.0):
                yield g, ScalarModel(lam=lam, f=rng.uniform(-2.0, 2.0, 3), p=p, sigma=sigma)


def _point_residual(g, m, x):
    # the residual formula without the exp guard, so boxes past +-700 and
    # boxes where exp underflows can be sampled too
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(x)
        return x @ g.neg_laplacian_matrix().T + m.lam * e * (e - m.sigma) ** (2 * m.p - 1) + m.f


def _point_diag(m, x):
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(x)
        return m.lam * e * (e - m.sigma) ** (2 * m.p - 2) * (2 * m.p * e - m.sigma)


# centres and scales of random boxes: moderate, narrow, near overflow and
# underflow of exp, and past the exp guard on both sides
KERNEL_BOXES = [(0.0, 3.0), (-5.0, 0.01), (345.0, 8.0), (-700.0, 4.0), (700.0, 2.0),
                (-760.0, 30.0)]


def _random_boxes(rng, centre, scale, boxes, n):
    mid = centre + rng.uniform(-scale, scale, (boxes, n))
    half = rng.uniform(0.0, scale, (boxes, n)) * rng.uniform(0.0, 1.0, (boxes, 1))
    return np.array((mid - half, mid + half))


@pytest.mark.parametrize("centre,scale", KERNEL_BOXES)
def test_interval_kernel_encloses_point_values(centre, scale):
    rng = np.random.default_rng(11)
    for g, m in _models():
        X = _random_boxes(rng, centre, scale, 64, g.ell)
        lo, hi = X
        kernel = interval.ScalarKernel(g, m)
        Fl, Fh = kernel.residual_bounds(X)
        dl, dh = kernel.jacobian_diag_bounds(X)
        for _ in range(8):
            x = lo + rng.uniform(0.0, 1.0, lo.shape) * (hi - lo)
            F, d = _point_residual(g, m, x), _point_diag(m, x)
            assert np.all((Fl <= F) & (F <= Fh)), (m, centre)
            assert np.all((dl <= d) & (d <= dh)), (m, centre)


def _assert_no_wider(got, want, what):
    # where the reference's enclosure is finite, the kernel's is too and at
    # most 1e-10 (1 + |bound|) wider
    finite = np.isfinite(want[1] - want[0])
    slack = 1e-10 * (1.0 + np.maximum(np.abs(want[0]), np.abs(want[1])))
    assert np.all((got[1] - got[0] <= want[1] - want[0] + slack)[finite]), what


@pytest.mark.parametrize("centre,scale", KERNEL_BOXES)
def test_interval_kernel_matches_the_reference_within_rounding(centre, scale):
    # the reference evaluates one column, one term and one bound at a time.
    # The Jacobian diagonal does the same arithmetic and matches it bit for
    # bit; the residual and the Krawczyk operator take their products with -L
    # and Y in midpoint-radius form, so they are checked for containment at
    # sampled points and for width against the reference
    rng = np.random.default_rng(13)
    models = [*_models(), (GRAPHS["K5"], ScalarModel(lam=-10.0, f=np.ones(5))),
              (GRAPHS["K5"], ScalarModel(lam=4.0, f=rng.uniform(-2.0, 2.0, 5), p=2, sigma=0.5))]
    for g, m in models:
        kernel = interval.ScalarKernel(g, m)
        for boxes in (1, 7, 64):
            X = _random_boxes(rng, centre, scale, boxes, g.ell)
            lo, hi = X
            what = (m, centre, boxes)
            D = kernel.jacobian_diag_bounds(X)
            D_ref = reference_kernel.jacobian_diag_bounds(g, m, lo, hi)
            assert np.array(D_ref).tobytes() == D.tobytes(), what
            F = kernel.residual_bounds(X)
            F_ref = reference_kernel.residual_bounds(g, m, lo, hi)
            _assert_no_wider(F, F_ref, what)
            K = kernel.krawczyk(X)
            _assert_no_wider(K, reference_kernel.krawczyk(g, m, lo, hi), what)
            # exclusion follows the residual and the integral test, which is
            # unchanged: the flags agree wherever the reference's residual
            # bounds keep clear of zero by more than the width slack
            near = (np.abs(F_ref) <= 1e-10 * (1.0 + np.abs(F_ref))).any(axis=(0, 2))
            same = kernel.excluded(X) == reference_kernel.excluded(g, m, lo, hi)
            assert np.all(same | near), what
            # containment: F(x), and the Newton image x - Y F(x), which lies in
            # K(X) by the mean value theorem; F(x) and the product are enclosed
            # by the reference, whose result must meet K(X)
            with np.errstate(all="ignore"):
                c, _, Y = kernel._centre(X)
            for _ in range(4):
                x = lo + rng.uniform(0.0, 1.0, lo.shape) * (hi - lo)
                Fx = _point_residual(g, m, x)
                assert np.all((F[0] <= Fx) & (Fx <= F[1])), what
                Fl, Fh = reference_kernel.residual_bounds(g, m, x, x)
                with np.errstate(all="ignore"):
                    vl, vh = reference_kernel._matvec(Y, Fl, Fh)
                    Nl, Nh = np.nextafter(x - vh, -np.inf), np.nextafter(x - vl, np.inf)
                known = np.isfinite(Nl) & np.isfinite(Nh) & ~np.isnan(K).any(axis=0)
                assert np.all(((K[0] <= Nh) & (Nl <= K[1]))[known]), what


def _exact(a):
    return np.vectorize(Fraction, otypes=[object])(a)


@pytest.mark.parametrize("centre,scale", KERNEL_BOXES)
def test_krawczyk_encloses_its_exact_point_images(centre, scale):
    # K(X) must hold c - Y F + (I - Y (A + diag d)) (x - c) for every x in X,
    # every d in the Jacobian diagonal's enclosure over X and every F in the
    # enclosure of F(c), with the kernel's own c and Y; evaluated in exact
    # rational arithmetic at corners and random points of those sets
    rng = np.random.default_rng(17)
    checked = 0
    for g, m in _models():
        kernel = interval.ScalarKernel(g, m)
        X = _random_boxes(rng, centre, scale, 8, g.ell)
        with np.errstate(all="ignore"):
            c, _, Y = kernel._centre(X)
        FC = kernel.residual_bounds(np.array((c, c)))
        D = kernel.jacobian_diag_bounds(X)
        K = kernel.krawczyk(X)
        A, I = _exact(kernel.A), _exact(np.eye(g.ell))
        for b in range(X.shape[1]):
            for _ in range(3):
                s = rng.choice([0.0, 1.0, 0.5], (3, g.ell), p=[0.4, 0.4, 0.2])
                s[s == 0.5] = rng.uniform(0.0, 1.0, (s == 0.5).sum())
                with np.errstate(all="ignore"):
                    x, d, F = (np.clip(B[0, b] + s[k] * (B[1, b] - B[0, b]), B[0, b], B[1, b])
                               for k, B in enumerate((X, D, FC)))
                if not all(np.isfinite(v).all() for v in (x, d, F, Y[b])):
                    continue
                Yb, cb = _exact(Y[b]), _exact(c[b])
                M = I - Yb.dot(A + np.diag(_exact(d)))
                image = cb - Yb.dot(_exact(F)) + M.dot(_exact(x) - cb)
                for i in range(g.ell):
                    lo_i, hi_i = K[0, b, i], K[1, b, i]
                    assert not (np.isfinite(lo_i) and image[i] < Fraction(lo_i)), (m, centre, b)
                    assert not (np.isfinite(hi_i) and image[i] > Fraction(hi_i)), (m, centre, b)
                    checked += not np.isnan(lo_i) and not np.isnan(hi_i)
    assert checked or centre == 700.0


def test_kernel_centre_inverts_the_scalar_jacobian(monkeypatch):
    # the J(c) the Krawczyk test inverts is scalar.jacobian(c) bit for bit,
    # for every p and sigma, wherever that is defined (|c| <= 700)
    taken = []
    monkeypatch.setattr(interval, "_approximate_inverse", lambda J: taken.append(J) or J)
    rng = np.random.default_rng(23)
    for g, m in _models():
        kernel = interval.ScalarKernel(g, m)
        for centre, scale in ((0.0, 3.0), (-5.0, 0.01), (345.0, 8.0), (-690.0, 8.0), (690.0, 8.0)):
            X = _random_boxes(rng, centre, scale, 64, g.ell)
            with np.errstate(all="ignore"):
                c = kernel._centre(X)[0]
            assert taken.pop().tobytes() == jacobian(g, m, c).tobytes(), (m, centre)


def test_krawczyk_without_an_inverse_holds_the_box():
    # lam = 0: J(c) = -L is singular, Y = 0 and K(X) = c + (X - c) >= X
    g = GRAPHS["P3"]
    kernel = interval.ScalarKernel(g, ScalarModel(lam=0.0, f=np.array([1.0, -0.5, -1.0])))
    X = _random_boxes(np.random.default_rng(5), 1.0, 3.0, 16, g.ell)
    assert not kernel._centre(X)[2].any()
    K = kernel.krawczyk(X)
    assert np.all((K[0] <= X[0]) & (X[1] <= K[1]))


@pytest.mark.parametrize("name", ["K5", "C8"])
def test_interval_kernel_bounds_do_not_depend_on_the_stack(name):
    # products are taken per box: a box alone gets the same bits as inside a
    # stack of 1,024 (one (B n, n) gemm would block by B and differ)
    g = complete_graph(5) if name == "K5" else cycle_graph(8)
    m = ScalarModel(lam=-10.0, f=np.ones(g.ell))
    kernel = interval.ScalarKernel(g, m)
    rng = np.random.default_rng(19)
    r = solve_mod.apriori_radius(g, m).radius
    mid = rng.uniform(-r, r, (1024, g.ell))
    half = r * 10.0 ** rng.uniform(-6.0, -1.0, (1024, 1)) * rng.uniform(0.1, 1.0, (1024, g.ell))
    X = np.array((mid - half, mid + half))
    methods = (kernel.residual_bounds, kernel.jacobian_diag_bounds, kernel.excluded,
               kernel.krawczyk)
    whole = [f(X) for f in methods]
    for b in rng.choice(1024, 48, replace=False):
        for f, stacked in zip(methods, whole):
            alone = f(X[:, b:b + 1])
            box_axis = 1 if alone.ndim == 3 else 0
            assert alone.tobytes() == np.take(stacked, [b], axis=box_axis).tobytes()


def test_one_kernel_object_per_enumeration(monkeypatch):
    # the kernel's constants are built once per enumeration, not per pass of
    # the worklist (K5 takes about 14k boxes, in many passes)
    built = []
    real = interval.ScalarKernel.__init__

    def counting_init(kernel, g, m):
        built.append(m)
        real(kernel, g, m)

    monkeypatch.setattr(interval.ScalarKernel, "__init__", counting_init)
    g = GRAPHS["K5"]
    m = ScalarModel(lam=-10.0, f=np.ones(5))
    rep = enumerate_report(g, m)
    assert rep.certified and rep.boxes > 10 * solve_mod._BOX_CHUNK
    assert built == [m]


def test_interval_kernel_never_excludes_a_root_box():
    # boxes around polished roots (residual ~1e-15), in every position; the
    # widths stay far above the distance to the exact root
    rng = np.random.default_rng(3)
    for name, g in GRAPHS.items():
        for lam, fbar in SIGN_PATTERNS:
            m = ScalarModel(lam=lam, f=np.full(g.ell, fbar))
            roots = np.array([r.point for r in enumerate_report(g, m).roots])
            if not len(roots):
                continue
            roots = np.repeat(roots, 16, axis=0)
            w = 10.0 ** rng.uniform(-5, 1, (len(roots), 1))
            lo = roots - rng.uniform(0.0, 1.0, roots.shape) * w
            hi = lo + w
            kernel = interval.ScalarKernel(g, m)
            assert not kernel.excluded(np.array((lo, hi))).any(), name
            klo, khi = kernel.krawczyk(np.array((lo, hi)))
            assert np.all((klo <= roots) & (roots <= khi)), name


def test_inclusion_boxes_hold_their_polished_root_and_sign():
    for name in ("P3", "C4"):
        g = GRAPHS[name]
        m = ScalarModel(lam=-10.0, f=_jittered(g, 1.0, 9))
        r = solve_mod.apriori_radius(g, m).radius
        lo, hi, unr_lo, _, boxes = _branch_and_prune(
            g, m, np.full(g.ell, -r), np.full(g.ell, r), SolveOptions())
        assert len(unr_lo) == 0 and len(lo) > 0 and boxes > len(lo)
        problem = _scalar_problem(g, m)
        mid = lo + 0.5 * (hi - lo)
        X, nF, status = _newton_batch(problem, mid, SolveOptions())
        assert np.all(status == _CONVERGED)
        assert np.all((lo <= X) & (X <= hi))
        J = problem.jacobian(mid)
        for k in range(len(X)):
            root = _classify_root(problem, X[k], nF[k])
            assert root.nondegenerate
            # sign det J is constant on an inclusion box
            assert root.sign_det == np.sign(np.linalg.det(J[k]))
            assert root.sign_det == np.sign(np.linalg.det(problem.jacobian(X[k][None])[0]))


def test_degenerate_root_is_found_but_not_certified():
    # f = 0, lam = -2: the constant root u = 0 is degenerate (J = -L - 2 I on K2)
    g = GRAPHS["K2"]
    m = ScalarModel(lam=-2.0, f=np.zeros(2))
    cert = enumerate_report(g, m, box=(-4.0, 3.0), check_box=False)
    grid = enumerate_report(g, m, box=(-4.0, 3.0), grid_n=41, check_box=False)
    assert not cert.certified and not cert.stable
    assert cert.unresolved > 0
    assert any(np.all(r.point == 0.0) for r in cert.roots)
    assert len(cert.roots) < len(grid.roots)
    # the degree report says so too
    rep = degree_by_enumeration(g, m, radius=3.0)
    assert not rep.enumeration.certified and rep.degenerate_roots >= 1


def test_included_box_without_its_root_is_unresolved(monkeypatch):
    # a polish that fails for the first included box must cost the
    # certificate, not silently drop that box's root
    g = GRAPHS["K2"]
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    real = solve_mod._newton_batch

    def stall_first(problem, seeds, opts):
        X, nF, status = real(problem, seeds, opts)
        status[0] = solve_mod._STALLED
        return X, nF, status

    monkeypatch.setattr(solve_mod, "_newton_batch", stall_first)
    rep = enumerate_report(g, m)
    assert rep.unresolved == 1 and not rep.certified and not rep.stable


def test_non_finite_box_bounds(monkeypatch):
    g = GRAPHS["K2"]
    m = ScalarModel(lam=-10.0, f=np.ones(2))
    s = SystemModel(p=0.5, q=0.5, f=np.ones(2), g=np.ones(2))
    # NaN compares False both ways: it passed the ordering check and gave an
    # empty certified report; every path rejects it
    for model, grid_n, box in ((m, None, (np.nan, 3.0)), (m, None, ([-3.0, np.nan], 3.0)),
                               (m, 5, (-3.0, np.nan)), (s, 5, (np.nan, 3.0))):
        with pytest.raises(ValueError, match="must not be NaN"):
            enumerate_report(g, model, box=box, grid_n=grid_n, check_box=False)
    with pytest.raises(ValueError, match="must not be NaN"):
        degree_by_enumeration(g, m, radius=np.nan)
    # branch and prune never finished on an infinite box
    for box in ((-3.0, np.inf), (-np.inf, 3.0), ([-3.0, -np.inf], np.inf)):
        with pytest.raises(ValueError, match="needs a finite box"):
            enumerate_report(g, m, box=box, check_box=False)
    with pytest.raises(ValueError, match="needs a finite box"):
        degree_by_enumeration(g, m, radius=np.inf)
    # the grid path seeds inside [-45, 45] and keeps an infinite bound (an
    # overflowing system bound can be one): the seeds and roots of ±45
    finite = enumerate_report(g, m, box=(-45.0, 45.0), grid_n=9, check_box=False)
    infinite = enumerate_report(g, m, box=(-np.inf, np.inf), grid_n=9, check_box=False)
    assert infinite.seeds_used == finite.seeds_used
    assert [r.point.tobytes() for r in infinite.roots] == [r.point.tobytes() for r in finite.roots]
    assert len(infinite.roots) == 3
    monkeypatch.setattr(solve_mod, "_REFINEMENTS", 0)  # one grid level is enough here
    rep = degree_by_enumeration(g, s, radius=np.inf)
    assert rep.computed_degree == 0 and not rep.roots


def test_continuum_of_roots_exceeds_the_box_budget():
    # lam = 0 with a mean-zero source: phi + c solves for every constant c
    g = GRAPHS["K2"]
    m = ScalarModel(lam=0.0, f=np.array([1.0, -1.0]))
    with pytest.raises(SolverError, match="box budget exceeded"):
        enumerate_report(g, m, box=(-3.0, 3.0), opts=SolveOptions(seed_cap=20_000),
                         check_box=False)


def test_worklist_memory_is_bounded_by_the_chunk(monkeypatch):
    # K5 takes about 14k boxes; its widest level holds over a thousand
    g = GRAPHS["K5"]
    m = ScalarModel(lam=-10.0, f=np.ones(5))
    r = solve_mod.apriori_radius(g, m).radius
    lo, hi = np.full(5, -r), np.full(5, r)
    sizes = []
    real = interval.ScalarKernel.krawczyk

    def spy(kernel, X):
        sizes.append(X.shape[1])
        return real(kernel, X)

    def peak(chunk):
        monkeypatch.setattr(solve_mod, "_BOX_CHUNK", chunk)
        tracemalloc.start()
        try:
            out = _branch_and_prune(g, m, lo, hi, SolveOptions())
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    unchunked, whole = peak(10 ** 7)
    monkeypatch.setattr(interval.ScalarKernel, "krawczyk", spy)
    chunked, small = peak(64)
    assert max(sizes) <= 64
    assert chunked[-1] == unchunked[-1] and len(chunked[0]) == len(unchunked[0]) == 31
    assert small < 0.5 * whole and small < 1_000_000, (small, whole)
