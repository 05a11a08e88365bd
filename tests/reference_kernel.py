"""Reference interval kernel: the scalar model's bounds as plain module functions.

One box column, one term and one numpy call at a time.  The tests compare
:class:`cshlab.interval.ScalarKernel`, which hoists the constants and stacks
the per-box work, with these functions.  The Jacobian diagonal does the same
floating-point operations on every element and must match bit for bit
(``tobytes``).  The kernel takes the residual's and the Krawczyk operator's
products with -L and Y in midpoint-radius form, so those must contain the
point images and be at most 1e-10 relative wider than this reference's
bounds; they need not equal them.
Keep this file frozen; a change of the kernel's rounding changes this
reference on purpose.
"""

from __future__ import annotations

import numpy as np

from cshlab.graphs import WeightedGraph
from cshlab.scalar import ScalarModel

# ulps by which exp is widened on each side
_EXP_ULPS = 4


def _dn(x):
    return np.nextafter(x, -np.inf)


def _up(x):
    return np.nextafter(x, np.inf)


def _add(al, ah, bl, bh):
    return _dn(al + bl), _up(ah + bh)


def _scale(a, xl, xh):
    """Enclosure of a * [xl, xh] for a point factor ``a``."""
    p, q = a * xl, a * xh
    return _dn(np.minimum(p, q)), _up(np.maximum(p, q))


def _mul(al, ah, bl, bh):
    """Enclosure of the product of two intervals."""
    p, q, r, s = al * bl, al * bh, ah * bl, ah * bh
    return (_dn(np.minimum(np.minimum(p, q), np.minimum(r, s))),
            _up(np.maximum(np.maximum(p, q), np.maximum(r, s))))


def _pow_nonneg(a, k: int, rnd):
    """a**k for a >= 0 and k >= 1, each product rounded by ``rnd`` (monotone)."""
    out = a
    for _ in range(k - 1):
        out = rnd(out * a)
    return out


def _ipow(lo, hi, k: int):
    """Exact enclosure of {x**k : lo <= x <= hi} for an integer k >= 0."""
    if k == 0:
        return np.ones_like(lo), np.ones_like(hi)
    if k % 2:  # odd powers increase
        return (np.where(lo >= 0, _pow_nonneg(np.abs(lo), k, _dn), -_pow_nonneg(np.abs(lo), k, _up)),
                np.where(hi >= 0, _pow_nonneg(np.abs(hi), k, _up), -_pow_nonneg(np.abs(hi), k, _dn)))
    low = np.where(lo > 0, lo, np.where(hi < 0, -hi, 0.0))
    return _pow_nonneg(low, k, _dn), _pow_nonneg(np.maximum(-lo, hi), k, _up)


def _exp_bounds(lo, hi):
    tl, th = np.exp(lo), np.exp(hi)
    for _ in range(_EXP_ULPS):
        tl, th = _dn(tl), _up(th)
    return np.maximum(tl, 0.0), th


def _g_at(m: ScalarModel, tl, th):
    """Natural interval extension of g(t) = t (t - sigma)^(2p-1) over [tl, th]."""
    return _mul(tl, th, *_ipow(_dn(tl - m.sigma), _up(th - m.sigma), 2 * m.p - 1))


def _nonlinear_bounds(m: ScalarModel, lo, hi):
    """Enclosure of lam e^u (e^u - sigma)^(2p-1) over each coordinate interval."""
    tl, th = _exp_bounds(lo, hi)
    al, ah = _g_at(m, tl, tl)
    bl, bh = _g_at(m, th, th)
    c = m.sigma / (2 * m.p)  # the minimum of g, enclosed by [_dn(c), _up(c)]
    cl, ch = _dn(c), _up(c)
    gmin = _g_at(m, cl, ch)[0]
    left, right = th <= cl, tl >= ch  # wholly on the falling or the rising side
    gl = np.where(right, al, np.where(left, bl, gmin))
    gh = np.where(left, ah, np.where(right, bh, np.maximum(ah, bh)))
    return _scale(m.lam, gl, gh)


def _sum(terms):
    """Outward-rounded sum of an iterable of (lo, hi) interval terms."""
    sl = sh = None
    for tl, th in terms:
        sl, sh = (tl, th) if sl is None else _add(sl, sh, tl, th)
    return sl, sh


def _matvec(A, xl, xh):
    """Enclosure of A x for a point matrix A, (n, n) or a (B, n, n) stack."""
    return _sum(_scale(A[..., :, j], xl[..., j, None], xh[..., j, None])
                for j in range(xl.shape[-1]))


def _residual(g: WeightedGraph, m: ScalarModel, lo, hi, hl, hh):
    """Residual enclosure from the nonlinear term's enclosure [hl, hh]."""
    Fl, Fh = _add(*_matvec(g.neg_laplacian_matrix(), lo, hi), hl, hh)
    return _dn(Fl + m.f), _up(Fh + m.f)


def residual_bounds(g: WeightedGraph, m: ScalarModel, lo, hi):
    """Enclosure of ``F(u) = -L u + lam e^u (e^u - sigma)^(2p-1) + f`` over each box."""
    with np.errstate(all="ignore"):
        return _residual(g, m, lo, hi, *_nonlinear_bounds(m, lo, hi))


def jacobian_diag_bounds(g: WeightedGraph, m: ScalarModel, lo, hi):
    """Enclosure of the nonlinear diagonal of J(u) = -L + diag(d(u)) over each box."""
    with np.errstate(all="ignore"):
        tl, th = _exp_bounds(lo, hi)
        sl, sh = _ipow(_dn(tl - m.sigma), _up(th - m.sigma), 2 * m.p - 2)
        ql, qh = _dn(_dn(2 * m.p * tl) - m.sigma), _up(_up(2 * m.p * th) - m.sigma)
        return _scale(m.lam, *_mul(*_mul(tl, th, sl, sh), ql, qh))


def excluded(g: WeightedGraph, m: ScalarModel, lo, hi) -> np.ndarray:
    """Boxes proved rootless, one flag per box.

    A box is excluded when the enclosure of some residual component misses
    zero, or when the integral test does: for the exact Laplacian
    ``sum_x mu(x) F(u)(x) = int lam e^u (e^u - sigma)^(2p-1) dmu + int f dmu``.
    The float matrix's mu-weighted column sums are tiny but need not vanish,
    so their product with u is kept as one more interval term.
    """
    A, mu = g.neg_laplacian_matrix(), g.mu
    with np.errstate(all="ignore"):
        hl, hh = _nonlinear_bounds(m, lo, hi)
        Fl, Fh = _residual(g, m, lo, hi, hl, hh)
        cl, ch = _sum(_scale(mu[x], A[x], A[x]) for x in range(g.ell))
        Il, Ih = _sum([*(_scale(mu[x], hl[:, x], hh[:, x]) for x in range(g.ell)),
                       *(_mul(cl[y], ch[y], lo[:, y], hi[:, y]) for y in range(g.ell)),
                       _sum(_scale(mu[x], m.f[x], m.f[x]) for x in range(g.ell))])
    return np.any((Fl > 0.0) | (Fh < 0.0), axis=1) | (Il > 0.0) | (Ih < 0.0)


def _approximate_inverse(J: np.ndarray) -> np.ndarray:
    """Inverses of a stack of matrices; zero where LU meets a zero pivot."""
    try:
        return np.linalg.inv(J)
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(J)[0] != 0.0
        Y = np.zeros_like(J)
        Y[regular] = np.linalg.inv(J[regular])
        return Y


def krawczyk(g: WeightedGraph, m: ScalarModel, lo, hi):
    """Krawczyk operator ``K(X) = c - Y F(c) + (I - Y J(X)) (X - c)`` of each box.

    ``c`` is the box midpoint and ``Y`` a floating-point inverse of J(c)
    (zero where J(c) is singular, which gives K(X) >= X: no information).
    Every root in X lies in K(X).  If K(X) lies in the interior of X, X holds
    exactly one root and every matrix in J(X) is regular, so sign det J is the
    same on the whole box.  Returns the bounds of K(X).
    """
    A = g.neg_laplacian_matrix()
    n = lo.shape[1]
    with np.errstate(all="ignore"):
        c = np.clip(lo + 0.5 * (hi - lo), lo, hi)
        # J(c) by hand: scalar.jacobian rejects |u| > 700, boxes may reach past it
        t = np.exp(c)
        Jc = np.broadcast_to(A, lo.shape + (n,)).copy()
        Jc[:, np.arange(n), np.arange(n)] += (
            m.lam * t * (t - m.sigma) ** (2 * m.p - 2) * (2 * m.p * t - m.sigma))
        Y = _approximate_inverse(Jc)
        vl, vh = _matvec(Y, *residual_bounds(g, m, c, c))
        dl, dh = jacobian_diag_bounds(g, m, lo, hi)
        # Y J(X) = Y A + Y diag(d), entry by entry
        Rl, Rh = _sum(_scale(Y[..., :, k, None], A[k], A[k]) for k in range(n))
        Rl, Rh = _add(Rl, Rh, *_scale(Y, dl[:, None, :], dh[:, None, :]))
        eye = np.eye(n)
        Ml, Mh = _dn(eye - Rh), _up(eye - Rl)
        zl, zh = _dn(lo - c), _up(hi - c)
        Sl, Sh = _sum(_mul(Ml[..., j], Mh[..., j], zl[:, j, None], zh[:, j, None])
                      for j in range(n))
        return _dn(_dn(c - vh) + Sl), _up(_up(c - vl) + Sh)
