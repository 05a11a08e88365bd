"""Outward-rounded interval bounds for the scalar model over stacks of boxes.

A stack of B boxes is one array of shape (2, B, n): lower corners first,
then upper corners; every bound comes back in the same layout, lower bounds
first.  Every bound returned here encloses the exact real value at every
point of every box.  Each elementwise floating-point operation rounds to
nearest and the result is then moved one ulp outward with ``np.nextafter``,
which covers that rounding error; ``exp`` is moved four ulps, since numpy's
is not correctly rounded.
A bound that overflows clamps to the largest finite float
(``nextafter(inf, -inf)``), and an operation without a bound (``0 * inf``)
gives NaN, which callers read as "no information": every comparison with NaN
is false, so a NaN never excludes, includes or contracts a box.

Products with a point matrix (-L x in the residual, Y J(X) and Y F(c) in the
Krawczyk operator) are taken in midpoint-radius form (S. M. Rump, "Fast and
parallel interval arithmetic", BIT 39, 1999): the point products go through
``np.matmul`` once, and their rounding is bounded a priori, not term by term.
For any summation order, with or without fused multiply-adds,
``|fl(P q) - P q| <= gamma_n |P| |q|`` with ``gamma_n = n u / (1 - n u)`` and
``u = 2^-53`` (N. J. Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., SIAM 2002, section 3.1).  On a graph of n vertices the kernel uses:

* ``gamma = (n + 3) u`` on the magnitude of every midpoint that enters a
  product: at least gamma_n plus the two roundings of the same size that
  come with it (the midpoint's own and the one after the product);
* a growth factor ``G = 1 + (2n + 16) u`` on every radius.  A radius is a sum
  of nonnegative terms computed in rounding to nearest, fewer than 2n + 8
  roundings (an n-term dot product counts n) from its exact value, so
  multiplying by G leaves it an upper bound;
* an absolute ``tiny = 2^-1000 (1 + ||L||_inf)`` on every radius a product
  can underflow into: gradual underflow loses up to 2^-1075 a product, which
  no relative factor covers.

``np.nextafter`` is left on (B, n) vectors only.  A point product that
overflows gives NaN or infinite bounds: no information.  Every product is
stacked per box, ``(B, n, n) @ (B, n, 1)`` or ``(n, n) @ (B, n, 1)``, never
one (B n, n) @ (n, n) gemm: BLAS blocks a large gemm by its size, so a box's
bounds would depend on the boxes stacked with it, where a per-box product
gives the same bits alone and in any stack.

With ``t = e^u`` the nonlinearity is ``lam g(t)``, ``g(t) = t (t - sigma)^(2p-1)``.
``g`` falls on (0, sigma/(2p)) and rises after it (the critical point t = sigma
does not change the sign of g'), so its range over an interval of t follows
exactly from the endpoints and that minimum.  The Jacobian's diagonal term
``lam t g'(t) = lam t (t - sigma)^(2p-2) (2p t - sigma)`` uses the natural
interval extension of that product.

:class:`ScalarKernel` is the one entry point for stacks of boxes.  It holds
everything that does not depend on the boxes for one graph and one scalar
model: -L, |-L| scaled by G and by gamma, the rounding constants above, the
mu-weighted column sums of -L and the enclosure of int f dmu used by the
integral test (:func:`integral_enclosures`), the enclosures of sigma/(2p)
and of g's minimum there, the exponents 2p - 1 and 2p - 2 and the identity;
branch and prune builds one per enumeration.  Inside it every
interval array is a (2, ...) stack too, so the two bounds, both endpoints of
g and all terms of a sum share each numpy call.  The point Jacobian J(c) at
the box midpoints is the scalar model's own (:func:`~cshlab.scalar.jacobian`
without its range check).  :func:`linear_integral_lower` bounds the integral
test's linear part, ``int f dmu + sum_y c_y u_y``, over one box; the
system's sigma = 0 proof in :mod:`~cshlab.solve` rests on it.

:meth:`ScalarKernel.krawczyk` evaluates the Krawczyk operator (R. Krawczyk,
Computing 4, 1969; Moore, Kearfott and Cloud, Introduction to Interval
Analysis, SIAM 2009), the inclusion and contraction test of
:func:`~cshlab.solve.enumerate_report`.
"""

from __future__ import annotations

import numpy as np

from .graphs import WeightedGraph, as_vertex_function
from .scalar import ScalarModel, _jacobian_exp

__all__ = ["ScalarKernel", "integral_enclosures", "linear_integral_lower"]

# ulps by which exp is widened on each side
_EXP_ULPS = 4
# unit roundoff of binary64, and the absolute floor (per unit of 1 + ||L||_inf)
# that covers underflow in the point products
_U = 2.0 ** -53
_TINY = 2.0 ** -1000
# signs that turn a radius into the offsets of the lower and upper bounds
_PM = np.array([-1.0, 1.0]).reshape(2, 1, 1)
# nextafter targets that move the lower bounds down and the upper bounds up,
# shaped to broadcast against interval stacks of each dimension
_OUTWARD = {d: np.array([-np.inf, np.inf]).reshape((2,) + (1,) * (d - 1)) for d in range(1, 6)}


def _out(X):
    """Interval stack ``X`` moved one ulp outward."""
    return np.nextafter(X, _OUTWARD[X.ndim])


def _widen(P):
    """Interval stack [P - ulp, P + ulp] around the rounded point values ``P``."""
    return np.nextafter(P, _OUTWARD[P.ndim + 1])


def _hull(P):
    """Interval stack [min, max] of the pair of point arrays ``P[0], P[1]``, outward."""
    R = np.empty(P.shape)
    np.minimum(P[0], P[1], out=R[0, ...])
    np.maximum(P[0], P[1], out=R[1, ...])
    return np.nextafter(R, _OUTWARD[R.ndim], out=R)


def _scale(a, X):
    """Enclosure of a * X for a point factor ``a``."""
    return _hull(a * X)


def _mul(X, Y):
    """Enclosure of the product of two interval stacks of equal dimension."""
    P = X[:, None] * Y[None]  # P[i, j] = X[i] * Y[j]
    # lower bound min(min(P00, P01), min(P10, P11)), upper bound likewise with max
    p, q = P[:, 0], P[:, 1]
    R = np.empty(p.shape)
    pair = np.minimum(p, q)
    np.minimum(pair[0], pair[1], out=R[0, ...])
    np.maximum(p, q, out=pair)
    np.maximum(pair[0], pair[1], out=R[1, ...])
    return np.nextafter(R, _OUTWARD[R.ndim], out=R)


def _sum_last(T):
    """Outward-rounded sum of an interval stack over its last axis, left to right."""
    s = T[..., 0]
    for j in range(1, T.shape[-1]):
        s = _out(s + T[..., j])
    return s


def _ipow(X, k: int):
    """Exact enclosure of {x**k : x in X} for an integer k >= 1."""
    if k == 1:
        return X
    if k % 2:  # odd powers increase; a negative bound rounds its magnitude inward
        base, pos = np.abs(X), X >= 0
        to = np.where(pos, _OUTWARD[X.ndim], -_OUTWARD[X.ndim])
    else:
        base = np.empty(X.shape)
        base[0] = np.where(X[0] > 0, X[0], np.where(X[1] < 0, -X[1], 0.0))
        np.maximum(-X[0], X[1], out=base[1])
        to = _OUTWARD[X.ndim]
    out = base
    for _ in range(k - 1):
        out = np.nextafter(out * base, to)
    return np.where(pos, out, -out) if k % 2 else out


def _exp_bounds(T):
    """Enclosure of exp from the rounded values ``T = np.exp(X)`` of a stack."""
    for _ in range(_EXP_ULPS):
        T = _out(T)
    np.maximum(T[0], 0.0, out=T[0])
    return T


def integral_enclosures(g: WeightedGraph, f: np.ndarray):
    """Enclosures of the integral test's constants: ``(col_sums, f_integral)``.

    ``col_sums[:, y]`` encloses ``c_y = sum_x mu(x) (-L)[x, y]`` and
    ``f_integral`` encloses ``int f dmu`` for the vertex function ``f``, so
    ``sum_x mu(x) (-L u + f)(x) = sum_y c_y u_y + int f dmu`` holds exactly
    for the float matrix -L.  The c_y vanish for the exact Laplacian but need
    not for the float one.
    """
    with np.errstate(all="ignore"):
        return _sum_last(_widen(g.mu * g.neg_laplacian_matrix().T)), _sum_last(_widen(g.mu * f))


def linear_integral_lower(g: WeightedGraph, f: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray) -> float:
    """Outward-rounded lower bound of ``sum_x mu(x) (-L u + f)(x)`` over the box
    [lo, hi]: of ``int f dmu + sum_y c_y [lo_y, hi_y]`` (:func:`integral_enclosures`).
    A bound that overflows reads -inf or NaN, neither of them at or above 0.
    """
    col_sums, f_integral = integral_enclosures(g, f)
    with np.errstate(all="ignore"):
        return float(_out(_sum_last(_mul(col_sums, np.array((lo, hi)))) + f_integral)[0])


def _matvec(P, x):
    """Point products ``P x``, one per box: P is (n, n) or (B, n, n), x is (B, n)."""
    return np.matmul(P, x[..., None])[..., 0]


class ScalarKernel:
    """Interval bounds of one scalar model on one graph, for stacks of boxes.

    Every method takes a stack of B boxes as one array ``X`` of shape
    (2, B, n), lower corners ``X[0]`` and upper corners ``X[1]``, and returns
    its bounds in the same layout: lower bounds first, so
    ``Fl, Fh = kernel.residual_bounds(X)`` unpacks them.
    """

    def __init__(self, g: WeightedGraph, m: ScalarModel):
        self.A = g.neg_laplacian_matrix()
        n = g.ell
        abs_A = np.abs(self.A)
        # the rounding constants of the module docstring
        self.gamma = (n + 3) * _U
        self.grow = 1.0 + (2 * n + 16) * _U
        self.tiny = _TINY * (1.0 + abs_A.sum(axis=1).max())
        self.grow_abs_A = np.nextafter(self.grow * abs_A, np.inf)
        self.gamma_abs_A = np.nextafter(self.gamma * abs_A, np.inf)
        self.g, self.m = g, m
        self.mu, self.f = g.mu, as_vertex_function(g, m.f)
        self.slack = np.nextafter(self.tiny + 4 * _U * np.abs(self.f), np.inf)
        self.lam, self.sigma = m.lam, m.sigma
        self.two_p = 2 * m.p
        self.k_g, self.k_d = 2 * m.p - 1, 2 * m.p - 2
        self.eye = np.eye(g.ell)
        self.col_sums, self.f_integral = integral_enclosures(g, self.f)
        with np.errstate(all="ignore"):
            # where g takes its minimum, enclosed one ulp outward, and g's lower bound there
            self.c = _widen(np.array(m.sigma / (2 * m.p)))
            self.g_min = _mul(self.c, _ipow(_out(self.c - m.sigma), self.k_g))[0]

    def _g_points(self, T):
        """Enclosures of g at the points ``T``, shape (2,) + T.shape."""
        return _scale(T, _ipow(_widen(T - self.sigma), self.k_g))

    def _nonlinear(self, T):
        """Enclosure of lam g(t) over each t interval of the exp enclosure ``T``."""
        (al, bl), (ah, bh) = self._g_points(T)
        left, right = T[1] <= self.c[0], T[0] >= self.c[1]  # wholly falling or rising
        H = np.empty(T.shape)
        H[0] = np.where(right, al, np.where(left, bl, self.g_min))
        H[1] = np.where(left, ah, np.where(right, bh, np.maximum(ah, bh)))
        return _scale(self.lam, H)

    def _linear(self, mid, v):
        """``P +- R`` encloses -L x + f wherever ``|x - mid| <= v - (gamma - u) |mid|``.

        ``P = A mid + f`` and ``R = G |A| v + slack``, with ``slack = tiny + 4u |f|``;
        G also covers the rounding of the few operations that computed v.  R
        covers the rounding of P and of ``P -+ R``, so ``P - R`` and ``P + R``
        are bounds as computed.
        """
        return _matvec(self.A, mid) + self.f, _matvec(self.grow_abs_A, v) + self.slack

    def _residual(self, X, H):
        """Residual enclosure from the nonlinear term's enclosure ``H``."""
        half = 0.5 * X
        mid = half[0] + half[1]
        # the half-width, plus gamma |mid| for the rounding of mid and of A mid
        P, R = self._linear(mid, (half[1] - half[0]) + self.gamma * np.abs(mid))
        R += 0.0 * P  # an overflowing A mid leaves no bound
        return _out(P + _PM * R + H)

    def _diag(self, T):
        """Enclosure of the Jacobian's nonlinear diagonal from the exp enclosure ``T``."""
        if self.k_d == 0:  # (t - sigma)^0 = 1, and T times [1, 1] is the hull of T
            TS = _hull(T)
        else:
            TS = _mul(T, _ipow(_out(T - self.sigma), self.k_d))
        Q = _out(_out(self.two_p * T) - self.sigma)
        return _scale(self.lam, _mul(TS, Q))

    def _centre(self, X):
        """Box midpoints ``c``, ``t = e^c`` and Y, a floating-point inverse of J(c)."""
        lo, hi = X
        c = np.clip(lo + 0.5 * (hi - lo), lo, hi)
        t = np.exp(c)
        return c, t, _approximate_inverse(_jacobian_exp(self.g, self.m, t))

    def residual_bounds(self, X):
        """Enclosure of ``F(u) = -L u + lam e^u (e^u - sigma)^(2p-1) + f`` over each box."""
        with np.errstate(all="ignore"):
            return self._residual(X, self._nonlinear(_exp_bounds(np.exp(X))))

    def jacobian_diag_bounds(self, X):
        """Enclosure of the nonlinear diagonal of J(u) = -L + diag(d(u)) over each box."""
        with np.errstate(all="ignore"):
            return self._diag(_exp_bounds(np.exp(X)))

    def excluded(self, X) -> np.ndarray:
        """Boxes proved rootless, one flag per box.

        A box is excluded when the enclosure of some residual component misses
        zero, or when the integral test does: for the exact Laplacian
        ``sum_x mu(x) F(u)(x) = int lam e^u (e^u - sigma)^(2p-1) dmu + int f dmu``.
        The float matrix's mu-weighted column sums are tiny but need not vanish,
        so their product with u is kept as one more interval term.
        """
        with np.errstate(all="ignore"):
            H = self._nonlinear(_exp_bounds(np.exp(X)))
            F = self._residual(X, H)
            terms = np.concatenate((_scale(self.mu, H), _mul(self.col_sums[:, None], X)), axis=-1)
            I = _out(_sum_last(terms) + self.f_integral[:, None])
        return ((F[0] > 0.0) | (F[1] < 0.0)).any(axis=1) | (I[0] > 0.0) | (I[1] < 0.0)

    def krawczyk(self, X):
        """Krawczyk operator ``K(X) = c - Y F(c) + (I - Y J(X)) (X - c)`` of each box.

        ``c`` is the box midpoint and ``Y`` a floating-point inverse of J(c)
        (zero where J(c) is singular, which gives K(X) >= X: no information).
        Every root in X lies in K(X).  If K(X) lies in the interior of X, X holds
        exactly one root and every matrix in J(X) is regular, so sign det J is the
        same on the whole box.  Returns the bounds of K(X).
        """
        with np.errstate(all="ignore"):
            c, t, Y = self._centre(X)
            P, RP = self._linear(c, self.gamma * np.abs(c))
            H = self._nonlinear(_exp_bounds(np.array((t, t))))
            D = self._diag(_exp_bounds(np.exp(X)))
            # F(c) = P + H lies in Fm +- Q[0] and d(X) in Dm +- Q[1], where the
            # gamma |mid| terms also cover the rounding of Y Fm and of Y diag(Dm)
            half = 0.5 * np.array((H, D))
            mid = half[:, 0] + half[:, 1]
            mid[0] += P
            Fm, Dm = mid
            Q = (half[:, 1] - half[:, 0]) + self.gamma * np.abs(mid)
            Q[0] += RP
            r = np.nextafter(np.abs(X - c).max(axis=0), np.inf)  # |X - c| <= r
            # I - Y J(X) lies in M +- (|Y| diag(Q[1]) + gamma |Y| |A| + tiny), with
            # M = I - Y (A + diag(Dm)) at the midpoint of J(X); |Y| diag(Q[1]) is
            # formed before it meets r, as Y J(X) is, so a wide D(X) overflows no
            # sooner than the product it bounds
            M = self.eye - np.matmul(Y, self.A) - Y * Dm[:, None, :]
            abs_Y = np.abs(Y)
            np.abs(M, out=M)
            M += abs_Y * Q[1][:, None, :]
            M += self.tiny
            # K(X) = c - Y Fm +- R, with R covering the rounding of c - Y Fm and of
            # the bounds; an infinite c - Y Fm makes R infinite, the bounds NaN
            w = Q[0] + _matvec(self.gamma_abs_A, r)
            R = (_matvec(M, r) + _matvec(abs_Y, w)) * self.grow
            kc = c - _matvec(Y, Fm)
            R += 3 * _U * np.abs(kc) + self.tiny
            return kc + _PM * R


def _approximate_inverse(J: np.ndarray) -> np.ndarray:
    """Inverses of a stack of matrices; zero where LU meets a zero pivot."""
    try:
        return np.linalg.inv(J)
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(J)[0] != 0.0
        Y = np.zeros_like(J)
        Y[regular] = np.linalg.inv(J[regular])
        return Y
