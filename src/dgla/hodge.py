"""The Hodge package attached to a contraction.

With the splitting g = B + H + B* (B = im d, B* = im h = C) the star
operator is the unsigned chain-level map

    * = nabla pi + d + h

which swaps B and B* blockwise, fixes H, and squares to the identity.  The
codifferential is recovered as *d* = h, the Laplacian is (d + h)^2 = dh + hd
= Id - nabla pi, and the double projection onto D(B) = B + B* is the
Laplacian itself (projection sign convention: the Laplacian here is a
projection operator, so its kernel is exactly H).
"""

from .graded import GradedLinearMap
from .linalg import vec_sub


class HodgeData:
    """star, codifferential, Laplacian and the projection onto B + B*."""

    __slots__ = ("star", "d_star", "laplacian", "double_projection")

    def __init__(self, star, d_star, laplacian, double_projection):
        self.star = star
        self.d_star = d_star
        self.laplacian = laplacian
        self.double_projection = double_projection

    def j_operator(self):
        """The restriction of * to D(B) (read-only view): * after the double
        projection, which is zero on H and swaps B with B*."""
        return self.star @ self.double_projection

    def __repr__(self):
        return "HodgeData(star blocks %r)" % (sorted(self.star.blocks),)


def star_operator(R):
    """nabla pi + d + h as one graded map (an involution)."""
    return R.pi_H + R.differential + R.h


def codifferential(R):
    """h, after verifying the identity * d * = h exactly."""
    star = star_operator(R)
    if star @ R.differential @ star != R.h:
        raise ValueError("codifferential identity * d * = h failed (convention bug)")
    return R.h


def laplacian(R):
    """(d + h)^2, verified to equal dh + hd = Id - nabla pi exactly."""
    dh = R.differential + R.h
    lap = dh @ dh
    expect = R.identity - R.pi_H
    if lap != expect:
        raise ValueError("laplacian identity (d+h)^2 = Id - nabla pi failed")
    return lap


def hodge_data(R):
    """The Hodge package of R; the double projection onto D(B) = B + B*
    along H is the Laplacian itself, so both fields hold one matrix."""
    lap = laplacian(R)
    return HodgeData(
        star=star_operator(R),
        d_star=codifferential(R),
        laplacian=lap,
        double_projection=lap,
    )


def hodge_decompose(R, degree, v):
    """Split a plain vector in g^degree as (v_B, v_H, v_Bstar), exactly.

    v_B = pi_B v and v_H = nabla pi v; the remainder lies in B* = C by the
    construction of the splitting, so the three parts are the unique
    decomposition along g = B + H + B*.
    """
    n = R.dims.get(degree, 0)
    if len(v) != n:
        raise ValueError("vector length %d does not match dim g^%d = %d"
                         % (len(v), degree, n))
    vB = R.pi_B.block(degree, degree).mul_vec(v)
    vH = R.pi_H.block(degree, degree).mul_vec(v)
    vBstar = vec_sub(vec_sub(v, vB), vH)
    return vB, vH, vBstar


def check_cartan(L, R):
    """Whether h[u, v] lies in span(B*) for all pairs of harmonic basis reps.

    Returns (ok, witnesses); each witness is (degree_u, index_u, degree_v,
    index_v) for a failing pair.
    """
    witnesses = []
    harmonic = R.splitting.harmonic
    complement = R.splitting.complement
    degrees = sorted(harmonic)
    for p in degrees:
        for q in degrees:
            if not L.dim(p + q):
                continue
            for iu, u in enumerate(harmonic[p].vectors):
                for iv, v in enumerate(harmonic[q].vectors):
                    w = L.bracket_vectors(p, u, q, v)
                    hw = R.h.block(p + q, p + q - 1).mul_vec(w)
                    if not any(hw):
                        continue
                    Bstar = complement.get(p + q - 1)
                    if Bstar is None or not Bstar.contains(hw):
                        witnesses.append((p, iu, q, iv))
    return not witnesses, witnesses
