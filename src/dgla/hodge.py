"""The Hodge package attached to a contraction, and its identity checks.

With the splitting g = B + H + B* (B = im d, B* = im h = C) the star
operator is the unsigned chain-level map

    * = nabla pi + d + h

which swaps B and B* blockwise, fixes H, and squares to the identity.  The
codifferential is recovered as *d* = h, and the Laplacian (d + h)^2 =
dh + hd = Id - nabla pi is a projection whose kernel is exactly H.

The star and the Laplacian are built once per contraction, as the cached
SDRData properties R.star and R.laplacian; hodge_checks is the one place
that verifies these identities (plus the decomposition and the Cartan
condition) and reports each as a named pass/fail check.
Membership in B* = C is read off R's own projections, as the kernel of
pi_B + pi_H, never by a solve per vector; hodge-decomposition proves that
pi_B and pi_H are the projections of g = B + H + C that this needs.  Every
check runs in integers, on the integer matrices of linalg: the ones on
basis vectors as one matrix identity on their columns, and the Cartan
condition by bracketing the harmonic reps through the integer table of
the DGLA.
"""

from ._kernels import bracket_vector
from .linalg import column_matrix, rank


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
    vBstar = tuple(x - b - h for x, b, h in zip(v, vB, vH))
    return vB, vH, vBstar


def check_cartan(L, R):
    """Whether h[u, v] lies in B* for all pairs of harmonic basis reps.

    Tested as (pi_B + pi_H) h[u, v] = 0, which means h[u, v] in B* only when
    pi_B and pi_H are the splitting's projections: hodge_checks proves that
    in the same call, and build_contraction always makes them so.

    The block (pi_B + pi_H) h into degree k is built once per k and read as
    integer rows, each harmonic rep as its numerators (SubspaceBasis.ints),
    and u, v are bracketed through the integer table of L
    (_kernels.bracket_vector): positive scales do not change whether the
    result is zero.

    Returns (ok, witnesses); each witness is (degree_u, index_u, degree_v,
    index_v) for a failing pair.
    """
    witnesses = []
    harmonic = R.splitting.harmonic
    degrees = sorted(harmonic)
    reps = {p: [nums for _, nums in harmonic[p].ints] for p in degrees}
    blocks = {}
    for p in degrees:
        for q in degrees:
            out_dim = L.dim(p + q)
            if not out_dim:
                continue
            k = p + q - 1
            rows = blocks.get(k)
            if rows is None:
                keep = R.pi_B.block(k, k) + R.pi_H.block(k, k)
                rows = blocks[k] = (keep @ R.h.block(k + 1, k)).integer_rows()[1]
            table = L._integer_table(p, q)[1]
            for iu, u in enumerate(reps[p]):
                for iv, v in enumerate(reps[q]):
                    w = bracket_vector(u, v, table, out_dim)
                    if any(sum([c * w[j] for j, c in row]) for _, row in rows):
                        witnesses.append((p, iu, q, iv))
    return not witnesses, witnesses


def hodge_checks(L, R):
    """The seven Hodge-package identities as (label, pass) pairs, plus the
    Cartan witnesses.  hodge-decomposition: per degree, P = (B | H | C) has
    full rank, pi_B P = (B | 0 | 0) and pi_H P = (0 | H | 0)."""
    star = R.star
    ok_invol = (star @ star) == R.identity
    ok_codiff = (star @ R.differential @ star) == R.h
    lap = R.laplacian
    ok_lap = lap == R.identity - R.pi_H
    ok_idem = (lap @ lap) == lap

    ok_kernel = True
    ok_decomp = True
    split = R.splitting
    for deg, n in sorted(split.dims.items()):
        block = lap.block(deg, deg)
        if (rank(block) != n - split.harmonic[deg].dim
                or not (block @ split.harmonic[deg].matrix()).is_zero()):
            ok_kernel = False
        B, H, C = (split.boundaries[deg].ints, split.harmonic[deg].ints,
                   split.complement[deg].ints)
        P = column_matrix(n, B + H + C)
        zero = ((1, (0,) * n),)
        if (rank(P) != n
                or R.pi_B.block(deg, deg) @ P
                != column_matrix(n, B + zero * (len(H) + len(C)))
                or R.pi_H.block(deg, deg) @ P
                != column_matrix(n, zero * len(B) + H + zero * len(C))):
            ok_decomp = False

    ok_cartan, witnesses = check_cartan(L, R)
    checks = [
        ("star-involution", ok_invol),
        ("codifferential-identity", ok_codiff),
        ("laplacian-identity", ok_lap),
        ("double-projection-idempotent", ok_idem),
        ("laplacian-kernel", ok_kernel),
        ("hodge-decomposition", ok_decomp),
        ("cartan-condition", ok_cartan),
    ]
    return checks, witnesses
