"""The splitting g^i = B^i + H^i + C^i, the contraction h, and its checks.

Per degree i build_splitting chooses four bases: cycles Z^i = ker d^i,
boundaries B^i = im d^{i-1}, harmonic representatives H^i with
B^i + H^i = Z^i, and a complement C^i of Z^i in g^i.  H and C come from the
greedy rule of complement_basis, so every derived map is reproducible byte
for byte.

The contraction h of degree -1 projects onto B along H + C, then inverts d
from C back onto B.  Together with the projection pi onto H-coordinates and
the inclusion nabla of H into g it satisfies, as exact matrix identities,

    d h + h d = Id - nabla pi      h h = 0     pi nabla = Id
    h nabla = 0                    pi h = 0
    (d h + h d) pi_B = pi_B        d h z = z  for z in B
    d v = h v = 0                  for v in H

SDRData holds these maps and builds the derived ones once, on first use:
pi_H = nabla pi, the Hodge star and the Laplacian (see hodge.py).
verify_sdr checks all the identities and reports violations instead of
raising; sdr_checks turns its report into one named pass/fail check each.
"""

from functools import cached_property

from .algebra import ValidationIssue, ValidationReport
from .graded import GradedLinearMap
from .linalg import column_matrix, complement_basis, image_basis, invert, kernel_basis


class Splitting:
    """The decomposition g^i = B^i + H^i + C^i per degree, with Z^i = B^i + H^i."""

    __slots__ = ("dims", "cycles", "boundaries", "harmonic", "complement")

    def __init__(self, dims, cycles, boundaries, harmonic, complement):
        self.dims = dict(dims)
        self.cycles = dict(cycles)
        self.boundaries = dict(boundaries)
        self.harmonic = dict(harmonic)
        self.complement = dict(complement)
        for deg, n in self.dims.items():
            total = (
                self.boundaries[deg].dim
                + self.harmonic[deg].dim
                + self.complement[deg].dim
            )
            if total != n:
                raise ValueError(
                    "splitting dimensions at degree %d sum to %d, expected %d"
                    % (deg, total, n)
                )

    def betti(self):
        return {deg: b.dim for deg, b in self.harmonic.items()}

    def harmonic_dims(self):
        return {deg: b.dim for deg, b in self.harmonic.items() if b.dim}

    def __repr__(self):
        bits = ", ".join(
            "g^%d=%d+%d+%d"
            % (d, self.boundaries[d].dim, self.harmonic[d].dim, self.complement[d].dim)
            for d in sorted(self.dims)
        )
        return "Splitting(%s)" % bits


def _d_block(L, i):
    """The matrix of d: g^i -> g^{i+1} (possibly with zero rows or columns)."""
    return L.differential.block(i, i + 1)


def build_splitting(L):
    """Cycles Z, boundaries B, harmonic H and complement C per degree.

    H is the greedy complement of B inside Z, and C the greedy complement
    of Z inside g^i.  Raises if some boundary is not a cycle (d d != 0).
    """
    cycles = {}
    boundaries = {}
    harmonic = {}
    complement = {}
    for deg in L.degrees:
        Z = kernel_basis(_d_block(L, deg))
        B = image_basis(_d_block(L, deg - 1))
        try:
            harmonic[deg] = complement_basis(B, inside=Z)
        except ValueError:
            raise ValueError(
                "the boundaries in degree %d are not cycles (d d != 0)" % deg
            ) from None
        cycles[deg] = Z
        boundaries[deg] = B
        complement[deg] = complement_basis(Z)
    return Splitting(L.dims, cycles, boundaries, harmonic, complement)


class SDRData:
    """The contraction package: splitting plus the maps h, pi, nabla.

    h: GradedLinearMap of degree -1 on g; pi: g -> H-coordinates;
    nabla: H-coordinates -> g; pi_B: the projection of g onto B along H + C;
    differential: d carried along so the Hodge layer needs no extra inputs.
    The derived maps pi_H, star and laplacian are built once, on first use.
    """

    def __init__(self, splitting, h, projection, inclusion, pi_B, differential):
        self.splitting = splitting
        self.h = h
        self.projection = projection
        self.inclusion = inclusion
        self.pi_B = pi_B
        self.differential = differential

    @property
    def dims(self):
        return self.splitting.dims

    @cached_property
    def pi_H(self):
        """nabla pi as an endomorphism of g: projection onto H along B + C."""
        return self.inclusion @ self.projection

    @cached_property
    def identity(self):
        return GradedLinearMap.identity(self.dims)

    @cached_property
    def star(self):
        """The Hodge star nabla pi + d + h (an involution)."""
        return self.pi_H + self.differential + self.h

    @cached_property
    def laplacian(self):
        """(d + h)^2, which equals dh + hd = Id - nabla pi for a contraction."""
        dh = self.differential + self.h
        return dh @ dh

    def contract(self, v):
        """h applied to a FormalElement (degree drops by 1)."""
        return self.h.apply_element(v, -1)

    def harmonic_projection(self, v):
        """nabla pi applied to a FormalElement (lands in span H, same degree)."""
        return self.pi_H.apply_element(v, 0)

    def harmonic_coordinates(self, v):
        """pi applied to a FormalElement: coordinates over the H basis."""
        return self.projection.apply_element(v, 0)

    def boundary_projection(self, v):
        """pi_B applied to a FormalElement (lands in span B, same degree)."""
        return self.pi_B.apply_element(v, 0)

    def __repr__(self):
        return "SDRData(%r)" % (self.splitting,)


def build_contraction(L, S):
    """Assemble h, pi, nabla and pi_B from a splitting of L.

    Blockwise: in degree i the columns (B | H | C) form an invertible basis
    change P; the top rows of P^{-1} give B-coordinates, the middle rows give
    H-coordinates.  d maps the complement C one degree down isomorphically
    onto B, so with coordsB the B-coordinate rows, h on degree i is
    C (coordsB d C)^{-1} coordsB: one inverse per degree.
    """
    h_blocks = {}
    pi_blocks = {}
    incl_blocks = {}
    piB_blocks = {}
    hdims = S.harmonic_dims()

    for deg in sorted(S.dims):
        n = S.dims[deg]
        B = S.boundaries[deg]
        H = S.harmonic[deg]
        C = S.complement[deg]
        Pinv = invert(column_matrix(n, B.ints + H.ints + C.ints))
        nB, nH = B.dim, H.dim

        if nH:
            pi_blocks[(deg, deg)] = Pinv.row_range(nB, nB + nH)
            incl_blocks[(deg, deg)] = H.matrix()

        if nB:
            coordsB = Pinv.row_range(0, nB)
            piB_blocks[(deg, deg)] = B.matrix() @ coordsB

            Cprev = S.complement.get(deg - 1)
            if Cprev is None or Cprev.dim == 0:
                raise ValueError(
                    "boundaries in degree %d but no complement in degree %d"
                    % (deg, deg - 1)
                )
            Cmat = Cprev.matrix()
            dC = coordsB @ _d_block(L, deg - 1) @ Cmat
            try:
                dC_inv = invert(dC)
            except ValueError:
                raise ValueError(
                    "d restricted to the complement is not onto the boundaries "
                    "in degree %d (splitting inconsistency)" % deg
                ) from None
            h_blocks[(deg, deg - 1)] = Cmat @ dC_inv @ coordsB

    gdims = S.dims
    return SDRData(
        splitting=S,
        h=GradedLinearMap(gdims, gdims, h_blocks),
        projection=GradedLinearMap(gdims, hdims, pi_blocks),
        inclusion=GradedLinearMap(hdims, gdims, incl_blocks),
        pi_B=GradedLinearMap(gdims, gdims, piB_blocks),
        differential=L.differential,
    )


def verify_sdr(L, R):
    """Check the eight contraction identities as exact matrix identities;
    the ones on basis vectors are read off the columns of one product each."""
    issues = []
    d = L.differential
    h = R.h
    I = R.identity
    pi = R.projection
    nabla = R.inclusion
    piB = R.pi_B
    homotopy = d @ h + h @ d

    def check(ok, label, witness, detail):
        if not ok:
            issues.append(ValidationIssue(label, witness, detail))

    check(homotopy == I - R.pi_H, "homotopy-identity", (),
          "dh + hd differs from Id - nabla pi")
    check(homotopy @ piB == piB, "boundary-retraction", (),
          "(dh + hd) pi_B differs from pi_B")
    for deg in sorted(R.splitting.dims):
        Bm = R.splitting.boundaries[deg].matrix()
        gap = d.block(deg - 1, deg) @ h.block(deg, deg - 1) @ Bm - Bm
        for k in sorted({j for _, j in gap.nums}):
            check(False, "boundary-section", ("degree %d" % deg,),
                  "d h z != z on boundary basis vector %d" % k)
    check((h @ h).is_zero(), "h-squared", (), "h h != 0")
    check(pi @ nabla == GradedLinearMap.identity(R.splitting.harmonic_dims()),
          "retract-identity", (), "pi nabla differs from Id on H")
    check((h @ nabla).is_zero(), "side-condition-h-nabla", (), "h nabla != 0")
    check((pi @ h).is_zero(), "side-condition-pi-h", (), "pi h != 0")
    for deg in sorted(R.splitting.dims):
        Hm = R.splitting.harmonic[deg].matrix()
        maps = (("d", d.block(deg, deg + 1)), ("h", h.block(deg, deg - 1)))
        for k, name in sorted({(j, name) for name, M in maps for _, j in (M @ Hm).nums}):
            check(False, "harmonic-killed", ("degree %d" % deg,),
                  "%s v != 0 on harmonic basis vector %d" % (name, k))

    return ValidationReport("sdr(%s)" % L.name, issues)


SDR_CHECK_LABELS = (
    "homotopy-identity",
    "boundary-retraction",
    "boundary-section",
    "h-squared",
    "retract-identity",
    "side-condition-h-nabla",
    "side-condition-pi-h",
    "harmonic-killed",
)


def sdr_checks(L, R):
    """The eight contraction identities of verify_sdr as (label, pass) pairs."""
    bad = {issue.axiom for issue in verify_sdr(L, R).issues}
    return [(label, label not in bad) for label in SDR_CHECK_LABELS]
