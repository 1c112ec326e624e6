"""Homology, the splitting g^i = B^i + H^i + C^i, and the contraction h.

Per degree i the splitting is three bases: boundaries B^i = im d^{i-1},
harmonic representatives H^i with B^i + H^i = Z^i = ker d^i, and a complement
C^i of Z^i in g^i, all chosen by the deterministic greedy rule of
complement_basis so that every derived map is reproducible byte for byte.

The contraction h of degree -1 projects onto B along H + C, then inverts d
from C back onto B.  Together with the projection pi onto H-coordinates and
the inclusion nabla of H into g it satisfies, as exact matrix identities,

    d h + h d = Id - nabla pi      h h = 0     pi nabla = Id
    h nabla = 0                    pi h = 0
    (d h + h d) pi_B = pi_B        d h z = z  for z in B
    d v = h v = 0                  for v in H

verify_sdr checks all of them and reports violations instead of raising;
sdr_checks turns its report into one named pass/fail check per identity.
"""

from .algebra import ValidationIssue, ValidationReport
from .graded import GradedLinearMap
from .linalg import (
    Matrix,
    SubspaceBasis,
    complement_basis,
    image_basis,
    invert,
    kernel_basis,
    solve_linear,
    vec_is_zero,
)


class HomologyData:
    """Per-degree cycle, boundary and harmonic-representative bases."""

    __slots__ = ("cycles", "boundaries", "harmonic", "betti")

    def __init__(self, cycles, boundaries, harmonic):
        self.cycles = dict(cycles)
        self.boundaries = dict(boundaries)
        self.harmonic = dict(harmonic)
        self.betti = {deg: basis.dim for deg, basis in self.harmonic.items()}

    def __repr__(self):
        bits = ", ".join("b_%d=%d" % (d, self.betti[d]) for d in sorted(self.betti))
        return "HomologyData(%s)" % (bits or "empty")


class Splitting:
    """The three-way decomposition g^i = B^i + H^i + C^i per degree."""

    __slots__ = ("dims", "boundaries", "harmonic", "complement")

    def __init__(self, dims, boundaries, harmonic, complement):
        self.dims = dict(dims)
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


def compute_homology(L):
    """Cycles Z, boundaries B and harmonic representatives H per degree."""
    cycles = {}
    boundaries = {}
    harmonic = {}
    for deg in L.degrees:
        Z = kernel_basis(_d_block(L, deg))
        B = image_basis(_d_block(L, deg - 1))
        H = complement_basis(B, inside=Z)
        cycles[deg] = Z
        boundaries[deg] = B
        harmonic[deg] = H
    return HomologyData(cycles, boundaries, harmonic)


def build_splitting(L):
    """Extend homology bases by a greedy complement C of Z inside each g^i."""
    hom = compute_homology(L)
    complement = {}
    for deg in L.degrees:
        complement[deg] = complement_basis(hom.cycles[deg])
    return Splitting(L.dims, hom.boundaries, hom.harmonic, complement)


class SDRData:
    """The contraction package: splitting plus the maps h, pi, nabla.

    h: GradedLinearMap of degree -1 on g; pi: g -> H-coordinates;
    nabla: H-coordinates -> g; pi_B: the projection of g onto B along H + C;
    differential: d carried along so the Hodge layer needs no extra inputs.
    """

    __slots__ = ("splitting", "h", "projection", "inclusion", "pi_B",
                 "differential", "_pi_H", "_identity")

    def __init__(self, splitting, h, projection, inclusion, pi_B, differential):
        self.splitting = splitting
        self.h = h
        self.projection = projection
        self.inclusion = inclusion
        self.pi_B = pi_B
        self.differential = differential
        self._pi_H = None
        self._identity = None

    @property
    def dims(self):
        return self.splitting.dims

    @property
    def pi_H(self):
        """nabla pi as an endomorphism of g: projection onto H along B + C."""
        if self._pi_H is None:
            self._pi_H = self.inclusion @ self.projection
        return self._pi_H

    @property
    def identity(self):
        if self._identity is None:
            self._identity = GradedLinearMap.identity(self.dims)
        return self._identity

    def contract(self, v):
        """h applied to a FormalElement (degree drops by 1)."""
        return self.h.apply_element(v, -1)

    def differential_of(self, v):
        return self.differential.apply_element(v, 1)

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
    H-coordinates.  h on degree i solves d(c) = z in the complement one
    degree down for every boundary basis vector z.
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
        cols = list(B.vectors) + list(H.vectors) + list(C.vectors)
        P = Matrix.from_columns(n, cols)
        Pinv = invert(P)
        nB, nH = B.dim, H.dim

        if nH:
            pi_blocks[(deg, deg)] = Matrix(
                nH, n, {(r, c): Pinv.entry(nB + r, c)
                        for r in range(nH) for c in range(n)}
            )
            incl_blocks[(deg, deg)] = H.matrix()

        if nB:
            coordsB = Matrix(
                nB, n, {(r, c): Pinv.entry(r, c) for r in range(nB) for c in range(n)}
            )
            piB_blocks[(deg, deg)] = B.matrix() @ coordsB

            # invert d from the complement one degree down onto these boundaries
            Cprev = S.complement.get(deg - 1)
            if Cprev is None or Cprev.dim == 0:
                raise ValueError(
                    "boundaries in degree %d but no complement in degree %d"
                    % (deg, deg - 1)
                )
            dC = _d_block(L, deg - 1) @ Cprev.matrix()
            pre_cols = []
            for z in B.vectors:
                u = solve_linear(dC, z)
                if u is None:
                    raise ValueError(
                        "d restricted to the complement does not reach a boundary "
                        "in degree %d (splitting inconsistency)" % deg
                    )
                pre_cols.append(Cprev.matrix().mul_vec(u))
            h_blocks[(deg, deg - 1)] = Matrix.from_columns(
                S.dims.get(deg - 1, 0), pre_cols
            ) @ coordsB

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
    """Check the eight contraction identities as exact matrix identities."""
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

    check(homotopy == I - (nabla @ pi), "homotopy-identity", (),
          "dh + hd differs from Id - nabla pi")
    check(homotopy @ piB == piB, "boundary-retraction", (),
          "(dh + hd) pi_B differs from pi_B")
    for deg in sorted(R.splitting.dims):
        dh = d.block(deg - 1, deg) @ h.block(deg, deg - 1)
        for k, z in enumerate(R.splitting.boundaries[deg].vectors):
            if dh.mul_vec(z) != z:
                check(False, "boundary-section", ("degree %d" % deg,),
                      "d h z != z on boundary basis vector %d" % k)
    check((h @ h).is_zero(), "h-squared", (), "h h != 0")
    check(pi @ nabla == GradedLinearMap.identity(R.splitting.harmonic_dims()),
          "retract-identity", (), "pi nabla differs from Id on H")
    check((h @ nabla).is_zero(), "side-condition-h-nabla", (), "h nabla != 0")
    check((pi @ h).is_zero(), "side-condition-pi-h", (), "pi h != 0")
    for deg in sorted(R.splitting.dims):
        for k, v in enumerate(R.splitting.harmonic[deg].vectors):
            if not vec_is_zero(d.block(deg, deg + 1).mul_vec(v)):
                check(False, "harmonic-killed", ("degree %d" % deg,),
                      "d v != 0 on harmonic basis vector %d" % k)
            if not vec_is_zero(h.block(deg, deg - 1).mul_vec(v)):
                check(False, "harmonic-killed", ("degree %d" % deg,),
                      "h v != 0 on harmonic basis vector %d" % k)

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
