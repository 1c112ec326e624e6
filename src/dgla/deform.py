"""Maurer-Cartan solving, the Kuranishi map and its inverse, obstructions,
and the gauge action.

Everything runs over a truncated coefficient ring, so the fixed-point map

    C_x(y) = x - 1/2 h[y, y]

is a contraction in the m-adic filtration and stabilizes exactly within the
truncation order N.  The iteration carries S = [y, y] along with the
iterate: y_n and y_{n+1} agree through order n, so each step brackets only
the change delta, and the final S gives the residual d tau + 1/2 S without
a second bracket of tau: each change of S is one kernel pass
(DGLA.bracket_sum) in lowest terms, the changes are summed once, and the
residual is one pass over d tau and S.  Elements have no constant term, so
C_x(y) reads y only below order N: every pass of the loop cuts its
products at N - 1, and order N is read off once the loop has stopped at
the first delta zero below N.  There [tau, tau] at order N is one order
sum of the parts of tau below N (shared with the recursion), and the
order-N part of the last step, which reads only the pair the loop
bracketed last, decides whether the last iterate was already fixed, so
the index of the first fixed iterate is kept exactly (_fixed_point).  The
iterate itself is kept only as far as the next bracket reaches (each
delta starts at least one order above the one before, so the rest of y
finds no partner within the truncation), and tau is read off the
fixed-point equation: tau = x - 1/2 h S.
Convention (fixed once, used everywhere): the Maurer-Cartan equation is
d tau + 1/2 [tau, tau] = 0, the corrective term carries -1/2 h
(SDRData.correction, one map with the factor in its integer rows, so a
step makes one pass over its image), and the Kuranishi map is
F(y) = y + 1/2 h[y, y], so that F and the fixed point tau_x of C_x are
exact mutual inverses order by order.

Gauge elements are degree-0 FormalElements (no constant term, which the
element type already enforces); exp(a) acts on a degree-1 element A by

    exp(a) . A = A + sum_{n >= 0} ad_a^n / (n+1)! ([a, A] - da),

a finite sum because ad_a raises the monomial order.  One evaluator,
_gauge_series, sums it order by order for both gauge_act and
gauge_equivalent: the order-b part reads only the homogeneous parts of a,
A and of the terms ad_a^n (...) already fixed below order b, and a_b enters
it only through -d a_b.  So gauge_equivalent solves each a_b from the
order-b part of that same pass against the target, and the witness search
and its verification cost one evaluation of the series.
"""

from .algebra import HALF
from .formal import CoefficientRing, FormalElement


class MCSolution:
    """A solved Maurer-Cartan initial value problem.

    direction is the initial value x, tau the fixed point of C_x, residual
    the curvature d tau + 1/2 [tau, tau] (built from the [tau, tau] the
    solver already holds), obstruction its harmonic part, and iterations
    the index of the first fixed iterate (for the order-by-order recursion:
    the truncation order).
    """

    __slots__ = ("direction", "tau", "residual", "obstruction", "iterations")

    def __init__(self, direction, tau, residual, obstruction, iterations):
        self.direction = direction
        self.tau = tau
        self.residual = residual
        self.obstruction = obstruction
        self.iterations = iterations

    def is_flat(self):
        return self.residual.is_zero()

    def kur_member(self):
        return self.obstruction.is_zero()

    def __repr__(self):
        return "MCSolution(tau=%r, flat=%s, iterations=%d)" % (
            self.tau, self.is_flat(), self.iterations)


def contraction_step(L, R, x, y):
    """One application of C_x: x - 1/2 h[y, y]."""
    return x + R.correction(L.apply_bracket(y, y))


def _order_sum(L, ring, b, parts, symmetric=()):
    """sum_{i+j=b} [p_i, p_j] over parts, a map i -> p_i of nonzero
    homogeneous parts of order i, plus [u, v] + [v, u] over the (u, v) of
    symmetric, in one bracket_sum: each pair (p_i, p_j), i < j, symmetric
    and p_{b/2} a square.  Homogeneous operands of orders adding up to b
    make the kernel walk the pairs of order b and no others."""
    pairs = [(parts[i], parts[b - i]) for i in range(1, (b + 1) // 2)
             if i in parts and b - i in parts]
    squares = [parts[b // 2]] if b % 2 == 0 and b // 2 in parts else []
    return L.bracket_sum(ring, 2, symmetric=pairs + list(symmetric), squares=squares)


def _fixed_point(L, R, x):
    """Iterate y_1 = x, y_{n+1} = C_x(y_n) until exact stabilization.

    Returns (tau, n, S): the first fixed iterate y_n, its index n and
    S = [tau, tau].  Every pass of the loop runs below the top order N,
    its products cut at N - 1, and order N is read off once at the end.

    S_n = [y_n, y_n] is never bracketed whole: by linearity of h the step
    is delta = y_{n+1} - y_n = -1/2 h(S_n - S_{n-1}) (S_0 = 0), and
    S_{n+1} - S_n = ([y_n, delta] + [delta, y_n]) + [delta, delta] is one
    bracket_sum, the pair (y_n, delta) symmetric and delta a square, so
    nothing assumes antisymmetry; it leaves the kernel in lowest terms.
    The changes are summed into S once, at the end.  delta has no terms
    below order n + 1, so a step walks only the pairs that can still land
    within the truncation.

    Elements have no constant term, so C_x(y) mod m^{N+1} reads y only
    below order N: the loop is the iteration of the induced map on
    m / m^N, with every product of order N dropped, and it reproduces each
    iterate below N.  It stops at the first m whose delta is zero below N;
    then y_m agrees with the fixed point tau below N, S_{<N} = [tau, tau]
    below N, and tau_{<N} = x - 1/2 h S_{<N} there.  From the homogeneous
    parts of tau_{<N}, S^N = sum_{i+j=N} [tau^i, tau^j] is one order sum
    (_order_sum, shared with _recursion), tau = x - 1/2 h(S_{<N} + S^N) and
    S = S_{<N} + S^N.  As y_{m+1} = C_x(y_m) and C_x(y_m) only reads y_m
    below N, y_{m+1} = tau.  For n < m the iterate still moved, so the
    first fixed iterate is y_m if its order-N part agrees, and y_{m+1}
    otherwise.  tau^N - y_m^N is -1/2 h of the order-N part of
    S_m - S_{m-1} = [y_{m-1}, delta] + [delta, y_{m-1}] + [delta, delta],
    delta = delta_{m-1}, which reads y_{m-1} and delta below N only: the
    pair the loop bracketed last, and for m = 1 (S_0 = 0) the slice is
    S^N itself.  So n is m when -1/2 h kills that slice and m + 1
    otherwise, decided by one more order sum.

    Nor is y_n kept whole.  y has no constant term, so the next delta
    starts at least one order above this one, low(delta), and a monomial
    of y above the reach N - 1 - low(delta) can pair with no monomial of
    any later delta within the order N.  The loop would need less, but the
    slice reads y_{m-1} up to order N - low(delta_{m-1}), which that reach
    of the pass before covers.  So y_{n+1} keeps only the monomials of
    y_n + delta within the reach: delta adds none once low(delta) is past
    it, and y stays the same object (with its view and kept rows) when
    nothing is dropped or added.
    """
    ring = x.ring
    N = ring.order
    y = x
    step = L.bracket_sum(ring, 2, squares=[x], top=N - 1)
    steps = [step]  # S_m below N is their sum, taken once at the end
    last = None  # the (iterate, delta) of the last pass
    n = 1
    while True:
        delta = R.correction(step)
        if delta.is_zero():
            break
        step = L.bracket_sum(ring, 2, symmetric=[(y, delta)], squares=[delta], top=N - 1)
        steps.append(step)
        last = y, delta
        low = delta.view().low  # the view the bracket just took
        reach = N - 1 - low
        y = y.truncated(reach)
        if low <= reach:
            y = FormalElement.summed(ring, 1, y.dim, (y, delta.truncated(reach)))
        n += 1
        if n > N + 1:
            raise RuntimeError("fixed point not reached within the truncation order")
    S_low = FormalElement.summed(ring, 2, L.dim(2), steps)
    tau_low = x + R.correction(S_low)
    S_top = _order_sum(L, ring, N, tau_low.homogeneous_parts())
    tau_top = R.correction(S_top)
    if last is not None:
        y_parts, d_parts = last[0].homogeneous_parts(), last[1].homogeneous_parts()
        moved = R.correction(_order_sum(L, ring, N, d_parts, [
            (y_parts[i], d_parts[N - i]) for i in y_parts if N - i in d_parts]))
    else:
        moved = tau_top
    if not moved.is_zero():
        n += 1
    return tau_low + tau_top, n, S_low + S_top


def _check_degree_one(x):
    if x.degree != 1:
        raise ValueError("expected a degree 1 element, got degree %d" % x.degree)


def _check_initial_value(L, x):
    """The IVP precondition shared by both solvers: x of degree 1, with a
    cocycle as its order-1 part (otherwise no solution with tau^1 = x^1)."""
    _check_degree_one(x)
    if not L.apply_differential(x.homogeneous_part(1)).is_zero():
        raise ValueError("the order-1 part of the initial value is not a cocycle")


def _package(L, R, direction, tau, iterations, S):
    """The MCSolution of tau, given S = [tau, tau] from its solver: the
    residual d tau + 1/2 S is summed in one pass (DGLA._curvature)."""
    residual = L._curvature(tau, S)
    obstruction = R.harmonic_projection(residual)
    return MCSolution(direction, tau, residual, obstruction, iterations)


def solve_mc_ivp(L, R, x):
    """Solve d tau + 1/2 [tau, tau] = 0 with tau = x - 1/2 h[tau, tau].

    The order-1 part of x must be a cocycle (otherwise no solution with
    tau^1 = x^1 exists).  Obstructed directions do not abort: tau always
    solves the fixed-point equation, and flatness is reported separately
    through residual and obstruction.
    """
    _check_initial_value(L, x)
    tau, iters, S = _fixed_point(L, R, x)
    return _package(L, R, x, tau, iters, S)


def _recursion(L, R, x):
    """(tau, S): the fixed point tau of C_x assembled order by order, and
    S = [tau, tau].

        tau^b = x^b - 1/2 h ( sum_{i+j=b} [tau^i, tau^j] )
              = x^b - 1/2 h ( [tau^{b/2}, tau^{b/2}]
                              + sum_{i<j, i+j=b} ([tau^i, tau^j] + [tau^j, tau^i]) ),

    the first term for even b only: the order-b sum is one bracket_sum, its
    pairs (tau^i, tau^j) symmetric and tau^{b/2} a square.  Summed over b it is
    S = [tau, tau].  The order-b part of C_x(tau) depends on tau below order
    b only, so this is the fixed point of C_x for any degree 1 x, with no
    cocycle condition.  tau and S are each summed from their homogeneous
    parts in one pass.
    """
    ring = x.ring
    parts = {}
    sums = []
    for b in range(1, ring.order + 1):
        acc = _order_sum(L, ring, b, parts)
        sums.append(acc)
        tau_b = x.homogeneous_part(b) + R.correction(acc)
        if not tau_b.is_zero():
            parts[b] = tau_b
    tau = FormalElement.summed(ring, 1, L.dim(1), parts.values())
    return tau, FormalElement.summed(ring, 2, L.dim(2), sums)


def solve_by_recursion(L, R, x):
    """The solution of solve_mc_ivp assembled order by order (_recursion),
    with the residual d tau + 1/2 S from its S = [tau, tau].  Cross-checks
    the fixed-point engine; iterations is the truncation order."""
    _check_initial_value(L, x)
    tau, S = _recursion(L, R, x)
    return _package(L, R, x, tau, x.ring.order, S)


def universal_solution(L, R, order):
    """Solve the IVP with the universal initial value sum_i eta_i t_i.

    The eta_i are the harmonic degree-1 representatives; the coefficient of
    each degree-b monomial packages the order-b Taylor coefficient of the
    universal solution.  With H^1 = 0 the zero solution is returned (over a
    single placeholder variable).
    """
    H1 = R.splitting.harmonic.get(1)
    k = H1.dim if H1 is not None else 0
    if k == 0:
        ring = CoefficientRing(("t1",), order)
        x = FormalElement.zero(ring, 1, L.dim(1))
    else:
        ring = CoefficientRing(tuple("t%d" % (i + 1) for i in range(k)), order)
        terms = {}
        for i, eta in enumerate(H1.vectors):
            mono = tuple(1 if j == i else 0 for j in range(k))
            terms[mono] = eta
        x = FormalElement(ring, 1, L.dim(1), terms)
    return solve_mc_ivp(L, R, x)


def kuranishi_map(L, R, y):
    """F(y) = y + 1/2 h[y, y]."""
    _check_degree_one(y)
    return y - R.correction(L.apply_bracket(y, y))


def kuranishi_inverse(L, R, x):
    """The fixed point of y -> x - 1/2 h[y, y]; F(result) = x exactly.

    Assembled order by order (the recursion of solve_by_recursion), which
    needs no cocycle precondition.
    """
    _check_degree_one(x)
    return _recursion(L, R, x)[0]


def obstruction(L, R, x):
    """The harmonic part of 1/2 [F^{-1}(x), F^{-1}(x)], order by order.

    Lands in the span of the harmonic degree-2 representatives; equals the
    harmonic part of the residual of the solved IVP.  [F^{-1}(x), F^{-1}(x)]
    is the S the recursion builds along with F^{-1}(x).
    """
    _check_degree_one(x)
    S = _recursion(L, R, x)[1]
    return R.harmonic_projection(S.scale(HALF))


def _check_gauge(a):
    if a.degree != 0:
        raise ValueError("gauge elements have degree 0, got degree %d" % a.degree)


class NotFlatError(ValueError):
    """A gauge_equivalent input that is not flat: index 0 is A, 1 Aprime."""

    def __init__(self, index):
        self.index = index
        super().__init__("gauge_equivalent requires flat inputs: %s is not flat"
                         % ("A", "Aprime")[index])


def _gauge_series(L, A, part):
    """exp(a) . A summed order by order, for the gauge element a with parts
    a_b = part(b, known).

    With c_1 = [a, A] - da and c_k = [a, c_{k-1}], the order-b parts are

        c_1[b] = sum_{i<b} [a_i, A_{b-i}] - d a_b,
        c_k[b] = sum_{i+j=b} [a_i, c_{k-1}[j]]      (k = 2..b),
        (exp(a) . A)_b = A_b + sum_k c_k[b] / k!,

    so order b reads only parts fixed below it, and k runs all the way to b:
    c_k[b] can vanish while c_{k+1} at a later order does not.  Each
    bracket sum is one kernel pass (DGLA.bracket_sum, its pairs ordered):
    c_k[b] / k! is kept as sum_i [a_i, c_{k-1}[b-i] / (k-1)!] over k, the k
    going into the pass's denominator; a pair with a zero part of A is
    dropped and an empty sum skipped.  a_b enters order b only through
    -d a_b, so part is asked for a_b (a degree-0 element, homogeneous of
    order b, zero allowed) once the rest of the order is known: known is a
    list of elements that sum to (exp(a) . A)_b + d a_b.  part may return
    None to stop, and then the series returns None; otherwise it returns
    exp(a) . A.
    """
    ring = A.ring
    dim1 = A.dim
    A_parts = {b: A.homogeneous_part(b) for b in range(1, ring.order + 1)}
    a = {}  # i -> a_i, nonzero parts only, all below the current order
    c = {}  # (k, b) -> c_k[b] / k!, nonzero parts only
    pieces = [A]
    for b in range(1, ring.order + 1):
        ordered = [(a[i], A_parts[b - i]) for i in a if A_parts[b - i].nums]
        first = [L.bracket_sum(ring, 1, ordered=ordered)] if ordered else []
        higher = []
        for k in range(2, b + 1):
            ordered = [(a[i], c[k - 1, b - i]) for i in a if (k - 1, b - i) in c]
            if ordered:
                ck = L.bracket_sum(ring, 1, ordered=ordered, den=k)
                if not ck.is_zero():
                    c[k, b] = ck
                    higher.append(ck)
        a_b = part(b, [A_parts[b]] + first + higher)
        if a_b is None:
            return None
        if not a_b.is_zero():
            a[b] = a_b
            first.append(-L.apply_differential(a_b))
        c1 = FormalElement.summed(ring, 1, dim1, first)
        if not c1.is_zero():
            c[1, b] = c1
        pieces += [c1] + higher
    return FormalElement.summed(ring, 1, dim1, pieces)


def gauge_act(L, a, A):
    """exp(a) . A for a degree-0 gauge element a and degree-1 element A,
    summed order by order (_gauge_series)."""
    _check_gauge(a)
    _check_degree_one(A)
    if a.ring != A.ring:
        raise ValueError("ring mismatch")
    return _gauge_series(L, A, lambda b, known: a.homogeneous_part(b))


def gauge_equivalent(L, R, A, Aprime):
    """A degree-0 witness a with exp(a) . A = Aprime, or None.

    Both inputs must be flat (NotFlatError, a ValueError, names the one
    that is not).  Solved in one pass of the gauge series (_gauge_series):
    at order b the unknown a_b enters only through -d a_b, so once the rest
    of order b is known, a_b must satisfy d a_b = X_b for the known
    difference X_b.  The contraction solves it: a_b = h(X_b), accepted iff
    d h(X_b) = X_b, which holds exactly when X_b lies in B^1, and -d a_b
    then completes c_1 at order b.  complement_basis makes C^0 the span of
    the standard vectors at the pivot columns of d: g^0 -> g^1, so h(X_b)
    is the one preimage in C^0, the solution of d a = X_b with every free
    component zero.  The witness is verified on the same pass: it returns
    exp(a) . A, which must equal Aprime.  Each a_b is homogeneous of order
    b, so acting with the summed a once more would rebuild the very same
    series.  Returning None means no witness exists under that
    zero-free-component rule (sound, not complete, when d has a kernel in
    degree 0).
    """
    _check_degree_one(A)
    _check_degree_one(Aprime)
    if A.ring != Aprime.ring:
        raise ValueError("ring mismatch")
    for index, B in enumerate((A, Aprime)):
        if not L.curvature(B).is_zero():
            raise NotFlatError(index)
    ring = A.ring
    parts = []

    def solve(b, known):
        diff = FormalElement.summed(ring, 1, A.dim,
                                    known + [-Aprime.homogeneous_part(b)])
        a_b = R.contract(diff)
        if L.apply_differential(a_b) != diff:
            return None
        parts.append(a_b)
        return a_b

    if _gauge_series(L, A, solve) != Aprime:
        return None
    return FormalElement.summed(ring, 0, L.dim(0), parts)


def gauge_fix(R, A):
    """Project a degree-1 element onto C^1 + H^1 along B^1 (kill the exact part)."""
    _check_degree_one(A)
    return A - R.boundary_projection(A)
