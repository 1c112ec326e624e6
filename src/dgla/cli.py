"""Command-line front end: load DGLA files, run the pipeline, emit reports.

Subcommands: validate, homology, sdr, hodge, mc-solve, universal, kuranishi,
obstruction, gauge-equiv, selftest.  Reports come out as human-readable text
or canonical JSON (--format json), which is byte-identical across runs of
the same input.  Exit codes: 0 all checks pass, 1 a mathematical check
failed, 2 input or usage error, 3 internal error (one line on stderr; the
traceback too with --debug).  Computational findings (an obstructed
direction, a missing gauge witness) are data, not failures.
"""

import argparse
import hashlib
import os
import sys
import traceback
from contextlib import contextmanager

from . import __version__
from .deform import (
    NotFlatError,
    gauge_act,
    gauge_equivalent,
    kuranishi_inverse,
    kuranishi_map,
    obstruction,
    solve_by_recursion,
    solve_mc_ivp,
    universal_solution,
)
from .docio import DocumentError, parse_dgla, parse_element, parse_rational
from .formal import CoefficientRing, FormalElement
from .hodge import hodge_checks
from .report import (
    RunReport,
    basis_data,
    element_data,
    emit_report,
    graded_map_data,
    rational_str,
)
from .sdr import build_contraction, build_splitting, sdr_checks
from .selftest import run_selftest

ORDER_CAP = 16


class CliError(Exception):
    """Bad input or usage; maps to exit code 2."""


def _load(path, allow_invalid=False):
    """Read the file once; returns (DGLA, ValidationReport, input info), the
    sha256 in the input info being that of the very bytes parsed."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CliError("load: cannot read %r: %s" % (path, e)) from None
    try:
        L, rep = parse_dgla(raw, allow_invalid=allow_invalid)
    except DocumentError as e:
        raise CliError("load: %s" % e) from None
    return L, rep, {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}


@contextmanager
def _input_error(command):
    """Report a ValueError raised in the block as bad input to `command`."""
    try:
        yield
    except ValueError as e:
        raise CliError("%s: %s" % (command, e)) from None


def _checked_order(args):
    n = args.order
    if n < 1:
        raise CliError("--order must be at least 1")
    if n > ORDER_CAP and not args.allow_large_order:
        raise CliError(
            "--order %d exceeds the cap %d; pass --allow-large-order to override"
            % (n, ORDER_CAP)
        )
    return n


def _contraction(L, command):
    with _input_error(command):
        return build_contraction(L, build_splitting(L))


def _parse_direction(text, k):
    """The k comma-separated coefficients; "" is none, an empty field is refused."""
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if "" in parts:
        raise CliError("--direction: coefficient %d of %d is empty"
                       % (parts.index("") + 1, len(parts)))
    if len(parts) != k:
        raise CliError("--direction needs %d coefficient(s) over the H^1 basis, got %d"
                       % (k, len(parts)))
    try:
        return [parse_rational(p) for p in parts]
    except DocumentError as e:
        raise CliError("--direction: %s" % e) from None


def _direction_element(L, R, ring, text):
    H1 = R.splitting.harmonic.get(1)
    coeffs = _parse_direction(text, H1.dim if H1 is not None else 0)
    vec = H1.matrix().mul_vec(coeffs) if H1 is not None else ()  # sum c_i eta_i
    terms = {(1,): vec} if any(vec) else {}
    return FormalElement(ring, 1, L.dim(1), terms), coeffs


def _element_arg(L, ring, text, expect_degree, flag):
    blob = text
    if not text.lstrip().startswith("{"):
        if os.path.exists(text):
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    blob = fh.read()
            except OSError as e:
                raise CliError("%s: cannot read %r: %s" % (flag, text, e)) from None
            except UnicodeDecodeError as e:
                raise CliError("%s: %r is not UTF-8 text: %s" % (flag, text, e)) from None
        else:
            raise CliError(
                "%s: %r is neither inline JSON nor an existing file" % (flag, text)
            )
    try:
        return parse_element(L, ring, blob, expect_degree=expect_degree)
    except DocumentError as e:
        raise CliError("%s: %s" % (flag, e)) from None


def _dims_data(L):
    return {str(d): L.dims[d] for d in L.degrees}


def _solution_data(sol, ring):
    return {
        "variables": list(ring.variables),
        "order": ring.order,
        "tau": element_data(sol.tau),
        "residual": element_data(sol.residual),
        "obstruction": element_data(sol.obstruction),
        "iterations": sol.iterations,
        "flat": sol.is_flat(),
        "kur_member": sol.kur_member(),
    }


def _solution_checks(L, R, sol, rec):
    """The solver checks of mc-solve and universal: F(tau) = x (so tau^1 =
    x^1), the two solvers agree, and Kuranishi's identity R = ob + h[R, tau]
    for the residual R = d tau + 1/2 [tau, tau] and its harmonic part ob.
    The identity follows from the homotopy identity and Jacobi, so it fails
    on an input that breaks Jacobi; it also gives R = 0 when ob = 0, and
    pi_B R = 0."""
    identity = sol.obstruction + R.contract(L.apply_bracket(sol.residual, sol.tau))
    return [
        ("kuranishi-roundtrip", kuranishi_map(L, R, sol.tau) == sol.direction),
        ("recursion-agreement", rec.tau == sol.tau),
        ("kuranishi-identity", sol.residual == identity),
    ]


# subcommand handlers


def cmd_validate(args):
    L, rep, info = _load(args.file, allow_invalid=True)
    r = RunReport(input_info=info)
    r.add_stage(
        "validate",
        data={
            "name": L.name,
            "dims": _dims_data(L),
            "issues": [i.to_data() for i in rep.issues],
        },
        checks=[("dgla-axioms", rep.ok)],
    )
    return r


def cmd_homology(args):
    L, _, info = _load(args.file, allow_invalid=args.allow_invalid)
    with _input_error("homology"):
        S = build_splitting(L)
    ok_rank = True
    ok_sub = True
    for deg in L.degrees:
        b_next = S.boundaries[deg + 1].dim if deg + 1 in S.boundaries else 0
        if S.cycles[deg].dim + b_next != L.dim(deg):
            ok_rank = False
        dB = L.differential.block(deg, deg + 1) @ S.boundaries[deg].matrix()
        if not dB.is_zero():
            ok_sub = False
    r = RunReport(input_info=info)
    r.add_stage(
        "homology",
        data={
            "dims": _dims_data(L),
            "betti": {str(d): b for d, b in sorted(S.betti().items())},
            "cycles": {str(d): basis_data(S.cycles[d]) for d in L.degrees},
            "boundaries": {str(d): basis_data(S.boundaries[d]) for d in L.degrees},
            "harmonic": {str(d): basis_data(S.harmonic[d]) for d in L.degrees},
        },
        checks=[("rank-nullity", ok_rank), ("boundaries-are-cycles", ok_sub)],
    )
    return r


def cmd_sdr(args):
    L, _, info = _load(args.file, allow_invalid=args.allow_invalid)
    R = _contraction(L, args.command)
    S = R.splitting
    r = RunReport(input_info=info)
    r.add_stage(
        "sdr",
        data={
            "betti": {str(d): b for d, b in sorted(S.betti().items())},
            "splitting": {
                str(d): {
                    "B": basis_data(S.boundaries[d]),
                    "H": basis_data(S.harmonic[d]),
                    "C": basis_data(S.complement[d]),
                }
                for d in sorted(S.dims)
            },
            "h": graded_map_data(R.h),
        },
        checks=sdr_checks(L, R),
    )
    return r


def cmd_hodge(args):
    L, _, info = _load(args.file, allow_invalid=args.allow_invalid)
    R = _contraction(L, args.command)
    with _input_error("hodge"):
        checks, witnesses = hodge_checks(L, R)
    data = {
        "star": graded_map_data(R.star),
        "laplacian": graded_map_data(R.laplacian),
    }
    if witnesses:
        data["cartan_witnesses"] = [list(w) for w in witnesses]
    r = RunReport(input_info=info)
    r.add_stage("hodge", data=data, checks=checks)
    return r


def cmd_mc_solve(args):
    L, _, info = _load(args.file, allow_invalid=args.allow_invalid)
    R = _contraction(L, args.command)
    order = _checked_order(args)
    ring = CoefficientRing(("t",), order)
    x, coeffs = _direction_element(L, R, ring, args.direction)
    with _input_error("mc-solve"):
        sol = solve_mc_ivp(L, R, x)
        rec = solve_by_recursion(L, R, x)
    data = _solution_data(sol, ring)
    data["direction"] = [rational_str(c) for c in coeffs]
    r = RunReport(input_info=info,
                  options={"order": order, "variables": ["t"]})
    r.add_stage("mc-solve", data=data, checks=_solution_checks(L, R, sol, rec))
    return r


def cmd_universal(args):
    L, _, info = _load(args.file, allow_invalid=args.allow_invalid)
    R = _contraction(L, args.command)
    order = _checked_order(args)
    with _input_error("universal"):
        sol = universal_solution(L, R, order)
        rec = solve_by_recursion(L, R, sol.direction)
    ring = sol.tau.ring
    data = _solution_data(sol, ring)
    H1 = R.splitting.harmonic.get(1)
    data["h1_dim"] = H1.dim if H1 is not None else 0
    r = RunReport(input_info=info,
                  options={"order": order, "variables": list(ring.variables)})
    r.add_stage("universal", data=data,
                checks=_solution_checks(L, R, sol, rec))
    return r


def cmd_kuranishi(args):
    L, _, info = _load(args.file, allow_invalid=args.allow_invalid)
    R = _contraction(L, args.command)
    order = _checked_order(args)
    ring = CoefficientRing(("t",), order)
    x = _element_arg(L, ring, args.input, 1, "--input")
    with _input_error("kuranishi"):
        if args.inverse:
            result = kuranishi_inverse(L, R, x)
            ok = kuranishi_map(L, R, result) == x
            mode = "inverse"
        else:
            result = kuranishi_map(L, R, x)
            ok = kuranishi_inverse(L, R, result) == x
            mode = "forward"
    r = RunReport(input_info=info,
                  options={"order": order, "variables": ["t"]})
    r.add_stage(
        "kuranishi",
        data={"mode": mode, "input": element_data(x), "result": element_data(result)},
        checks=[("kuranishi-roundtrip", ok)],
    )
    return r


def cmd_obstruction(args):
    L, _, info = _load(args.file, allow_invalid=args.allow_invalid)
    R = _contraction(L, args.command)
    order = _checked_order(args)
    ring = CoefficientRing(("t",), order)
    x, coeffs = _direction_element(L, R, ring, args.direction)
    with _input_error("obstruction"):
        ob = obstruction(L, R, x)
        sol = solve_mc_ivp(L, R, x)
    coherent = ob == sol.obstruction
    r = RunReport(input_info=info,
                  options={"order": order, "variables": ["t"]})
    r.add_stage(
        "obstruction",
        data={
            "direction": [rational_str(c) for c in coeffs],
            "tau": element_data(sol.tau),
            "obstruction": element_data(ob),
            "obstruction_h_coords": element_data(R.harmonic_coordinates(ob)),
            "kur_member": ob.is_zero(),
        },
        checks=[("obstruction-coherence", coherent)],
    )
    return r


def cmd_gauge_equiv(args):
    L, _, info = _load(args.file, allow_invalid=args.allow_invalid)
    R = _contraction(L, args.command)
    order = _checked_order(args)
    ring = CoefficientRing(("t",), order)
    A = _element_arg(L, ring, args.a, 1, "--a")
    Ap = _element_arg(L, ring, args.b, 1, "--b")
    with _input_error("gauge-equiv"):
        try:
            witness = gauge_equivalent(L, R, A, Ap)
        except NotFlatError as e:
            raise CliError("gauge-equiv: %s is not flat (nonzero mc residual)"
                           % ("--a", "--b")[e.index]) from None
    Z0 = R.splitting.cycles.get(0)
    complete = Z0 is None or Z0.dim == 0
    data = {"a": element_data(A), "b": element_data(Ap), "complete": complete}
    checks = []
    if witness is not None:
        data["equivalent"] = True
        data["witness"] = element_data(witness)
        checks.append(("witness-verifies", gauge_act(L, witness, A) == Ap))
    else:
        data["equivalent"] = False
        note = "no witness under the zero-free-component rule"
        if not complete:
            note += " (decision incomplete: d has a kernel in degree 0)"
        data["note"] = note
    r = RunReport(input_info=info,
                  options={"order": order, "variables": ["t"]})
    r.add_stage("gauge-equiv", data=data, checks=checks)
    return r


def cmd_selftest(args):
    order = _checked_order(args)
    return run_selftest(order=order)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dgla",
        description="Exact-arithmetic engine for finite-dimensional DGLAs: "
        "contraction, Hodge package, Maurer-Cartan solving, Kuranishi map, "
        "obstructions and gauge equivalence over truncated formal series.",
    )
    parser.add_argument("--version", action="version", version="dgla " + __version__)
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of an internal error (exit code 3)")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default: text)")

    filep = argparse.ArgumentParser(add_help=False)
    filep.add_argument("file", help="DGLA description file (JSON)")
    filep.add_argument("--allow-invalid", action="store_true",
                       help="proceed even if the DGLA fails axiom validation")

    orderp = argparse.ArgumentParser(add_help=False)
    orderp.add_argument("--order", type=int, default=4,
                        help="truncation order N (default: 4, cap %d)" % ORDER_CAP)
    orderp.add_argument("--allow-large-order", action="store_true",
                        help="permit --order above %d" % ORDER_CAP)

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate", parents=[filep, fmt],
                       help="check every DGLA axiom and report violations")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("homology", parents=[filep, fmt],
                       help="cycles, boundaries, harmonic representatives, Betti numbers")
    p.set_defaults(handler=cmd_homology)

    p = sub.add_parser("sdr", parents=[filep, fmt],
                       help="build the splitting and contraction; verify the SDR identities")
    p.set_defaults(handler=cmd_sdr)

    p = sub.add_parser("hodge", parents=[filep, fmt],
                       help="star operator, codifferential, Laplacian, decomposition, Cartan condition")
    p.set_defaults(handler=cmd_hodge)

    p = sub.add_parser("mc-solve", parents=[filep, fmt, orderp],
                       help="solve the Maurer-Cartan IVP for a direction over the H^1 basis")
    p.add_argument("--direction", required=True,
                   help="comma-separated exact coefficients over the H^1 basis")
    p.set_defaults(handler=cmd_mc_solve)

    p = sub.add_parser("universal", parents=[filep, fmt, orderp],
                       help="solve with the universal initial value over t1..tk")
    p.set_defaults(handler=cmd_universal)

    p = sub.add_parser("kuranishi", parents=[filep, fmt, orderp],
                       help="apply the Kuranishi map (or its inverse) to an element")
    p.add_argument("--input", required=True,
                   help="degree-1 element: inline JSON or a file path")
    p.add_argument("--inverse", action="store_true",
                   help="apply the inverse map (fixed-point solve)")
    p.set_defaults(handler=cmd_kuranishi)

    p = sub.add_parser("obstruction", parents=[filep, fmt, orderp],
                       help="obstruction class and Kuranishi-functor membership")
    p.add_argument("--direction", required=True,
                   help="comma-separated exact coefficients over the H^1 basis")
    p.set_defaults(handler=cmd_obstruction)

    p = sub.add_parser("gauge-equiv", parents=[filep, fmt, orderp],
                       help="find a gauge witness exp(a).A = B between two flat elements")
    p.add_argument("--a", required=True, help="flat degree-1 element (inline JSON or file)")
    p.add_argument("--b", required=True, help="flat degree-1 element (inline JSON or file)")
    p.set_defaults(handler=cmd_gauge_equiv)

    p = sub.add_parser("selftest", parents=[fmt, orderp],
                       help="run the whole corpus invariant suite")
    p.set_defaults(handler=cmd_selftest)

    return parser


def _attached_directions(argv):
    """argv with "--direction VALUE" (or an abbreviation of the flag that
    argparse accepts, such as --dir) written "--direction=VALUE" where VALUE
    starts with a single "-": argparse takes such a token for an option
    unless it reads as a negative decimal, so a direction whose first
    coefficient is a negative fraction (-1/2) would be refused."""
    out = []
    for arg in argv:
        if (out and len(out[-1]) > 2 and "--direction".startswith(out[-1])
                and arg[:1] == "-" and arg[:2] != "--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _attached_directions(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:  # argparse has printed usage and the error, or help
        return e.code
    try:
        report = args.handler(args)
        color = (
            args.format == "text"
            and sys.stdout.isatty()
            and not os.environ.get("NO_COLOR")
        )
        sys.stdout.buffer.write(emit_report(report, args.format, color=color))
        sys.stdout.buffer.flush()
    except CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        if args.debug:
            traceback.print_exc()
        print("internal error: %s"
              % " ".join(("%s: %s" % (type(e).__name__, e)).split()),
              file=sys.stderr)
        return 3
    return 0 if report.all_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
