import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest

import dgla.algebra
from dgla import build_contraction, build_splitting, universal_solution
from dgla.cli import _build_parser, main
from dgla.docio import load_dgla
from dgla.report import canonical_json, emit_report

from test_benchmark_pins import workloads

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "corpus")


def corpus(name):
    return os.path.join(CORPUS_DIR, "%s.json" % name)


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_main(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def stage(report, name):
    for s in report["stages"]:
        if s["stage"] == name:
            return s
    raise AssertionError("no stage %r" % name)


def checks_by_name(s):
    return {c["name"]: c["pass"] for c in s["checks"]}


def test_validate_corpus_exit_zero(capsys):
    for name in ("E0", "E1", "E2", "E3", "E4"):
        code, rep, _ = run_json(capsys, "validate", corpus(name))
        assert code == 0
        assert checks_by_name(stage(rep, "validate")) == {"dgla-axioms": True}


def test_validate_reports_input_digest(capsys):
    code, rep, _ = run_json(capsys, "validate", corpus("E0"))
    assert rep["input"]["path"] == corpus("E0")
    assert len(rep["input"]["sha256"]) == 64


def test_homology_betti(capsys):
    code, rep, _ = run_json(capsys, "homology", corpus("E1"))
    assert code == 0
    s = stage(rep, "homology")
    assert s["data"]["betti"] == {"1": 1, "2": 0}
    assert checks_by_name(s) == {"rank-nullity": True, "boundaries-are-cycles": True}


def test_sdr_and_hodge_pass(capsys):
    for cmd in ("sdr", "hodge"):
        for name in ("E0", "E1", "E2", "E3", "E4"):
            code, rep, _ = run_json(capsys, cmd, corpus(name))
            assert code == 0, (cmd, name)


# sha256 of canonical_json(report["stages"]) per subcommand and corpus file;
# "input" is left out because it holds the path
REPORT_STAGES_SHA256 = {
    "sdr": {
        "E0": "b9da22c62d03920e293f4e1893e488c7aa0e9700324144a286a22e27bcea66af",
        "E1": "bea7a77f90cc6ad22bcb9ab6d70a301e348b0d32fd205b346748257338a9cbc3",
        "E2": "dd9cd934edb71d2c710c30920cb1fb91174b5ca4305fc81d81e9a1977763db55",
        "E3": "1ea417b99b5f3ac21eefa82859bd2b1d851b8b2c1375ae8429eca3844b0830fb",
        "E4": "5dec59df59db163ba0c35a9784419946b26ac68da3f5b3d55e6dce6f4b5f7d8a",
    },
    "homology": {
        "E0": "56112540f94341c79ef8387eed846f9060a4d7a95ba221961789257ffd198c73",
        "E1": "28e4d109bb3d3890aa801fa9038f8baa2daf8ffea7c948fe3e43a7c627778084",
        "E2": "57244dbb8e42a69986727100dcdd982faab9ff90fdaac901f151ad9645d76c3e",
        "E3": "31af89dc07a736a8675192b7671e88ce345bed7a18d8e56df2c211c54698c568",
        "E4": "02d8c9a5b60523f3dacf45bbec2cbde0a831b85427916d9369356647f209a5e7",
    },
    "hodge": {
        "E0": "6354fd32b529b46adfb2fb9e76d8954a87cba2699703b2d4fe3060bf3d8ce043",
        "E1": "e1248257fd77d19d669894afea70f0b41486534589eb2a38ccf2d4b5171131fd",
        "E2": "aeafbefb774caa662f435a6678d2cae977d2f22382bd6c71345ff0c825db1056",
        "E3": "f4cf9a6cc0a417e8a7a54933b7e9c3d7686b9506672751d8d8a4b79a035b3d81",
        "E4": "6aa327fa0cd84b8415bfbde52c534a1563bd99041153ea6d85d8d4f1ff575f4c",
    },
}


@pytest.mark.parametrize("cmd, name", [
    (cmd, name) for cmd, pins in REPORT_STAGES_SHA256.items() for name in pins])
def test_sdr_and_hodge_report_bytes_pinned(capsys, cmd, name):
    code, rep, _ = run_json(capsys, cmd, corpus(name))
    assert code == 0
    digest = hashlib.sha256(canonical_json(rep["stages"])).hexdigest()
    assert digest == REPORT_STAGES_SHA256[cmd][name]


# sha256 of canonical_json(report["stages"]) of `universal FILE --order 6`
UNIVERSAL_STAGES_SHA256 = {
    "E0": "f7f8376dcf2b1a9466f73d36b3a4371f0f76ad27fa93c46c616bc4363513526e",
    "E1": "4ab94c77e19c2f21f05c9ce2dd284918e5442f8428ba872e8715ca71aeeb9cbd",
    "E2": "c870472e95dcf2b5a37cbfc927521827105c27f42bc9565c9748acb37e3ae275",
    "E3": "fc7537b48040e145efdc1ee048df7f8aeb4affaa11ab1d7a362533454fd88c4e",
    "E4": "39150dd064935e48352c4f2700163f697207b8db14e525ab2627420f98f4f825",
}


@pytest.mark.parametrize("name", sorted(UNIVERSAL_STAGES_SHA256))
def test_universal_report_bytes_pinned(capsys, name):
    code, rep, _ = run_json(capsys, "universal", corpus(name), "--order", "6")
    assert code == 0
    digest = hashlib.sha256(canonical_json(rep["stages"])).hexdigest()
    assert digest == UNIVERSAL_STAGES_SHA256[name]


DIRECTION_E2 = ("--direction", "1/2,-1/3,1,0,2/5,0,0,1,-1", "--order", "4")

# sha256 of canonical_json(report["stages"]) of the series subcommands, one
# run each, all with fractional data
SERIES_STAGES_SHA256 = [
    (("mc-solve", "E2") + DIRECTION_E2,
     "3c7ea4fec4d3bff3f02f8296a78228e79507239cc10f66835726179ff27a6fe3"),
    (("obstruction", "E2") + DIRECTION_E2,
     "2a525133bcc522ec8760adec8297a1f4db6fb6f0798d4bcb6f14084ee1e42c16"),
    (("mc-solve", "E3", "--direction", "2/3", "--order", "5"),
     "813d73b57e0e44d207cd470688fd608a899b0012faccbc7ccdd3cdcdffa1b780"),
    (("mc-solve", "E1", "--direction", "3/7", "--order", "6"),
     "0f7da4e69e606b18731ffe38c049d283d0b63bb778f83ce94cca8b7fa93b982f"),
    (("kuranishi", "E1", "--inverse", "--order", "6", "--input",
      '{"degree": 1, "terms": {"t": {"x": "2/3"}, "t^2": {"x": "-1/5"}}}'),
     "d791af873e84ab565bb9539901758fd2db86a99e4e95c9535ce76f82ddbf7b21"),
    (("gauge-equiv", "E4", "--order", "5", "--a", '{"degree": 1, "terms": {}}',
      "--b", '{"degree": 1, "terms": {"t": {"x": "-1/3"}, "t^3": {"x": "5/7"}}}'),
     "0a65886d59f6ffb546f9fcffd825272c26c077863615b217706c9b616d96d654"),
]


@pytest.mark.parametrize("argv, sha", SERIES_STAGES_SHA256,
                         ids=["-".join(argv[:2]) for argv, _ in SERIES_STAGES_SHA256])
def test_series_report_bytes_pinned(capsys, argv, sha):
    cmd, name, *rest = argv
    code, rep, _ = run_json(capsys, cmd, corpus(name), *rest)
    assert code == 0
    assert hashlib.sha256(canonical_json(rep["stages"])).hexdigest() == sha


def test_mc_solve_e1_worked_example(capsys):
    code, rep, _ = run_json(
        capsys, "mc-solve", corpus("E1"), "--direction", "1", "--order", "3")
    assert code == 0
    data = stage(rep, "mc-solve")["data"]
    assert data["tau"]["terms"] == {"t": ["1", "0"], "t^2": ["0", "-1/2"]}
    assert data["residual"] == "0"
    assert data["obstruction"] == "0"
    assert data["flat"] is True
    assert data["kur_member"] is True


def test_mc_solve_report_contains_residual_zero_token(capsys):
    code, out, _ = run_main(
        capsys, "mc-solve", corpus("E1"), "--direction", "1", "--format", "json")
    assert '"residual":"0"' in out


def test_obstruction_e3_worked_example(capsys):
    code, rep, _ = run_json(
        capsys, "obstruction", corpus("E3"), "--direction", "1", "--order", "2")
    # obstructed is a finding, not a failure: exit 0
    assert code == 0
    data = stage(rep, "obstruction")["data"]
    assert data["obstruction"]["terms"] == {"t^2": ["1/2"]}
    assert data["kur_member"] is False
    assert checks_by_name(stage(rep, "obstruction")) == {"obstruction-coherence": True}


def test_universal_e1(capsys):
    code, rep, _ = run_json(capsys, "universal", corpus("E1"), "--order", "4")
    assert code == 0
    data = stage(rep, "universal")["data"]
    assert data["variables"] == ["t1"]
    assert data["tau"]["terms"] == {"t1": ["1", "0"], "t1^2": ["0", "-1/2"]}
    assert data["flat"] is True


def test_kuranishi_inline_json_and_inverse(capsys):
    elem = '{"degree": 1, "terms": {"t": {"x": "1"}}}'
    code, rep, _ = run_json(
        capsys, "kuranishi", corpus("E1"), "--input", elem, "--inverse")
    assert code == 0
    data = stage(rep, "kuranishi")["data"]
    assert data["result"]["terms"] == {"t": ["1", "0"], "t^2": ["0", "-1/2"]}
    # forward map sends the solution back to the direction
    code, rep, _ = run_json(
        capsys, "kuranishi", corpus("E1"), "--input",
        '{"degree": 1, "terms": {"t": ["1", "0"], "t^2": ["0", "-1/2"]}}')
    assert code == 0
    assert stage(rep, "kuranishi")["data"]["result"]["terms"] == {"t": ["1", "0"]}


def test_kuranishi_file_input(capsys, tmp_path):
    path = tmp_path / "elem.json"
    path.write_text('{"degree": 1, "terms": {"t": {"x": "1"}}}')
    code, rep, _ = run_json(
        capsys, "kuranishi", corpus("E1"), "--input", str(path))
    assert code == 0


@pytest.mark.parametrize("again", (["5", "0"], ["0", "0"]))
def test_kuranishi_repeated_monomial_exit_two(capsys, again):
    element = json.dumps({"degree": 1, "terms": {"t": ["1", "0"], "t^1": again}})
    code, out, err = run_main(capsys, "kuranishi", corpus("E1"), "--input", element)
    assert code == 2 and not out
    assert "'t' and 't^1' are the same" in err


@pytest.mark.parametrize("terms", (
    '{"t": [1, 0], "t": [5, 0]}', '{"t": {"x": 1, "x": 5}}'))
def test_kuranishi_repeated_key_exit_two(capsys, terms):
    element = '{"degree": 1, "terms": %s}' % terms
    code, out, err = run_main(capsys, "kuranishi", corpus("E1"), "--input", element)
    assert code == 2 and not out
    assert "--input" in err and "is repeated in one object" in err


@pytest.mark.parametrize("flag", ("--a", "--b"))
def test_gauge_equiv_repeated_key_exit_two(capsys, flag):
    elements = {"--a": '{"degree": 1, "terms": {}}',
                "--b": '{"degree": 1, "terms": {}}'}
    elements[flag] = '{"degree": 1, "terms": {"t": {"x": "-1"}, "t": {"x": "1"}}}'
    code, out, err = run_main(capsys, "gauge-equiv", corpus("E4"),
                              "--a", elements["--a"], "--b", elements["--b"])
    assert code == 2 and not out
    assert flag in err and "'t' is repeated in one object" in err


def test_kuranishi_missing_input_file(capsys):
    code, out, err = run_main(
        capsys, "kuranishi", corpus("E1"), "--input", "no-such-file.json")
    assert code == 2
    assert "neither inline JSON nor an existing file" in err


def test_kuranishi_non_utf8_input_exit_two(capsys, tmp_path):
    path = tmp_path / "elem.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_main(
        capsys, "kuranishi", corpus("E1"), "--input", str(path))
    assert code == 2
    assert "--input" in err and "not UTF-8" in err


def test_over_long_integers_exit_two(capsys, tmp_path):
    # more digits than int() converts: bad input naming the coefficient,
    # never an internal error
    long = "1" * (sys.get_int_max_str_digits() + 700)
    with open(corpus("E1"), encoding="utf-8") as fh:
        text = fh.read()
    doc, literal = tmp_path / "long.json", tmp_path / "literal.json"
    doc.write_text(text.replace('"coeff": "1"', '"coeff": "%s"' % long, 1))
    literal.write_text(text.replace('"degree": 2', '"degree": %s' % long))
    for argv, head in (
            (("validate", str(doc)), "error: load: coefficient 111111111111... has"),
            (("validate", str(literal)),
             "error: load: integer literal 111111111111... has"),
            (("mc-solve", corpus("E1"), "--direction", long),
             "error: --direction: coefficient 111111111111... has"),
            (("mc-solve", corpus("E1"), "--direction", "1/" + long),
             "error: --direction: coefficient 1/1111111111... has"),
            (("kuranishi", corpus("E1"), "--input",
              '{"degree": 1, "terms": {"t": {"x": "%s"}}}' % long),
             "error: --input: coefficient 111111111111... has")):
        code, out, err = run_main(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith(head), err[:120]


def test_gauge_equiv_e4_witness(capsys):
    code, rep, _ = run_json(
        capsys, "gauge-equiv", corpus("E4"),
        "--a", '{"degree": 1, "terms": {}}',
        "--b", '{"degree": 1, "terms": {"t": {"x": "-1"}}}')
    assert code == 0
    data = stage(rep, "gauge-equiv")["data"]
    assert data["equivalent"] is True
    assert data["witness"]["terms"] == {"t": ["1"]}
    assert checks_by_name(stage(rep, "gauge-equiv")) == {"witness-verifies": True}


def test_gauge_equiv_no_witness_is_data(capsys):
    code, rep, _ = run_json(
        capsys, "gauge-equiv", corpus("E0"),
        "--a", '{"degree": 1, "terms": {"t": {"x1": "1"}}}',
        "--b", '{"degree": 1, "terms": {"t": {"x2": "1"}}}')
    assert code == 0
    data = stage(rep, "gauge-equiv")["data"]
    assert data["equivalent"] is False
    assert data["complete"] is True


def test_gauge_equiv_non_utf8_a_exit_two(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_bytes('{"degree": 1, "terms": {"t": {"x": "\u00e9"}}}'
                     .encode("latin-1"))
    code, out, err = run_main(
        capsys, "gauge-equiv", corpus("E4"),
        "--a", str(path), "--b", '{"degree": 1, "terms": {}}')
    assert code == 2
    assert "--a" in err and "not UTF-8" in err


# A path is shown through %r in every message, so a control character in
# a file name cannot reach the terminal or forge a second line.
def test_an_unprintable_path_is_quoted_on_one_line(capsys, tmp_path):
    bad = "no\x1b[31mfile\nfake: line"
    folder = tmp_path / (bad + "-dir")
    folder.mkdir()
    latin = tmp_path / (bad + ".json")
    latin.write_bytes('{"degree": 1, "terms": {"t": {"x": "\u00e9"}}}'.encode("latin-1"))
    empty = '{"degree": 1, "terms": {}}'
    for argv, head in (
            (("validate", str(tmp_path / bad)), "error: load: cannot read %r: "
             % str(tmp_path / bad)),
            (("gauge-equiv", corpus("E4"), "--a", str(folder), "--b", empty),
             "error: --a: cannot read %r: " % str(folder)),
            (("gauge-equiv", corpus("E4"), "--a", str(latin), "--b", empty),
             "error: --a: %r is not UTF-8 text: " % str(latin))):
        code, out, err = run_main(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith(head), err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "\x1b" not in err


def test_gauge_equiv_rejects_non_flat(capsys):
    code, out, err = run_main(
        capsys, "gauge-equiv", corpus("E3"),
        "--a", '{"degree": 1, "terms": {"t": {"x": "1"}}}',
        "--b", '{"degree": 1, "terms": {}}')
    assert code == 2
    assert "not flat" in err


def test_gauge_equiv_rejects_non_flat_b(capsys):
    code, out, err = run_main(
        capsys, "gauge-equiv", corpus("E3"),
        "--a", '{"degree": 1, "terms": {}}',
        "--b", '{"degree": 1, "terms": {"t": {"x": "1"}}}')
    assert code == 2
    assert "--b is not flat" in err


def test_gauge_equiv_curvature_once_per_input(capsys, monkeypatch):
    calls = []
    curvature = dgla.algebra.DGLA.curvature

    def counted(self, A):
        calls.append(A)
        return curvature(self, A)

    monkeypatch.setattr(dgla.algebra.DGLA, "curvature", counted)
    code, rep, _ = run_json(
        capsys, "gauge-equiv", corpus("E4"),
        "--a", '{"degree": 1, "terms": {}}',
        "--b", '{"degree": 1, "terms": {"t": {"x": "-1"}}}')
    assert code == 0
    assert len(calls) == 2


def test_decimal_coefficient_rejected(capsys, tmp_path):
    with open(corpus("E1")) as fh:
        doc = json.load(fh)
    doc["d"][0]["to"][0]["coeff"] = 0.5
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, "validate", str(path))
    assert code == 2
    assert "exact rationals only" in err


def test_corrupt_json_exit_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": ')
    code, out, err = run_main(capsys, "validate", str(path))
    assert code == 2
    assert "line" in err


def test_non_utf8_file_exit_two(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    code, out, err = run_main(capsys, "validate", str(path))
    assert code == 2
    assert "not UTF-8" in err


def test_deeply_nested_document_exit_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_main(capsys, "validate", str(path))
    assert code == 2
    assert "nested too deeply" in err


def test_axiom_violation_exit_codes(capsys, tmp_path):
    with open(corpus("E1")) as fh:
        doc = json.load(fh)
    doc["bracket"][0]["result"] = [{"gen": "c", "coeff": "1"}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    # validate reports the violation as a failing check: exit 1
    code, rep, err = run_json(capsys, "validate", str(path))
    assert code == 1
    issues = stage(rep, "validate")["data"]["issues"]
    assert any(i["axiom"] == "bracket-degree" for i in issues)
    # other commands refuse to load: exit 2
    code, out, err = run_main(capsys, "sdr", str(path))
    assert code == 2
    # unless explicitly allowed
    code, out, err = run_main(capsys, "sdr", str(path), "--allow-invalid")
    assert code == 0


def jacobi_broken_document(tmp_path):
    """x in degree 1, y and w in degree 2, z in degree 3, with [x, x] = y,
    [x, y] = z = -[y, x] and dw = z: d and the bracket keep their degrees
    and d is a derivation, but Jacobi fails on (x, x, x)."""
    path = tmp_path / "jacobi.json"
    path.write_text(json.dumps({
        "name": "jacobi", "field": "Q",
        "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2},
                       {"name": "w", "degree": 2}, {"name": "z", "degree": 3}],
        "d": [{"from": "w", "to": [{"gen": "z", "coeff": "1"}]}],
        "bracket": [
            {"left": "x", "right": "x", "result": [{"gen": "y", "coeff": "1"}]},
            {"left": "x", "right": "y", "result": [{"gen": "z", "coeff": "1"}]},
        ],
    }))
    return path


@pytest.mark.parametrize("cmd, extra", [
    ("universal", ("--order", "3")),
    ("universal", ("--order", "4")),
    ("universal", ("--order", "5")),
    ("mc-solve", ("--direction", "1", "--order", "4")),
], ids=["universal-3", "universal-4", "universal-5", "mc-solve-4"])
def test_solver_checks_fail_on_a_jacobi_failure(capsys, tmp_path, cmd, extra):
    path = jacobi_broken_document(tmp_path)
    code, rep, _ = run_json(capsys, "validate", str(path))
    assert code == 1
    assert {i["axiom"] for i in stage(rep, "validate")["data"]["issues"]} == {"jacobi"}
    code, rep, _ = run_json(capsys, cmd, str(path), "--allow-invalid", *extra)
    assert code == 1
    assert checks_by_name(stage(rep, cmd)) == {
        "kuranishi-roundtrip": True,
        "recursion-agreement": True,
        "kuranishi-identity": False,
    }


def test_kuranishi_identity_sign_is_exercised(capsys, tmp_path):
    # On E0..E4 no bracket reaches g^3, so h[R, tau] = 0 and R = ob - h[R, tau]
    # would pass as well.  Twisted CE_4 (the benchmark's ce4_structure input)
    # is obstructed with h[R, tau] != 0 from order 3 on, where only the sign
    # of the identity passes.
    gens, bracket, d = workloads.ce4_parts(0, "ce4_structure")
    path = tmp_path / "ce4.json"
    path.write_text(json.dumps(workloads.ce4_document(gens, bracket, d)))
    for order in (3, 4):
        code, rep, _ = run_json(capsys, "universal", str(path), "--order", str(order))
        assert code == 0
        s = stage(rep, "universal")
        assert s["data"]["flat"] is False
        assert checks_by_name(s)["kuranishi-identity"]
    L, _ = load_dgla(str(path))
    R = build_contraction(L, build_splitting(L))
    sol = universal_solution(L, R, 3)
    assert not R.contract(L.apply_bracket(sol.residual, sol.tau)).is_zero()


def skew_document(tmp_path):
    """d x = y with x in degree 0 and y in degree 2: d is not of degree +1."""
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({
        "name": "skew", "field": "Q",
        "generators": [{"name": "x", "degree": 0}, {"name": "y", "degree": 2}],
        "d": [{"from": "x", "to": [{"gen": "y", "coeff": "1"}]}],
        "bracket": [],
    }))
    return path


def test_homology_non_homogeneous_d_exit_two(capsys, tmp_path):
    path = skew_document(tmp_path)
    code, out, err = run_main(capsys, "homology", str(path), "--allow-invalid")
    assert code == 2
    assert err.startswith("error: homology: ") and "not homogeneous" in err


@pytest.mark.parametrize("cmd, extra", [
    ("sdr", ()),
    ("hodge", ()),
    ("universal", ()),
    ("mc-solve", ("--direction", "1")),
], ids=["sdr", "hodge", "universal", "mc-solve"])
def test_contraction_error_names_the_subcommand(capsys, tmp_path, cmd, extra):
    # the contraction fails; the message names the subcommand that ran
    path = skew_document(tmp_path)
    code, out, err = run_main(capsys, cmd, str(path), "--allow-invalid", *extra)
    assert code == 2
    assert err.startswith("error: %s: " % cmd) and "not homogeneous" in err


ONE_X = '{"degree": 1, "terms": {"t": {"x": "1"}}}'


LEAVING_ITS_DEGREE = [
    ("hodge", ()),
    ("gauge-equiv", ("--order", "3", "--a", ONE_X, "--b", ONE_X)),
    ("universal", ()),
    ("mc-solve", ("--direction", "1")),
    ("obstruction", ("--direction", "1")),
    ("kuranishi", ("--input", ONE_X)),
]
WITH_B = [{"name": "x", "degree": 1}, {"name": "b", "degree": 2}]
ONLY_X = [{"name": "x", "degree": 1}]


@pytest.mark.parametrize(
    "cmd, extra, generators",
    [pytest.param(cmd, extra, WITH_B, id=cmd) for cmd, extra in LEAVING_ITS_DEGREE]
    + [pytest.param(cmd, extra, ONLY_X, id=cmd + "-empty-degree")
       for cmd, extra in LEAVING_ITS_DEGREE])
def test_bracket_leaving_its_degree_exit_two(capsys, tmp_path, cmd, extra,
                                             generators):
    # x in degree 1 with [x, x] = x: loads under --allow-invalid, then the
    # first bracket evaluation refuses it as bad input, also where degree 2
    # has no generators and nothing of the bracket could land
    path = tmp_path / "degree.json"
    path.write_text(json.dumps({
        "name": "degree", "field": "Q",
        "generators": generators,
        "d": [],
        "bracket": [{"left": "x", "right": "x",
                     "result": [{"gen": "x", "coeff": "1"}]}],
    }))
    code, out, err = run_main(capsys, cmd, str(path), "--allow-invalid", *extra)
    assert code == 2
    assert err.startswith("error: %s: bracket [x, x] does not preserve total "
                          "degree" % cmd)


@pytest.mark.parametrize("cmd", ["homology", "sdr"])
def test_d_squared_nonzero_names_the_degree(capsys, tmp_path, cmd):
    # a(0) -> b(1) -> c(2) with d a = b, d b = c: the boundary b is no cycle
    path = tmp_path / "dd.json"
    path.write_text(json.dumps({
        "name": "dd", "field": "Q",
        "generators": [{"name": "a", "degree": 0}, {"name": "b", "degree": 1},
                       {"name": "c", "degree": 2}],
        "d": [{"from": "a", "to": [{"gen": "b", "coeff": "1"}]},
              {"from": "b", "to": [{"gen": "c", "coeff": "1"}]}],
        "bracket": [],
    }))
    code, out, err = run_main(capsys, cmd, str(path), "--allow-invalid")
    assert code == 2
    assert err == ("error: %s: the boundaries in degree 1 are not cycles "
                   "(d d != 0)\n" % cmd)


def test_input_file_is_opened_once(capsys, monkeypatch):
    # the reported sha256 must describe the very bytes that were parsed
    import builtins

    path = corpus("E1")
    real_open = builtins.open
    opened = []

    def counting_open(file, *args, **kwargs):
        if file == path:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, rep, _ = run_json(capsys, "sdr", path)
    assert code == 0
    assert opened == [path]
    with real_open(path, "rb") as fh:
        assert rep["input"]["sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_direction_count_mismatch(capsys):
    code, out, err = run_main(
        capsys, "mc-solve", corpus("E1"), "--direction", "1,2")
    assert code == 2
    assert "H^1 basis" in err
    # "" is no coefficients: too few on E0 (H^1 of dimension 2), right on E4 (H^1 = 0)
    assert run_main(capsys, "mc-solve", corpus("E0"), "--direction", "") == (
        2, "", "error: --direction needs 2 coefficient(s) over the H^1 basis, got 0\n")
    assert run_main(capsys, "mc-solve", corpus("E4"), "--direction", "")[0] == 0


def test_direction_rational_only(capsys):
    code, out, err = run_main(
        capsys, "mc-solve", corpus("E1"), "--direction", "0.5")
    assert code == 2
    assert "exact rationals only" in err
    # an empty field is refused, never skipped
    for name, text, k, n in [("E0", "1,,0", 2, 3), ("E0", ",1,0", 1, 3),
                             ("E0", "1,0,", 3, 3), ("E4", ",", 1, 2)]:
        for cmd in ("mc-solve", "obstruction"):
            assert run_main(capsys, cmd, corpus(name), "--direction", text) == (
                2, "", "error: --direction: coefficient %d of %d is empty\n" % (k, n))


@pytest.mark.parametrize("cmd,name", [("mc-solve", "E1"), ("obstruction", "E3")])
def test_direction_may_start_with_a_negative_fraction(capsys, cmd, name):
    # argparse would take "-1/2" for an option and refuse it
    code, rep, err = run_json(capsys, cmd, corpus(name), "--direction", "-1/2",
                              "--order", "2")
    assert code == 0, err
    assert stage(rep, cmd)["data"]["direction"] == ["-1/2"]
    for flag in ("--direction=-1/2", "--dir=-1/2"):
        assert run_json(capsys, cmd, corpus(name), flag, "--order", "2")[1] == rep
    assert run_json(capsys, cmd, corpus(name), "--dir", "-1/2", "--order", "2")[1] == rep


@pytest.mark.parametrize("argv", [
    ("mc-solve", corpus("E1")),
    ("mc-solve", corpus("E1"), "--direction"),
    ("validate",),
    ("frobnicate",),
    (),
])
def test_usage_errors_return_two(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert "usage: dgla" in err and not out


def test_help_returns_zero(capsys):
    code, out, _ = run_main(capsys, "--help")
    assert code == 0 and "usage: dgla" in out


def test_validate_renders_values_past_the_int_digit_limit(capsys, tmp_path):
    # sl2 scaled by B = 11...1 (2500 digits): the Jacobi sum on (e, f, h) is
    # (9B^2 + 2B) h, 5000 digits, more than str() renders under the
    # interpreter's default limit of 4300; Decimal renders it here
    B = (10**2500 - 1) // 9
    digits = str(Decimal(B))
    doc = {"name": "sl2_big", "field": "Q",
           "generators": [{"name": g, "degree": 0} for g in ("e", "f", "h")],
           "bracket": [
               {"left": "e", "right": "f", "result": [{"gen": "h", "coeff": digits}]},
               {"left": "h", "right": "e", "result": [{"gen": "e", "coeff": digits}]},
               {"left": "h", "right": "f",
                "result": [{"gen": "f", "coeff": "-" + str(Decimal(10 * B + 2))}]}]}
    path = tmp_path / "sl2_big.json"
    path.write_text(json.dumps(doc))
    code, rep, err = run_json(capsys, "validate", str(path))
    assert code == 1, err
    issue = stage(rep, "validate")["data"]["issues"][0]
    assert issue["witness"] == ["e", "f", "h"]
    assert issue["detail"] == \
        "graded Jacobi sum = %s*h, expected 0" % Decimal(9 * B * B + 2 * B)


def test_order_bounds(capsys):
    code, _, err = run_main(
        capsys, "mc-solve", corpus("E1"), "--direction", "1", "--order", "0")
    assert code == 2
    code, _, err = run_main(
        capsys, "mc-solve", corpus("E1"), "--direction", "1", "--order", "17")
    assert code == 2
    assert "--allow-large-order" in err
    code, _, _ = run_main(
        capsys, "mc-solve", corpus("E0"), "--direction", "1,0",
        "--order", "17", "--allow-large-order")
    assert code == 0


def test_multi_direction_rationals(capsys):
    code, rep, _ = run_json(
        capsys, "mc-solve", corpus("E0"), "--direction", "1/2,-2")
    assert code == 0
    data = stage(rep, "mc-solve")["data"]
    assert data["direction"] == ["1/2", "-2"]
    assert data["tau"]["terms"] == {"t": ["1/2", "-2"]}


def test_empty_dgla_document(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(
        '{"name": "zero", "field": "Q", "generators": [], "d": [], "bracket": []}')
    for cmd in ("validate", "homology", "sdr", "hodge", "universal"):
        code, out, err = run_main(capsys, cmd, str(path))
        assert code == 0, (cmd, err)


def test_json_report_round_trips(capsys):
    code, out, _ = run_main(
        capsys, "homology", corpus("E2"), "--format", "json")
    assert code == 0
    data = json.loads(out)
    args = _build_parser().parse_args(["homology", corpus("E2")])
    report = args.handler(args)
    assert data == report.to_data()
    assert canonical_json(data).decode() == out
    assert emit_report(report, "json").decode() == out


def test_selftest_passes(capsys):
    code, rep, _ = run_json(capsys, "selftest", "--order", "3")
    assert code == 0
    assert [s["stage"] for s in rep["stages"]] == ["E0", "E1", "E2", "E3", "E4"]


def test_selftest_deterministic_bytes():
    env = dict(os.environ, NO_COLOR="1")
    cmd = [sys.executable, "-m", "dgla.cli", "selftest", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True, env=env, check=True)
    b = subprocess.run(cmd, capture_output=True, env=env, check=True)
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_console_script_and_plain_text():
    # Run the declared console-script entry point the way the wrapper that
    # pip installs does, so the test needs no installed `dgla` executable.
    import tomllib

    root = os.path.dirname(CORPUS_DIR)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["dgla"]
    module, func = target.split(":")
    wrapper = ("import sys; sys.argv[0] = 'dgla'; from %s import %s; sys.exit(%s())"
               % (module, func, func))
    src = os.path.join(root, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", wrapper, "validate", corpus("E0")],
        capture_output=True, text=True,
        env=dict(os.environ, NO_COLOR="1", PYTHONPATH=path))
    assert out.returncode == 0
    assert "[PASS] dgla-axioms" in out.stdout
    assert "\x1b[" not in out.stdout


@pytest.mark.parametrize("debug", [False, True])
def test_internal_error_exit_three(capsys, monkeypatch, debug):
    import dgla.cli as cli

    def broken(args):
        raise RuntimeError("no such\nstage")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    argv = ["--debug"] * debug + ["validate", corpus("E0")]
    code, out, err = run_main(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.splitlines()[-1] == "internal error: RuntimeError: no such stage"
    assert ("Traceback" in err) == debug
    if not debug:
        assert len(err.splitlines()) == 1


def test_unknown_subcommand_usage_error():
    out = subprocess.run(
        [sys.executable, "-m", "dgla.cli", "frobnicate"],
        capture_output=True, text=True)
    assert out.returncode == 2
