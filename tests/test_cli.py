import hashlib
import json
import os
import subprocess
import sys

import pytest

import dgla.algebra
from dgla.cli import main
from dgla.report import canonical_json, parse_report

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
    "E0": "2f4189a1c81f8bd6fd9ba171688e60b37519e236a0058ce247fd8b04db69f8da",
    "E1": "92b76eed03701c8c48ae1d4a88c87fd5a8c0cbf102dec41bcee8f329a739d999",
    "E2": "e276c3f2e9b53d84d3cf1703aa892a61855c82029ab7eff0612432bdb024ee5a",
    "E3": "a2f86c4ae4b6325d0f1056c89709eda468a2224671a18fb192695fc9b9ae150a",
    "E4": "1964f2cae2cbcc6b750766329c9c9bd2575ee6c62b82d3f90c1cf6f064d49cfe",
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
     "96843b95498e66c27a70972bd5c7bc408f715c553bd7c58bced734fa56ef3087"),
    (("obstruction", "E2") + DIRECTION_E2,
     "2a525133bcc522ec8760adec8297a1f4db6fb6f0798d4bcb6f14084ee1e42c16"),
    (("mc-solve", "E3", "--direction", "2/3", "--order", "5"),
     "16c559f4bf34a6897691724082d5a14cd1ad7465311271c0c1a7a73514c80c52"),
    (("mc-solve", "E1", "--direction", "3/7", "--order", "6"),
     "ec3dffed653817e91bdebdee48bfbfc41b80cd2e67dbc36d4093b05ee9540c8b"),
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
    doc = json.load(open(corpus("E1")))
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
    doc = json.load(open(corpus("E1")))
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


@pytest.mark.parametrize("cmd, extra", [
    ("hodge", ()),
    ("gauge-equiv", ("--order", "3", "--a", ONE_X, "--b", ONE_X)),
    ("universal", ()),
    ("mc-solve", ("--direction", "1")),
    ("obstruction", ("--direction", "1")),
    ("kuranishi", ("--input", ONE_X)),
], ids=["hodge", "gauge-equiv", "universal", "mc-solve", "obstruction",
        "kuranishi"])
def test_bracket_leaving_its_degree_exit_two(capsys, tmp_path, cmd, extra):
    # x in degree 1 with [x, x] = x: loads under --allow-invalid, then the
    # first bracket evaluation refuses it as bad input
    path = tmp_path / "degree.json"
    path.write_text(json.dumps({
        "name": "degree", "field": "Q",
        "generators": [{"name": "x", "degree": 1}, {"name": "b", "degree": 2}],
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


def test_direction_rational_only(capsys):
    code, out, err = run_main(
        capsys, "mc-solve", corpus("E1"), "--direction", "0.5")
    assert code == 2
    assert "exact rationals only" in err


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
    rep = parse_report(out.encode())
    assert rep.all_pass()
    from dgla.report import emit_report
    assert emit_report(rep, "json").decode() == out


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
