import hashlib
import json
import time

import pytest

from newtonmu import cli, fans
from newtonmu.cli import input_to_json, main, parse_input
from newtonmu.geometry import InternalConsistencyError

QUAD = {
    "schema_version": 1,
    "variables": ["x", "y"],
    "parameters": [],
    "support": [["2", "0"], ["0", "2"]],
}

QUAD_AUG = {
    "schema_version": 1,
    "variables": ["x", "y"],
    "parameters": [],
    "support": [["2", "0"], ["0", "2"], ["3/4", "1"]],
}

CUSP = {
    "schema_version": 1,
    "variables": ["x", "y"],
    "parameters": [],
    "terms": [
        {"exponent": [2, 0], "coefficient": [{"s_exponent": [], "value": "1"}]},
        {"exponent": [0, 3], "coefficient": [{"s_exponent": [], "value": "1"}]},
    ],
}

SQUARE = {
    "schema_version": 1,
    "variables": ["x", "y"],
    "parameters": [],
    "terms": [
        {"exponent": [2, 0], "coefficient": [{"s_exponent": [], "value": "1"}]},
        {"exponent": [1, 1], "coefficient": [{"s_exponent": [], "value": "2"}]},
        {"exponent": [0, 2], "coefficient": [{"s_exponent": [], "value": "1"}]},
    ],
}

BS_BASE = {
    "schema_version": 1,
    "variables": ["x", "y", "z"],
    "parameters": [],
    "support": [["5", "0", "0"], ["0", "7", "1"], ["0", "0", "15"],
                ["0", "8", "0"]],
}

BS_FAMILY = {
    "schema_version": 1,
    "variables": ["x", "y", "z"],
    "parameters": ["s"],
    "terms": [
        {"exponent": [5, 0, 0], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [0, 7, 1], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [0, 0, 15], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [0, 8, 0], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [1, 6, 0], "coefficient": [{"s_exponent": [1], "value": "1"}]},
    ],
}

XY_FAMILY = {
    "schema_version": 1,
    "variables": ["x", "y"],
    "parameters": ["s"],
    "terms": [
        {"exponent": [3, 0], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [0, 3], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [1, 1], "coefficient": [{"s_exponent": [1], "value": "1"}]},
    ],
}

QUINTIC = {
    "schema_version": 1,
    "variables": ["x1", "x2", "x3"],
    "parameters": ["s"],
    "terms": [
        {"exponent": [5, 0, 0], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [0, 6, 0], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [0, 0, 5], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [0, 3, 2], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [2, 2, 1], "coefficient": [{"s_exponent": [1], "value": "2"}]},
        {"exponent": [4, 1, 0], "coefficient": [{"s_exponent": [2], "value": "1"}]},
    ],
}

FLAT_FAMILY = {
    "schema_version": 1,
    "variables": ["x", "y", "z"],
    "parameters": ["s"],
    "terms": [
        {"exponent": [3, 0, 0], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [0, 3, 0], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [0, 0, 3], "coefficient": [{"s_exponent": [0], "value": "1"}]},
        {"exponent": [1, 1, 0], "coefficient": [{"s_exponent": [1], "value": "1"}]},
    ],
}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv, want_code=0):
    code, out, _ = run(capsys, argv)
    assert code == want_code, out
    return json.loads(out)


def test_nu_exact(tmp_path, capsys):
    doc = run_json(capsys, ["nu", write(tmp_path, "q.json", QUAD)])
    assert doc["command"] == "nu"
    assert doc["results"]["mode"] == "exact"
    assert doc["results"]["nu"] == "1"
    assert doc["results"]["volume_vector"] == ["1", "4", "2"]
    assert doc["results"]["convenience"]["convenient"] is True
    assert doc["inputs"][0]["sha256"]


def test_nu_rational_support(tmp_path, capsys):
    doc = run_json(capsys, ["nu", write(tmp_path, "qa.json", QUAD_AUG)])
    assert doc["results"]["nu"] == "1/2"
    assert doc["results"]["volume_vector"] == ["1", "4", "7/4"]


def test_nu_terms_input(tmp_path, capsys):
    doc = run_json(capsys, ["nu", write(tmp_path, "c.json", CUSP)])
    assert doc["results"]["nu"] == "2"


def test_nu_series_fallback(tmp_path, capsys):
    noncvx = dict(QUAD, support=[["2", "0"], ["1", "1"]])
    path = write(tmp_path, "n.json", noncvx)
    doc = run_json(capsys, ["nu", path], want_code=3)
    assert doc["results"]["error"]["type"] == "precondition"
    doc = run_json(capsys, ["nu", "--series", path])
    assert doc["results"]["mode"] == "series"
    assert doc["results"]["stabilized"] is True
    assert doc["results"]["nu"] == "1"
    assert doc["results"]["augmented_axes"] == [2]

    # both axes uncovered: the number is infinite, the series cannot settle
    hopeless = dict(QUAD, support=[["2", "1"]])
    doc = run_json(capsys, ["nu", "--series",
                            write(tmp_path, "h.json", hopeless)])
    assert doc["results"]["stabilized"] is False
    assert any("did not stabilize" in w for w in doc["warnings"])


def test_series_cap_must_be_positive(tmp_path, capsys):
    path = write(tmp_path, "n.json", dict(QUAD, support=[["2", "0"], ["1", "1"]]))
    for cap in ("0", "-3"):
        code, out, err = run(capsys, ["nu", path, "--series", "--cap", cap])
        assert code == 2
        error = json.loads(out)["results"]["error"]
        assert error["type"] == "input" and "--cap" in error["message"]
        assert err.startswith("error:")


def test_budget_must_be_nonnegative(tmp_path, capsys):
    cusp = write(tmp_path, "c.json", CUSP)
    family = write(tmp_path, "f.json", XY_FAMILY)
    for argv in (["milnor", cusp], ["nondeg", cusp], ["resolve", family]):
        for budget in ("-1", "-3"):
            code, out, err = run(capsys, argv + ["--budget", budget])
            assert code == 2
            error = json.loads(out)["results"]["error"]
            assert error["type"] == "input" and "--budget" in error["message"]
            assert err.startswith("error:")


def test_mu_test_rejects_mismatched_dimensions(tmp_path, capsys):
    base = write(tmp_path, "b.json",
                 dict(QUAD, support=[["1", "0"], ["0", "1"]]))
    deformed = write(tmp_path, "d.json", dict(
        QUAD, variables=["x", "y", "z"],
        support=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    for argv in (["mu-test", base, deformed], ["mu-test", deformed, base]):
        code, out, err = run(capsys, argv)
        assert code == 2
        error = json.loads(out)["results"]["error"]
        assert error["type"] == "input" and "variables" in error["message"]
        assert err.startswith("error:")


def test_internal_inconsistency_exits_5(tmp_path, capsys, monkeypatch):
    def disagree(fan):
        raise InternalConsistencyError("two computations disagreed")

    monkeypatch.setattr(cli, "regularize_fan", disagree)
    path = write(tmp_path, "q.json", QUAD)
    code, out, err = run(capsys, ["regularize", path])
    assert code == 5
    error = json.loads(out)["results"]["error"]
    assert error == {"type": "internal",
                     "message": "two computations disagreed"}
    assert err.startswith("error:")


def test_boundary_box_point_exits_5(tmp_path, capsys, monkeypatch):
    """regularize on x + y^2 with the box point of the cone over (0, 1)
    and (2, 1) given a zero coordinate: the regularization loop's
    consistency check fires and the command reports an internal error."""
    box_points = fans.box_points

    def on_the_boundary(cone):
        xi, lam = box_points(cone)[0]
        return ((xi, (0,) * len(lam)),)

    monkeypatch.setattr(fans, "box_points", on_the_boundary)
    path = write(tmp_path, "xy2.json", {
        "schema_version": 1, "variables": ["x", "y"], "parameters": [],
        "support": [["1", "0"], ["0", "2"]]})
    code, out, _ = run(capsys, ["regularize", path])
    assert code == 5
    assert json.loads(out)["results"]["error"] == {
        "type": "internal",
        "message": "minimal non-regular cone has a boundary box point; a "
                   "smaller face should have been non-regular"}


def test_apex_disagreement_outside_the_theorem_exits_3(tmp_path, capsys):
    """Both supports fail the vertex condition, and the apex verdict and
    the Newton numbers disagree: a precondition failure, not a bug."""
    points = [["5", "5/3"], ["2/3", "1/3"], ["2", "0"], ["0", "1"]]
    base = write(tmp_path, "b.json", dict(QUAD, support=points))
    deformed = write(tmp_path, "d.json", dict(
        QUAD, support=points + [["2/3", "0"], ["1/2", "0"]]))
    code, out, err = run(capsys, ["mu-test", base, deformed])
    assert code == 3
    error = json.loads(out)["results"]["error"]
    assert error["type"] == "precondition"
    assert "axes (1, 2)" in error["message"]
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["nu", "fan", "regularize", "nondeg"])
def test_dimension_above_the_cap_exits_3(tmp_path, capsys, command):
    """A 9-variable document is refused by support_set's dimension cap."""
    nine = {"schema_version": 1,
            "variables": [f"x{i}" for i in range(1, 10)],
            "parameters": [],
            "terms": [{"exponent": [2 * int(j == i) for j in range(9)],
                       "coefficient": [{"s_exponent": [], "value": "1"}]}
                      for i in range(9)]}
    code, out, err = run(capsys, [command, write(tmp_path, "d9.json", nine)])
    assert code == 3
    assert json.loads(out)["results"]["error"] == {
        "type": "precondition", "message": "dimension 9 exceeds cap 8"}
    assert err.startswith("error:")


def test_usage_errors_report_json(tmp_path, capsys):
    """An unknown flag, a missing positional and a missing subcommand end
    in the JSON report, exit 2, with argparse's usage text on stderr."""
    path = write(tmp_path, "q.json", QUAD)
    for argv, command in ((["nu", "--bogus", path], "nu"),
                          (["mu-test", path], "mu-test"), ([], None)):
        code, out, err = run(capsys, argv)
        doc = json.loads(out)
        assert code == 2 and doc["command"] == command
        assert doc["results"]["error"]["type"] == "input"
        assert err.startswith("usage: newtonmu")
    with pytest.raises(SystemExit) as exit_:
        main(["nu", "--help"])
    assert exit_.value.code == 0 and "usage:" in capsys.readouterr().out


def test_input_errors(tmp_path, capsys):
    code, out, err = run(capsys, ["nu", write(tmp_path, "bad.json", "{nope")])
    assert code == 2 and "error" in json.loads(out)["results"]
    assert err.strip()

    # not UTF-8, an integer past int()'s digit limit, nesting past the
    # recursion limit: in a document and in an arcs file
    fam = write(tmp_path, "f.json", XY_FAMILY)
    undecodable = tmp_path / "u.json"
    for data in (b"\xff", b"[" + b"7" * 5000 + b"]", b"[" * 200000):
        undecodable.write_bytes(data)
        for argv in (["nu", str(undecodable)],
                     ["valuative", fam, "--arcs", str(undecodable)]):
            code, out, err = run(capsys, argv)
            error = json.loads(out)["results"]["error"]
            assert code == 2 and error["type"] == "input"
            assert "u.json: " in error["message"]
            assert "Traceback" not in err

    dup = dict(QUAD, support=[["1", "0"], ["1", "0"]])
    code, _, _ = run(capsys, ["nu", write(tmp_path, "d.json", dup)])
    assert code == 2

    fl = dict(QUAD, support=[[0.75, 1], ["2", "0"], ["0", "2"]])
    code, out, _ = run(capsys, ["nu", write(tmp_path, "f.json", fl)])
    assert code == 2
    assert "0.75" in json.loads(out)["results"]["error"]["message"]

    missing_axis = dict(QUAD, support=[["2", "0"]])
    both = dict(QUAD)
    both["terms"] = CUSP["terms"]
    code, _, _ = run(capsys, ["nu", write(tmp_path, "b.json", both)])
    assert code == 2
    code, _, _ = run(capsys, ["nu", write(tmp_path, "m.json", missing_axis),
                              ])
    assert code == 3

    # an axis outside 1..n is a malformed flag value; J the full axis set
    # is a precondition of the detector
    quintic = write(tmp_path, "q.json", QUINTIC)
    for axes in ("0", "4", "-1", "1,2,3"):
        code, out, err = run(capsys, ["b1d", quintic, "--axes", axes])
        error = json.loads(out)["results"]["error"]
        if axes == "1,2,3":
            assert code == 3 and error["type"] == "precondition"
        else:
            assert code == 2 and error["type"] == "input"
            assert error["message"] == (f"--axes: axis {axes} is not in "
                                        "1..3")
        assert "Traceback" not in err


def test_rationals_are_integers_or_fractions(tmp_path, capsys):
    """Only integers and 'p/q' strings parse; exponent notation is rejected
    before any integer is built (Fraction would spend seconds on this
    ten-million-digit one)."""
    for bad in ("1e10000000", "1.5", " 3", "3/", "+3", "0x10", "1/2/3"):
        doc = dict(QUAD, support=[[bad, "1"], ["2", "0"], ["0", "2"]])
        start = time.monotonic()
        code, out, _ = run(capsys, ["nu", write(tmp_path, "e.json", doc)])
        assert time.monotonic() - start < 2
        error = json.loads(out)["results"]["error"]
        assert code == 2 and error["type"] == "input"
        assert repr(bad) in error["message"]
    doc = dict(QUAD, support=[["-0", "3/2"], ["2", "0"], ["0", "2"]])
    assert run_json(capsys, ["nu", write(tmp_path, "ok.json", doc)])


def test_mu_test(tmp_path, capsys):
    base = write(tmp_path, "b.json", QUAD)
    aug = write(tmp_path, "a.json", QUAD_AUG)
    doc = run_json(capsys, ["mu-test", base, aug])
    r = doc["results"]
    assert r["verdict"] is False
    assert r["nu_base"] == "1" and r["nu_deformed"] == "1/2"
    assert r["added_vertices"] == [["3/4", "1"]]

    bs_b = write(tmp_path, "bsb.json", BS_BASE)
    bs_f = write(tmp_path, "bsf.json", BS_FAMILY)
    doc = run_json(capsys, ["mu-test", bs_b, bs_f])
    r = doc["results"]
    assert r["verdict"] is True
    assert r["nu_base"] == r["nu_deformed"] == "364"
    assert r["added_vertices"] == [["1", "6", "0"]]
    cert = r["certificates"][0]
    assert cert["i"] == 3 and cert["beta"] == ["0", "7", "1"]
    assert cert["good"] is True


def test_resolve(tmp_path, capsys):
    doc = run_json(capsys, ["resolve", write(tmp_path, "f.json", BS_FAMILY)])
    r = doc["results"]
    assert r["nu"] == "364"
    assert r["added_vertices"] == [["1", "6", "0"]]
    assert r["counts"] == {"smooth-verified": 1, "unit": 8}
    assert len(r["charts"]) == 9
    verd = [c for c in r["charts"] if c["status"] == "smooth-verified"]
    assert verd[0]["generators"] == [[0, 0, 1], [2, 1, 1], [3, 2, 1]]
    assert verd[0]["m"] == ["0", "8", "15"]
    assert verd[0]["witness"]["apex_axis"] == 3


def test_fan_and_regularize(tmp_path, capsys):
    path = write(tmp_path, "b.json", BS_BASE)
    doc = run_json(capsys, ["fan", path])
    r = doc["results"]
    assert len(r["maximal_cones"]) == 4
    assert sorted(r["simplicial"]) == [False, True, True, True]
    doc = run_json(capsys, ["regularize", path])
    r = doc["results"]
    assert r["count"] == 13 and r["all_unimodular"] is True


def test_milnor(tmp_path, capsys):
    doc = run_json(capsys, ["milnor", write(tmp_path, "c.json", CUSP)])
    assert doc["results"]["mu"] == "2"
    code, out, _ = run(capsys, ["milnor", write(tmp_path, "c2.json", CUSP),
                                "--budget", "1"])
    assert code == 4
    assert json.loads(out)["results"]["error"]["type"] == "budget"


def test_milnor_of_a_non_isolated_germ_is_bounded(tmp_path, capsys):
    """a^2 in four variables has no isolated singularity: its truncated
    quotients grow as N^3, and counting them is charged to the budget."""
    germ = write(tmp_path, "a2.json", {
        "schema_version": 1, "variables": ["a", "b", "c", "d"],
        "parameters": [], "terms": [{"exponent": [2, 0, 0, 0], "coefficient":
                                     [{"s_exponent": [], "value": "1"}]}]})
    start = time.perf_counter()
    code, out, _ = run(capsys, ["milnor", germ, "--budget", "100"])
    assert code == 4 and time.perf_counter() - start < 5
    assert json.loads(out)["results"]["error"]["type"] == "budget"


def test_nondeg(tmp_path, capsys):
    doc = run_json(capsys, ["nondeg", write(tmp_path, "s.json", SQUARE)])
    r = doc["results"]
    assert r["verdict"] == "degenerate"
    bad = [f for f in r["faces"] if f["status"] == "degenerate"]
    assert len(bad) == 1 and bad[0]["dim"] == 1

    doc = run_json(capsys, ["nondeg", write(tmp_path, "c.json", CUSP)])
    assert doc["results"]["verdict"] == "nondegenerate"


def test_valuative(tmp_path, capsys):
    fam = write(tmp_path, "f.json", XY_FAMILY)
    arcs = write(tmp_path, "arcs.json", [
        {"x_orders": [1, 1], "s_orders": [1]},
        {"x_orders": [2, 1], "s_orders": [1], "x_coeffs": ["1", "-2/3"]},
    ])
    doc = run_json(capsys, ["valuative", fam, "--arcs", arcs])
    r = doc["results"]
    assert r["falsified"] is True
    assert [a["verdict"] for a in r["arcs"]] == ["violation", "consistent"]
    assert "monomial arcs" in r["disclaimer"]
    assert [i["path"] for i in doc["inputs"]] == [fam, arcs]

    bs = write(tmp_path, "bs.json", BS_FAMILY)
    grid = write(tmp_path, "grid.json", [
        {"x_orders": [a, b, c], "s_orders": [1]}
        for a in (1, 2) for b in (1, 2) for c in (1, 2)])
    doc = run_json(capsys, ["valuative", bs, "--arcs", grid])
    r = doc["results"]
    assert r["falsified"] is False
    assert len(r["arcs"]) == 8
    assert all(a["verdict"] == "consistent" for a in r["arcs"])


@pytest.mark.parametrize("bad", [
    {"x_orders": [1.5, 1], "s_orders": [1]},
    {"x_orders": ["2", 1], "s_orders": [1]},
    {"x_orders": [True, 1], "s_orders": [1]},
    {"x_orders": [1, 1], "s_orders": [True]},
    {"x_orders": [1, 1], "s_orders": [1], "x_coeffs": "12"},
    {"x_orders": [1, 1], "s_orders": [1], "x_coeffs": {"1": 0, "2": 0}},
    {"x_orders": [1, 1], "s_orders": [1], "s_coeffs": "3"},
], ids=["float-order", "string-order", "bool-order", "bool-s-order",
        "string-coeffs", "dict-coeffs", "string-s-coeffs"])
def test_valuative_rejects_malformed_arcs(tmp_path, capsys, bad):
    """Orders are JSON integers >= 1 and coefficients are lists of the
    right length; nothing is truncated, parsed by character or by key."""
    fam = write(tmp_path, "f.json", XY_FAMILY)
    arcs = write(tmp_path, "arcs.json", [bad])
    doc = run_json(capsys, ["valuative", fam, "--arcs", arcs], want_code=2)
    error = doc["results"]["error"]
    assert error["type"] == "input" and "arcs[0]" in error["message"]


def test_b1d(tmp_path, capsys):
    doc = run_json(capsys, ["b1d", write(tmp_path, "q.json", QUINTIC),
                            "--axes", "1,2"])
    r = doc["results"]
    assert r["found"] is True and r["i"] == 3
    assert r["beta"] == ["2", "2", "1"]
    assert r["restriction"] is None

    code, out, err = run(capsys, ["b1d", write(tmp_path, "fl.json",
                                               FLAT_FAMILY),
                                  "--axes", "1,2"])
    assert code == 0
    doc = json.loads(out)
    r = doc["results"]
    assert r["found"] is False and r["restriction"] is not None
    sub = parse_input(r["restriction"])
    assert sub.family is not None
    assert doc["warnings"]


def test_round_trip(tmp_path, capsys):
    for obj in (QUAD, CUSP, BS_FAMILY, QUINTIC):
        doc = parse_input(obj)
        again = parse_input(input_to_json(doc))
        assert again == doc


def test_reports_are_deterministic(tmp_path, capsys):
    base = write(tmp_path, "b.json", BS_BASE)
    fam = write(tmp_path, "f.json", BS_FAMILY)
    for argv in (["nu", base], ["mu-test", base, fam], ["resolve", fam],
                 ["regularize", base], ["milnor", base],
                 ["b1d", fam, "--axes", "1,2"]):
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second, argv


def test_pretty_and_polytope(tmp_path, capsys):
    path = write(tmp_path, "q.json", QUAD)
    code, out, _ = run(capsys, ["nu", path, "--pretty"])
    assert code == 0 and "nu: 1" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    doc = run_json(capsys, ["nu", path, "--emit-polytope"])
    assert doc["results"]["polytope"]["vertices"] == [["0", "2"], ["2", "0"]]


# The Briancon-Speder documents x^5 + y^7 z + z^15 + y^8 (+ s x y^6), as
# json.dump writes them, and the sha256 of each report on stdout.
def _bs_terms(s_exponents):
    monomials = [[5, 0, 0], [0, 7, 1], [0, 0, 15], [0, 8, 0], [1, 6, 0]]
    return [{"exponent": e,
             "coefficient": [{"s_exponent": s, "value": "1"}]}
            for e, s in zip(monomials, s_exponents)]


GOLDEN_DOCUMENTS = {
    "base.json": {"schema_version": 1, "variables": ["x", "y", "z"],
                  "parameters": [],
                  "support": [["5", "0", "0"], ["0", "7", "1"],
                              ["0", "0", "15"], ["0", "8", "0"]]},
    "fam.json": {"schema_version": 1, "variables": ["x", "y", "z"],
                 "parameters": ["s"],
                 "terms": _bs_terms([[0]] * 4 + [[1]])},
    "poly.json": {"schema_version": 1, "variables": ["x", "y", "z"],
                  "parameters": [], "terms": _bs_terms([[]] * 4)},
    "arcs.json": [{"x_orders": [1, 1, 1], "s_orders": [1]}],
}

GOLDEN_REPORTS = [
    (["nu", "base.json"],
     "3bd7c470ac8953d96a8e52adb550f685a089096cd72f74ddbe36eed84e335ab1"),
    (["nu", "base.json", "--emit-polytope"],
     "ffe4736f31eba611af9f0fb608f4625107aa2345bbab8a19ea0f02528c75c11b"),
    (["mu-test", "base.json", "fam.json"],
     "bd4da407f52ce477aee695f60716fe5491ea15332ab930e1133b378464787d53"),
    (["resolve", "fam.json"],
     "79001092e8060a9df554d9aaa51221bb8acfc78c4c70bcc697b4fb3f48dbd8de"),
    (["fan", "base.json"],
     "633543fcf7d8dbeb712323a54b19155803061f65ecad5e3b3191e863c96d8d0c"),
    (["regularize", "base.json"],
     "fa4823d1679e3055fc79f0639af0066e1b97f42b2ef0f40deeae6ff31fe4880c"),
    (["milnor", "poly.json"],
     "72e88c8454354416694120d2928860b155735e6df915f1bf1c3ec4a1046c7140"),
    (["nondeg", "poly.json"],
     "c062b5dfeb1714853f63be78991e3c6f4f915d13c3d24da6b6803619bcc1c321"),
    (["valuative", "fam.json", "--arcs", "arcs.json"],
     "818303edca5ede495823380f0c7ded1c8c80fc80f29c5650ea9253f06fda7f0d"),
    (["b1d", "fam.json", "--axes", "1,2"],
     "3205ed09bd657c3d39fcfbe2d6288985b95b84b1834fd6bf7e48623845d46916"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_REPORTS,
                         ids=[" ".join(a) for a, _ in GOLDEN_REPORTS])
def test_reports_are_byte_identical(tmp_path, capsys, monkeypatch, argv,
                                    digest):
    """Each report on the Briancon-Speder documents, run from the
    documents' directory so it names them by relative path, is exactly
    the recorded bytes."""
    for name, doc in GOLDEN_DOCUMENTS.items():
        with open(tmp_path / name, "w") as fh:
            json.dump(doc, fh)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_budget_warnings_write_rationals_as_strings(tmp_path, capsys,
                                                    monkeypatch):
    """At --budget 1 the torus tests of both 2-D faces of the
    Briancon-Speder base run out: nondeg and resolve report the faces
    unchecked, and their warnings write the points as the report writes
    rationals, with no Fraction repr on stdout or stderr."""
    for name, doc in GOLDEN_DOCUMENTS.items():
        with open(tmp_path / name, "w") as fh:
            json.dump(doc, fh)
    monkeypatch.chdir(tmp_path)
    faces = ["[(0, 0, 15), (0, 7, 1), (5, 0, 0)]",
             "[(0, 7, 1), (0, 8, 0), (5, 0, 0)]"]
    for argv, key, want in (
            (["nondeg", "poly.json"], "verdict",
             [f"face {f} unchecked: budget exceeded" for f in faces]),
            (["resolve", "fam.json"], "nondegeneracy",
             [f"nondegeneracy unchecked on face {f}" for f in faces])):
        code, out, err = run(capsys, argv + ["--budget", "1"])
        assert code == 0
        assert "Fraction(" not in out and "Fraction(" not in err
        doc = json.loads(out)
        assert doc["results"][key] == "unknown"
        assert doc["warnings"][:2] == want


def test_messages_write_points_as_rationals(tmp_path, capsys):
    """Warnings and errors that name a point write it as the reports write
    rationals, with no Fraction repr on stdout or stderr: an added vertex
    with no apex, a vertex outside the second polyhedron and a point with
    a negative coordinate."""
    cubic = write(tmp_path, "c.json",
                  dict(QUAD, support=[["3", "0"], ["0", "3"]]))
    quad = write(tmp_path, "q.json", QUAD)
    neg = write(tmp_path, "n.json",
                dict(QUAD, support=[["-3", "0"], ["0", "3"]]))
    no_apex = [f"added vertex {v} admits no apex" for v in ("(0, 2)",
                                                           "(2, 0)")]
    outside = ("polyhedra not nested: vertex (0, 2) of the first support "
               "set lies outside the second polyhedron")
    negative = "point (-3, 0) has a negative coordinate"
    for argv, want_code, warnings, message in (
            (["mu-test", cubic, quad], 0, no_apex, None),
            (["mu-test", quad, cubic], 3, [], outside),
            (["nu", neg], 2, [], negative)):
        code, out, err = run(capsys, argv)
        assert code == want_code
        assert "Fraction(" not in out and "Fraction(" not in err
        doc = json.loads(out)
        assert doc["warnings"] == warnings
        if message is None:
            assert err == "".join(f"warning: {w}\n" for w in warnings)
        else:
            assert doc["results"]["error"]["message"] == message
            assert err == f"error: {message}\n"
