import contextlib
import importlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsim import lattices
from matsim.cli import main

Z2 = '{"kind":"ZLoc","p":2}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_similar_x2_minus_5(capsys):
    code, out, _ = run(
        capsys,
        "similar",
        "--ring",
        Z2,
        "--in",
        '{"A": [["0","1"],["5","0"]], "B": [["-1","2"],["2","1"]]}',
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "similar": False,
        "forms": ["Case22Main{n=0}", "Case22Extra{r=1,i=1}"],
    }


def test_class_number(capsys):
    code, out, _ = run(capsys, "class-number", "--ring", Z2, "--in", '{"f": "x^2-5"}')
    assert code == 0
    assert json.loads(out) == {"class_number": 2}


def test_lattice_free_x2_x_7(capsys):
    payload = json.dumps(
        {
            "d": -5,
            "f": "x^2-x+7",
            "generators": [["1/3", "0", "1/3", "0"], ["2", "1", "0", "0"]],
        }
    )
    code, out, _ = run(capsys, "lattice-free", "--in", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["free"] is False
    assert doc["steinitz"] == "(3, 2+w)"
    assert doc["coefficient_ideal"] == "(1)"
    assert doc["intersect_base"] == "(3, 2+w)"


def test_lattice_free_x2_minus_2(capsys):
    payload = json.dumps(
        {
            "d": -5,
            "f": "x^2-2",
            "generators": [["2", "0", "0", "0"], ["0", "0", "1/2", "1/2"]],
        }
    )
    code, out, _ = run(capsys, "lattice-free", "--in", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["free"] is True
    assert doc["steinitz"] == "(2)"
    assert doc["steinitz_generator"] == "2"
    assert "free_basis" in doc and "mult_matrix" in doc


def test_lattice_free_x0_with_a_k_part(capsys):
    # u0 ignored the K-part 1/2 of x0, and the basis check exited 4
    gens = [["1", "0", "0", "0"], ["0", "0", "1", "0"]]
    payload = json.dumps({"d": -5, "f": "x^2 - 2", "generators": gens, "x0": ["1/2", "0", "1", "0"]})
    code, out, _ = run(capsys, "lattice-free", "--in", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["free"] is True and doc["x0"] == ["1/2", "0", "1", "0"]
    ctx = lattices.RelExt.from_poly_string(lattices.QuadBase(-5), "x^2 - 2")
    span = lattices.lattice_from_generators(ctx, [[Fraction(c) for c in v] for v in doc["free_basis"]])
    assert span == lattices.lattice_from_generators(ctx, [[Fraction(c) for c in v] for v in gens])


def test_lattice_free_rejects_f_outside_the_order(capsys):
    payload = json.dumps({"d": -5, "f": "x^2-1/2", "generators": [["2", "0", "0", "0"], ["0", "0", "1", "0"]]})
    code, out, err = run(capsys, "lattice-free", "--in", payload)
    assert (code, out) == (2, "")
    assert err == "error: bad lattice payload: f = x^2 - a*x - b needs a and b in Z[w], w = sqrt(d)\n"


def test_lattice_free_rejects_huge_d_before_the_squarefree_check(capsys):
    # trial division up to sqrt|d| would take hours here; the bound answers at once
    payload = json.dumps({"d": -(10**20 + 1), "f": "x^2-2", "generators": [["2", "0", "0", "0"], ["0", "0", "1", "0"]]})
    code, out, err = run(capsys, "lattice-free", "--in", payload)
    assert (code, out) == (3, "")
    assert "10^12" in err


SQRT2_GENS = [["2", "0", "0", "0"], ["0", "0", "1/2", "1/2"]]


@pytest.mark.parametrize(
    "payload",
    [
        {"d": -5, "f": "x^2-2", "generators": SQRT2_GENS, "x0": ["0", "1"]},
        {"d": -5, "f": "x^2-2", "generators": [["2", "0", "0", "0", "7"], SQRT2_GENS[1]]},
        {"d": -5, "f": "x^2-2", "generators": [["2", "0", "0"], SQRT2_GENS[1]]},
    ],
    ids=["x0-of-2", "generator-of-5", "generator-of-3"],
)
def test_lattice_free_needs_four_coordinates(capsys, payload):
    # a short x0 was an IndexError traceback, a fifth coordinate was dropped
    code, out, err = run(capsys, "lattice-free", "--in", json.dumps(payload))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad lattice payload: an element of L has 4 coordinates")


@pytest.mark.parametrize("key", ["generators", "x0"])
def test_lattice_free_vectors_must_be_json_lists(capsys, key):
    # a string was read character by character: "1000" as (1, 0, 0, 0)
    payload = {"d": -5, "f": "x^2-2", "generators": SQRT2_GENS}
    payload[key] = ["1000", SQRT2_GENS[1]] if key == "generators" else "0010"
    code, out, err = run(capsys, "lattice-free", "--in", json.dumps(payload))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad lattice payload: a coordinate vector is a JSON list")


@pytest.mark.parametrize("d", [-5.5, True, "-5", None], ids=repr)
def test_lattice_free_d_must_be_a_json_integer(capsys, d):
    # -5.5 was answered as d = -5, and true as d = 1
    payload = json.dumps({"d": d, "f": "x^2-2", "generators": SQRT2_GENS})
    code, out, err = run(capsys, "lattice-free", "--in", payload)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad lattice payload: d must be an integer")


@pytest.mark.parametrize("ring", ['{"kind":"ZLoc","p":2.5}', '{"kind":"FpTLoc","p":true}', '{"kind":"ZLoc","p":"3"}'])
def test_ring_p_must_be_a_json_integer(capsys, ring):
    # p = 2.5 was answered as ZLoc(2)
    code, out, err = run(capsys, "classify", "--ring", ring, "--in", '{"matrix": [["0","1"],["1","0"]]}')
    assert (code, out) == (2, "")
    assert err.startswith("error: bad ring descriptor: p must be an integer")


@pytest.mark.parametrize(
    "matrix",
    [[["0", "-1"], ["1"]], [[]], [["0", "-1", "3"], ["1", "0", "2"]]],
    ids=["ragged", "empty-row", "2x3"],
)
def test_lm_to_ideal_needs_a_square_matrix_of_degree_f(capsys, matrix):
    # the first two were IndexError tracebacks, and the 2x3 matrix printed a basis
    payload = json.dumps({"f": "x^2+1", "matrix": matrix})
    code, out, err = run(capsys, "lm-to-ideal", "--ring", '{"kind":"ZZ"}', "--in", payload)
    assert (code, out) == (2, "")
    assert err == "error: ValueError: matrix shape must be deg f x deg f\n"


@pytest.mark.parametrize(
    "ring, f, matrix",
    [
        (Z2, "x^2 + 3", [["1/2", "2"], ["-13/8", "-1/2"]]),
        ('{"kind":"ZZ"}', "x^3 + 6", [["0", "1/2", "0"], ["0", "0", "1"], ["-12", "0", "0"]]),
    ],
    ids=["ZLoc2", "ZZ"],
)
def test_lm_to_ideal_non_integral_entry_exits_3(capsys, ring, f, matrix):
    # both exited 0 with "verified": true and a basis that is not an ideal
    payload = json.dumps({"f": f, "matrix": matrix})
    code, out, err = run(capsys, "lm-to-ideal", "--ring", ring, "--in", payload)
    assert (code, out) == (3, "")
    assert "NotIntegral" in err


def test_classify_witness_verified(capsys):
    code, out, _ = run(capsys, "classify", "--ring", Z2, "--in", '{"matrix": [["3","7"],["2","-3"]]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert set(doc) == {"form", "canonical_matrix", "witness", "verified"}


def test_witness_command(capsys):
    code, out, _ = run(
        capsys,
        "witness",
        "--ring",
        Z2,
        "--in",
        '{"A": [["0","1"],["5","0"]], "B": [["1","1"],["4","-1"]]}',
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["similar"] is True and doc["verified"] is True


def test_class_list_insep(capsys):
    code, out, _ = run(
        capsys,
        "class-list",
        "--ring",
        '{"kind":"FpTLoc","p":2}',
        "--insep-bound",
        "5",
        "--in",
        '{"f": "x^2-t^3"}',
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert [c["form"] for c in doc["classes"]] == [
        "Insep{i=0,u=0,s=t^3}",
        "Insep{i=1,u=0,s=t^2}",
    ]


def test_lm_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "lm-to-ideal",
        "--ring",
        '{"kind":"ZZ"}',
        "--in",
        '{"f": "x^2+6", "matrix": [["0","2"],["-3","0"]]}',
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced_form"] == [2, 0, 3]
    code, out, _ = run(
        capsys,
        "lm-to-matrix",
        "--ring",
        '{"kind":"ZZ"}',
        "--in",
        json.dumps({"f": "x^2+6", "basis": doc["basis"]}),
    )
    assert code == 0
    assert "matrix" in json.loads(out)


def test_cross_check_flag(capsys):
    code, out, _ = run(
        capsys,
        "similar",
        "--ring",
        Z2,
        "--cross-check",
        "--in",
        '{"A": [["0","1"],["5","0"]], "B": [["-1","2"],["2","1"]], "N": 3}',
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"] == {"N": 3, "witness_mod": None}


def test_cross_check_flag_similar_pair(capsys):
    code, out, _ = run(
        capsys,
        "similar",
        "--ring",
        Z2,
        "--cross-check",
        "--in",
        '{"A": [["0","1"],["5","0"]], "B": [["1","1"],["4","-1"]], "N": 3}',
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["similar"] is True
    assert doc["oracle"]["witness_mod"] is not None


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "similar", "--ring", Z2, "--in", "{not json")
    assert code == 2 and "error" in err


def test_exit_code_bad_ring(capsys):
    code, _, err = run(capsys, "classify", "--ring", '{"kind":"Nope"}', "--in", '{"matrix": [["1","0"],["0","1"]]}')
    assert code == 2


def test_exit_code_precondition(capsys):
    # non-integral entry: library error -> exit 3
    code, _, err = run(capsys, "classify", "--ring", Z2, "--in", '{"matrix": [["1/2","0"],["0","1"]]}')
    assert code == 3 and "NotIntegral" in err


def test_exit_code_insep_bound(capsys):
    code, _, err = run(capsys, "class-list", "--ring", '{"kind":"FpTLoc","p":2}', "--in", '{"f": "x^2-t^3"}')
    assert code == 3 and "InsepBoundRequired" in err


def test_deterministic_output(capsys):
    argv = ["class-list", "--ring", Z2, "--in", '{"f": "x^2-5"}']
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert out1.endswith("\n")


def test_file_io(tmp_path, capsys):
    payload = tmp_path / "job.json"
    payload.write_text('{"f": "x^2-5"}', encoding="utf-8")
    outfile = tmp_path / "result.json"
    code = main(["class-number", "--ring", Z2, "--in", str(payload), "--out", str(outfile)])
    assert code == 0
    assert json.loads(outfile.read_text()) == {"class_number": 2}


@pytest.mark.parametrize("flag", ["--in", "--ring"])
def test_directory_as_input_exits_2(tmp_path, capsys, flag):
    # open() on a directory raised IsADirectoryError (exit 1)
    argv = {"--in": '{"f": "x^2-5"}', "--ring": Z2, flag: str(tmp_path)}
    code, out, err = run(capsys, "class-number", "--ring", argv["--ring"], "--in", argv["--in"])
    assert (code, out) == (2, "") and err.startswith("error: cannot read")


def test_unwritable_output_exits_2(tmp_path, capsys):
    # writing the answer raised FileNotFoundError (exit 1)
    outfile = tmp_path / "missing" / "result.json"
    code, out, err = run(capsys, "class-number", "--ring", Z2, "--in", '{"f": "x^2-5"}', "--out", str(outfile))
    assert (code, out) == (2, "") and err.startswith("error: cannot write")


def test_insep_bound_zero_is_used(capsys):
    # the bound 0 used to fall back to the default 10 (lower bound 3)
    for bound, expected in (("0", 1), ("1", 2)):
        code, out, _ = run(
            capsys, "class-number", "--ring", '{"kind":"FpTLoc","p":2}', "--insep-bound", bound,
            "--in", '{"f": "x^2 - t^5"}',
        )
        assert code == 0 and json.loads(out) == {"class_number_lower_bound": expected}


def test_successive_calls_do_not_share_flags(capsys):
    # one parser serves every main call of a process; a flag given to one
    # call must not carry into the next
    from matsim.cli import build_parser

    assert build_parser() is build_parser()
    insep = ("class-number", "--ring", '{"kind":"FpTLoc","p":2}', "--in", '{"f": "x^2 - t^5"}')
    for flags, expected in (([], 3), (["--insep-bound", "0"], 1), ([], 3), (["--insep-bound", "1"], 2), ([], 3)):
        code, out, _ = run(capsys, *insep, *flags)
        assert code == 0 and json.loads(out) == {"class_number_lower_bound": expected}
    pair = ("similar", "--ring", Z2, "--in", json.dumps({**SIMILAR_PAIR, "N": 2}))
    for flags in ([], ["--cross-check"], [], ["--cross-check"], []):
        code, out, _ = run(capsys, *pair, *flags)
        assert code == 0 and ("oracle" in json.loads(out)) == bool(flags)


@pytest.mark.parametrize(
    "command, ring, f",
    [
        ("class-list", '{"kind":"FpTLoc","p":2}', "x^2 - t"),
        ("class-number", '{"kind":"FpTLoc","p":2}', "x^2 - t"),
        ("class-list", '{"kind":"ZLoc","p":3}', "x^2 - 2*x + 1"),
    ],
)
def test_negative_insep_bound_exits_2(capsys, command, ring, f):
    # a negative bound used to list Insep{i=0,...} and count 1
    code, out, err = run(capsys, command, "--ring", ring, "--insep-bound", "-3", "--in", json.dumps({"f": f}))
    assert code == 2 and out == ""
    assert "ValueError" in err and "-3" in err


@pytest.mark.parametrize("argv", [["cross-check"], ["similar", "--cross-check"]])
def test_deep_oracle_level_exceeds_budget(capsys, argv):
    # refused from the budget's bit length: 3^(4*10^6) is neither built nor
    # printed (printing it broke int-to-str conversion and exited 2)
    payload = '{"A": [["0","1"],["18","0"]], "B": [["0","1"],["18","0"]], "N": 1000000}'
    code, out, err = run(capsys, *argv, "--ring", '{"kind":"ZLoc","p":3}', "--in", payload)
    assert code == 3 and out == ""
    assert "BudgetExceeded" in err and "3^(4*1000000)" in err



def test_lm_to_ideal_degree_one(capsys):
    # theta = 3 for f = x - 3, so the 1x1 matrix [3] is the ideal (1)
    code, out, _ = run(capsys, "lm-to-ideal", "--ring", '{"kind":"ZZ"}', "--in",
                       '{"f": "x - 3", "matrix": [["3"]]}')
    assert code == 0 and json.loads(out) == {"basis": [["1"]], "verified": True}


def test_lm_to_matrix_degree_one(capsys):
    code, out, _ = run(capsys, "lm-to-matrix", "--ring", '{"kind":"ZZ"}', "--in",
                       '{"f": "x - 3", "basis": [["1"]]}')
    assert code == 0 and json.loads(out) == {"matrix": [["3"]]}


def test_lm_round_trip_degree_one(capsys):
    code, out, _ = run(capsys, "lm-to-ideal", "--ring", '{"kind":"ZZ"}', "--in",
                       '{"f": "x + 5", "matrix": [["-5"]]}')
    assert code == 0
    payload = json.dumps({"f": "x + 5", "basis": json.loads(out)["basis"]})
    code, out, _ = run(capsys, "lm-to-matrix", "--ring", '{"kind":"ZZ"}', "--in", payload)
    assert code == 0 and json.loads(out) == {"matrix": [["-5"]]}


@pytest.mark.parametrize(
    "cmd, payload, code, err",
    [
        ("lm-to-matrix", {"f": "x^2+6", "basis": [[0, 0], [0, 1]]}, 3,
         "NotAnIdeal: basis is not K-linearly independent"),
        ("lm-to-matrix", {"f": "x^2+6", "basis": [["1/2", 0], [0, 1]]}, 3,
         "NotAnIdeal: multiplication by theta leaves the R-span"),
        ("lm-to-matrix", {"f": "x^2 + 1/2", "basis": [[1, 0], [0, 1]]}, 3,
         "NotAnIdeal: multiplication by theta leaves the R-span"),
        ("lm-to-matrix", {"f": "1", "basis": []}, 3, "NotAnIdeal: basis is not K-linearly independent"),
        ("lm-to-ideal", {"f": "x^2+1", "matrix": [[0, 0], [0, 0]]}, 3,
         "CharPolyMismatch: det(xI - A) differs from f"),
        ("lm-to-ideal", {"f": "x^2", "matrix": [[0, 1], [0, 0]]}, 3,
         "NotSeparable: the correspondence needs gcd(f, f') = 1"),
        ("lm-to-ideal", {"f": "1", "matrix": []}, 3, "NotSeparable: the correspondence needs gcd(f, f') = 1"),
        ("lm-to-matrix", {"f": "x^2+6", "basis": [[1, 0]]}, 2, "ValueError: basis arity must match deg f"),
    ],
    ids=["zero-row", "half-row", "fractional-f", "degree-0-basis", "wrong-f", "repeated-root",
         "degree-0-matrix", "one-row"],
)
def test_lm_error_paths_over_zz(capsys, cmd, payload, code, err):
    # the answers of the Fraction path, so the integer path keeps its checks
    # and their order
    argv = [cmd, "--ring", '{"kind":"ZZ"}', "--in", json.dumps(payload)]
    assert run(capsys, *argv) == (code, "", f"error: {err}\n")


def test_class_number_reducible_exits_3(capsys):
    code, _, err = run(capsys, "class-number", "--ring", Z2, "--in", '{"f": "x^2 - 1"}')
    assert code == 3 and "ReduciblePoly" in err


@pytest.mark.parametrize("base, var", [('{"kind":"ZLoc","p":2}', "p"), ('{"kind":"FpTLoc","p":3}', "t")])
def test_unramified_reducible_reduction_message(capsys, base, var):
    # x^2 - 1 has the root 1 modulo the base uniformizer
    ring = f'{{"kind":"QuadExt","base":{base},"minpoly":"x^2 - 1","ramification":"unramified"}}'
    code, out, err = run(capsys, "classify", "--ring", ring, "--in", '{"matrix": [["1","0"],["0","1"]]}')
    assert (code, out) == (2, "")
    assert err == f"error: bad ring descriptor: reduction mod {var} is not irreducible\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--ring", "[1]", "--in", '{"matrix": [["1","0"],["0","1"]]}'],
        ["classify", "--ring", '{"kind":"QuadExt","base":{"kind":"ZLoc","p":2},"minpoly":5,'
         '"ramification":"unramified"}', "--in", '{"matrix": [["1","0"],["0","1"]]}'],
        ["lm-to-ideal", "--ring", '{"kind":"ZZ"}', "--in", '{"f": "x^2+6", "matrix": 5}'],
        ["lm-to-matrix", "--ring", '{"kind":"ZZ"}', "--in", '{"f": "x^2+6", "basis": 7}'],
        # JSON booleans were read as the entries 1 and 0
        ["classify", "--ring", Z2, "--in", '{"matrix": [[true, 1], [0, 1]]}'],
        ["lm-to-ideal", "--ring", '{"kind":"ZZ"}', "--in", '{"f": "x^2+1", "matrix": [[false, -1], [true, 0]]}'],
        ["lm-to-matrix", "--ring", '{"kind":"ZZ"}', "--in", '{"f": "x^2+1", "basis": [[true, 0], [0, 1]]}'],
        # a float lattice coordinate was read through its repr (1.5 as 3/2)
        ["lattice-free", "--in", '{"d": -5, "f": "x^2 - 2", "generators": [[1.5, 0, 0, 0], [0, 0, 1, 0]]}'],
    ],
    ids=["ring-list", "minpoly-int", "lm-matrix-int", "lm-basis-int", "classify-bool", "lm-matrix-bool",
         "lm-basis-bool", "lattice-float"],
)
def test_malformed_input_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:")


SIMILAR_PAIR = {"A": [["0", "1"], ["5", "0"]], "B": [["1", "1"], ["4", "-1"]]}


@pytest.mark.parametrize("command", ["similar", "cross-check"])
@pytest.mark.parametrize("N", ["3", "x", 2.5, None, True, 0, -1], ids=repr)
def test_oracle_level_must_be_positive_int(capsys, command, N):
    # a string, float, null or bool N used to raise TypeError (exit 1) or be
    # truncated (2.5 ran N = 2)
    payload = json.dumps({**SIMILAR_PAIR, "N": N})
    code, out, err = run(capsys, command, "--ring", Z2, "--cross-check", "--in", payload)
    assert code == 2 and out == "" and err.startswith("error: N must be")


def test_oracle_contradiction_exits_4(capsys, monkeypatch):
    from matsim import cli

    monkeypatch.setattr(cli, "conj_search_mod", lambda *args: None)
    payload = json.dumps({**SIMILAR_PAIR, "N": 2})
    code, out, err = run(capsys, "similar", "--ring", Z2, "--cross-check", "--in", payload)
    assert code == 4 and out == ""
    assert err == "error: InvariantViolation: oracle contradicts an exact similarity\n"


def test_class_list_runs_the_residue_search_once(capsys, monkeypatch):
    # the ideal pairs are read off the canonical matrices already built, so
    # class_list (and its compute_m search) runs once per job; import_module
    # because the package re-exports a function named classify
    classify = importlib.import_module("matsim.classify")
    calls = []
    compute_m = classify.compute_m

    def counted(*args, **kwargs):
        calls.append(args)
        return compute_m(*args, **kwargs)

    monkeypatch.setattr(classify, "compute_m", counted)
    payload = json.dumps({"f": "x^2 + t^3*x + t^2 + t^3"})
    code, out, _ = run(capsys, "class-list", "--ring", '{"kind":"FpTLoc","p":2}', "--in", payload)
    assert code == 0 and all("ideal" in c for c in json.loads(out)["classes"])
    assert len(calls) == 1


# fuzz: one field of a golden job's --in or --ring, mutated

GOLDEN_JOBS = json.loads((Path(__file__).parent / "golden" / "jobs.json").read_text(encoding="utf-8"))


def _fuzz_sites():
    """(argv, i) for every --in or --ring argument argv[i] that is JSON."""
    for job in GOLDEN_JOBS:
        argv = job["argv"]
        for i in range(1, len(argv)):
            if argv[i - 1] in ("--in", "--ring"):
                try:
                    json.loads(argv[i])
                except json.JSONDecodeError:
                    continue  # a malformed-input job
                yield argv, i


FUZZ_SITES = list(_fuzz_sites())
FUZZ_VALUES = [0, 1, -1, 2, 3, 11, 1000, 2.5, True, None, "", "0", "1/0", "x", "t", "w", "(", "1e3", [], {}, [[]]]
FUZZ_CHARS = "()+-*/^xtw0123456789 ."
DROP = object()


def _paths(doc, path=()):
    """The path of every node of a JSON document (object keys, list indices)."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutants(value):
    options = [st.sampled_from(FUZZ_VALUES), st.just(DROP)]
    if isinstance(value, str):
        where = st.integers(0, len(value))
        options.append(st.builds(lambda i, c: value[:i] + c + value[i:], where, st.sampled_from(FUZZ_CHARS)))
        options.append(where.map(lambda i: value[:i] + value[i + 1 :]))
    if type(value) is int:
        options.append(st.integers(-3, 3).map(lambda k: value + k))
    return st.one_of(options)


@st.composite
def mutated_argv(draw):
    argv, i = draw(st.sampled_from(FUZZ_SITES))
    argv = list(argv)
    doc = json.loads(argv[i])
    path = draw(st.sampled_from(list(_paths(doc))))
    new = draw(_mutants(_node(doc, path)))
    if not path:
        doc = {} if new is DROP else new
    elif new is DROP:
        del _node(doc, path[:-1])[path[-1]]
    else:
        _node(doc, path[:-1])[path[-1]] = new
    argv[i] = json.dumps(doc)
    return argv


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(argv=mutated_argv())
def test_fuzzed_golden_jobs_exit_cleanly(argv):
    # every input is answered or rejected with a documented exit code; an
    # exception escaping main would be a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
