import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from polyquo import GF, DensePoly, MatrixRing
from polyquo.cli import MAX_DEGREE, main, parse_ring_spec, run_bench
from polyquo.errors import (
    AlgebraicError,
    DimensionMismatch,
    NegativeLeftShift,
    NoConvergence,
    NotCentral,
    NotInvertible,
    NotMonic,
    ParseError,
    UnsupportedOperation,
    UnsupportedSigma,
)
from polyquo.documents import MAX_MATRIX_DIM, check_ring, emit_document, parse_document, PolyDocument

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "polyquo" / "fixtures"
MATRIX = str(FIXTURES / "matrix127.json")
MATRIX_EXPECTED = FIXTURES / "matrix127_expected.json"
LODO = str(FIXTURES / "lodo127.json")
LODO_EXPECTED = FIXTURES / "lodo127_expected.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def expected_poly(path, name):
    return parse_document(path.read_text()).polys[name]


def doc_file(tmp_path, content):
    """A document file holding the given bytes."""
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    return str(path)


GFP_DOC = '{"ring": {"kind": "gfp", "p": %s}, "polys": {"u": [%s], "v": [1]}}'
LONG_INT = "1" * 5000

# case -> (part of the one error line, builder of the argv from a scratch directory)
HOSTILE_INPUTS = {
    "divide_directory": ("Is a directory", lambda tmp: ["divide", str(tmp)]),
    "shinv_directory": ("Is a directory", lambda tmp: ["shinv", str(tmp), "--h", "3"]),
    "output_directory": ("Is a directory", lambda tmp: ["divide", MATRIX, "-o", str(tmp)]),
    "not_utf8": ("UTF-8", lambda tmp: ["divide", doc_file(tmp, b'{"ring": "\xff"}')]),
    "nested_deep": (
        "invalid JSON",
        lambda tmp: ["divide", doc_file(tmp, b"[" * 100_000 + b"]" * 100_000)],
    ),
    "long_entry": (
        "invalid JSON",
        lambda tmp: ["divide", doc_file(tmp, (GFP_DOC % (127, LONG_INT)).encode())],
    ),
    "long_modulus": (
        "invalid JSON",
        lambda tmp: ["divide", doc_file(tmp, (GFP_DOC % (LONG_INT, 1)).encode())],
    ),
}


class TestDivide:
    @pytest.mark.parametrize("method", ["classical", "fast"])
    def test_matrix_right_division(self, capsys, method):
        code, out = run_cli(capsys, "divide", MATRIX, "--side", "right", "--method", method)
        assert code == 0
        data = json.loads(out)
        assert data["result"]["residual_ok"] is True
        assert data["polys"]["q"] == expected_poly(MATRIX_EXPECTED, "q_r")
        assert data["polys"]["r"] == expected_poly(MATRIX_EXPECTED, "r_r")

    @pytest.mark.parametrize("method", ["classical", "fast"])
    def test_matrix_left_division(self, capsys, method):
        code, out = run_cli(capsys, "divide", MATRIX, "--side", "left", "--method", method)
        assert code == 0
        data = json.loads(out)
        assert data["polys"]["q"] == expected_poly(MATRIX_EXPECTED, "q_l")
        assert data["polys"]["r"] == expected_poly(MATRIX_EXPECTED, "r_l")

    def test_lodo_left_classical(self, capsys):
        code, out = run_cli(capsys, "divide", LODO, "--side", "left", "--method", "classical")
        assert code == 0
        data = json.loads(out)
        assert data["polys"]["q"] == expected_poly(LODO_EXPECTED, "q_l")

    def test_lodo_right_fast(self, capsys):
        code, out = run_cli(capsys, "divide", LODO, "--side", "right", "--method", "fast")
        assert code == 0
        data = json.loads(out)
        assert data["polys"]["q"] == expected_poly(LODO_EXPECTED, "q_r")
        assert data["result"]["residual_ok"] is True

    def test_lodo_left_fast_is_algebraic_error(self, capsys):
        code, _ = run_cli(capsys, "divide", LODO, "--side", "left", "--method", "fast")
        assert code == 3

    @pytest.mark.parametrize("method", ["classical", "fast"])
    def test_python_m_polyquo_divides_lodo(self, method):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(FIXTURES.parent.parent), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "polyquo", "divide", LODO, "--method", method],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["result"]["residual_ok"] is True
        assert data["polys"]["q"] == expected_poly(LODO_EXPECTED, "q_r")

    def test_singular_leading_matrix_exits_3(self, capsys, tmp_path):
        doc = {
            "ring": {"kind": "matrix", "p": 7, "n": 2, "var": "x"},
            "polys": {
                "u": [[[1, 0], [0, 1]]],
                "v": [[[1, 0], [0, 1]], [[1, 1], [1, 1]]],
            },
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, "divide", str(path), "--method", "fast")
        assert code == 3

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _ = run_cli(capsys, "divide", str(path))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = run_cli(capsys, "divide", "/nonexistent/file.json")
        assert code == 2

    @pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
    def test_hostile_input_exits_2(self, capsys, tmp_path, case):
        reason, argv = HOSTILE_INPUTS[case]
        assert_usage_error(capsys, reason, *argv(tmp_path))

    def test_polyring_division(self, capsys, tmp_path):
        # (x + y)(x + 1) = x^2 + (y+1)x + y over GF(7)[y]
        doc = {
            "ring": {"kind": "polyring", "p": 7, "var": "x", "coeff_var": "y"},
            "polys": {"u": [[0, 1], [1, 1], [1]], "v": [[0, 1], [1]]},
        }
        path = tmp_path / "polyring.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "divide", str(path), "--method", "fast")
        assert code == 0
        data = json.loads(out)
        assert data["polys"]["q"] == [[1], [1]]
        assert data["polys"]["r"] == []

    def test_polyring_nonunit_lead_exits_3(self, capsys, tmp_path):
        doc = {
            "ring": {"kind": "polyring", "p": 7, "var": "x", "coeff_var": "y"},
            "polys": {"u": [[1]], "v": [[1], [0, 1]]},
        }
        path = tmp_path / "polyring_bad.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, "divide", str(path), "--method", "classical")
        assert code == 3

    def test_non_prime_modulus_exits_2(self, capsys, tmp_path):
        doc = {
            "ring": {"kind": "gfp", "p": 4, "var": "x"},
            "polys": {"u": [1, 2, 3], "v": [1, 2]},
        }
        path = tmp_path / "p4.json"
        path.write_text(json.dumps(doc))
        for method in ("classical", "fast", "pseudo"):
            code, out = run_cli(capsys, "divide", str(path), "--method", method)
            assert code == 2
            assert out == ""

    def test_pseudo_division_gfp(self, capsys, tmp_path):
        doc = {
            "ring": {"kind": "gfp", "p": 7, "var": "x"},
            "polys": {"u": [0, 0, 1], "v": [1, 2]},
        }
        path = tmp_path / "pseudo.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "divide", str(path), "--method", "pseudo")
        assert code == 0
        data = json.loads(out)
        assert data["polys"]["q"] == [6, 2]
        assert data["polys"]["r"] == [1]
        assert data["result"]["residual_ok"] is True


class TestShinvCommand:
    def test_matrix_shinv13_matches_quotient_oracle(self, capsys):
        # the emitted value must be the classical quotient of x^13 by v;
        # the acceptance suite relates it to the recorded fixture display
        code, out = run_cli(capsys, "shinv", MATRIX, "--h", "13")
        assert code == 0
        data = json.loads(out)
        from polyquo import classical_div, RIGHT
        from polyquo.documents import build_ring, to_poly

        doc = parse_document(Path(MATRIX).read_text())
        ring = build_ring(doc.ring)
        v = to_poly(doc, "v", ring)
        x13 = DensePoly.monomial(ring, ring.one, 13)
        ref, _ = classical_div(x13, v, RIGHT)
        from polyquo.documents import poly_payload

        assert data["polys"]["shinv"] == poly_payload(ref)

    def test_trace_refine1_three_records_prec_9(self, capsys):
        code, out = run_cli(capsys, "shinv", MATRIX, "--h", "13", "--refine", "1", "--trace")
        assert code == 0
        data = json.loads(out)
        records = data["trace"]["records"]
        assert len(records) == 3
        assert [r["prec"] for r in records] == [9, 9, 9]
        assert set(data["trace"]) == {"records"}

    def test_trace_refine2_prec_sequence(self, capsys):
        code, out = run_cli(capsys, "shinv", MATRIX, "--h", "13", "--refine", "2", "--trace")
        data = json.loads(out)
        assert [r["prec"] for r in data["trace"]["records"]] == [4, 8, 9]

    def test_trace_deg100_generated_fixture_refine3(self, capsys, tmp_path):
        rng = random.Random(100)
        ring = GF(127)
        coeffs = [rng.randrange(127) for _ in range(10)] + [rng.randrange(1, 127)]
        doc = PolyDocument(
            ring={"kind": "gfp", "p": 127, "var": "x"}, polys={"v": coeffs}
        )
        path = tmp_path / "deg10.json"
        path.write_text(emit_document(doc))
        code, out = run_cli(
            capsys, "shinv", str(path), "--h", "101", "--refine", "3", "--trace"
        )
        assert code == 0
        records = json.loads(out)["trace"]["records"]
        assert len(records) == 6
        assert [r["prec"] for r in records] == [4, 8, 16, 32, 64, 92]
        assert records[0]["divisor_drop"] == 3
        assert [r["divisor_drop"] for r in records[1:]] == [0, 0, 0, 0, 0]

    def test_lodo_rejected(self, capsys):
        code, _ = run_cli(capsys, "shinv", LODO, "--h", "13")
        assert code == 3

    def test_trace_records_hold_the_pass_fields_without_w(self, capsys):
        code, out = run_cli(capsys, "shinv", MATRIX, "--h", "13", "--trace")
        assert code == 0
        records = json.loads(out)["trace"]["records"]
        assert records
        assert all(set(r) == {"accurate", "prec", "grow", "divisor_drop"} for r in records)


class TestAlgebraicErrors:
    @pytest.mark.parametrize("cls, base", [
        (NotInvertible, ZeroDivisionError),
        (NotCentral, ValueError),
        (NotMonic, ValueError),
        (UnsupportedSigma, ValueError),
        (NegativeLeftShift, ValueError),
        (UnsupportedOperation, ValueError),
        (NoConvergence, RuntimeError),
    ], ids=lambda c: c.__name__)
    def test_keeps_its_builtin_base(self, cls, base):
        exc = cls("message")
        assert isinstance(exc, AlgebraicError)
        assert isinstance(exc, base)

    def test_parse_and_dimension_errors_are_not_algebraic(self):
        assert not issubclass(ParseError, AlgebraicError)
        assert not issubclass(DimensionMismatch, AlgebraicError)

    def test_main_maps_algebraic_error_to_exit_3(self, capsys, monkeypatch):
        def refuse(self, a):
            raise AlgebraicError("no inverse today")

        monkeypatch.setattr(MatrixRing, "inv", refuse)
        code = main(["divide", MATRIX])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", "error: no inverse today\n")


# run_bench(GF(127), [64, 128, 256, 512, 1024]) at seed 0: (method, N) ->
# (iterations, mulCount).  mulCount counts one base multiplication per
# coefficient pair of the element-wise schoolbook leaves of the Karatsuba
# recursion, whatever kernel computes the product; from N = 512 up most
# products are whole packed multiplies, counted by a walk of the split.
PINNED_GF127_COUNTS = {
    ("classical", 64): (0, 4224),
    ("refine1", 64): (6, 39372),
    ("refine2", 64): (6, 18355),
    ("refine3", 64): (6, 17175),
    ("classical", 128): (0, 16640),
    ("refine1", 128): (7, 139221),
    ("refine2", 128): (7, 57336),
    ("refine3", 128): (7, 52299),
    ("classical", 256): (0, 65532),
    ("refine1", 256): (8, 480551),
    ("refine2", 256): (8, 176914),
    ("refine3", 256): (8, 158084),
    ("classical", 512): (0, 261626),
    ("refine1", 512): (9, 1627510),
    ("refine2", 512): (9, 538660),
    ("refine3", 512): (9, 473968),
    ("classical", 1024): (0, 1039338),
    ("refine1", 1024): (10, 5443390),
    ("refine2", 1024): (10, 1634876),
    ("refine3", 1024): (10, 1422956),
}


class TestBench:
    def test_operation_counts_are_pinned(self):
        rows = run_bench(GF(127), [64, 128, 256, 512, 1024])
        got = {(method, n): (iterations, mul_count) for method, n, iterations, mul_count, _ in rows}
        assert got == PINNED_GF127_COUNTS

    def test_matrix_operation_counts_are_pinned(self):
        rows = run_bench(parse_ring_spec("matrix:127:3"), [16], seed=0)
        got = {method: (iterations, mul_count) for method, _, iterations, mul_count, _ in rows}
        assert got == {
            "classical": (0, 8316),
            "refine1": (4, 79191),
            "refine2": (4, 43956),
            "refine3": (4, 42768),
        }

    def test_csv_shape_and_determinism(self, capsys):
        code, out1 = run_cli(capsys, "bench", "--degrees", "4,8", "--seed", "5")
        assert code == 0
        code, out2 = run_cli(capsys, "bench", "--degrees", "4,8", "--seed", "5")
        assert code == 0
        lines1 = out1.strip().splitlines()
        lines2 = out2.strip().splitlines()
        assert lines1[0] == "method,N,iterations,mulCount,nanos"
        assert len(lines1) == 1 + 2 * 4
        strip_time = lambda ls: [",".join(l.split(",")[:4]) for l in ls]
        assert strip_time(lines1) == strip_time(lines2)

    def test_repeat_keeps_measurements_stable(self, capsys):
        code, out = run_cli(
            capsys, "bench", "--degrees", "4", "--seed", "9", "--repeat", "3"
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert len(rows) == 4
        assert all(int(r[3]) > 0 for r in rows)

    def test_n_equal_one_iterations(self):
        ring = GF(127)
        rows = run_bench(ring, [1], seed=0)
        for method, n, iterations, mul_count, _ in rows:
            assert n == 1
            assert iterations in (0, 1)
            assert mul_count > 0

    def test_matrix_ring_spec(self):
        ring = parse_ring_spec("matrix:127:2")
        rows = run_bench(ring, [2], seed=1)
        assert {r[0] for r in rows} == {"classical", "refine1", "refine2", "refine3"}

    def test_bad_ring_spec_exits_2(self, capsys):
        code, _ = run_cli(capsys, "bench", "--degrees", "2", "--ring", "nope:1:2")
        assert code == 2

    def test_non_prime_ring_spec_exits_2(self, capsys):
        for spec, reason in (
            ("gfp:4", "prime"),
            ("matrix:4:2", "prime"),
            ("gfp:2147483648", "prime"),
            ("matrix:127:0", "matrix dimension"),
            ("matrix:127:-2", "matrix dimension"),
        ):
            assert_usage_error(capsys, reason, "bench", "--degrees", "2", "--ring", spec)


def assert_usage_error(capsys, reason, *argv):
    """The run exits 2, printing only one ``error:`` line that names the reason."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and reason in captured.err


class TestBadNumbers:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        # each is rejected before a document is read or a ring is built
        def refuse(*args):
            raise AssertionError("work started before the arguments were checked")

        import polyquo.cli as cli

        for name in ("load_document", "build_ring", "parse_ring_spec"):
            monkeypatch.setattr(cli, name, refuse)

    def test_negative_shift_exits_2(self, capsys):
        assert_usage_error(capsys, "--h", "shinv", MATRIX, "--h", "-1")

    def test_non_integer_degrees_exit_2(self, capsys):
        assert_usage_error(capsys, "--degrees", "bench", "--degrees", "abc")

    def test_negative_degrees_exit_2(self, capsys):
        assert_usage_error(capsys, "non-negative", "bench", "--degrees=-3")

    def test_shift_above_bound_exits_2(self, capsys):
        assert_usage_error(capsys, "at most %d" % MAX_DEGREE, "shinv", MATRIX, "--h",
                           str(MAX_DEGREE + 1))

    def test_degree_above_bound_exits_2(self, capsys):
        assert_usage_error(capsys, "at most %d" % MAX_DEGREE, "bench", "--degrees",
                           "4,%d" % (MAX_DEGREE + 1))

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_repeat_below_one_exits_2(self, capsys, repeat):
        assert_usage_error(capsys, "--repeat", "bench", "--degrees", "4", "--repeat=" + repeat)


class TestMatrixDimensionBound:
    @pytest.fixture(autouse=True)
    def no_ring(self, monkeypatch):
        # the dimension is rejected before any ring is built
        def refuse(*args):
            raise AssertionError("a ring was built before the dimension was checked")

        import polyquo.cli as cli
        import polyquo.documents as documents

        monkeypatch.setattr(cli, "build_ring", refuse)
        monkeypatch.setattr(documents, "MatrixRing", refuse)

    def test_bench_ring_spec_above_bound_exits_2(self, capsys):
        spec = "matrix:127:%d" % (MAX_MATRIX_DIM + 1)
        assert_usage_error(capsys, "at most %d" % MAX_MATRIX_DIM, "bench", "--degrees", "2",
                           "--ring", spec)

    def test_document_above_bound_exits_2(self, capsys, tmp_path):
        n = MAX_MATRIX_DIM + 1
        zero = [[0] * n for _ in range(n)]
        doc = {"ring": {"kind": "matrix", "p": 127, "n": n}, "polys": {"u": [zero], "v": [zero]}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert_usage_error(capsys, "at most %d" % MAX_MATRIX_DIM, "divide", str(path))
        assert_usage_error(capsys, "at most %d" % MAX_MATRIX_DIM, "shinv", str(path), "--h", "3")

    def test_bound_itself_is_accepted(self):
        desc = {"kind": "matrix", "p": 127, "n": MAX_MATRIX_DIM}
        assert check_ring(desc) is desc


def write_doc(tmp_path, ring, polys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"ring": ring, "polys": polys}))
    return str(path)


class TestRingHeaderChecks:
    def test_bool_matrix_dimension_exits_2(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"kind": "matrix", "p": 7, "n": True},
                         {"u": [[[1]]], "v": [[[1]]]})
        assert_usage_error(capsys, "matrix dimension", "divide", path)

    @pytest.mark.parametrize("kind, coeff", [("gfp", 1), ("matrix", [[1]]), ("polyring", [1]),
                                             ("lodo", [1])])
    def test_non_string_var_exits_2(self, capsys, tmp_path, kind, coeff):
        ring = {"kind": kind, "p": 7, "n": 1, "var": [1]}
        path = write_doc(tmp_path, ring, {"u": [coeff], "v": [coeff]})
        assert_usage_error(capsys, "var must be a string", "divide", path)


class TestDocumentLengthBound:
    @pytest.fixture(autouse=True)
    def no_ring(self, monkeypatch):
        # the lengths are checked while the document is read, before any ring is built
        def refuse(*args):
            raise AssertionError("a ring was built before the lengths were checked")

        import polyquo.cli as cli

        monkeypatch.setattr(cli, "build_ring", refuse)

    def test_long_polynomial_exits_2(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"kind": "gfp", "p": 7}, {"u": [1] * (MAX_DEGREE + 2), "v": [1]})
        reason = "polynomial 'u' must have at most %d" % (MAX_DEGREE + 1)
        assert_usage_error(capsys, reason, "divide", path)
        assert_usage_error(capsys, reason, "shinv", path, "--h", "3")

    @pytest.mark.parametrize("kind", ["polyring", "lodo"])
    def test_long_coefficient_exits_2(self, capsys, tmp_path, kind):
        long_coeff = [1] * (MAX_DEGREE + 2)
        path = write_doc(tmp_path, {"kind": kind, "p": 7}, {"u": [[1]], "v": [long_coeff, [1]]})
        reason = "coefficient must have at most %d" % (MAX_DEGREE + 1)
        assert_usage_error(capsys, reason, "divide", path)
        assert_usage_error(capsys, reason, "shinv", path, "--h", "3")

    def test_bound_itself_is_accepted(self):
        at_bound = [1] * (MAX_DEGREE + 1)
        for kind, polys in (("gfp", {"v": at_bound}), ("lodo", {"v": [at_bound]})):
            doc = parse_document(json.dumps({"ring": {"kind": kind, "p": 7}, "polys": polys}))
            assert doc.polys == polys


# ring kind -> (descriptor, a nonzero u) for a document whose v is zero
ZERO_DIVISOR_DOCS = {
    "gfp": ({"kind": "gfp", "p": 7}, [1, 2, 3]),
    "matrix": ({"kind": "matrix", "p": 7, "n": 2}, [[[1, 0], [0, 1]], [[1, 2], [3, 4]]]),
    "polyring": ({"kind": "polyring", "p": 7}, [[1], [0, 1]]),
    "lodo": ({"kind": "lodo", "p": 7}, [[1], [0, 1]]),
}


@pytest.mark.parametrize("kind", sorted(ZERO_DIVISOR_DOCS))
@pytest.mark.parametrize("method", ["classical", "fast", "pseudo"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_zero_divisor_exits_3(capsys, tmp_path, kind, method, side):
    ring, u = ZERO_DIVISOR_DOCS[kind]
    path = write_doc(tmp_path, ring, {"u": u, "v": []})
    code = main(["divide", path, "--method", method, "--side", side])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


# every routine cmd_divide may divide with
DIVISIONS = ("classical_div", "quo", "pseudo_div", "skew_classical_div", "rquo_via_lshinv")


class TestOutputOpenedFirst:
    """``-o`` is opened before any algebra runs, and a failed run keeps an existing file."""

    @pytest.mark.parametrize("argv, work", [
        (["divide", MATRIX], DIVISIONS),
        (["divide", LODO, "--method", "fast"], DIVISIONS),
        (["shinv", MATRIX, "--h", "13"], ("shinv",)),
        (["bench", "--degrees", "4,8"], ("run_bench",)),
    ], ids=["divide", "divide_lodo", "shinv", "bench"])
    def test_output_directory_exits_2_before_the_work(self, capsys, monkeypatch, tmp_path,
                                                      argv, work):
        import polyquo.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("the work started before the output was opened")

        for name in work:
            monkeypatch.setattr(cli, name, refuse)
        assert_usage_error(capsys, "Is a directory", *argv, "-o", str(tmp_path))

    def test_failed_runs_keep_an_existing_output(self, capsys, tmp_path):
        singular = write_doc(tmp_path, {"kind": "matrix", "p": 7, "n": 2}, {
            "u": [[[1, 0], [0, 1]]],
            "v": [[[1, 0], [0, 1]], [[1, 1], [1, 1]]],
        })
        out = tmp_path / "out.json"
        out.write_bytes(b"earlier result\n")
        for argv, want in (
            (["divide", singular, "--method", "fast"], 3),
            (["divide", str(tmp_path / "missing.json")], 2),
            (["shinv", singular, "--h", "-1"], 2),
            (["bench", "--degrees", "4", "--ring", "gfp:4"], 2),
        ):
            assert main(argv + ["-o", str(out)]) == want
            assert out.read_bytes() == b"earlier result\n"
        capsys.readouterr()

    def test_success_replaces_a_longer_output(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("x" * 100_000)
        code, want = run_cli(capsys, "divide", MATRIX)
        assert code == 0
        assert main(["divide", MATRIX, "-o", str(out)]) == 0
        assert out.read_text() == want

    def test_output_to_a_device(self, capsys):
        # a device cannot be truncated; it is written to as before
        assert main(["divide", MATRIX, "-o", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")


class TestParserReuse:
    """``main`` builds its parser once and still runs the ``cli.cmd_*`` function in place."""

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        import polyquo.cli as cli

        assert main(["divide", MATRIX]) == 0

        def refuse():
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert main(["divide", MATRIX]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["divide", MATRIX],
        ["shinv", MATRIX, "--h", "5"],
        ["bench", "--degrees", "4"],
    ], ids=["divide", "shinv", "bench"])
    def test_replaced_command_is_run(self, monkeypatch, argv):
        import polyquo.cli as cli

        seen = []
        monkeypatch.setattr(cli, "cmd_" + argv[0], lambda args: seen.append(args) or 7)
        assert main(argv) == 7
        assert [args.command for args in seen] == [argv[0]]

    @pytest.mark.parametrize("argv", [
        ["divide", MATRIX, "--side", "up"],
        ["bench", "--repeat", "x"],
        ["shinv", MATRIX],
        ["frobnicate"],
    ])
    def test_usage_errors_exit_2_with_a_fresh_parsers_message(self, capsys, argv):
        import polyquo.cli as cli

        with pytest.raises(SystemExit) as fresh:
            cli.build_parser().parse_args(argv)
        want = capsys.readouterr()
        for _ in range(2):
            with pytest.raises(SystemExit) as reused:
                main(argv)
            assert (reused.value.code, capsys.readouterr()) == (fresh.value.code, want)
        assert fresh.value.code == 2 and want.err.startswith("usage: polyquo")
