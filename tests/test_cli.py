import json
import random
from pathlib import Path

import pytest

from polyquo import GF, DensePoly
from polyquo.cli import main, parse_ring_spec, run_bench
from polyquo.documents import emit_document, parse_document, PolyDocument

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
        assert data["trace"]["guard_steps"] == 1

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


class TestBench:
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
        for spec in ("gfp:4", "matrix:4:2", "gfp:2147483648"):
            code, out = run_cli(capsys, "bench", "--degrees", "2", "--ring", spec)
            assert code == 2
            assert out == ""
