import json
import random

import pytest

from polyquo import ParseError
from polyquo.documents import (
    PolyDocument,
    build_ring,
    emit_document,
    parse_document,
    poly_payload,
    to_poly,
)


def random_document(rng):
    kind = rng.choice(["gfp", "matrix", "polyring", "lodo"])
    p = rng.choice([7, 127])
    desc = {"kind": kind, "p": p, "var": "x"}
    if kind == "matrix":
        desc["n"] = rng.randrange(1, 4)
    if kind in ("polyring", "lodo"):
        desc["coeff_var"] = "y"
        desc["var"] = "D" if kind == "lodo" else "x"

    def coeff():
        if kind == "gfp":
            return rng.randrange(p)
        if kind == "matrix":
            n = desc["n"]
            return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        return [rng.randrange(p) for _ in range(rng.randrange(0, 5))]

    polys = {
        name: [coeff() for _ in range(rng.randrange(0, 6))]
        for name in ("u", "v")
    }
    return PolyDocument(ring=desc, polys=polys)


class TestRoundTrip:
    def test_parse_emit_identity(self):
        rng = random.Random(80)
        for _ in range(60):
            doc = random_document(rng)
            again = parse_document(emit_document(doc))
            assert again == doc

    def test_extra_fields_survive_emit_and_are_ignored_by_parse(self):
        rng = random.Random(81)
        doc = random_document(rng)
        text = emit_document(doc, extra={"result": {"residual_ok": True}})
        data = json.loads(text)
        assert data["result"]["residual_ok"] is True
        assert parse_document(text) == doc


class TestValidation:
    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            parse_document("{not json")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_document('{"ring": {"kind": "float", "p": 7}, "polys": {}}')

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ParseError):
            parse_document('{"ring": {"kind": "gfp", "p": 7}, "polys": {"v": [9]}}')
        with pytest.raises(ParseError):
            parse_document('{"ring": {"kind": "gfp", "p": 7}, "polys": {"v": [-1]}}')

    def test_rejects_non_prime_or_large_modulus(self):
        for p in (4, 1, 2**31 - 2, 2**31 + 11, "7"):
            text = json.dumps({"ring": {"kind": "gfp", "p": p}, "polys": {}})
            with pytest.raises(ParseError):
                parse_document(text)
        parse_document(json.dumps({"ring": {"kind": "gfp", "p": 2**31 - 1}, "polys": {}}))

    def test_rejects_bool_dimension_and_non_string_names(self):
        for ring in (
            {"kind": "matrix", "p": 7, "n": True},
            {"kind": "gfp", "p": 7, "var": [1]},
            {"kind": "lodo", "p": 7, "var": 3},
            {"kind": "polyring", "p": 7, "coeff_var": None},
        ):
            with pytest.raises(ParseError):
                parse_document(json.dumps({"ring": ring, "polys": {}}))

    def test_rejects_ragged_matrix(self):
        text = json.dumps(
            {
                "ring": {"kind": "matrix", "p": 7, "n": 2},
                "polys": {"v": [[[1, 2], [3]]]},
            }
        )
        with pytest.raises(ParseError):
            parse_document(text)

    def test_rejects_missing_polys(self):
        with pytest.raises(ParseError):
            parse_document('{"ring": {"kind": "gfp", "p": 7}}')


class TestMaterialization:
    def test_poly_payload_round_trip_all_kinds(self):
        rng = random.Random(82)
        for _ in range(40):
            doc = random_document(rng)
            ctx = build_ring(doc.ring)
            for name in doc.polys:
                p = to_poly(doc, name, ctx)
                payload = poly_payload(p)
                # payload is the normalized form of the document's entry
                reparsed = to_poly(
                    PolyDocument(ring=doc.ring, polys={name: payload}), name, ctx
                )
                assert reparsed == p

    def test_missing_polynomial_name(self):
        doc = parse_document('{"ring": {"kind": "gfp", "p": 7}, "polys": {}}')
        with pytest.raises(ParseError):
            to_poly(doc, "u")
