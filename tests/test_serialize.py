import json
from dataclasses import replace
from fractions import Fraction

import pytest

from torsod import (GenerationCertificate, canned_fan, generation_certificate,
                    verify_certificate)
from torsod.errors import SchemaError
from torsod.serialize import (
    canonical_json_bytes,
    certificate_from_obj,
    certificate_to_obj,
    datum_from_obj,
    datum_to_obj,
    decode_int,
    encode_int,
    fan_from_obj,
    fan_to_obj,
    fraction_str,
    load_json,
    sha256_hex,
)


def test_int_round_trip_and_bigints():
    assert encode_int(7) == 7
    assert decode_int(7, "x") == 7
    big = 1 << 80
    assert encode_int(big) == str(big)
    assert decode_int(str(big), "x") == big
    assert decode_int(encode_int(-big), "x") == -big
    with pytest.raises(SchemaError):
        decode_int(True, "x")
    with pytest.raises(SchemaError):
        decode_int("12.5", "x")
    with pytest.raises(SchemaError):
        decode_int(3.0, "x")


def test_fraction_strings():
    assert fraction_str(Fraction(-1, 2)) == "-1/2"
    assert fraction_str(Fraction(3)) == "3"


def test_canonical_json_is_stable():
    a = canonical_json_bytes({"b": [1, 2], "a": "x"})
    b = canonical_json_bytes({"a": "x", "b": [1, 2]})
    assert a == b
    assert a.endswith(b"\n")
    assert sha256_hex(a) == sha256_hex(b)


def test_datum_round_trip(a1_half):
    obj = datum_to_obj(a1_half.datum)
    assert set(obj) == {"n", "alpha", "rays", "a", "r"}
    assert datum_from_obj(obj) == a1_half.datum
    with pytest.raises(SchemaError):
        datum_from_obj({**obj, "extra": 1})
    missing = dict(obj)
    del missing["r"]
    with pytest.raises(SchemaError):
        datum_from_obj(missing)
    # the redundant n/alpha fields must agree with the arrays
    with pytest.raises(SchemaError):
        datum_from_obj({**obj, "alpha": obj["alpha"] + 1})
    with pytest.raises(SchemaError):
        datum_from_obj({**obj, "n": obj["n"] + 1})


def test_fan_round_trip():
    fan = canned_fan("stacky-p1")
    obj = fan_to_obj(fan)
    assert obj["lattice_rank"] == 1
    assert obj["rays"] == [{"v": [1], "r": 2}, {"v": [-1], "r": 1}]
    assert fan_from_obj(obj) == fan
    with pytest.raises(SchemaError):
        fan_from_obj({**obj, "surprise": True})
    with pytest.raises(SchemaError):
        fan_from_obj({**obj, "rays": [[1], [-1]]})


def test_certificate_round_trip(a1_half):
    cert = generation_certificate(a1_half.datum, [(1, 1), (-2, 0)])
    obj = certificate_to_obj(cert)
    assert certificate_from_obj(obj) == cert
    # canonical serialization of equal certificates is byte-identical
    again = generation_certificate(a1_half.datum, [(1, 1), (-2, 0)])
    assert (canonical_json_bytes(certificate_to_obj(again))
            == canonical_json_bytes(obj))


def _json_round_trip(obj):
    return json.loads(canonical_json_bytes(obj))


def test_certificate_json_stores_integer_W(a1_half):
    d = a1_half.datum
    obj = _json_round_trip(certificate_to_obj(
        generation_certificate(d, [(1, 1)])))
    # R = 2 is not stored: the root L|1,1|0 has w = 1, stored as W = 2
    root = next(nd for nd in obj["nodes"] if nd["key"] == "L|1,1|0")
    assert root["W"] == 2 and "w" not in root
    # an edited W still loads, and the verifier reports it
    root["W"] = 3
    back = certificate_from_obj(obj)
    codes = [v[0] for v in verify_certificate(d, back).violations]
    assert codes == ["W_MISMATCH"]


def test_certificate_json_refuses_the_rational_w(a1_half):
    obj = _json_round_trip(certificate_to_obj(
        generation_certificate(a1_half.datum, [(1, 1)])))
    node = obj["nodes"][0]
    node["w"] = "1/2"
    with pytest.raises(SchemaError, match=r"unknown field\(s\) \['w'\]"):
        certificate_from_obj(obj)
    del node["W"]
    with pytest.raises(SchemaError, match=r"missing field\(s\) \['W'\]"):
        certificate_from_obj(obj)


def test_certificate_json_big_W(a1_half):
    cert = generation_certificate(a1_half.datum, [(1, 1)])
    big = (1 << 63) + 5
    nodes = tuple(replace(nd, W=big) if nd.key == "L|1,1|0" else nd
                  for nd in cert.nodes)
    huge = GenerationCertificate(targets=cert.targets, nodes=nodes)
    obj = _json_round_trip(certificate_to_obj(huge))
    assert next(nd["W"] for nd in obj["nodes"]
                if nd["key"] == "L|1,1|0") == str(big)
    assert certificate_from_obj(obj) == huge


def test_load_json_errors(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{broken")
    with pytest.raises(SchemaError):
        load_json(str(p))
    p.write_text('{"rays": []}')
    obj, raw = load_json(str(p))
    assert obj == {"rays": []}
    assert raw == b'{"rays": []}'
