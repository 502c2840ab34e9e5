"""JSON schemas for data, fans, and certificates, plus canonical encoding.

Canonical bytes are sorted-key, compact-separator JSON with a trailing
newline, so equal objects always serialize identically.  Integers whose
magnitude needs more than 63 bits are written as decimal strings; the
decoders accept either form everywhere an integer is expected.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from . import errors, sod
from .extraction import ExtractionDatum, make_datum
from .oracle import StackyFan, make_fan

_INT_LIMIT = 1 << 63


def encode_int(x: int):
    return x if -_INT_LIMIT < x < _INT_LIMIT else str(x)


def decode_int(value, field: str) -> int:
    if isinstance(value, bool):
        raise errors.SchemaError(f"{field}: expected an integer, got a bool")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise errors.SchemaError(
                f"{field}: {value!r} is not a decimal integer") from None
    raise errors.SchemaError(f"{field}: expected an integer, got {value!r}")


def decode_int_list(value, field: str) -> list[int]:
    if not isinstance(value, list):
        raise errors.SchemaError(f"{field}: expected a list")
    return [decode_int(x, f"{field}[{i}]") for i, x in enumerate(value)]


def require_keys(obj, keys, what: str):
    if not isinstance(obj, dict):
        raise errors.SchemaError(f"{what}: expected a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise errors.SchemaError(f"{what}: missing field(s) {missing}")
    extra = [k for k in obj if k not in keys]
    if extra:
        raise errors.SchemaError(f"{what}: unknown field(s) {extra}")


def canonical_json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=True) + "\n").encode("ascii")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}" if fr.denominator != 1 \
        else str(fr.numerator)


# ---------------------------------------------------------------------------
# Extraction datum


def datum_to_obj(d: ExtractionDatum) -> dict:
    return {
        "n": d.n,
        "alpha": d.alpha,
        "rays": [[encode_int(x) for x in v] for v in d.rays],
        "a": [encode_int(a) for a in d.coefficients],
        "r": [encode_int(r) for r in d.orders],
    }


def datum_from_obj(obj) -> ExtractionDatum:
    require_keys(obj, ("n", "alpha", "rays", "a", "r"), "datum")
    if not isinstance(obj["rays"], list):
        raise errors.SchemaError("datum.rays: expected a list of vectors")
    rays = [decode_int_list(v, f"datum.rays[{i}]")
            for i, v in enumerate(obj["rays"])]
    coefficients = decode_int_list(obj["a"], "datum.a")
    orders = decode_int_list(obj["r"], "datum.r")
    d = make_datum(rays, coefficients, orders)
    n = decode_int(obj["n"], "datum.n")
    alpha = decode_int(obj["alpha"], "datum.alpha")
    if n != d.n or alpha != d.alpha:
        raise errors.SchemaError(
            f"datum: stated n={n}, alpha={alpha} disagree with the rays and "
            f"coefficients (derived n={d.n}, alpha={d.alpha})")
    return d


# ---------------------------------------------------------------------------
# Stacky fan


def fan_to_obj(fan: StackyFan) -> dict:
    return {
        "lattice_rank": fan.rank,
        "rays": [{"v": [encode_int(x) for x in v], "r": encode_int(r)}
                 for v, r in zip(fan.rays, fan.orders)],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def fan_from_obj(obj) -> StackyFan:
    require_keys(obj, ("lattice_rank", "rays", "max_cones"), "fan")
    rank = decode_int(obj["lattice_rank"], "fan.lattice_rank")
    if not isinstance(obj["rays"], list) or not isinstance(obj["max_cones"], list):
        raise errors.SchemaError("fan.rays and fan.max_cones must be lists")
    rays = []
    orders = []
    for i, entry in enumerate(obj["rays"]):
        require_keys(entry, ("v", "r"), f"fan.rays[{i}]")
        rays.append(decode_int_list(entry["v"], f"fan.rays[{i}].v"))
        orders.append(decode_int(entry["r"], f"fan.rays[{i}].r"))
    cones = [decode_int_list(c, f"fan.max_cones[{i}]")
             for i, c in enumerate(obj["max_cones"])]
    return make_fan(rank, rays, orders, cones)


# ---------------------------------------------------------------------------
# Generation certificates


def certificate_to_obj(cert: sod.GenerationCertificate) -> dict:
    return {
        "targets": [{"label": [encode_int(x) for x in label], "root": key}
                    for label, key in cert.targets],
        "nodes": [
            {
                "key": node.key,
                "label": [encode_int(x) for x in node.label],
                "witness": encode_int(node.witness),
                "W": encode_int(node.W),
                "kind": node.kind,
                "children": list(node.children),
                "block": node.block_key,
            }
            for node in cert.nodes
        ],
    }


def certificate_from_obj(obj) -> sod.GenerationCertificate:
    require_keys(obj, ("targets", "nodes"), "certificate")
    if not isinstance(obj["targets"], list) or not isinstance(obj["nodes"], list):
        raise errors.SchemaError("certificate.targets/nodes must be lists")
    targets = []
    for i, t in enumerate(obj["targets"]):
        require_keys(t, ("label", "root"), f"certificate.targets[{i}]")
        if not isinstance(t["root"], str):
            raise errors.SchemaError(f"certificate.targets[{i}].root: "
                                     "expected a string key")
        targets.append((tuple(decode_int_list(t["label"],
                                              f"certificate.targets[{i}].label")),
                        t["root"]))
    nodes = []
    for i, nd in enumerate(obj["nodes"]):
        what = f"certificate.nodes[{i}]"
        require_keys(nd, ("key", "label", "witness", "W", "kind",
                           "children", "block"), what)
        if not isinstance(nd["key"], str) or not isinstance(nd["kind"], str):
            raise errors.SchemaError(f"{what}: key and kind must be strings")
        if not isinstance(nd["children"], list) or not all(
                isinstance(c, str) for c in nd["children"]):
            raise errors.SchemaError(f"{what}.children: expected string keys")
        block = nd["block"]
        if block is not None and not isinstance(block, str):
            raise errors.SchemaError(f"{what}.block: expected a key or null")
        nodes.append(sod.CertificateNode(
            key=nd["key"],
            label=tuple(decode_int_list(nd["label"], f"{what}.label")),
            witness=decode_int(nd["witness"], f"{what}.witness"),
            W=decode_int(nd["W"], f"{what}.W"),
            kind=nd["kind"],
            children=tuple(nd["children"]),
            block_key=block,
        ))
    return sod.GenerationCertificate(targets=tuple(targets),
                                     nodes=tuple(nodes))


def load_json(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data), data
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise errors.SchemaError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise errors.SchemaError(f"{path}: JSON nested too deeply") from None
