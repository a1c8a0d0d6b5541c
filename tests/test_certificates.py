"""Certificate data model and the versioned JSON wire format."""
import hashlib
import json
import math
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

from singvec import (
    Box,
    Certificate,
    ConstructionSpec,
    Cylinder,
    DigitSystem,
    NormSpec,
    PhiSpec,
    PowerValue,
    ProductSet,
    RatInterval,
    SchemaError,
    UsageError,
    certificate_from_json,
    certificate_loads,
    construct,
    default_avoidance_heights,
)
from singvec import digitsets
from singvec.certificates import box_from_json, power_from_json, power_to_json
from singvec.exact import _EXACT, _to_decimal, known_gcd
from singvec.verifier import verify_certificate

from helpers import digit_limit

F = Fraction
THIRDS = DigitSystem(3, (0, 2))
PRODUCT = ProductSet((THIRDS, THIRDS))


def small_spec(steps=2, **kw):
    return ConstructionSpec(
        product=PRODUCT,
        norm=NormSpec("sup"),
        phi=PhiSpec("pow", exponent=F(5)),
        steps=steps,
        **kw,
    )


# -- decay bounds --------------------------------------------------------


def test_phi_pow():
    phi = PhiSpec("pow", exponent=F(5))
    assert phi.value_at(F(2)) == F(1, 32)
    assert phi.value_at(PowerValue(4, F(1, 2))) == F(1, 32)
    v = phi.value_at(PowerValue(2, F(1, 2)))
    assert v == PowerValue(2, F(-5, 2))
    with pytest.raises(UsageError):
        PhiSpec("pow", exponent=F(0))
    with pytest.raises(UsageError):
        PhiSpec("pow")
    with pytest.raises(UsageError):
        PhiSpec("exp", exponent=F(1))


def test_phi_table():
    phi = PhiSpec("table", rows=((F(1), F(1, 2)), (F(10), F(1, 100))))
    assert phi.value_at(F(1, 2)) == F(1, 2)  # clamps below first row
    assert phi.value_at(F(1)) == F(1, 2)
    assert phi.value_at(F(5)) == F(1, 2)
    assert phi.value_at(F(10)) == F(1, 100)
    assert phi.value_at(F(1000)) == F(1, 100)
    with pytest.raises(UsageError):
        PhiSpec("table", rows=((F(10), F(1)), (F(1), F(2))))
    with pytest.raises(UsageError):
        PhiSpec("table", rows=((F(1), F(1)), (F(2), F(2))))
    with pytest.raises(UsageError):
        PhiSpec("table", rows=((F(1), F(0)),))
    with pytest.raises(UsageError):
        PhiSpec("table")


def test_phi_parse_and_json():
    for text, phi in (
        ("pow:7/2", PhiSpec("pow", exponent=F(7, 2))),
        ("table:1=1/3,4=1/9",
         PhiSpec("table", rows=((F(1), F(1, 3)), (F(4), F(1, 9))))),
    ):
        assert PhiSpec.parse(text) == phi
        assert PhiSpec.from_json(phi.to_json()) == phi
    with pytest.raises(UsageError):
        PhiSpec.parse("banana")
    with pytest.raises(UsageError):
        PhiSpec.parse("table:nope")
    with pytest.raises(SchemaError):
        PhiSpec.from_json({"kind": "banana"})


# -- wire helpers --------------------------------------------------------


def test_power_wire():
    assert power_to_json(F(3, 4)) == "3/4"
    assert power_to_json(PowerValue(9, F(1, 2))) == "3"
    irr = PowerValue(8, F(1, 2), F(3, 2))
    blob = power_to_json(irr)
    assert blob == {"base": "8", "exp": "1/2", "coef": "3/2"}
    assert power_from_json(blob) == irr
    assert power_from_json("3/4") == PowerValue(F(3, 4))
    with pytest.raises(SchemaError):
        power_from_json([1, 2])


def test_box_wire():
    box = Box((RatInterval(F(0), F(1, 3)), RatInterval(F(2, 9), F(1))))
    assert box_from_json([["0", "1/3"], ["2/9", "1"]]) == box
    with pytest.raises(SchemaError):
        box_from_json([])


# -- construction spec ---------------------------------------------------


def test_default_avoidance_heights():
    assert default_avoidance_heights(4) == (3, 4, 5, 6)
    assert default_avoidance_heights(0) == ()


def test_spec_validation():
    spec = small_spec()
    assert spec.dim == 2
    assert spec.avoidance_heights == (3, 4)
    with pytest.raises(UsageError):
        small_spec(steps=0)
    with pytest.raises(UsageError):
        small_spec(max_depth=0)
    with pytest.raises(UsageError):
        small_spec(avoidance_heights=(3,))
    with pytest.raises(UsageError):
        small_spec(avoidance_heights=(4, 3))
    with pytest.raises(UsageError):
        small_spec(avoidance_heights=(0, 1))
    with pytest.raises(UsageError):
        ConstructionSpec(
            product=PRODUCT,
            norm=NormSpec("weighted", (F(1, 3), F(1, 3), F(1, 3))),
            phi=PhiSpec("pow", exponent=F(5)),
            steps=1,
        )


def test_spec_json_round_trip():
    spec = small_spec(steps=3, max_depth=40)
    assert ConstructionSpec.from_json(spec.to_json()) == spec


# -- whole certificates --------------------------------------------------


def test_certificate_round_trip_bytes():
    cert = construct(small_spec())
    text = cert.dumps()
    again = certificate_loads(text)
    assert again.dumps() == text
    assert again.spec == cert.spec
    assert again.final_box == cert.final_box
    assert [s.to_json() for s in again.steps] == [s.to_json() for s in cert.steps]


def test_final_box_written_and_read_on_its_own():
    # dumps writes the last step's box again, as a list of its own
    cert = construct(small_spec())
    blob = cert.to_json()
    assert blob["final_box"] == blob["steps"][-1]["box"]
    blob["final_box"][0][0] = "0"
    assert blob["steps"][-1]["box"][0][0] != "0"
    # the reader judges a final box other than the last step's on its
    # own, against that step's hull, and records the verdict
    blob = json.loads(cert.dumps())
    blob["final_box"] = [["0", "1"], ["1/3", "1/2"]]
    again = certificate_from_json(blob)
    assert again.false_boxes == (None,)
    assert again.final_box == again.steps[-1].box == cert.steps[-1].box
    side = again.steps[-1].box.sides[1]
    blob["final_box"][1] = [f" {side.lo}", str(side.hi)]
    blob["final_box"][0] = blob["steps"][-1]["box"][0]
    assert certificate_from_json(blob).false_boxes == ()


def test_certificate_with_no_step_reads_back():
    # with no step, to_json writes [] as the final box; the reader takes
    # it, and the verifier reports the missing steps
    blank = Certificate(small_spec(), (), ())
    again = certificate_loads(blank.dumps())
    assert again.steps == () and again.final_box is None
    assert again.dumps() == blank.dumps()
    report = verify_certificate(again)
    assert report.failures == ("certificate has 0 steps, its spec asks for 2",)
    # any other final box is still read as a box, and a malformed one
    # is no certificate
    blob = blank.to_json()
    blob["final_box"] = [["0", "1"], ["0", "1"]]
    assert certificate_from_json(blob).steps == ()
    for final_box in ([[]], [["0"]], {}, "x"):
        blob["final_box"] = final_box
        with pytest.raises(SchemaError):
            certificate_from_json(blob)


def test_loaded_certificate_dumps_the_boxes_of_its_cylinders():
    # a loaded certificate holds no box: it writes its cylinders' hulls,
    # so a valid file comes back byte for byte and a tampered box does
    # not come back at all
    cert = construct(small_spec(3))
    text = cert.dumps()
    assert certificate_loads(text).dumps() == text
    blob = json.loads(text)
    blob["steps"][1]["box"][0][1] = "1"
    blob["final_box"][0][0] = "0"
    tampered = certificate_from_json(blob)
    assert tampered.false_boxes == (1, None)
    assert tampered.dumps() == text


def test_reader_parses_each_prefix_tail_once(monkeypatch):
    # each step's prefix extends the last step's on its axis, so the
    # reader grows the last cylinder and radix-parses the tail alone:
    # the characters parsed on an axis add up to its last depth
    cert = construct(small_spec(6))
    parsed, parse = [], digitsets._digits_value

    def counted(word, base):
        parsed.append(len(word))
        return parse(word, base)

    monkeypatch.setattr(digitsets, "_digits_value", counted)
    loaded = certificate_loads(cert.dumps())
    monkeypatch.undo()
    n = PRODUCT.dim
    assert len(parsed) == n * len(loaded.steps)  # one tail per step and axis
    for j, system in enumerate(PRODUCT.factors):
        depths = [step.cylinders[j].depth for step in loaded.steps]
        assert sum(parsed[j::n]) == depths[-1] < sum(depths)
        for built, step in zip(cert.steps, loaded.steps):
            cyl, whole = step.cylinders[j], Cylinder(system, step.cylinders[j].word)
            assert cyl.word == built.cylinders[j].word
            assert (cyl.value, cyl.power) == (whole.value, whole.power)


# construct --cantor 3:0,2 --cantor 3:0,2 --phi pow:5 --steps 3 with the
# first digit of step 2's first prefix flipped, the CI smoke's hostile
# file: its report, frozen from the reader that parsed every whole word
FLIPPED_FAILURES = (
    "step 2: recorded box does not match its cylinders",
    "step 2: box is not strictly inside the previous box",
    "step 3: box is not strictly inside the previous box",
    "step 1: approximation bound fails over the next box (|form| reaches "
    "8105110306037952541/1350851717672992089)",
)


def test_a_prefix_that_does_not_extend_the_last_is_read_from_the_root():
    blob = json.loads(construct(small_spec(3)).dumps())
    entry = blob["steps"][1]["cylinders"][0]
    entry["prefix"] = {"0": "2", "2": "0"}[entry["prefix"][0]] + entry["prefix"][1:]
    loaded = certificate_from_json(blob)
    for step, raw in zip(loaded.steps, blob["steps"]):
        for cyl, entry in zip(step.cylinders, raw["cylinders"]):
            whole = Cylinder(THIRDS, DigitSystem.parse_word(3, entry["prefix"]))
            assert cyl.word == whole.word
            assert (cyl.value, cyl.power) == (whole.value, whole.power)
    assert loaded.false_boxes == (1,)
    report = verify_certificate(loaded, spot_checks=())
    assert [s.ok for s in report.steps] == [False, False, False]
    assert report.failures == FLIPPED_FAILURES


# Deep certificates, each a few hundred kB to 1.6 MB: bytes frozen from a
# build whose boxes were Fraction boxes with an lcm denominator.
DEEP = {
    "twofold-sup-7": (
        2, NormSpec("sup"), "pow:5", 7,
        "047c594206ba18f0a2252cf53ccaf5ce920bcd5a91a0d6791e3f9b2d758eec26",
    ),
    "twofold-2/3,1/3-7": (
        2, NormSpec("weighted", (F(2, 3), F(1, 3))), "pow:5", 7,
        "3b06b5f0d97b87f97b4351dbd3ce69c0805f290894d9a6fe455e79f8641b4334",
    ),
    # construct --cantor 3:0,2 (four times) --steps 12, the CI smoke
    "fourfold-sup-12": (
        4, NormSpec("sup"), "pow:3", 12,
        "08dbf8c01f8c8c1437727ed39940566d6543138369e1a2868b8db9edfe54796c",
    ),
    # rational and irrational heights mixed, weights m/d with m > 1 and
    # weights 1/d, the two forms NormSpec.phi spells out
    "threefold-2/5,2/5,1/5-9": (
        3, NormSpec("weighted", (F(2, 5), F(2, 5), F(1, 5))), "pow:5", 9,
        "67b427dd2d1314fac62a8ffafeadc17045d3b623b862e8860ac1277ef191b6cf",
    ),
    "threefold-1/2,1/3,1/6-9": (
        3, NormSpec("weighted", (F(1, 2), F(1, 3), F(1, 6))), "pow:5", 9,
        "78f104d702de45e1a995d118cc2e131f059110ae736214a93fbe6382364afa8e",
    ),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_certificate_bytes_are_frozen(name):
    n, norm, phi, steps, digest = DEEP[name]
    spec = ConstructionSpec(
        product=ProductSet((THIRDS,) * n),
        norm=norm,
        phi=PhiSpec.parse(phi),
        steps=steps,
    )
    data = construct(spec).dumps().encode()
    assert hashlib.sha256(data).hexdigest() == digest
    loaded = certificate_loads(data)
    assert loaded.false_boxes == ()
    report = verify_certificate(loaded, spot_checks=())
    assert report.ok and not report.failures


@pytest.mark.parametrize("norm", [
    NormSpec("sup"), NormSpec("weighted", (F(2, 3), F(1, 3))),
], ids=["sup", "2/3,1/3"])
def test_built_and_loaded_certificates_hold_one_value_type(norm):
    # heights and bounds are PowerValues whether built or read, each
    # rational one held as its Fraction alone, so both sides hold one
    # triple per value
    spec = ConstructionSpec(PRODUCT, norm, PhiSpec.parse("pow:5"), 6)
    built = construct(spec)
    loaded = certificate_loads(built.dumps())
    values = [
        (a.phi_of_q, b.phi_of_q) for a, b in zip(built.steps, loaded.steps)
    ] + [
        (a.bound_used, b.bound_used)
        for a, b in zip(built.steps[:-1], loaded.steps[:-1])
    ]
    assert len(values) == 11
    for a, b in values:
        assert type(a) is PowerValue and type(b) is PowerValue
        assert (a.coef, a.base, a.exp) == (b.coef, b.base, b.exp)


# construct --cantor 300:0,7,299 --cantor 40:1,39 --steps 4, the CI
# smoke's second file: prefixes in the comma form, words past Latin-1
MIXED_BASES_DIGEST = "a74131bca7d7b2269a8074f15784c46a7bddc2a78c59d2a7a65001d27482d89f"


def test_mixed_large_base_certificate_bytes_are_frozen():
    product = ProductSet((DigitSystem(300, (0, 7, 299)), DigitSystem(40, (1, 39))))
    spec = ConstructionSpec(product, NormSpec("sup"), PhiSpec.parse("pow:3"), 4)
    data = construct(spec).dumps().encode()
    assert hashlib.sha256(data).hexdigest() == MIXED_BASES_DIGEST
    loaded = certificate_loads(data)
    assert loaded.false_boxes == () and loaded.dumps().encode() == data
    assert "," in loaded.steps[-1].cylinders[0].prefix_str()
    assert verify_certificate(loaded).ok


def test_certificate_pipeline_builds_no_digit_tuple(monkeypatch):
    # ASCII prefixes of base <= 10 go from text to word and back with
    # no tuple of digits on the way
    def refuse(*args):
        raise AssertionError("a digit tuple was built")

    monkeypatch.setattr(Cylinder, "prefix", property(refuse))
    monkeypatch.setattr(DigitSystem, "parse_digits", staticmethod(refuse))
    text = construct(small_spec(3)).dumps()
    loaded = certificate_loads(text)
    assert loaded.dumps() == text
    assert verify_certificate(loaded, ()).ok


BASE10 = ProductSet((THIRDS, DigitSystem(10, (0, 5, 9))))


@pytest.mark.parametrize(
    "axis, text, outcome",
    [
        # control characters that look like the word characters of 0, 2
        (0, "\x00\x02", "schema"),
        (1, "\x00\x02", "schema"),
        (0, "\x1c0200", "ok"),  # a separator str.strip removes, as before
        (0, "\u0663", "schema"),  # a Unicode 3, not an allowed digit
        (1, "\u0663", "schema"),
        (0, "1", "schema"),
        (1, "7", "schema"),
        (1, "9,-1", "schema"),
        (1, "1114112", "schema"),
        (0, "", "report"),
        (1, "", "report"),
        (1, "5,0,5", "ok"),  # the comma form on base 10
        (1, "\uff19", "report"),  # a fullwidth 9, read by int()
    ],
)
def test_hostile_prefix_text_keeps_its_reader_outcome(axis, text, outcome):
    spec = ConstructionSpec(BASE10, NormSpec("sup"), PhiSpec.parse("pow:3"), 2)
    blob = json.loads(construct(spec).dumps())
    assert [c["prefix"] for c in blob["steps"][0]["cylinders"]] == ["0200", "505"]
    blob["steps"][0]["cylinders"][axis]["prefix"] = text
    if outcome == "schema":
        with pytest.raises(SchemaError):
            certificate_loads(json.dumps(blob))
        return
    report = verify_certificate(certificate_loads(json.dumps(blob)), ())
    assert report.ok == (outcome == "ok")


def test_a_digit_no_character_holds_is_a_schema_error():
    obj = json.loads(construct(small_spec()).dumps())
    obj["spec"]["product"][0]["base"] = 2 * 10**6
    obj["spec"]["product"][0]["digits"] = [0, 1114112]
    with pytest.raises(SchemaError, match="below 1114112"):
        certificate_from_json(obj)


def test_loaded_box_is_its_hull_only_when_it_spells_it():
    cert = construct(small_spec(3))
    obj = json.loads(cert.dumps())
    loaded = certificate_from_json(obj)
    assert loaded.false_boxes == ()
    lo = loaded.steps[1].box.sides[0].lo
    # the same value over a denominator the hull's does not divide, or
    # padded with blanks, is read as it stands, and is equal
    prime = 1_000_003
    for text in (f"{prime * lo.numerator}/{prime * lo.denominator}", f" {lo} "):
        obj["steps"][1]["box"][0][0] = text
        again = certificate_from_json(obj)
        assert again.false_boxes == ()
        assert verify_certificate(again, spot_checks=()).ok
    # another value is read as it stands, and fails integrity as before
    obj["steps"][1]["box"][0][0] = f"{lo.numerator - 1}/{lo.denominator}"
    report = verify_certificate(certificate_from_json(obj), spot_checks=())
    assert not report.steps[1].integrity
    assert "step 2: recorded box does not match its cylinders" in report.failures
    # an end whose denominator does not divide the hull's is not matched
    # by the quotient alone: hi/q, with den // q = 1, is another value
    obj["steps"][1]["box"][0][0] = str(lo)
    _, hi, den = loaded.steps[1].cylinders[0].hull_ends()
    obj["steps"][1]["box"][0][1] = f"{hi}/{den // 2 + 1}"
    report = verify_certificate(certificate_from_json(obj), spot_checks=())
    assert "step 2: recorded box does not match its cylinders" in report.failures
    obj["steps"][1]["box"][0][0] = f"{lo.numerator}/0"
    with pytest.raises(SchemaError, match="zero denominator"):
        certificate_from_json(obj)


def test_box_text_other_than_canonical_loads_through_box_from_json():
    cert = construct(small_spec(3))
    obj = json.loads(cert.dumps())
    loaded = certificate_from_json(obj)
    assert loaded.false_boxes == ()
    report = verify_certificate(loaded, spot_checks=())
    assert report.ok
    lo_text = obj["steps"][1]["box"][0][0]
    lo = F(lo_text)
    _, _, den = loaded.steps[1].cylinders[0].hull_ends()
    # a factor of the hull's den left in the end: still over a divisor
    f = next(p for p in (2, 3) if den // lo.denominator % p == 0)
    for text in ("0" + lo_text, f"{f * lo.numerator}/{f * lo.denominator}"):
        assert F(text) == lo and text != lo_text
        obj["steps"][1]["box"][0][0] = text
        again = certificate_from_json(obj)
        assert again.false_boxes == ()
        assert verify_certificate(again, spot_checks=()) == report
    # a lower end one step of g off, with the upper end written from it
    # as dumps would: only the parse of the numerator tells them apart
    cyl = loaded.steps[1].cylinders[0]
    g = math.prod(p**m for p, m in known_gcd(cyl.hull_ends()[0], cyl.den_factors()))
    off = _EXACT.multiply(Decimal(lo.numerator - 1), _to_decimal(g))
    obj["steps"][1]["box"][0] = [f"{lo.numerator - 1}/{lo.denominator}",
                                 cyl._text(off)[1]]
    assert not cyl.spells(obj["steps"][1]["box"][0])
    again = certificate_from_json(obj)
    assert again.false_boxes == (1,)
    report = verify_certificate(again, spot_checks=())
    assert "step 2: recorded box does not match its cylinders" in report.failures


def test_dumps_writes_no_int_repr():
    # int.__repr__ refuses a 10**5-digit pin under a guard of 640 digits;
    # json.dumps with no guard is the oracle for the bytes
    cert = construct(small_spec())
    pin = 10**100_000 - 3
    huge = replace(cert, steps=cert.steps[:-1] + (
        replace(cert.steps[-1], p=pin, q=pin + 10),
    ))
    with digit_limit(640):
        text = huge.dumps()
        with pytest.raises(ValueError):
            repr(pin)
    with digit_limit(0):
        assert text == json.dumps(huge.to_json(), indent=2) + "\n"


def test_huge_pins_round_trip_under_the_default_digit_guard():
    # json writes and reads a step's p and q as bare integers; pins of
    # 5001 digits exceed the interpreter's default guard of 4300
    cert = construct(small_spec())
    p, q = 10**5000 - 1, 10**5000 + 7
    huge = replace(cert, steps=cert.steps[:-1] + (
        replace(cert.steps[-1], p=p, q=q),
    ))
    with digit_limit(4300):
        text = huge.dumps()
        again = certificate_loads(text)
        assert again.dumps() == text
        assert sys.get_int_max_str_digits() == 4300
    assert (again.steps[-1].p, again.steps[-1].q) == (p, q)
    assert again.final_box == cert.final_box
    with digit_limit(0):
        assert f'"p": {p},\n' in text and f'"q": {q},\n' in text


def test_certificate_version_gate():
    cert = construct(small_spec())
    obj = json.loads(cert.dumps())
    obj["version"] = 2
    with pytest.raises(SchemaError) as err:
        certificate_from_json(obj)
    assert "unsupported certificate version" in str(err.value)


def test_reader_refuses_a_rescan_over_budget_naming_its_step():
    # the spec checks no walk; the verifier would walk step 2's hull at
    # height 3000, and the walk's own charge refuses that
    obj = json.loads(construct(small_spec()).dumps())
    obj["spec"]["avoidance_heights"] = [3, 3000]
    assert ConstructionSpec.from_json(obj["spec"]).avoidance_heights == (3, 3000)
    with pytest.raises(SchemaError, match="step 2: plane walk at height 3000 is over budget"):
        certificate_from_json(obj)


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_certificate_version_must_be_a_json_int(version):
    # True == 1 and 1.0 == 1 in Python, but the schema takes only ints
    cert = construct(small_spec())
    obj = json.loads(cert.dumps())
    obj["version"] = version
    with pytest.raises(SchemaError) as err:
        certificate_from_json(obj)
    assert "expected an integer" in str(err.value)


def test_certificate_malformed():
    cert = construct(small_spec())
    obj = json.loads(cert.dumps())
    del obj["steps"][0]["p"]
    with pytest.raises(SchemaError) as err:
        certificate_from_json(obj)
    assert "malformed certificate" in str(err.value)
    with pytest.raises(SchemaError):
        certificate_from_json("just a string")


@pytest.mark.parametrize(
    "path, edit",
    [
        (("steps", 0, "k"), lambda k: True),
        (("steps", 0, "p"), float),
        (("avoided", 0, "m0"), float),
        (("avoided", 0, "nu"), lambda nu: 1.5),
        (("spec", "steps"), float),
        (("spec", "max_depth"), lambda depth: True),
        (("spec", "product", 0, "base"), float),
        (("spec", "product", 0, "digits"), lambda ds: [ds[0], float(ds[1])]),
        (("spec", "product", 0, "offset"), lambda offset: 0.0),
        (("spec", "product", 0, "scale"), lambda scale: 1.0),
    ],
    ids=[
        "k-bool", "p-float", "m0-float", "nu-float", "steps-float",
        "max-depth-bool", "base-float", "digit-float", "offset-float",
        "scale-float",
    ],
)
def test_certificate_numbers_keep_their_json_type(path, edit):
    # each edit used to load through int() or str(), and then certify
    obj = json.loads(construct(small_spec()).dumps())
    certificate_from_json(obj)
    *head, last = path
    node = obj
    for key in head:
        node = node[key]
    node[last] = edit(node[last])
    with pytest.raises(SchemaError):
        certificate_from_json(obj)


def test_certificate_cylinder_count_gate():
    cert = construct(small_spec())
    obj = json.loads(cert.dumps())
    obj["steps"][0]["cylinders"].append({"prefix": "0"})
    with pytest.raises(SchemaError):
        certificate_from_json(obj)


def test_certificate_not_json():
    with pytest.raises(SchemaError) as err:
        certificate_loads("{this is not json")
    assert "not JSON" in str(err.value)


def test_dumps_has_no_floats():
    cert = construct(small_spec())
    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
    walk(json.loads(cert.dumps()))
