"""Certificate data model and the versioned JSON wire format."""
import json
from fractions import Fraction

import pytest

from singvec import (
    Box,
    Certificate,
    ConstructionSpec,
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
from singvec.certificates import (
    box_from_json,
    box_to_json,
    power_from_json,
    power_to_json,
)

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
    assert box_from_json(box_to_json(box)) == box
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


def test_certificate_version_gate():
    cert = construct(small_spec())
    obj = json.loads(cert.dumps())
    obj["version"] = 2
    with pytest.raises(SchemaError) as err:
        certificate_from_json(obj)
    assert "unsupported certificate version" in str(err.value)


def test_certificate_malformed():
    cert = construct(small_spec())
    obj = json.loads(cert.dumps())
    del obj["steps"][0]["p"]
    with pytest.raises(SchemaError) as err:
        certificate_from_json(obj)
    assert "malformed certificate" in str(err.value)
    with pytest.raises(SchemaError):
        certificate_from_json("just a string")


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
