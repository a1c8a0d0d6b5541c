"""Certificate verification: honest certificates pass, every tampered
claim is caught by the specific check that owns it."""
import dataclasses
import json
import time
from fractions import Fraction

import pytest

from singvec import (
    ConstructionSpec,
    Cylinder,
    DigitSystem,
    EmptyRange,
    NormSpec,
    PhiSpec,
    PowerValue,
    ProductSet,
    RatInterval,
    UsageError,
    certificate_from_json,
    certificate_loads,
    construct,
    default_spot_checks,
    verify_certificate,
)
from singvec import Box, engine, verifier
from singvec.exact import rat, rat_str

F = Fraction
THIRDS = DigitSystem(3, (0, 2))
PRODUCT = ProductSet((THIRDS, THIRDS))


def build(steps=3):
    return construct(
        ConstructionSpec(
            product=PRODUCT,
            norm=NormSpec("sup"),
            phi=PhiSpec("pow", exponent=F(5)),
            steps=steps,
        )
    )


@pytest.fixture(scope="module")
def cert():
    return build()


@pytest.fixture()
def blob(cert):
    return json.loads(cert.dumps())


def reload(obj):
    return certificate_from_json(obj)


def test_fresh_certificate_verifies(cert):
    report = verify_certificate(cert, spot_checks=(9,))
    assert report.ok
    assert not report.failures
    assert all(
        s.integrity and s.nesting and s.phi_increase and s.anchor_in_box
        and s.bound_chain and s.avoidance
        for s in report.steps
    )
    (spot,) = report.spot_checks
    assert spot.ok
    assert spot.t == 9
    assert spot.value.hi <= spot.bound


def test_spot_check_falls_back_to_the_exact_scan(cert, monkeypatch):
    # an enclosure that straddles the bound at every precision leaves
    # the check to psi, the exact scan of the midpoint: it still holds,
    # and its value is a point inside the true enclosure
    norm = cert.spec.norm
    midpoint = tuple(c.midpoint() for c in cert.steps[-1].cylinders)
    true = verifier.psi_enclosure(norm, midpoint, 9)
    bound = cert.spec.phi.value_at(F(9)).as_fraction()
    calls = []

    def straddling(norm, x, t, bits=128):
        calls.append(bits)
        return RatInterval(F(0), 2 * bound)

    monkeypatch.setattr(verifier, "psi_enclosure", straddling)
    report = verify_certificate(cert, spot_checks=(9,))
    assert report.ok and calls[0] == 128 and calls[-1] == 1024
    (spot,) = report.spot_checks
    assert spot.ok and spot.value.lo == spot.value.hi <= bound
    assert true.lo <= spot.value.lo <= true.hi


def test_default_spot_checks_frozen(cert):
    # the third pin's height is far past the engine's scan budget
    assert default_spot_checks(cert) == (F(2187),)


@pytest.mark.parametrize(
    "factors, norm, steps, expected",
    [
        (2, NormSpec("sup"), 6, (F(2187),)),
        # the height 6561 of the second pin is rational, but its box scan
        # takes about 8.6 * 10**7 steps
        (3, NormSpec("sup"), 4, ()),
        # every recorded height past the first pin is irrational
        (2, NormSpec("weighted", (F(2, 3), F(1, 3))), 6, ()),
        (2, NormSpec("weighted", (F(1, 3), F(2, 3))), 6, ()),
    ],
    ids=["sup-twofold", "sup-threefold", "weighted-2/3", "weighted-1/3"],
)
def test_default_spot_checks_fit_the_scan_budget(factors, norm, steps, expected):
    cert = construct(
        ConstructionSpec(
            product=ProductSet((THIRDS,) * factors),
            norm=norm,
            phi=PhiSpec("pow", exponent=F(5)),
            steps=steps,
        )
    )
    assert default_spot_checks(cert) == expected
    report = verify_certificate(cert)
    assert report.ok
    assert tuple(s.t for s in report.spot_checks) == expected


def test_default_spot_checks_rule_out_huge_heights_by_size(monkeypatch):
    # caps of 2**5000 would be 2**(5000 * 4/3) and 2**(5000 * 2/3): the
    # size of the height alone puts its scan over budget, no cap is taken
    cert = construct(
        ConstructionSpec(
            product=PRODUCT,
            norm=NormSpec("weighted", (F(2, 3), F(1, 3))),
            phi=PhiSpec("pow", exponent=F(5)),
            steps=3,
        )
    )
    caps, power_floor = [], engine.power_floor

    def counted(t, e):
        caps.append(t)
        return power_floor(t, e)

    monkeypatch.setattr(engine, "power_floor", counted)
    heights = (PowerValue(9), PowerValue(2**5000), PowerValue(F(3**9000, 7)))
    steps = tuple(
        dataclasses.replace(step, phi_of_q=h) for step, h in zip(cert.steps, heights)
    )
    cert = dataclasses.replace(cert, steps=steps)
    assert default_spot_checks(cert) == ()
    assert caps == []
    # a height the budget admits still takes its exact caps
    cert = dataclasses.replace(
        cert, steps=(steps[0], dataclasses.replace(steps[1], phi_of_q=PowerValue(9)))
    )
    assert default_spot_checks(cert) == (F(9),)
    assert caps == [F(9), F(9)]


def test_explicit_spot_threshold_is_sized_before_any_cap(monkeypatch):
    # a cap of 2**5000 under (2/3, 1/3) would be 2**(5000 * 4/3)
    cert = construct(
        ConstructionSpec(
            product=PRODUCT,
            norm=NormSpec("weighted", (F(2, 3), F(1, 3))),
            phi=PhiSpec("pow", exponent=F(5)),
            steps=3,
        )
    )
    made, power_floor = [], engine.power_floor

    def counted(t, e):
        made.append(t)
        return power_floor(t, e)

    monkeypatch.setattr(engine, "power_floor", counted)
    for t in (2**5000, F(3**9000, 7)):
        with pytest.raises(UsageError, match="over budget"):
            verify_certificate(cert, spot_checks=(9, t))
    assert made == [9, 9, 9, 9]
    # a threshold whose box holds no nonzero vector is refused too
    with pytest.raises(EmptyRange):
        verify_certificate(cert, spot_checks=(F(1, 2),))


def pipeline_without_box_sides(monkeypatch, norm):
    """The report of construct, dumps, certificate_loads and
    verify_certificate on the 3-step certificate under norm, with
    Box.sides refused: every check reads digits, hull ends and scaled
    boxes, and the spot checks read the cylinders' midpoints."""
    def refused(*args):
        raise AssertionError("box sides read on the certificate path")

    monkeypatch.setattr(Box, "sides", property(refused))
    spec = ConstructionSpec(
        product=PRODUCT, norm=norm, phi=PhiSpec("pow", exponent=F(5)), steps=3
    )
    report = verify_certificate(certificate_loads(construct(spec).dumps()))
    assert report.ok and len(report.steps) == 3
    return report


def test_weighted_pipeline_reads_no_box_sides(monkeypatch):
    pipeline_without_box_sides(monkeypatch, NormSpec("weighted", (F(2, 3), F(1, 3))))


def test_sup_pipeline_with_a_spot_check_reads_no_box_sides(monkeypatch):
    report = pipeline_without_box_sides(monkeypatch, NormSpec("sup"))
    assert [spot.t for spot in report.spot_checks] == [2187]


def test_bound_chain_reads_the_reduced_pin(blob):
    # 4/18 is the plane 9 x_1 = 2 of 2/9, so its form reaches as far
    blob["steps"][0]["bound_used"] = rat_str(rat(blob["steps"][0]["bound_used"]) / 10**40)
    reduced = verify_certificate(reload(blob), spot_checks=())
    blob["steps"][0]["p"], blob["steps"][0]["q"] = 4, 18
    report = verify_certificate(reload(blob), spot_checks=())
    message = (
        "step 1: approximation bound fails over the next box "
        "(|form| reaches 7/1350851717672992089)"
    )
    assert message in reduced.failures and message in report.failures
    assert not reduced.steps[0].bound_chain and not report.steps[0].bound_chain


def test_spot_check_below_covered_range_fails(cert):
    # the chain argument starts at the first pin's height (9); at t=3
    # the box's points genuinely exceed the decay bound
    report = verify_certificate(cert, spot_checks=(3,))
    assert not report.ok
    (spot,) = report.spot_checks
    assert not spot.ok
    assert spot.value.lo > spot.bound
    assert any("spot check at t=3" in f for f in report.failures)


def test_tamper_bound_lowered(blob):
    original = rat(blob["steps"][0]["bound_used"])
    blob["steps"][0]["bound_used"] = rat_str(original / 2)
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert not report.steps[0].bound_chain
    assert any("does not equal the decay bound" in f for f in report.failures)
    assert report.spot_checks == ()  # failures skip the spot scan


def test_tamper_bound_raised(blob):
    original = rat(blob["steps"][0]["bound_used"])
    blob["steps"][0]["bound_used"] = rat_str(original * 10**9)
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert not report.steps[0].bound_chain


def test_tamper_steps_reordered(blob):
    blob["steps"][0], blob["steps"][1] = blob["steps"][1], blob["steps"][0]
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert not report.steps[0].integrity
    assert any("out of order" in f for f in report.failures)


def test_tamper_height_value(blob):
    blob["steps"][1]["phi_of_q"] = "2188"
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert not report.steps[1].integrity
    assert any(
        "height value does not match the norm" in f for f in report.failures
    )


def test_tamper_pin_not_reduced(blob):
    blob["steps"][0]["p"] = 4
    blob["steps"][0]["q"] = 18
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert any("not in lowest terms" in f for f in report.failures)


def test_tamper_final_box(blob):
    blob["final_box"][0][1] = "1"
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert any("final box does not match" in f for f in report.failures)


def test_tamper_box_inconsistent_with_cylinders(blob):
    blob["steps"][2]["box"][0][1] = "1"
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert not report.steps[2].integrity
    assert any(
        "does not match its cylinders" in f for f in report.failures
    )


def test_tamper_last_step_extra_bound(blob):
    blob["steps"][2]["bound_used"] = "1/2"
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert any("must not carry a bound" in f for f in report.failures)


def test_tamper_missing_bound(blob):
    blob["steps"][0]["bound_used"] = None
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert any("missing approximation bound" in f for f in report.failures)


def test_deleting_avoided_entries_alone_is_harmless(blob):
    # the avoided list is a trace; soundness comes from re-scanning all
    # low planes against the boxes, so dropping entries changes nothing
    blob["avoided"] = []
    report = verify_certificate(reload(blob), spot_checks=())
    assert report.ok


def test_tamper_widened_box(blob):
    # shorten the last step's prefixes and recompute its recorded box so
    # the box/cylinder integrity check stays green; the widened box must
    # then fall to the nesting, bound-chain, and avoidance checks
    blob["avoided"] = [a for a in blob["avoided"] if a["nu"] != 3]
    for entry in blob["steps"][2]["cylinders"]:
        entry["prefix"] = entry["prefix"][:3]
    cyls = [
        Cylinder(system, DigitSystem.parse_digits(3, e["prefix"]))
        for system, e in zip(PRODUCT.factors, blob["steps"][2]["cylinders"])
    ]
    wide = [list(c.hull_text()) for c in cyls]
    blob["steps"][2]["box"] = wide
    blob["final_box"] = wide
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    last = report.steps[2]
    assert last.integrity  # box matches cylinders, as arranged
    assert not last.nesting
    assert not last.avoidance
    assert not report.steps[1].bound_chain
    assert any("meets the box" in f for f in report.failures)


def test_empty_prefixes_fail_fast_with_one_rescan_message_per_step():
    # every box is the product's hull, which thousands of low planes
    # cross; the rescan must stop each step at its first crossing plane
    # instead of formatting one message per plane
    cert = construct(
        ConstructionSpec(
            product=ProductSet((THIRDS,) * 4),
            norm=NormSpec("sup"),
            phi=PhiSpec("pow", exponent=F(5)),
            steps=5,
        )
    )
    blob = json.loads(cert.dumps())
    hull = [list(Cylinder(THIRDS, ()).hull_text())] * 4
    for step in blob["steps"]:
        for entry in step["cylinders"]:
            entry["prefix"] = ""
        step["box"] = hull
    blob["final_box"] = hull
    hostile = reload(blob)
    start = time.perf_counter()
    report = verify_certificate(hostile, spot_checks=())
    assert time.perf_counter() - start < 2
    assert not any(s.avoidance for s in report.steps)
    for step in report.steps:
        rescans = [
            f for f in report.failures
            if f.startswith(f"step {step.nu}: plane ") and "at height" in f
        ]
        assert len(rescans) == 1


def test_tamper_avoided_plane_crossing(blob):
    # claim the step-3 pin plane was avoided; its anchor lies inside the
    # box, so the plane demonstrably still meets it
    step = blob["steps"][2]
    blob["avoided"].append(
        {"nu": 3, "m0": step["p"], "m": [step["q"], 0]}
    )
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert not report.steps[2].avoidance
    assert any("still meets the box" in f for f in report.failures)


def test_spot_override_accepts_multiple(cert):
    report = verify_certificate(cert, spot_checks=(9, 27, 81))
    assert report.ok
    assert [s.t for s in report.spot_checks] == [9, 27, 81]
    assert all(s.ok for s in report.spot_checks)


HUGE = 10**5000 + 1  # past the interpreter's digit guard for int -> str


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: b["steps"][0].update(nu=HUGE), "step index out of order"),
        (lambda b: b["steps"][0].update(k=HUGE), "outside 1..2"),
        (lambda b: b["avoided"][0].update(nu=HUGE), "references unknown step"),
        (lambda b: b["avoided"][0].update(m0=HUGE, m=[1, 0, 0]),
         "has wrong dimension"),
    ],
    ids=["step-nu", "step-k", "avoided-nu", "avoided-wrong-dimension"],
)
def test_huge_integers_are_reported(blob, edit, message):
    edit(blob)
    report = verify_certificate(reload(blob), spot_checks=())
    assert not report.ok
    assert any(message in f for f in report.failures)
