"""The seeded input generator and the correctness gate of the jobs."""
from fractions import Fraction

import pytest
from singvec import NormSpec, parse_real, psi, psi_enclosure

import inputs
import jobs

SEEDS = range(1, 41)


def test_same_seed_same_inputs():
    for seed in (1, 7, 123456):
        assert inputs.enclosed_targets(seed) == inputs.enclosed_targets(seed)
        assert inputs.exact_targets(seed) == inputs.exact_targets(seed)
    assert len({inputs.enclosed_targets(s)["sqrt"] for s in SEEDS}) > 10
    assert len({inputs.exact_targets(s)["x"] for s in SEEDS}) == len(SEEDS)


def test_workloads_differ_in_stream():
    a = inputs.rng_for("scan-enclosed", 5).random()
    b = inputs.rng_for("scan-exact", 5).random()
    assert a != b


def test_enclosed_targets_have_no_integer_relation_by_construction():
    for seed in SEEDS:
        t = inputs.enclosed_targets(seed)
        d, e = t["d"], t["e"]
        assert inputs.squarefree(d) and d > 1
        assert inputs.cubefree(e) and inputs.icbrt(e) ** 3 != e
        # the descriptors name sqrt(d), cbrt(e), cbrt(e**2) and are irrational
        for spec in (t["sqrt"], t["cbrt"], t["cbrt_sq"]):
            assert parse_real(spec).exact_value() is None
        assert parse_real(t["mixed"]).exact_value() == t["mixed_value"]
        assert t["mixed_value"].denominator == 36


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_enclosed_targets_have_no_small_relation(seed):
    """Numerical spot check of the algebraic argument: no |q| <= 12 puts
    q . (sqrt d, cbrt e, cbrt e**2) on an integer, and psi separates its
    minimiser well before the 4096-bit cap."""
    t = inputs.enclosed_targets(seed)
    xs = (t["sqrt"], t["cbrt"], t["cbrt_sq"])
    sup = NormSpec("sup")
    assert psi_enclosure(sup, xs, 12, bits=128).lo > 0
    value, q = psi(sup, xs, 12)
    assert value.lo > 0 and value.hi - value.lo < Fraction(1, 2**50)


def test_exact_targets_in_range_and_reduced():
    for seed in SEEDS:
        t = inputs.exact_targets(seed)
        for x in t["x"]:
            assert 100 <= x.denominator <= 10_000 and 0 < x < 1


def test_cylinder_value_matches_library():
    for prefix, tail in inputs._CYLINDER_POINTS:
        spec = f"cyl:3,0,2:{prefix}:rep{tail}"
        assert parse_real(spec).exact_value() == inputs.cylinder_value(prefix, tail)


def test_build_uses_frozen_values_only_on_frozen_seed():
    expected = jobs.load_expected()
    seed = expected["seed"]
    frozen = jobs.build("scan-exact", seed, expected)
    other = jobs.build("scan-exact", seed + 1, expected)
    assert [j.name for j in frozen] == [j.name for j in other]
    assert all(j.check.__qualname__.startswith("frozen_check") for j in frozen)
    assert not any(j.check.__qualname__.startswith("frozen_check") for j in other)
    names = [j.name for j in jobs.build("scan-enclosed", seed, expected)]
    assert len(names) == len(set(names))
    assert [j.name for j in jobs.build("scan-enclosed", seed, expected) if j.may_refuse] == [
        "records.mixed"
    ]


def run_job(workload, seed, name):
    (job,) = [j for j in jobs.build(workload, seed, jobs.load_expected()) if j.name == name]
    return job, job.run({})


def test_psi_check_accepts_result_and_rejects_tampering():
    job, result = run_job("scan-exact", 9, "psi.n3")
    job.check(result, {})
    value, q = result
    with pytest.raises(jobs.Wrong):
        job.check((value, tuple(c + 1 for c in q)), {})
    with pytest.raises(jobs.Wrong):
        job.check((value, (31, 0, 0)), {})


def test_records_check_rejects_a_wrong_witness():
    job, seq = run_job("scan-exact", 9, "records.weighted")
    job.check(seq, {})
    last = seq.entries[-1]
    bad = type(seq)(seq.norm, seq.t_max, seq.entries[:-1] + (
        type(last)(last.threshold, last.value, tuple(-c for c in last.witness[::-1])),
    ))
    with pytest.raises(jobs.Wrong):
        job.check(bad, {})


def test_frozen_check_rejects_any_difference():
    expected = jobs.load_expected()
    job, result = run_job("scan-exact", expected["seed"], "psi.n2")
    job.check(result, {})
    value, q = result
    with pytest.raises(jobs.Wrong):
        job.check((type(value)(value.lo, value.hi + 1), q), {})
