"""The traced benchmark patches names that the verifier and the
constructor import from the engine and the hyperplane module.  A
refactor that drops one of those names breaks only the traced run, so
install the hooks here and check that the scans and plane walks they
wrap are still recorded."""
import sys
from fractions import Fraction
from pathlib import Path

from singvec import (
    ConstructionSpec,
    DigitSystem,
    NormSpec,
    PhiSpec,
    ProductSet,
    construct,
    verify_certificate,
)

BENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import jobs  # noqa: E402
import spans  # noqa: E402

THIRDS = DigitSystem(3, (0, 2))


def test_traced_hooks_record_scans_and_plane_walks():
    spec = ConstructionSpec(
        product=ProductSet((THIRDS, THIRDS)),
        norm=NormSpec("sup"),
        phi=PhiSpec("pow", exponent=Fraction(5)),
        steps=3,
    )
    tracer = spans.Tracer()
    tracer.active = True
    with spans.patched(jobs.hooks(tracer)):
        cert = construct(spec)
        built = len(tracer.spans)
        report = verify_certificate(cert, spot_checks=(9,))
    assert report.ok
    assert "hyperplanes.meeting" in {s.name for s in tracer.spans[:built]}
    verified = {s.name for s in tracer.spans[built:]}
    assert {"engine.psi_enclosure", "hyperplanes.meeting"} <= verified
