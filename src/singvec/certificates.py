"""Certificate data model and its versioned JSON wire format.

A certificate is the machine-checkable trace of the nested-box
construction: the construction spec it ran under, one Step per pin,
the hyperplanes
explicitly separated at each step, and the final box.  Serialization is
deliberately boring: exact rationals as "p/q" strings, irrational
height values as {"base": "p/q", "exp": "a/c"} pairs, no floats, no
timestamps, fixed key order, so identical runs produce identical bytes.

Parsing is strict: anything structurally off raises SchemaError (the
file is not a certificate), while claims that parse but are false are
left for the verifier to reject.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .digitsets import Cylinder, DigitSystem, ProductSet
from .engine import NormSpec
from .errors import SchemaError, UsageError
from .exact import Box, RatInterval, rat, rat_str
from .hyperplanes import Hyperplane
from .powers import PowerValue

SCHEMA_VERSION = 1

# Work budgets, checked before any exact power or plane enumeration:
# the coefficient vectors hyperplanes_meeting walks at the largest
# avoidance height, and the numerator and denominator of a pow exponent.
MAX_PLANE_DIRECTIONS = 10**5
MAX_PHI_EXPONENT = 10**4


# -- decay bound -------------------------------------------------------


@dataclass(frozen=True)
class PhiSpec:
    """Non-increasing decay bound phi.  Either pow (phi(t) = t**-N for
    rational N > 0) or a piecewise-constant table: rows (t_k, v_k) with
    t_k strictly increasing and v_k non-increasing; thresholds below
    the first row clamp to the first value."""

    kind: str
    exponent: Fraction | None = None
    rows: tuple[tuple[Fraction, Fraction], ...] | None = None

    def __post_init__(self):
        if self.kind == "pow":
            if self.exponent is None or self.rows is not None:
                raise UsageError("pow bound takes exactly an exponent")
            object.__setattr__(self, "exponent", Fraction(self.exponent))
            if self.exponent <= 0:
                raise UsageError("decay exponent must be positive")
            e = self.exponent
            if max(e.numerator, e.denominator) > MAX_PHI_EXPONENT:
                raise UsageError(
                    f"decay exponent {rat_str(e)} is over budget: numerator "
                    f"and denominator must be at most {MAX_PHI_EXPONENT}"
                )
            return
        if self.kind != "table":
            raise UsageError(f"unknown bound kind: {self.kind!r}")
        if not self.rows or self.exponent is not None:
            raise UsageError("table bound takes exactly a row list")
        rows = tuple(
            (Fraction(t), Fraction(v)) for t, v in self.rows
        )
        object.__setattr__(self, "rows", rows)
        for (t1, v1), (t2, v2) in zip(rows, rows[1:]):
            if not t1 < t2:
                raise UsageError("table thresholds must strictly increase")
            if v2 > v1:
                raise UsageError("table values must be non-increasing")
        if any(v <= 0 for _, v in rows) or any(t <= 0 for t, _ in rows):
            raise UsageError("table entries must be positive")

    def value_at(self, t) -> Fraction | PowerValue:
        """phi(t) for a rational or exact-power threshold."""
        if self.kind == "pow":
            if isinstance(t, PowerValue):
                out = t.pow(-self.exponent)
            else:
                out = PowerValue(Fraction(t), -self.exponent)
            f = out.as_fraction()
            return f if f is not None else out
        value = self.rows[0][1]
        for row_t, row_v in self.rows:
            if t >= row_t:
                value = row_v
            else:
                break
        return value

    def to_json(self) -> dict:
        if self.kind == "pow":
            return {"kind": "pow", "exponent": rat_str(self.exponent)}
        return {
            "kind": "table",
            "rows": [[rat_str(t), rat_str(v)] for t, v in self.rows],
        }

    @staticmethod
    def from_json(obj: dict) -> "PhiSpec":
        kind = obj.get("kind")
        if kind == "pow":
            return PhiSpec("pow", exponent=rat(obj["exponent"]))
        if kind == "table":
            return PhiSpec(
                "table", rows=tuple((rat(t), rat(v)) for t, v in obj["rows"])
            )
        raise SchemaError(f"unknown bound kind: {kind!r}")

    @staticmethod
    def parse(text: str) -> "PhiSpec":
        text = text.strip()
        if text.startswith("pow:"):
            return PhiSpec("pow", exponent=rat(text[4:]))
        if text.startswith("table:"):
            rows = []
            for piece in text[6:].split(","):
                if "=" not in piece:
                    raise UsageError(f"bad table row: {piece!r}")
                t, v = piece.split("=", 1)
                rows.append((rat(t), rat(v)))
            return PhiSpec("table", rows=tuple(rows))
        raise UsageError(f"cannot parse bound: {text!r}")


# -- exact-value wire helpers ------------------------------------------


def power_to_json(value: PowerValue | Fraction):
    if isinstance(value, Fraction):
        return rat_str(value)
    f = value.as_fraction()
    if f is not None:
        return rat_str(f)
    out = {"base": rat_str(value.base), "exp": rat_str(value.exp)}
    if value.coef != 1:
        out["coef"] = rat_str(value.coef)
    return out


def power_from_json(obj) -> PowerValue:
    if isinstance(obj, str):
        return PowerValue(rat(obj))
    if isinstance(obj, dict):
        coef = rat(obj["coef"]) if "coef" in obj else Fraction(1)
        return PowerValue(rat(obj["base"]), rat(obj["exp"]), coef)
    raise SchemaError(f"cannot read exact value from {obj!r}")


def box_to_json(box: Box) -> list:
    return [[rat_str(s.lo), rat_str(s.hi)] for s in box.sides]


def box_from_json(obj) -> Box:
    sides = []
    for pair in obj:
        lo, hi = pair
        sides.append(RatInterval(rat(lo), rat(hi)))
    if not sides:
        raise SchemaError("box must have at least one side")
    return Box(tuple(sides))


# -- construction spec -------------------------------------------------


def default_avoidance_heights(steps: int) -> tuple[int, ...]:
    """The default schedule: height threshold nu + 2 at step nu, which
    is non-decreasing and unbounded as steps grow."""
    return tuple(nu + 2 for nu in range(1, steps + 1))


@dataclass(frozen=True)
class ConstructionSpec:
    """Everything construct() needs; a pure value, so equal specs give
    byte-identical certificates."""

    product: ProductSet
    norm: NormSpec
    phi: PhiSpec
    steps: int
    avoidance_heights: tuple[int, ...] = ()
    max_depth: int = 64

    def __post_init__(self):
        if self.steps < 1:
            raise UsageError("need at least 1 step")
        if self.max_depth < 1:
            raise UsageError("max_depth must be positive")
        heights = self.avoidance_heights or default_avoidance_heights(self.steps)
        heights = tuple(int(h) for h in heights)
        object.__setattr__(self, "avoidance_heights", heights)
        if len(heights) != self.steps:
            raise UsageError("need one avoidance height per step")
        if any(h < 1 for h in heights):
            raise UsageError("avoidance heights must be positive")
        if any(a > b for a, b in zip(heights, heights[1:])):
            raise UsageError("avoidance heights must be non-decreasing")
        n = self.product.dim
        if ((2 * heights[-1] + 1) ** n - 1) // 2 > MAX_PLANE_DIRECTIONS:
            raise UsageError(
                f"avoidance height {heights[-1]} is over budget: it walks "
                f"more than {MAX_PLANE_DIRECTIONS} plane directions in "
                f"dimension {n}"
            )
        self.norm.check_dim(n)

    @property
    def dim(self) -> int:
        return self.product.dim

    def to_json(self) -> dict:
        return {
            "product": self.product.to_json(),
            "norm": self.norm.to_json(),
            "phi": self.phi.to_json(),
            "steps": self.steps,
            "avoidance_heights": list(self.avoidance_heights),
            "max_depth": self.max_depth,
        }

    @staticmethod
    def from_json(obj: dict) -> "ConstructionSpec":
        return ConstructionSpec(
            product=ProductSet.from_json(obj["product"]),
            norm=NormSpec.from_json(obj["norm"]),
            phi=PhiSpec.from_json(obj["phi"]),
            steps=int(obj["steps"]),
            avoidance_heights=tuple(int(h) for h in obj["avoidance_heights"]),
            max_depth=int(obj["max_depth"]),
        )


# -- steps and the certificate -----------------------------------------


@dataclass(frozen=True)
class Step:
    """One pin: coordinate k fixed near p/q, with the per-coordinate
    cylinders (and their hull) after this step's narrowing and
    avoidance descents.  bound_used is phi at the NEXT pin's height and
    is None on the last step."""

    nu: int
    k: int
    p: int
    q: int
    phi_of_q: PowerValue
    bound_used: PowerValue | None
    cylinders: tuple[Cylinder, ...]
    box: Box

    def to_json(self) -> dict:
        return {
            "nu": self.nu,
            "k": self.k,
            "p": self.p,
            "q": self.q,
            "phi_of_q": power_to_json(self.phi_of_q),
            "bound_used": (
                None if self.bound_used is None
                else power_to_json(self.bound_used)
            ),
            "box": box_to_json(self.box),
            "cylinders": [{"prefix": c.prefix_str()} for c in self.cylinders],
        }


@dataclass(frozen=True)
class AvoidedEntry:
    """A hyperplane certified disjoint from the box after step nu."""

    nu: int
    plane: Hyperplane

    def to_json(self) -> dict:
        return {"nu": self.nu, **self.plane.to_json()}


@dataclass(frozen=True)
class Certificate:
    spec: ConstructionSpec
    steps: tuple[Step, ...]
    avoided: tuple[AvoidedEntry, ...]
    final_box: Box

    def to_json(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "spec": self.spec.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "avoided": [a.to_json() for a in self.avoided],
            "final_box": box_to_json(self.final_box),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"


def _step_from_json(obj: dict, product: ProductSet) -> Step:
    cylinders = []
    raw = obj["cylinders"]
    if len(raw) != product.dim:
        raise SchemaError("one cylinder per coordinate required")
    for entry, system in zip(raw, product.factors):
        prefix = DigitSystem.parse_digits(system.base, entry["prefix"])
        cylinders.append(Cylinder(system, prefix))
    bound = obj["bound_used"]
    return Step(
        nu=int(obj["nu"]),
        k=int(obj["k"]),
        p=int(obj["p"]),
        q=int(obj["q"]),
        phi_of_q=power_from_json(obj["phi_of_q"]),
        bound_used=None if bound is None else power_from_json(bound),
        cylinders=tuple(cylinders),
        box=box_from_json(obj["box"]),
    )


def _strict(reader, obj, what: str):
    """reader(obj), with any structural problem raised as SchemaError."""
    try:
        return reader(obj)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, UsageError) as exc:
        raise SchemaError(f"malformed {what}: {exc}") from exc


def _loads(text: str, reader, what: str):
    """_strict on the JSON document in text; text that is not JSON is a
    SchemaError too."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not JSON: {exc}") from exc
    return _strict(reader, obj, what)


def _certificate(obj) -> Certificate:
    if not isinstance(obj, dict):
        raise SchemaError("certificate must be a JSON object")
    version = obj.get("version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported certificate version: {version!r}")
    spec = ConstructionSpec.from_json(obj["spec"])
    steps = tuple(_step_from_json(s, spec.product) for s in obj["steps"])
    avoided = tuple(
        AvoidedEntry(int(a["nu"]), Hyperplane.from_json(a))
        for a in obj["avoided"]
    )
    final_box = box_from_json(obj["final_box"])
    return Certificate(spec, steps, avoided, final_box)


def certificate_from_json(obj) -> Certificate:
    """Strict reader for the version-1 schema; any structural problem
    is a SchemaError.  False claims are the verifier's business."""
    return _strict(_certificate, obj, "certificate")


def certificate_loads(text: str) -> Certificate:
    return _loads(text, _certificate, "certificate")
