"""Certificate data model and its versioned JSON wire format.

A certificate is the machine-checkable trace of the nested-box
construction: the construction spec it ran under, one Step per pin,
the hyperplanes explicitly separated at each step, and the final box.
Serialization is deliberately boring: exact rationals as "p/q"
strings, irrational height values as {"base": "p/q", "exp": "a/c"}
pairs, no floats, no timestamps, fixed key order, so identical runs
produce identical bytes.

The in-memory certificate holds no box: a step's box is the box of its
cylinders' hulls (Step.box, made on first use), and the final box is
the last step's.  dumps writes each with Cylinder.hull_text, and its
own JSON, the bytes of json.dumps(indent=2), with integers through
int_str.

Parsing is strict: anything structurally off raises SchemaError (the
file is not a certificate), and so does a step whose rescan the plane
walk's own charge refuses; claims that parse but are false are left
for the verifier to reject.  Each recorded box is judged as it is
read: it is its step's box when Cylinder.spells takes its text, axis
by axis, or failing that when box_from_json reads it as an equal box.
A final box with the last step's text shares that step's verdict.  The
false ones are kept in Certificate.false_boxes, which the verifier
reports.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .digitsets import Cylinder, DigitSystem, ProductSet, cylinder_box
from .engine import NormSpec, _charge, check_exponent
from .errors import SchemaError, UsageError
from .exact import Box, RatInterval, int_str, json_int, parse_int, rat, rat_str
from .hyperplanes import Hyperplane, _check_walk
from .powers import PowerValue

SCHEMA_VERSION = 1


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
            check_exponent(self.exponent)
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

    def value_at(self, t: Fraction | PowerValue) -> PowerValue:
        """phi(t) for a rational or exact-power threshold, as one
        PowerValue: a table's row value, or t**-N."""
        if self.kind == "pow":
            if isinstance(t, PowerValue):
                return t.pow(-self.exponent)
            return PowerValue(Fraction(t), -self.exponent)
        value = self.rows[0][1]
        for row_t, row_v in self.rows:
            if t >= row_t:
                value = row_v
            else:
                break
        return PowerValue(value)

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
    f = value if isinstance(value, Fraction) else value.as_fraction()
    if f is not None:
        return rat_str(f)
    out = {"base": rat_str(value.base), "exp": rat_str(value.exp)}
    if value.coef != 1:
        out["coef"] = rat_str(value.coef)
    return out


def power_from_json(obj) -> PowerValue:
    """The exact value of a recorded height or bound.  An exponent whose
    numerator or denominator is above MAX_PHI_EXPONENT is refused before
    any power is taken."""
    if isinstance(obj, str):
        return PowerValue(rat(obj))
    if isinstance(obj, dict):
        coef = rat(obj["coef"]) if "coef" in obj else Fraction(1)
        exp = check_exponent(rat(obj["exp"]), SchemaError)
        return PowerValue(rat(obj["base"]), exp, coef)
    raise SchemaError(f"cannot read exact value from {obj!r}")


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
        # each step walks at least one plane: charged before any schedule
        _charge(self.steps, "a construction of {} steps", self.steps)
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
        self.norm.check_dim(self.product.dim)

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
            steps=json_int(obj["steps"]),
            avoidance_heights=tuple(map(json_int, obj["avoidance_heights"])),
            max_depth=json_int(obj["max_depth"]),
        )


# -- steps and the certificate -----------------------------------------


@dataclass(frozen=True)
class Step:
    """One pin: coordinate k fixed near p/q, with the per-coordinate
    cylinders after this step's narrowing and avoidance descents.
    bound_used is phi at the NEXT pin's height and is None on the last
    step."""

    nu: int
    k: int
    p: int
    q: int
    phi_of_q: PowerValue
    bound_used: PowerValue | None
    cylinders: tuple[Cylinder, ...]

    @cached_property
    def box(self) -> Box:
        """The box of its cylinders' hulls."""
        return cylinder_box(self.cylinders)

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
            "box": [list(c.hull_text()) for c in self.cylinders],
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
    """The spec, its steps and the planes they avoided.  false_boxes is
    what the reader found of the recorded boxes: the index of each step
    whose box is not its hull, and None when the final box is not the
    last step's hull; construct leaves it empty."""

    spec: ConstructionSpec
    steps: tuple[Step, ...]
    avoided: tuple[AvoidedEntry, ...]
    false_boxes: tuple[int | None, ...] = ()

    @property
    def final_box(self) -> Box | None:
        """The last step's box; None when there is no step."""
        return self.steps[-1].box if self.steps else None

    def to_json(self) -> dict:
        steps = [s.to_json() for s in self.steps]
        return {
            "version": SCHEMA_VERSION,
            "spec": self.spec.to_json(),
            "steps": steps,
            "avoided": [a.to_json() for a in self.avoided],
            # the last step's text, the longest of all, is not redone
            "final_box": [list(side) for side in steps[-1]["box"]] if steps else [],
        }

    def dumps(self) -> str:
        """json.dumps(self.to_json(), indent=2) plus a newline, the same
        bytes, with integers written by int_str: no digit guard applies
        and a long pin costs no quadratic int.__repr__."""
        out: list[str] = []
        _write_json(self.to_json(), "\n", out)
        out.append("\n")
        return "".join(out)


_DIGITS = b"0123456789"


def _only(text: str, chars: bytes) -> bool:
    """True when text is ASCII and made of chars alone."""
    return text.isascii() and not text.encode("ascii").translate(None, chars)


def _write_json(node, newline: str, out: list[str]) -> None:
    """Append node as json.dumps(node, indent=2) writes it, newline being
    the line break and indent it stands at.  Keys are strings."""
    if isinstance(node, str) and _only(node, _DIGITS + b"/-"):
        out.append(f'"{node}"')  # nothing in it needs an escape
    elif isinstance(node, int) and not isinstance(node, bool):
        out.append(int_str(node))
    elif isinstance(node, dict) and node:
        inner = newline + "  "
        out.append("{")
        for i, (key, value) in enumerate(node.items()):
            out.append(("," if i else "") + inner + json.dumps(key) + ": ")
            _write_json(value, inner, out)
        out.append(newline + "}")
    elif isinstance(node, (list, tuple)) and node:
        inner = newline + "  "
        out.append("[")
        for i, value in enumerate(node):
            out.append(("," if i else "") + inner)
            _write_json(value, inner, out)
        out.append(newline + "]")
    else:  # other strings, None, booleans, {} and []
        out.append(json.dumps(node))


def _is_box(recorded, step: Step) -> bool:
    """True when the recorded box is step's box: its cylinders' hull
    text, character for character, or failing that, read by
    box_from_json, equal in value."""
    cyls = step.cylinders
    if type(recorded) is list and len(recorded) == len(cyls):
        if all(c.spells(pair) for c, pair in zip(cyls, recorded)):
            return True
    return box_from_json(recorded) == step.box


def _step_from_json(obj: dict, prev: tuple[Cylinder, ...]) -> Step:
    cylinders = []  # each grown from prev's by its tail, or from the root
    raw = obj["cylinders"]
    if len(raw) != len(prev):
        raise SchemaError("one cylinder per coordinate required")
    for entry, start in zip(raw, prev):
        word = DigitSystem.parse_word(start.system.base, entry["prefix"])
        start = start if word.startswith(start.word) else Cylinder.root(start.system)
        tail = Cylinder(start.system, word[len(start.word):])
        cylinders.append(start._grow(tail.word, tail.value, tail.power))
    bound = obj["bound_used"]
    return Step(
        nu=json_int(obj["nu"]),
        k=json_int(obj["k"]),
        p=json_int(obj["p"]),
        q=json_int(obj["q"]),
        phi_of_q=power_from_json(obj["phi_of_q"]),
        bound_used=None if bound is None else power_from_json(bound),
        cylinders=tuple(cylinders),
    )


def _strict(reader, obj, what: str):
    """reader(obj), with any structural problem raised as SchemaError."""
    try:
        return reader(obj)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, UsageError) as exc:
        raise SchemaError(f"malformed {what}: {exc}") from exc


def _loads(data: bytes | str, reader, what: str):
    """_strict on the JSON document in data, bytes read as strict UTF-8;
    bytes that are not UTF-8, text that is not JSON and nesting too deep
    for the decoder are SchemaErrors too.  Integers of any length are
    read, whatever the interpreter's digit guard."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        obj = json.loads(text, parse_int=parse_int)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"not JSON: {exc}") from exc
    return _strict(reader, obj, what)


def _certificate(obj) -> Certificate:
    if not isinstance(obj, dict):
        raise SchemaError("certificate must be a JSON object")
    version = json_int(obj.get("version"))
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported certificate version: {version!r}")
    spec = ConstructionSpec.from_json(obj["spec"])
    steps, false_boxes = [], []
    cylinders = tuple(map(Cylinder.root, spec.product.factors))
    for idx, raw in enumerate(obj["steps"]):
        steps.append(_step_from_json(raw, cylinders))
        cylinders = steps[-1].cylinders
        if not _is_box(raw["box"], steps[-1]):
            false_boxes.append(idx)
    # refuse here any rescan of a step's hull the verifier could not afford
    for idx, (step, height) in enumerate(zip(steps, spec.avoidance_heights)):
        try:
            _check_walk(spec.dim, height, step.box)
        except UsageError as exc:
            raise SchemaError(f"step {idx + 1}: {exc}") from None
    avoided = tuple(
        AvoidedEntry(json_int(a["nu"]), Hyperplane.from_json(a))
        for a in obj["avoided"]
    )
    recorded = obj["final_box"]
    if not steps:  # to_json writes [] for no step; a box is read, unmatched
        if recorded != []:
            box_from_json(recorded)
    elif recorded == obj["steps"][-1]["box"]:  # equal text, equal verdict
        if len(steps) - 1 in false_boxes:
            false_boxes.append(None)
    elif not _is_box(recorded, steps[-1]):
        false_boxes.append(None)
    return Certificate(spec, tuple(steps), avoided, tuple(false_boxes))


def certificate_from_json(obj) -> Certificate:
    """Strict reader for the version-1 schema; any structural problem
    is a SchemaError.  False claims are the verifier's business."""
    return _strict(_certificate, obj, "certificate")


def certificate_loads(data: bytes | str) -> Certificate:
    return _loads(data, _certificate, "certificate")
