import math

import numpy as np
import pytest

from slowflow import vdp
from slowflow.odeint import IntegratorConfig, PeriodicField

TWO_PI = 2.0 * math.pi

# the forced nonsmooth oscillator written in the DSL, parameters a and lam
NONSMOOTH_DSL = [
    "(-(abs(x1*sin(t)+x2*cos(t))-1)*(x1*cos(t)-x2*sin(t))"
    "-a*(x1*sin(t)+x2*cos(t))+lam*sin(t))*cos(t)",
    "-((-(abs(x1*sin(t)+x2*cos(t))-1)*(x1*cos(t)-x2*sin(t))"
    "-a*(x1*sin(t)+x2*cos(t))+lam*sin(t)))*sin(t)",
]


@pytest.fixture
def linear_field():
    return vdp.linear_test_field()


@pytest.fixture
def harmonic_field():
    """Rotation field (x1' = x2, x2' = -x1) written as eps*g with eps = 1."""

    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 1], -x[..., 0]], axis=-1)

    return PeriodicField(dim=2, period=TWO_PI, evaluate=evaluate, name="harmonic")


@pytest.fixture
def unforced_nonsmooth():
    return vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.0, 0.0))


@pytest.fixture
def unforced_classical():
    return vdp.classical_vdp_field(vdp.ForcingParams(0.0, 0.0))


def certified_forced_params(amplitude=3.2, a=0.1):
    """A forced operating point with both stability indicators strictly signed.

    lam is solved from the amplitude equation at the chosen amplitude; the
    matching (M, N) root has a closed form through the linear system the
    averaged field reduces to at fixed amplitude.
    """
    lam = amplitude * math.sqrt(
        a * a + (1.0 - 4.0 * amplitude / (3.0 * math.pi)) ** 2)
    k = math.pi - 4.0 * amplitude / 3.0
    den = k * k + (a * math.pi) ** 2
    root = lam * math.pi / den * np.array([a * math.pi, k])
    return a, lam, root


def rk4(cfg_h):
    return IntegratorConfig(method="rk4-fixed", h=cfg_h)


# --- minimal JSON-schema checker (subset used by the shipped schemas) ----------

def validate_schema(instance, schema, path="$"):
    """Assert `instance` conforms to the draft-07 subset our schemas use."""
    if "oneOf" in schema:
        errors = []
        for sub in schema["oneOf"]:
            try:
                validate_schema(instance, sub, path)
                return
            except AssertionError as exc:
                errors.append(str(exc))
        raise AssertionError(f"{path}: no oneOf branch matched: {errors}")
    t = schema.get("type")
    if t is not None:
        checkers = {
            "object": dict, "array": list, "string": str, "boolean": bool,
            "null": type(None),
        }
        if t == "number":
            assert isinstance(instance, (int, float)) and not isinstance(
                instance, bool), f"{path}: expected number, got {instance!r}"
        elif t == "integer":
            assert isinstance(instance, int) and not isinstance(
                instance, bool), f"{path}: expected integer, got {instance!r}"
        else:
            assert isinstance(instance, checkers[t]), \
                f"{path}: expected {t}, got {type(instance).__name__}"
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema:
            assert instance >= schema["minimum"], f"{path}: {instance} < minimum"
        if "maximum" in schema:
            assert instance <= schema["maximum"], f"{path}: {instance} > maximum"
        if "exclusiveMinimum" in schema:
            assert instance > schema["exclusiveMinimum"], \
                f"{path}: {instance} <= exclusiveMinimum"
        if "exclusiveMaximum" in schema:
            assert instance < schema["exclusiveMaximum"], \
                f"{path}: {instance} >= exclusiveMaximum"
    if isinstance(instance, dict):
        for req in schema.get("required", []):
            assert req in instance, f"{path}: missing required key {req!r}"
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = set(instance) - set(props)
            assert not extra, f"{path}: unexpected keys {sorted(extra)}"
        for key, sub in props.items():
            if key in instance:
                validate_schema(instance[key], sub, f"{path}.{key}")
    if isinstance(instance, list):
        if "minItems" in schema:
            assert len(instance) >= schema["minItems"], f"{path}: too few items"
        if "maxItems" in schema:
            assert len(instance) <= schema["maxItems"], f"{path}: too many items"
        if "items" in schema:
            for i, item in enumerate(instance):
                validate_schema(item, schema["items"], f"{path}[{i}]")
