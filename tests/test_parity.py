"""The parity harness `tools/parity.py`: a capture repeats exactly in
process, and the comparison names a one-ulp change."""

import importlib.util
from pathlib import Path

import numpy as np

from mvx.objectives import MODEL_SPECS

_SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

VARIANTS = ["mvae", "mmjsd-pi", "mwae-2-critic-steps"]


def test_the_variants_cover_every_model():
    assert sorted(parity.MODELS) == sorted(MODEL_SPECS)
    assert {model for _, model, _ in parity.VARIANTS} == set(MODEL_SPECS)


def test_a_capture_repeats_and_a_one_ulp_change_is_named():
    first = parity.capture(VARIANTS)
    second = parity.capture(VARIANTS)
    report = parity.compare(first, second)
    assert [(v, a) for v, a, _ in report] == [(v, a) for v in VARIANTS for a in parity.ARTEFACTS]
    assert all(text == "identical" for _, _, text in report)

    checkpoint = second["mmjsd-pi"]["checkpoint"]
    name = next(key for key in checkpoint if key != "bytes")
    value = checkpoint[name].copy()
    value.flat[0] = np.nextafter(value.flat[0], np.inf)
    checkpoint[name] = value
    changed = [(v, a, text) for v, a, text in parity.compare(first, second)
               if text != "identical"]
    assert len(changed) == 1
    variant, artefact, text = changed[0]
    assert (variant, artefact) == ("mmjsd-pi", "checkpoint")
    assert f"first {name};" in text and "max abs diff" in text
