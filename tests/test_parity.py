"""The parity harness `tools/parity.py`: a capture repeats exactly in
process, and the comparison names a one-ulp change."""

import numpy as np
import pytest

from mvx.distributions import Likelihood
from mvx.objectives import MODEL_SPECS

from helpers import TOOLS, load_tool

parity = load_tool("parity")

VARIANTS = ["mvae", "mmjsd-pi", "mwae-2-critic-steps"]


def test_the_variants_cover_every_model():
    assert sorted(parity.MODELS) == sorted(MODEL_SPECS)
    assert {model for _, model, _ in parity.VARIANTS} == set(MODEL_SPECS)


def test_every_variant_config_builds():
    # tier-1 captures only a few variants; a read rule that refuses a key
    # of another variant fails here
    import mvx

    for variant, model, extra in parity.VARIANTS:
        assert parity._config(mvx, model, extra).name == model, variant


def test_the_variants_cover_every_decoder_kind():
    kinds = {extra.get("decoder.default.distribution", "Normal")
             for _, _, extra in parity.VARIANTS}
    # a plain-encoder model decodes with the squared-error "Default" kind
    if any(MODEL_SPECS[model].encoder == "plain" for _, model, _ in parity.VARIANTS):
        kinds.add("Default")
    assert kinds == set(Likelihood.KINDS)


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


def test_against_takes_the_directory_of_a_checkout(tmp_path):
    checkout = load_tool("checkout").checkout
    with checkout(str(TOOLS.parent)) as tree:
        assert tree == TOOLS.parent
    with pytest.raises(SystemExit, match="a directory without src/mvx"):
        with checkout(str(tmp_path)):
            pass
