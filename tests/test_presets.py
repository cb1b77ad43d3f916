import math

import numpy as np
import pytest

from blochamp import InvalidParams, Preset, assemble, expand_preset, preset_names
from blochamp import presets


def test_all_presets_expand_with_defaults():
    for name in preset_names():
        spec = expand_preset(Preset(name))
        assert spec.g in (0.0, 1.0)


@pytest.mark.parametrize("name", preset_names())
def test_non_finite_parameter_rejected(name):
    param = presets.preset_params([name])[0]
    with pytest.raises(ValueError, match="must be finite"):
        expand_preset(Preset(name, {param: math.nan}))


def test_preset_params_in_first_seen_order():
    assert presets.preset_params() == ("m", "l0", "l1", "M", "gamma")
    assert presets.preset_params(["threejump_nino"]) == ("M", "gamma")


def test_linear_cptp_fields():
    spec = presets.linear_cptp(1.0)
    assert np.array_equal(spec.ell.ell, [-1.0, 1.0, 0.0, 0.0])
    assert spec.g == 0.0
    assert len(spec.jumps) == 1 and spec.jumps[0].zeta == 1


def test_linear_noncp_fields():
    big_m, gamma = 1.0, 0.5
    spec = presets.linear_noncp(big_m, gamma)
    assert np.allclose(spec.ell.ell,
                       [-(big_m + gamma / 2) / 2, 0.0, 0.0, -big_m / 2])
    assert [j.zeta for j in spec.jumps] == [1, 1, -1]
    assert spec.g == 0.0


def test_threejump_signs_and_strengths():
    spec = presets.threejump_nino(1.0, 0.5)
    assert [j.zeta for j in spec.jumps] == [1, 1, -1]
    assert spec.g == 1.0
    assert np.array_equal(spec.ell.ell, [0.0, 0.0, 0.0, -0.5])
    # the mixing and shift jumps share the strength sqrt(M/2)
    assert spec.jumps[0].xi.norm == pytest.approx(spec.jumps[1].xi.norm)


def test_threejump_drops_vanishing_loss_jump():
    spec = presets.threejump_nino(0.5, 1.0)  # M = gamma/2 exactly
    assert [j.zeta for j in spec.jumps] == [1, 1]


@pytest.mark.parametrize("big_m,gamma", [(1.0, 2.5), (0.4, 1.0), (1.0, -0.1)])
def test_two_rate_validity_range(big_m, gamma):
    with pytest.raises(InvalidParams):
        presets.threejump_nino(big_m, gamma)
    with pytest.raises(InvalidParams):
        presets.linear_noncp(big_m, gamma)


def test_zero_strength_rejected():
    with pytest.raises(InvalidParams):
        presets.linear_cptp(0.0)


def test_unknown_preset_rejected():
    with pytest.raises(InvalidParams):
        expand_preset(Preset("no_such_gate"))


def test_unknown_parameter_rejected():
    with pytest.raises(InvalidParams):
        expand_preset(Preset("linear_cptp", {"M": 1.0}))


def test_pseudolinear_omega_is_scalar():
    w = assemble(presets.pseudolinear_nino(1.0)).omega.ell
    assert w[0] == pytest.approx(-2.0, abs=1e-12)
    assert np.abs(w[1:]).max() <= 1e-12
