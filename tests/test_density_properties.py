"""Physical invariants of S(omega, k), checked over the crystal parameter box.

The orientation, gain and length are drawn; each draw is either accepted
by `auto_grid` on a 256 x 128 grid, and then its density must obey the
invariants below, or refused with the one refusal that names the
Sellmeier set and the angle.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcoh import ConfigurationError, CrystalConfig, auto_grid, build_spectrum, \
    load_sellmeier
from pdcoh.coherence import correlation_map

SELL = load_sellmeier("bbo_kato1986")


@settings(max_examples=60, deadline=None)
@given(st.floats(19.6, 20.1), st.floats(0.5, 8.0), st.floats(2e-3, 20e-3))
def test_density_is_bounded_and_exchange_symmetric(theta_deg, gain, length_m):
    cfg = CrystalConfig(length_m=length_m, theta_rad=math.radians(theta_deg),
                        pump_wavelength_m=800e-9, gain=gain, sellmeier=SELL)
    try:
        spec = auto_grid(cfg, 256, 128)
    except ConfigurationError as exc:
        # the support reaches the 0.49 omega_c cap: refused up front, by name
        assert str(exc).startswith(
            f"{SELL.name} at theta {math.degrees(cfg.theta_rad):g} deg: ")
        return
    sg = build_spectrum(cfg, spec)
    values = sg.values
    # G^2 f^2 is largest at delta_k = 0, where it is sinh^2 G
    assert values.min() >= 0.0
    assert values.max() <= math.sinh(gain) ** 2 * (1 + 1e-12)
    # signal-idler exchange: S(omega_c + W, k) = S(omega_c - W, -k); row and
    # column 0 have no partner on the grid
    pairs = np.abs(values[1:, 1:] - values[:0:-1, :0:-1])
    assert pairs.max() <= 1e-10 * values.max()
    # the edge check that guards the transform passes on every accepted grid
    correlation_map(sg, oversample=2, extent_cells=4)
