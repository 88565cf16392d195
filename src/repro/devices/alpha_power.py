"""Smooth alpha-power-law MOSFET model.

The classic Sakurai-Newton alpha-power law [Sakurai & Newton, JSSC 1990]
expresses the saturation drain current as ``Id = k * W * (Vgs - Vth)**alpha``
and switches to a linear region below ``Vdsat``.  The piecewise form has a
discontinuous derivative at both the threshold and the saturation knee, which
is inconvenient for the Runge-Kutta transient integrator of
:mod:`repro.spice.transient`.  This implementation therefore uses

* a softplus-smoothed gate overdrive around the threshold voltage, which also
  provides a simple exponential-like subthreshold tail, and
* a ``tanh(Vds / Vdsat)`` interpolation between the linear and saturation
  regions,

both standard tricks in fast timing-oriented device models.  DIBL and
channel-length modulation are included because they are what make delay
scale super-linearly as Vdd approaches Vth -- the effect behind the
non-Gaussian low-Vdd delay distributions of the paper's Fig. 9.
"""

from __future__ import annotations

import numpy as np

from repro.devices.mosfet import ArrayLike, MOSFET, _softplus


class AlphaPowerMOSFET(MOSFET):
    """Smooth alpha-power-law drain-current model.

    Used for the planar (bulk and SOI) technology nodes in the synthetic
    PDKs.  See :class:`repro.devices.mosfet.DeviceParameters` for the
    parameter definitions.

    :meth:`current` is the readable form of the model.  The transient
    integrator evaluates the same model through one fused, buffer-reusing
    kernel (``repro.spice.transient._AlphaPowerKernel``); the test suite's
    serial oracle integrates with :meth:`current`, which checks that kernel
    against independent math.
    """

    def current(self, vgs: ArrayLike, vds: ArrayLike) -> np.ndarray:
        """Drain current magnitude in amperes (vectorized).

        Parameters
        ----------
        vgs, vds:
            Source-referenced gate and drain voltage magnitudes.  Values are
            broadcast against each other and against any per-seed parameter
            arrays stored in the device.
        """
        p = self._params
        vgs = np.asarray(vgs, dtype=float)
        vds = np.maximum(np.asarray(vds, dtype=float), 0.0)

        # Smoothing scale tied to the subthreshold swing: a swing of
        # ~85 mV/decade corresponds to a thermal-ish smoothing of ~37 mV.
        smoothing = np.asarray(p.subthreshold_swing, dtype=float) / 2.3

        vth_eff = np.asarray(p.vth0, dtype=float) - np.asarray(p.dibl, dtype=float) * vds
        overdrive = _softplus(vgs - vth_eff, smoothing)

        alpha = np.asarray(p.alpha, dtype=float)
        # One pow serves both terms: overdrive**alpha == (overdrive**(alpha/2))**2
        # up to floating-point noise, and pow is the most expensive operation
        # in this hot path.
        half_power = np.power(overdrive, alpha * 0.5)
        isat = (
            np.asarray(p.k_drive, dtype=float)
            * np.asarray(p.width_um, dtype=float)
            * (half_power * half_power)
            * (1.0 + np.asarray(p.lambda_clm, dtype=float) * vds)
        )

        vdsat = np.maximum(np.asarray(p.vdsat_coeff, dtype=float) * half_power,
                           1e-3)
        saturation = np.tanh(vds / vdsat)
        return isat * saturation
