"""Equivalent-inverter reduction of multi-input cells.

Following the paper (Fig. 1(b)) and the classic Weste & Eshraghian treatment,
any static CMOS gate is mapped, per timing arc, onto an equivalent inverter:

* the network that drives the output transition (pull-down for a falling
  output, pull-up for a rising output) is collapsed into a single device of
  the worst-case single-input-switching equivalent width;
* the opposing (restoring) network is collapsed the same way -- it is being
  turned off by the same input edge but still conducts during the first part
  of the transition and therefore influences delay and slew;
* drain parasitics of all devices adjacent to the output are lumped into a
  parasitic output capacitance, and gate-drain overlap of the switching
  devices into a Miller coupling capacitance.

The reduction binds a :class:`~repro.cells.library.Cell` to a
:class:`~repro.technology.node.TechnologyNode` (and optionally a batch of
Monte Carlo process seeds), producing the concrete devices the transient
simulator integrates.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cells.library import Cell, TimingArc, Transition
from repro.devices import MOSFET, effective_current
from repro.runtime import register_runtime_cache
from repro.runtime.cache import LruCache
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample


@dataclass(frozen=True)
class EquivalentInverter:
    """The equivalent inverter of one cell timing arc.

    Attributes
    ----------
    cell_name:
        Name of the reduced cell.
    arc:
        The timing arc this reduction corresponds to.
    nmos, pmos:
        Equivalent pull-down / pull-up devices (possibly carrying per-seed
        parameter arrays).
    parasitic_cap:
        Lumped parasitic capacitance at the output node, in farads
        (scalar or per-seed array).
    miller_cap:
        Gate-to-output coupling capacitance, in farads.
    input_cap:
        Gate capacitance presented by the switching input pin, in farads.
    vdd_nominal:
        Nominal supply of the bound technology (convenience for callers).
    """

    cell_name: str
    arc: TimingArc
    nmos: MOSFET
    pmos: MOSFET
    parasitic_cap: np.ndarray
    miller_cap: np.ndarray
    input_cap: np.ndarray
    vdd_nominal: float

    @property
    def driving_device(self) -> MOSFET:
        """The device that drives the output transition of this arc."""
        if self.arc.output_transition is Transition.FALL:
            return self.nmos
        return self.pmos

    @property
    def restoring_device(self) -> MOSFET:
        """The device being turned off during this arc."""
        if self.arc.output_transition is Transition.FALL:
            return self.pmos
        return self.nmos

    def effective_current(self, vdd) -> np.ndarray:
        """``Ieff`` of the driving device at supply ``vdd`` (vectorized)."""
        return effective_current(self.driving_device, vdd)

    @property
    def n_seeds(self) -> int:
        """Number of Monte Carlo seeds carried by this reduction (1 if nominal)."""
        width = np.asarray(self.driving_device.params.vth0)
        return int(width.size) if width.ndim else 1

    def simulation_signature(self) -> tuple:
        """Hashable token of everything the transient engine reads.

        Two reductions with equal signatures are interchangeable inside
        :func:`repro.spice.transient.simulate_arc_transitions`: the devices
        (model class plus every parameter array, bit for bit), the lumped
        capacitances and the output-transition polarity all match, so their
        conditions can share one mega-batched RK4 pass.  This is how the
        fused library pipeline groups heterogeneous cells -- footprint
        twins (same drive, same topology class, different logic names) land
        in the same group even though their cache identities differ.

        The token is a content digest (cell and arc *names* are deliberately
        excluded -- the engine only reads them for error messages), computed
        lazily and memoized on the frozen instance.
        """
        cached = self.__dict__.get("_simulation_signature")
        if cached is not None:
            return cached
        digest = hashlib.sha256()

        def feed(value) -> None:
            array = np.ascontiguousarray(np.asarray(value, dtype=float))
            digest.update(str(array.shape).encode())
            digest.update(array.tobytes())

        for device in (self.nmos, self.pmos):
            digest.update(type(device).__name__.encode())
            for field in dataclasses.fields(device.params):
                value = getattr(device.params, field.name)
                digest.update(field.name.encode())
                if isinstance(value, (str, bytes)) or not np.asarray(
                        value).dtype.kind in "fiub":
                    digest.update(str(value).encode())
                else:
                    feed(value)
        feed(self.parasitic_cap)
        feed(self.miller_cap)
        signature = (self.arc.output_transition.value, digest.hexdigest())
        object.__setattr__(self, "_simulation_signature", signature)
        return signature


def default_arc(cell: Cell) -> TimingArc:
    """The arc a reduction defaults to: first input pin, falling output.

    One definition shared by :func:`reduce_cell`, :func:`reduce_cell_cached`
    and :func:`repro.spice.sweep.sweep_conditions`, so their cache keys and
    measurements can never disagree about what ``arc=None`` means.
    """
    return cell.arc(cell.input_pins[0], Transition.FALL)


def reduce_cell(
    cell: Cell,
    technology: TechnologyNode,
    arc: Optional[TimingArc] = None,
    variation: Optional[VariationSample] = None,
) -> EquivalentInverter:
    """Reduce a cell timing arc onto its equivalent inverter.

    Parameters
    ----------
    cell:
        The cell to reduce.
    technology:
        Technology node providing device models and capacitance coefficients.
    arc:
        Timing arc to reduce.  Defaults to the first input pin with a falling
        output transition.
    variation:
        Optional batch of Monte Carlo process seeds; when given, the returned
        devices and capacitances are vectorized over the seeds.

    Returns
    -------
    EquivalentInverter
        The bound equivalent inverter.

    Raises
    ------
    KeyError
        If the arc's input pin does not exist on the cell.
    """
    if arc is None:
        arc = default_arc(cell)
    if arc.input_pin not in cell.input_pins:
        raise KeyError(f"cell {cell.name} has no input pin {arc.input_pin!r}")

    pin = arc.input_pin
    nmos_width = cell.pull_down.switching_width(pin) * cell.nmos_unit_width_um
    pmos_width = cell.pull_up.switching_width(pin) * cell.pmos_unit_width_um

    nmos = technology.make_nmos(nmos_width, variation)
    pmos = technology.make_pmos(pmos_width, variation)

    caps = technology.capacitance
    pull_up_adjacent = cell.pull_up.output_adjacent_width() * cell.pmos_unit_width_um
    pull_down_adjacent = cell.pull_down.output_adjacent_width() * cell.nmos_unit_width_um
    parasitic = caps.output_parasitic(pull_up_adjacent, pull_down_adjacent)
    miller = caps.miller_capacitance(nmos_width) + caps.miller_capacitance(pmos_width)
    input_cap = caps.gate_capacitance(cell.input_gate_width_um(pin))

    cap_mult = np.asarray(variation.cap_mult) if variation is not None else np.asarray(1.0)
    parasitic = np.asarray(parasitic, dtype=float) * cap_mult
    miller = np.asarray(miller, dtype=float) * cap_mult
    input_cap = np.asarray(input_cap, dtype=float) * np.ones_like(cap_mult)

    return EquivalentInverter(
        cell_name=cell.name,
        arc=arc,
        nmos=nmos,
        pmos=pmos,
        parasitic_cap=parasitic,
        miller_cap=miller,
        input_cap=input_cap,
        vdd_nominal=technology.vdd_nominal,
    )


#: LRU cache of equivalent-inverter reductions (see :func:`reduce_cell_cached`),
#: registered in the runtime cache registry so its hit/miss/eviction counters
#: show up in ``repro.runtime.cache_stats()``.
_REDUCTION_CACHE = register_runtime_cache(
    LruCache("reduction", max_entries=512, max_bytes=64 * 2**20))


def arc_identity_key(cell: Cell, technology: TechnologyNode, arc: TimingArc,
                     variation_fingerprint: str) -> tuple:
    """Identity tuple of one bound timing arc, shared by every memoization.

    Both the reduction cache here and the simulation cache in
    :mod:`repro.spice.testbench` key on this single definition, so the two
    can never drift apart.  The technology is identified by name *and*
    content fingerprint (a modified same-name node never collides); the
    cell by name plus its unit device widths (same-name cells with altered
    pull-network topology are not distinguished -- the built-in catalog
    never does that).
    """
    return (
        cell.name,
        float(cell.nmos_unit_width_um),
        float(cell.pmos_unit_width_um),
        technology.name,
        technology.fingerprint(),
        arc.input_pin,
        arc.output_transition.value,
        variation_fingerprint,
    )


def _reduction_key(cell: Cell, technology: TechnologyNode, arc: TimingArc,
                   variation: Optional[VariationSample]) -> tuple:
    variation_fp = variation.fingerprint() if variation is not None else "nominal"
    return arc_identity_key(cell, technology, arc, variation_fp)


def clear_reduction_cache() -> None:
    """Drop all memoized equivalent-inverter reductions."""
    _REDUCTION_CACHE.clear()


def reduce_cell_cached(
    cell: Cell,
    technology: TechnologyNode,
    arc: Optional[TimingArc] = None,
    variation: Optional[VariationSample] = None,
) -> EquivalentInverter:
    """Memoized :func:`reduce_cell`.

    Repeated sweeps over the same ``(cell, arc, variation)`` -- the common
    pattern in the statistical flow and the Monte Carlo baseline, which both
    re-reduce the same cell for every batch of conditions -- reuse the cached
    :class:`EquivalentInverter` instead of re-deriving it.  Keys identify the
    cell and technology by name plus the unit device widths, and the seed
    batch by its content fingerprint, so identical inputs hit regardless of
    object identity.  The returned object is frozen and shared; do not mutate
    its arrays.
    """
    if arc is None:
        arc = default_arc(cell)
    key = _reduction_key(cell, technology, arc, variation)
    cached = _REDUCTION_CACHE.get(key)
    if cached is not None:
        return cached
    inverter = reduce_cell(cell, technology, arc=arc, variation=variation)
    _REDUCTION_CACHE.put(key, inverter)
    return inverter
