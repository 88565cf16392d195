"""Stepper specifications of the transient integrator.

A :class:`StepperSpec` pins down *everything* that shapes an engine's
numerical results -- the scheme (fixed-step RK4 or embedded Dormand-Prince
RK45), the fixed step count, the error tolerances and the step-size
controller constants.  Its :meth:`~StepperSpec.signature` tuple is the
engine part of every :class:`~repro.spice.testbench.SimulationCache` key
and of the library checkpoint signature, so results produced by different
schemes (or the same scheme at different tolerances) can never collide in
a cache or be mixed across a checkpoint resume.

:class:`IntegrationStats` is the integrator's accounting record (steps
taken / steps rejected / scalar RHS evaluations), attached to every batch
result so sweeps and the fused library pipeline can report integration
cost in the :class:`~repro.runtime.accounting.RunLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Default number of RK4 steps per simulation window.
DEFAULT_STEPS = 400
#: Default relative tolerance of the adaptive engine.  Chosen to match the
#: engine-equivalence budget of the fixed-step engines (``rtol <= 1e-9``):
#: at this local tolerance the adaptive delays/slews agree with the
#: fixed-step results to within the fixed-step scheme's own discretization
#: error (enforced by the test suite and ``benchmarks/test_perf_integrator``).
DEFAULT_RTOL = 1e-9
#: Default absolute tolerance, as a fraction of each condition's supply
#: voltage (the natural state scale of the output node).
DEFAULT_ATOL_FRAC = 1e-9


@dataclass(frozen=True)
class StepperSpec:
    """Full numerical identity of one transient integration scheme.

    Attributes
    ----------
    method:
        ``"rk4"`` (fixed-step classical Runge-Kutta; the ``batched``
        engine) or ``"rk45"`` (embedded Dormand-Prince 5(4) with PI
        step-size control; the ``adaptive`` engine).  Both run on the
        lockstep integrator of :mod:`repro.spice.transient`.
    n_steps:
        Fixed-step count per simulation window.  Only meaningful for
        ``"rk4"`` -- the adaptive scheme chooses its own steps, so
        ``n_steps`` is excluded from the rk45 :meth:`signature`.
    rtol, atol_frac:
        Adaptive error test: a step is accepted when the RMS-over-seeds of
        ``|err| / (atol_frac * vdd + rtol * |v|)`` is at most 1 for the
        condition.
    safety, min_factor, max_factor:
        Step-size controller bounds: the proposed factor is clipped to
        ``[min_factor, max_factor]`` and scaled by ``safety``.
    pi_alpha, pi_beta:
        PI controller exponents (Hairer's PI.4.2 constants for a
        fifth-order pair): ``factor = safety * err**-pi_alpha *
        err_prev**pi_beta``.
    max_rejects:
        Consecutive rejected attempts after which a condition is declared
        broken (rejection storm; see ``adaptive.reject`` fault site).
    """

    method: str = "rk45"
    n_steps: int = DEFAULT_STEPS
    rtol: float = DEFAULT_RTOL
    atol_frac: float = DEFAULT_ATOL_FRAC
    safety: float = 0.9
    min_factor: float = 0.2
    max_factor: float = 5.0
    pi_alpha: float = 0.7 / 5.0
    pi_beta: float = 0.4 / 5.0
    max_rejects: int = 50

    def __post_init__(self) -> None:
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"method must be 'rk4' or 'rk45', "
                             f"got {self.method!r}")
        if self.n_steps < 16:
            raise ValueError("n_steps must be at least 16")
        if not (0.0 < self.rtol < 1.0):
            raise ValueError("rtol must be in (0, 1)")
        if not (0.0 < self.atol_frac < 1.0):
            raise ValueError("atol_frac must be in (0, 1)")
        if not (0.0 < self.safety <= 1.0):
            raise ValueError("safety must be in (0, 1]")
        if not (0.0 < self.min_factor < 1.0 <= self.max_factor):
            raise ValueError("need 0 < min_factor < 1 <= max_factor")
        if self.max_rejects < 1:
            raise ValueError("max_rejects must be at least 1")

    @classmethod
    def for_engine(cls, engine: str,
                   n_steps: int = DEFAULT_STEPS) -> "StepperSpec":
        """The default spec of one ``sweep_conditions`` engine name."""
        return cls(method="rk45" if engine == "adaptive" else "rk4",
                   n_steps=int(n_steps))

    def signature(self) -> tuple:
        """The cache/checkpoint key tuple of this scheme.

        Fixed-step results depend only on the step count; adaptive results
        depend on the tolerances and every controller constant but *not*
        on ``n_steps``, so sweeps that differ only in the fixed-step count
        still share adaptive cache entries.
        """
        if self.method == "rk4":
            return ("rk4", int(self.n_steps))
        return ("rk45", float(self.rtol), float(self.atol_frac),
                float(self.safety), float(self.min_factor),
                float(self.max_factor), float(self.pi_alpha),
                float(self.pi_beta), int(self.max_rejects))


def resolve_stepper(engine: str, n_steps: int = DEFAULT_STEPS) -> StepperSpec:
    """An engine's effective default stepper under the runtime config.

    Like :meth:`StepperSpec.for_engine`, but the adaptive engine's
    tolerances honor ``runtime.configure(transient_rtol=...,
    transient_atol_frac=...)`` / ``REPRO_TRANSIENT_RTOL`` /
    ``REPRO_TRANSIENT_ATOL``.  An explicit ``stepper=`` argument anywhere
    always wins over this resolution.
    """
    from repro.runtime import runtime_config  # runtime never imports spice

    spec = StepperSpec.for_engine(engine, n_steps=n_steps)
    if spec.method != "rk45":
        return spec
    config = runtime_config()
    overrides = {}
    if config.transient_rtol is not None:
        overrides["rtol"] = float(config.transient_rtol)
    if config.transient_atol_frac is not None:
        overrides["atol_frac"] = float(config.transient_atol_frac)
    return replace(spec, **overrides) if overrides else spec


@dataclass
class IntegrationStats:
    """Integration-cost accounting of one or more integrator calls.

    ``steps_taken`` / ``steps_rejected`` count per-condition step
    attempts (summed over the conditions of a batch); ``rhs_evals``
    counts *scalar* derivative evaluations -- one per (condition, seed)
    per stage -- so fixed-step and adaptive costs are directly comparable
    whatever the batch shapes were.
    """

    method: str = "rk4"
    steps_taken: int = 0
    steps_rejected: int = 0
    rhs_evals: int = 0

    def merge(self, other: "IntegrationStats") -> None:
        """Accumulate another record (chunked integrations sum their stats)."""
        self.steps_taken += other.steps_taken
        self.steps_rejected += other.steps_rejected
        self.rhs_evals += other.rhs_evals

    def as_dict(self) -> dict:
        """Plain-dict view for JSON artifacts and ledger metrics."""
        return {
            "method": self.method,
            "steps_taken": int(self.steps_taken),
            "steps_rejected": int(self.steps_rejected),
            "rhs_evals": int(self.rhs_evals),
        }
