"""Latency and energy model of racetrack memory (Table III of the paper).

All latencies are per-operation nanoseconds and all energies are
per-operation picojoules, taken verbatim from the paper's configuration
table:

    latency: read 3.91 ns, write 10.27 ns, shift 2.13 ns
    energy:  read 3.80 pJ, write 11.79 pJ, shift 3.26 pJ
    PIM energy: add 0.03 pJ, mul 0.18 pJ
    memory core frequency: 100 MHz; fabrication process: 32 nm

The per-gate energy scaling law of section V-F ("the energy cost per gate
will drop from 20 pJ to 0.0008 pJ when the domain scale shrinks from
1.0 um to 32 nm") is a cubic law in the feature size, which
:func:`energy_per_gate_pj` implements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

#: Reference point of the fabrication-process scaling law (section V-F).
_GATE_ENERGY_REF_PJ = 20.0
_GATE_ENERGY_REF_NM = 1000.0  # 1.0 um


def energy_per_gate_pj(process_nm: float) -> float:
    """Energy per domain-wall logic gate at a given fabrication process.

    Implements the cubic scaling law of section V-F, anchored at 20 pJ for
    a 1.0 um domain scale.  At 32 nm this evaluates to ~0.0008 pJ/gate, the
    figure quoted in the paper.

    Args:
        process_nm: feature size of the fabrication process in nanometres.

    Returns:
        Energy per gate operation in picojoules.

    Raises:
        ValueError: if ``process_nm`` is not positive.
    """
    if process_nm <= 0:
        raise ValueError(f"process_nm must be positive, got {process_nm}")
    scale = process_nm / _GATE_ENERGY_REF_NM
    return _GATE_ENERGY_REF_PJ * scale**3


@dataclass(frozen=True)
class RMTimingConfig:
    """Per-operation latency/energy constants of the RM device (Table III).

    Attributes:
        read_ns: latency of one access-port read.
        write_ns: latency of one access-port write.
        shift_ns: latency of one single-position shift operation.
        read_pj: energy of one access-port read.
        write_pj: energy of one access-port write.
        shift_pj: energy of one single-position shift operation.
        pim_add_pj: energy of one RM-processor 8-bit addition.
        pim_mul_pj: energy of one RM-processor 8-bit multiplication.
        core_freq_mhz: memory core (and RM processor pipeline) frequency.
        process_nm: fabrication process feature size.
    """

    read_ns: float = 3.91
    write_ns: float = 10.27
    shift_ns: float = 2.13
    read_pj: float = 3.80
    write_pj: float = 11.79
    shift_pj: float = 3.26
    pim_add_pj: float = 0.03
    pim_mul_pj: float = 0.18
    core_freq_mhz: float = 100.0
    process_nm: float = 32.0

    def __post_init__(self) -> None:
        for name in (
            "read_ns",
            "write_ns",
            "shift_ns",
            "read_pj",
            "write_pj",
            "shift_pj",
            "pim_add_pj",
            "pim_mul_pj",
            "core_freq_mhz",
            "process_nm",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def cycle_ns(self) -> float:
        """Duration of one memory-core cycle in nanoseconds."""
        return 1e3 / self.core_freq_mhz

    def cycles_for_ns(self, duration_ns: float) -> int:
        """Number of whole core cycles needed to cover ``duration_ns``."""
        if duration_ns < 0:
            raise ValueError(f"duration must be non-negative, got {duration_ns}")
        return math.ceil(duration_ns / self.cycle_ns - 1e-12)

    @property
    def gate_energy_pj(self) -> float:
        """Energy of one domain-wall logic gate at ``process_nm``."""
        return energy_per_gate_pj(self.process_nm)

    def scaled_to_process(self, process_nm: float) -> "RMTimingConfig":
        """Return a copy of this config at a different fabrication process.

        Only the per-gate energy changes with process in our model; the
        Table III access constants are 32 nm figures and are kept as-is so
        the comparison of section V-F (gate energy vs process) is isolated.
        """
        return replace(self, process_nm=process_nm)


#: The paper's default configuration (Table III).
DEFAULT_TIMING = RMTimingConfig()


@dataclass
class EnergyModel:
    """Mutable accumulator charging RM operations against a timing config.

    Keeps separate tallies per operation category so breakdown figures
    (Figs. 4, 18, 20) can be regenerated.  All tallies are in picojoules.
    """

    timing: RMTimingConfig = field(default_factory=RMTimingConfig)
    read_pj: float = 0.0
    write_pj: float = 0.0
    shift_pj: float = 0.0
    compute_pj: float = 0.0
    n_reads: int = 0
    n_writes: int = 0
    n_shifts: int = 0
    n_adds: int = 0
    n_muls: int = 0
    n_gates: int = 0

    def charge_read(self, count: int = 1) -> None:
        self._check_count(count)
        self.n_reads += count
        self.read_pj += count * self.timing.read_pj

    def charge_write(self, count: int = 1) -> None:
        self._check_count(count)
        self.n_writes += count
        self.write_pj += count * self.timing.write_pj

    def charge_shift(self, count: int = 1) -> None:
        self._check_count(count)
        self.n_shifts += count
        self.shift_pj += count * self.timing.shift_pj

    def charge_add(self, count: int = 1) -> None:
        self._check_count(count)
        self.n_adds += count
        self.compute_pj += count * self.timing.pim_add_pj

    def charge_mul(self, count: int = 1) -> None:
        self._check_count(count)
        self.n_muls += count
        self.compute_pj += count * self.timing.pim_mul_pj

    def charge_gates(self, count: int = 1) -> None:
        """Charge raw domain-wall gate operations (used by dwlogic)."""
        self._check_count(count)
        self.n_gates += count
        self.compute_pj += count * self.timing.gate_energy_pj

    @property
    def total_pj(self) -> float:
        return self.read_pj + self.write_pj + self.shift_pj + self.compute_pj

    @property
    def transfer_pj(self) -> float:
        """Energy spent moving data (everything except compute)."""
        return self.read_pj + self.write_pj + self.shift_pj

    def merge(self, other: "EnergyModel") -> None:
        """Fold another accumulator's tallies into this one."""
        self.read_pj += other.read_pj
        self.write_pj += other.write_pj
        self.shift_pj += other.shift_pj
        self.compute_pj += other.compute_pj
        self.n_reads += other.n_reads
        self.n_writes += other.n_writes
        self.n_shifts += other.n_shifts
        self.n_adds += other.n_adds
        self.n_muls += other.n_muls
        self.n_gates += other.n_gates

    def reset(self) -> None:
        self.read_pj = 0.0
        self.write_pj = 0.0
        self.shift_pj = 0.0
        self.compute_pj = 0.0
        self.n_reads = 0
        self.n_writes = 0
        self.n_shifts = 0
        self.n_adds = 0
        self.n_muls = 0
        self.n_gates = 0

    @staticmethod
    def _check_count(count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
