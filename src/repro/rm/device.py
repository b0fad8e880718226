"""Whole RM device: banks behind an address map, serving word requests.

This is the plain *memory* view of the device — the path the host (or a
bank controller doing inter-subarray data preparation) uses for regular
loads and stores, with read/write/shift latency and energy charged from
Table III.  The PIM execution path lives in :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rm.address import AddressMap, DeviceGeometry, PhysicalAddress
from repro.rm.bank import Bank, BankConfig
from repro.rm.timing import EnergyModel, RMTimingConfig


class RMDevice:
    """Racetrack-memory device with lazily materialised banks.

    Word-granular reads/writes walk the full hierarchy (bank → subarray →
    mat → track group), really move bits, and charge latency/energy.

    Args:
        geometry: device geometry; defaults to the paper's 8 GiB device.
        timing: latency/energy constants; defaults to Table III.
    """

    def __init__(
        self,
        geometry: Optional[DeviceGeometry] = None,
        timing: Optional[RMTimingConfig] = None,
    ) -> None:
        self.geometry = geometry or DeviceGeometry()
        self.timing = timing or RMTimingConfig()
        self.energy = EnergyModel(timing=self.timing)
        self.address_map = AddressMap(self.geometry)
        self._banks: Dict[int, Bank] = {}

    def bank(self, index: int) -> Bank:
        """Get (lazily creating) bank ``index``."""
        if not 0 <= index < self.geometry.banks:
            raise IndexError(
                f"bank {index} out of range [0, {self.geometry.banks})"
            )
        existing = self._banks.get(index)
        if existing is None:
            existing = Bank(
                BankConfig(
                    subarrays=self.geometry.bank.subarrays,
                    subarray=self.geometry.bank.subarray,
                    pim_bank=self.geometry.is_pim_bank(index),
                ),
                energy=self.energy,
                index=index,
            )
            self._banks[index] = existing
        return existing

    # ------------------------------------------------------------------
    # Word-granular access
    # ------------------------------------------------------------------
    def read_word(self, linear: int) -> Tuple[int, float]:
        """Read one word.

        Returns:
            ``(value, latency_ns)`` — latency includes the shift needed to
            align the word under an access port plus the port read.
        """
        loc = self.address_map.decompose(linear)
        mat = self._mat_at(loc)
        before = mat.energy.n_shifts
        value = mat.read_word(loc.group, loc.word)
        shift_distance = mat.energy.n_shifts - before
        latency = self.timing.read_ns + shift_distance * self.timing.shift_ns
        return value, latency

    def write_word(self, linear: int, value: int) -> float:
        """Write one word; returns the latency in ns."""
        loc = self.address_map.decompose(linear)
        mat = self._mat_at(loc)
        before = mat.energy.n_shifts
        mat.write_word(loc.group, loc.word, value)
        shift_distance = mat.energy.n_shifts - before
        return self.timing.write_ns + shift_distance * self.timing.shift_ns

    def read_vector(self, linear: int, length: int) -> Tuple[List[int], float]:
        """Read ``length`` consecutive words; returns (values, latency)."""
        values: List[int] = []
        latency = 0.0
        for i in range(length):
            value, item_latency = self.read_word(linear + i)
            values.append(value)
            latency += item_latency
        return values, latency

    def write_vector(self, linear: int, values: List[int]) -> float:
        """Write consecutive words; returns total latency in ns."""
        latency = 0.0
        for i, value in enumerate(values):
            latency += self.write_word(linear + i, value)
        return latency

    # ------------------------------------------------------------------
    def _mat_at(self, loc: PhysicalAddress):
        return self.bank(loc.bank).subarray(loc.subarray).mat(loc.mat)

    @property
    def instantiated_banks(self) -> int:
        return len(self._banks)
