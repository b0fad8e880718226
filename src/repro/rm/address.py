"""Device geometry and physical address mapping.

The paper's device (Table III) is ``bank-subarray-mat = 32-64-16`` with
256 KiB mats, i.e. an 8 GiB device.  Word addresses are decomposed
hierarchically: bank, then subarray, then mat, then word-track group,
then word index along the domain axis.  Matrix rows are laid out
contiguously inside one subarray so a vector operand of a VPC lives
entirely in one subarray (the constraint the ``distribute`` placement
relies on, section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rm.mat import MatConfig
from repro.rm.subarray import SubarrayConfig
from repro.rm.bank import BankConfig


@dataclass(frozen=True)
class DeviceGeometry:
    """Whole-device geometry (defaults = Table III).

    Attributes:
        banks: total bank count.
        pim_banks: banks whose subarrays embed RM processors.
        bank: per-bank geometry.
    """

    banks: int = 32
    pim_banks: int = 8
    bank: BankConfig = field(default_factory=BankConfig)

    def __post_init__(self) -> None:
        if self.banks <= 0:
            raise ValueError("banks must be positive")
        if not 0 <= self.pim_banks <= self.banks:
            raise ValueError(
                f"pim_banks ({self.pim_banks}) must be in [0, {self.banks}]"
            )

    @property
    def subarrays_per_bank(self) -> int:
        return self.bank.subarrays

    @property
    def total_subarrays(self) -> int:
        return self.banks * self.bank.subarrays

    @property
    def pim_subarrays(self) -> int:
        """Total PIM-capable subarrays (paper default: 8 * 64 = 512)."""
        return self.pim_banks * self.bank.subarrays

    @property
    def capacity_bytes(self) -> int:
        return self.banks * self.bank.capacity_bytes

    @property
    def subarray_capacity_words(self) -> int:
        return self.bank.subarray.capacity_words

    @property
    def word_bits(self) -> int:
        return self.bank.subarray.mat.word_bits

    def is_pim_bank(self, bank: int) -> bool:
        """PIM banks occupy the low bank indices by convention."""
        if not 0 <= bank < self.banks:
            raise IndexError(f"bank {bank} out of range [0, {self.banks})")
        return bank < self.pim_banks

    def with_pim_subarrays(self, total: int) -> "DeviceGeometry":
        """Derive a geometry with a different PIM subarray budget.

        Used by the Fig. 21 sensitivity sweep: the paper varies the PIM
        subarray count (128/256/512/1024) by "adjusting the number of
        subarrays per bank and the memory capacity per subarray".  We keep
        the per-bank subarray count fixed and vary the PIM bank count when
        the budget divides evenly, otherwise we scale subarrays per bank.
        """
        if total <= 0:
            raise ValueError("total must be positive")
        per_bank = self.bank.subarrays
        if total % per_bank == 0 and total // per_bank <= self.banks:
            return DeviceGeometry(
                banks=self.banks,
                pim_banks=total // per_bank,
                bank=self.bank,
            )
        # Scale subarrays per bank, keeping total capacity constant by
        # shrinking mats proportionally (as the paper describes).
        if total % self.pim_banks != 0:
            raise ValueError(
                f"cannot express {total} PIM subarrays with geometry "
                f"{self.banks} banks x {per_bank} subarrays"
            )
        new_per_bank = total // self.pim_banks
        scale = new_per_bank / per_bank
        old_mat = self.bank.subarray.mat
        new_domains = max(1, int(old_mat.domains_per_track / scale))
        new_mat = MatConfig(
            save_tracks=old_mat.save_tracks,
            transfer_tracks=old_mat.transfer_tracks,
            domains_per_track=new_domains,
            word_bits=old_mat.word_bits,
            ports_per_track=old_mat.ports_per_track,
        )
        new_sub = SubarrayConfig(
            mats=self.bank.subarray.mats,
            pim_mats=self.bank.subarray.pim_mats,
            mat=new_mat,
            row_buffer_bytes=self.bank.subarray.row_buffer_bytes,
        )
        new_bank = BankConfig(
            subarrays=new_per_bank,
            subarray=new_sub,
            pim_bank=self.bank.pim_bank,
        )
        return DeviceGeometry(
            banks=self.banks, pim_banks=self.pim_banks, bank=new_bank
        )


#: Geometry used throughout the paper's evaluation.
DEFAULT_GEOMETRY = DeviceGeometry()


@dataclass(frozen=True)
class PhysicalAddress:
    """Decomposed word address inside the device."""

    bank: int
    subarray: int
    mat: int
    group: int
    word: int


class AddressMap:
    """Bijective mapping between linear word addresses and hierarchy.

    Linear word address ``a`` decomposes most-significant-first as
    ``bank : subarray : mat : group : word`` so that consecutive words
    stay within one track group (streaming-friendly row-major layout).
    """

    def __init__(self, geometry: DeviceGeometry | None = None) -> None:
        self.geometry = geometry or DEFAULT_GEOMETRY
        sub = self.geometry.bank.subarray
        self._words_per_group = sub.mat.words_per_group
        self._groups_per_mat = sub.mat.word_groups
        self._mats_per_subarray = sub.mats
        self._subarrays_per_bank = self.geometry.bank.subarrays
        self._words_per_mat = self._words_per_group * self._groups_per_mat
        self._words_per_subarray = self._words_per_mat * self._mats_per_subarray
        self._words_per_bank = (
            self._words_per_subarray * self._subarrays_per_bank
        )
        self._total_words = self._words_per_bank * self.geometry.banks

    @property
    def total_words(self) -> int:
        return self._total_words

    @property
    def words_per_subarray(self) -> int:
        return self._words_per_subarray

    def decompose(self, linear: int) -> PhysicalAddress:
        """Map a linear word address to its physical location."""
        if not 0 <= linear < self._total_words:
            raise IndexError(
                f"address {linear} out of range [0, {self._total_words})"
            )
        bank, rest = divmod(linear, self._words_per_bank)
        subarray, rest = divmod(rest, self._words_per_subarray)
        mat, rest = divmod(rest, self._words_per_mat)
        group, word = divmod(rest, self._words_per_group)
        return PhysicalAddress(bank, subarray, mat, group, word)

    def compose(self, address: PhysicalAddress) -> int:
        """Map a physical location back to its linear word address."""
        self._check_component(address.bank, self.geometry.banks, "bank")
        self._check_component(
            address.subarray, self._subarrays_per_bank, "subarray"
        )
        self._check_component(address.mat, self._mats_per_subarray, "mat")
        self._check_component(address.group, self._groups_per_mat, "group")
        self._check_component(address.word, self._words_per_group, "word")
        return (
            (
                (
                    (address.bank * self._subarrays_per_bank + address.subarray)
                    * self._mats_per_subarray
                    + address.mat
                )
                * self._groups_per_mat
                + address.group
            )
            * self._words_per_group
            + address.word
        )

    def subarray_of(self, linear: int) -> tuple:
        """Return the (bank, subarray) pair holding a linear address."""
        physical = self.decompose(linear)
        return (physical.bank, physical.subarray)

    def subarray_base(self, bank: int, subarray: int) -> int:
        """Linear address of the first word of a subarray."""
        self._check_component(bank, self.geometry.banks, "bank")
        self._check_component(subarray, self._subarrays_per_bank, "subarray")
        return bank * self._words_per_bank + subarray * self._words_per_subarray

    @staticmethod
    def _check_component(value: int, bound: int, name: str) -> None:
        if not 0 <= value < bound:
            raise IndexError(f"{name} {value} out of range [0, {bound})")
