"""Fixed-record slotted pages and the paged store ("disk").

A :class:`Page` holds up to ``capacity`` fixed-length records in slots,
with a one-byte-per-slot occupancy map — matching the paper's
assumption that only integral units of tuples fit per page and the
remainder is wasted.  Pages serialize to exactly ``page_size`` bytes.

The :class:`PageStore` stands in for the disk: a mapping from
:class:`PageId` to page images that counts physical reads and writes,
which is how the executable engine measures its I/O behaviour.
"""

from __future__ import annotations

import zlib
from typing import Iterator, NamedTuple

from repro.engine.errors import (
    CorruptPageError,
    InvariantViolationError,
    PageFullError,
    RecordNotFoundError,
    TornPageWriteError,
)

#: Default page size, matching the paper's experiments.
DEFAULT_PAGE_SIZE = 4096

#: Bytes reserved for the page header (record size + slot count + used count).
_HEADER_BYTES = 8


class PageId(NamedTuple):
    """Globally unique page address: (file id, page number)."""

    file_id: int
    page_no: int


class Page:
    """A slotted page of fixed-length records.

    Layout: an 8-byte header (record size, capacity, live count), a
    capacity-byte occupancy map, then the record slots.
    """

    def __init__(self, record_size: int, page_size: int = DEFAULT_PAGE_SIZE):
        if record_size <= 0:
            raise ValueError(f"record_size must be positive, got {record_size}")
        capacity = (page_size - _HEADER_BYTES) // (record_size + 1)
        if capacity < 1:
            raise ValueError(
                f"page size {page_size} cannot hold any {record_size}-byte record"
            )
        self._record_size = record_size
        self._page_size = page_size
        self._capacity = capacity
        self._occupied = bytearray(capacity)
        self._data = bytearray(capacity * record_size)
        self._live = 0

    # -- geometry -------------------------------------------------------------

    @property
    def record_size(self) -> int:
        return self._record_size

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def capacity(self) -> int:
        """Maximum records the page can hold."""
        return self._capacity

    @property
    def live_records(self) -> int:
        """Currently occupied slots."""
        return self._live

    @property
    def is_full(self) -> bool:
        return self._live >= self._capacity

    @property
    def is_empty(self) -> bool:
        return self._live == 0

    # -- record operations -------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Store a record in the first free slot; returns the slot number."""
        self._check_record(record)
        if self.is_full:
            raise PageFullError(f"page is full ({self._capacity} records)")
        slot = self._occupied.find(0)
        if slot < 0:
            raise InvariantViolationError(
                f"occupancy map has no free slot but live count is "
                f"{self._live}/{self._capacity}"
            )
        self._write_slot(slot, record)
        self._occupied[slot] = 1
        self._live += 1
        return slot

    def read(self, slot: int) -> bytes:
        """Return the record bytes in a slot."""
        if not (0 <= slot < self._capacity and self._occupied[slot]):
            self._check_live(slot)  # raises the precise error
        start = slot * self._record_size
        return bytes(self._data[start : start + self._record_size])

    def update(self, slot: int, record: bytes) -> None:
        """Overwrite the record in a live slot."""
        self._check_record(record)
        self._check_live(slot)
        self._write_slot(slot, record)

    def delete(self, slot: int) -> None:
        """Free a live slot."""
        self._check_live(slot)
        self._occupied[slot] = 0
        self._live -= 1

    def put(self, slot: int, record: bytes) -> None:
        """Write a record into a specific slot, occupying it if free.

        Idempotent by design: used by WAL recovery to reapply insert and
        update after-images at their original slots.
        """
        self._check_record(record)
        if not 0 <= slot < self._capacity:
            raise RecordNotFoundError(f"slot {slot} out of range [0, {self._capacity})")
        if not self._occupied[slot]:
            self._occupied[slot] = 1
            self._live += 1
        self._write_slot(slot, record)

    def clear(self, slot: int) -> None:
        """Free a slot if occupied (idempotent; used by WAL recovery)."""
        if not 0 <= slot < self._capacity:
            raise RecordNotFoundError(f"slot {slot} out of range [0, {self._capacity})")
        if self._occupied[slot]:
            self._occupied[slot] = 0
            self._live -= 1

    def is_live(self, slot: int) -> bool:
        """Whether a slot currently holds a record."""
        return 0 <= slot < self._capacity and bool(self._occupied[slot])

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Iterate (slot, record bytes) over live slots in slot order."""
        for slot in range(self._capacity):
            if self._occupied[slot]:
                yield slot, self.read(slot)

    # -- serialization --------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to exactly ``page_size`` bytes."""
        header = (
            self._record_size.to_bytes(4, "little")
            + self._capacity.to_bytes(2, "little")
            + self._live.to_bytes(2, "little")
        )
        body = bytes(self._occupied) + bytes(self._data)
        padding = b"\x00" * (self._page_size - len(header) - len(body))
        return header + body + padding

    @classmethod
    def from_bytes(cls, image: bytes, page_size: int = DEFAULT_PAGE_SIZE) -> "Page":
        """Reconstruct a page from a serialized image."""
        if len(image) != page_size:
            raise ValueError(f"expected {page_size}-byte image, got {len(image)}")
        record_size = int.from_bytes(image[0:4], "little")
        capacity = int.from_bytes(image[4:6], "little")
        live = int.from_bytes(image[6:8], "little")
        page = cls(record_size, page_size)
        if page.capacity != capacity:
            raise ValueError(
                f"image capacity {capacity} does not match geometry {page.capacity}"
            )
        offset = _HEADER_BYTES
        page._occupied[:] = image[offset : offset + capacity]
        offset += capacity
        page._data[:] = image[offset : offset + capacity * record_size]
        page._live = live
        return page

    # -- internal ----------------------------------------------------------------------

    def _check_record(self, record: bytes) -> None:
        if len(record) != self._record_size:
            raise ValueError(
                f"record must be exactly {self._record_size} bytes, got {len(record)}"
            )

    def _check_live(self, slot: int) -> None:
        if not 0 <= slot < self._capacity:
            raise RecordNotFoundError(
                f"slot {slot} out of range [0, {self._capacity})"
            )
        if not self._occupied[slot]:
            raise RecordNotFoundError(f"slot {slot} is empty")

    def _write_slot(self, slot: int, record: bytes) -> None:
        start = slot * self._record_size
        self._data[start : start + self._record_size] = record


class PageStore:
    """The "disk": a page-id-addressed image store with I/O counters.

    The buffer manager reads and writes whole page images here;
    ``reads``/``writes`` give the engine's physical I/O counts, the
    executable analogue of the model's miss counts.

    Each write also records a CRC of the intended image (the embedded
    page checksum of a real DBMS), so a torn write — injected via a
    fault plan at the ``store.write`` seam — leaves a *detectably*
    corrupt image: :meth:`read` raises
    :class:`~repro.engine.errors.CorruptPageError`, and recovery
    repairs the page from the backup snapshot (see :meth:`snapshot_backup`)
    before replaying the log.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, injector=None):
        self._page_size = page_size
        self._images: dict[PageId, bytes] = {}
        self._checksums: dict[PageId, int] = {}
        self._backup: dict[PageId, bytes] | None = None
        self._injector = injector
        self.reads = 0
        self.writes = 0
        self.torn_writes = 0

    def set_injector(self, injector) -> None:
        """Arm (or disarm with None) a fault injector at the write seam."""
        self._injector = injector

    @property
    def page_size(self) -> int:
        return self._page_size

    def __len__(self) -> int:
        return len(self._images)

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._images

    def page_ids(self) -> tuple[PageId, ...]:
        """Every page currently on disk."""
        return tuple(self._images)

    def read(self, page_id: PageId) -> Page:
        """Fetch and deserialize a page (counts one physical read).

        Raises :class:`CorruptPageError` when the stored image fails
        its checksum (a torn write reached disk and was never rewritten).
        """
        try:
            image = self._images[page_id]
        except KeyError:
            raise RecordNotFoundError(f"no page {page_id} on disk") from None
        self.reads += 1
        if self.is_corrupt(page_id):
            raise CorruptPageError(
                f"page {page_id} failed its checksum (torn write?)"
            )
        return Page.from_bytes(image, self._page_size)

    def write(self, page_id: PageId, page: Page) -> None:
        """Serialize and persist a page (counts one physical write).

        When the injector fires a torn-write fault, only the first half
        of the image reaches "disk" (the tail keeps the previous image's
        bytes, or zeros for a fresh page) while the recorded checksum is
        that of the intended image — the classic torn-page signature.
        """
        image = page.to_bytes()
        event = self._injector.fire("store.write") if self._injector else None
        self.writes += 1
        self._checksums[page_id] = zlib.crc32(image)
        if event is not None:
            half = self._page_size // 2
            old = self._images.get(page_id)
            tail = old[half:] if old is not None else b"\x00" * (len(image) - half)
            self._images[page_id] = image[:half] + tail
            self.torn_writes += 1
            raise TornPageWriteError(
                f"torn write on page {page_id} (injected, op {event.op_index})"
            )
        self._images[page_id] = image

    def allocate(self, page_id: PageId, page: Page) -> None:
        """Persist a brand-new page without counting it as I/O traffic."""
        if page_id in self._images:
            raise ValueError(f"page {page_id} already exists")
        image = page.to_bytes()
        self._images[page_id] = image
        self._checksums[page_id] = zlib.crc32(image)

    # -- integrity & backup ----------------------------------------------------

    def is_corrupt(self, page_id: PageId) -> bool:
        """Whether a stored image fails its recorded checksum."""
        image = self._images.get(page_id)
        if image is None:
            return False
        expected = self._checksums.get(page_id)
        return expected is not None and zlib.crc32(image) != expected

    def corrupt_page_ids(self) -> tuple[PageId, ...]:
        """Pages whose on-disk image fails its checksum."""
        return tuple(
            page_id for page_id in self._images if self.is_corrupt(page_id)
        )

    def snapshot_backup(self) -> None:
        """Snapshot every image as the base backup (taken after load).

        Crash recovery restores torn pages from this snapshot before
        replaying the log — the executable analogue of "restore from
        backup, then roll the log forward".
        """
        self._backup = dict(self._images)

    def backup_images(self) -> dict[PageId, bytes]:
        """The backup snapshot (empty when none was taken)."""
        return dict(self._backup) if self._backup is not None else {}

    def restore_from_backup(self, page_id: PageId) -> bool:
        """Reinstate a page's backup image; False when not in the backup."""
        if self._backup is None or page_id not in self._backup:
            return False
        image = self._backup[page_id]
        self._images[page_id] = image
        self._checksums[page_id] = zlib.crc32(image)
        return True

    def reformat(self, page_id: PageId, page: Page) -> None:
        """Replace a (corrupt, backup-less) page with a fresh image.

        Recovery-only hook: bypasses the injector and I/O counters.
        """
        image = page.to_bytes()
        self._images[page_id] = image
        self._checksums[page_id] = zlib.crc32(image)

    def reset_counters(self) -> None:
        self.reads = 0
        self.writes = 0
        self.torn_writes = 0
