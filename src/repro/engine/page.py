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

import struct
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

#: The page header: record size, slot count, live count (little-endian).
_HEADER = struct.Struct("<IHH")
_HEADER_BYTES = _HEADER.size


def _slot_count(record_size: int, page_size: int) -> int:
    """Records a page holds; raises ValueError for an impossible geometry."""
    if record_size <= 0:
        raise ValueError(f"record_size must be positive, got {record_size}")
    capacity = (page_size - _HEADER_BYTES) // (record_size + 1)
    if capacity < 1:
        raise ValueError(
            f"page size {page_size} cannot hold any {record_size}-byte record"
        )
    return capacity


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
        capacity = _slot_count(record_size, page_size)
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
        header = _HEADER.pack(self._record_size, self._capacity, self._live)
        padding = bytes(self._page_size - len(header) - len(self._occupied) - len(self._data))
        return b"".join((header, self._occupied, self._data, padding))

    @classmethod
    def from_bytes(cls, image: bytes, page_size: int = DEFAULT_PAGE_SIZE) -> "Page":
        """Reconstruct a page from a serialized image, copying each array once."""
        if len(image) != page_size:
            raise ValueError(f"expected {page_size}-byte image, got {len(image)}")
        record_size, capacity, live = _HEADER.unpack_from(image)
        expected = _slot_count(record_size, page_size)
        if capacity != expected:
            raise ValueError(
                f"image capacity {capacity} does not match geometry {expected}"
            )
        view = memoryview(image)
        data_start = _HEADER_BYTES + capacity
        page = cls.__new__(cls)
        page._record_size = record_size
        page._page_size = page_size
        page._capacity = capacity
        page._occupied = bytearray(view[_HEADER_BYTES:data_start])
        page._data = bytearray(view[data_start : data_start + capacity * record_size])
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

    Only the store can tear an image (a fault at the ``store.write``
    seam), so it marks a page torn exactly when a torn write left it
    unlike the intended image, which is what a page checksum detects:
    :meth:`read` raises :class:`~repro.engine.errors.CorruptPageError`,
    and recovery restores the page from the backup snapshot (see
    :meth:`snapshot_backup`) before replaying the log.  A full write,
    :meth:`restore_from_backup` and :meth:`reformat` clear the mark.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, injector=None):
        self._page_size = page_size
        self._images: dict[PageId, bytes] = {}
        self._torn: set[PageId] = set()
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

        Raises :class:`CorruptPageError` when the stored image is torn
        (a torn write reached disk and was never rewritten).
        """
        try:
            image = self._images[page_id]
        except KeyError:
            raise RecordNotFoundError(f"no page {page_id} on disk") from None
        self.reads += 1
        if self._torn and page_id in self._torn:
            raise CorruptPageError(f"page {page_id} holds a torn image")
        return Page.from_bytes(image, self._page_size)

    def write(self, page_id: PageId, page: Page) -> None:
        """Serialize and persist a page (counts one physical write).

        When the injector fires a torn-write fault, only the first half
        of the image reaches "disk" (the tail keeps the previous image's
        bytes, or zeros for a fresh page); the page is torn when that
        differs from the intended image.
        """
        image = page.to_bytes()
        event = self._injector.fire("store.write") if self._injector else None
        self.writes += 1
        if event is not None:
            half = self._page_size // 2
            old = self._images.get(page_id)
            tail = old[half:] if old is not None else b"\x00" * (len(image) - half)
            self._images[page_id] = image[:half] + tail
            if tail == image[half:]:
                self._torn.discard(page_id)
            else:
                self._torn.add(page_id)
            self.torn_writes += 1
            raise TornPageWriteError(
                f"torn write on page {page_id} (injected, op {event.op_index})"
            )
        self._images[page_id] = image
        self._torn.discard(page_id)

    def allocate(self, page_id: PageId, page: Page) -> None:
        """Persist a brand-new page without counting it as I/O traffic."""
        if page_id in self._images:
            raise ValueError(f"page {page_id} already exists")
        self._images[page_id] = page.to_bytes()

    # -- integrity & backup ----------------------------------------------------

    def is_corrupt(self, page_id: PageId) -> bool:
        """Whether the stored image is torn."""
        return page_id in self._torn

    def corrupt_page_ids(self) -> tuple[PageId, ...]:
        """Pages whose on-disk image is torn, in store order."""
        return tuple(page_id for page_id in self._images if page_id in self._torn)

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
        self._images[page_id] = self._backup[page_id]
        self._torn.discard(page_id)
        return True

    def reformat(self, page_id: PageId, page: Page) -> None:
        """Replace a (corrupt, backup-less) page with a fresh image.

        Recovery-only hook: bypasses the injector and I/O counters.
        """
        self._images[page_id] = page.to_bytes()
        self._torn.discard(page_id)

    def reset_counters(self) -> None:
        self.reads = 0
        self.writes = 0
        self.torn_writes = 0
