"""Contact-trace data model.

The evaluation substrate of the paper is *trace-driven* simulation: the
network's connectivity is a recorded (or synthesised) sequence of
pairwise Bluetooth contacts.  A :class:`Contact` is an undirected
meeting between two nodes with a start time and a duration; a
:class:`ContactTrace` is a time-sorted sequence of contacts plus the
node population.

Storage lives in :mod:`repro.traces.stores`: a trace built in memory
keeps four numpy columns (32 bytes per contact, zero-copy time
slicing) and materialises :class:`Contact` objects lazily; a trace
dataset opened from disk maps the same columns from ``.npy`` files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .stores import ColumnarContactStore, store_from_arrays

__all__ = ["Contact", "ContactTrace"]


@dataclass(frozen=True, order=True)
class Contact:
    """One pairwise contact.

    Attributes
    ----------
    start:
        Contact start time in seconds from trace origin.
    duration:
        Contact duration in seconds (> 0); with the effective bandwidth
        this bounds the bytes transferable during the meeting.
    a, b:
        Node identifiers (ints).  Contacts are undirected; the pair is
        stored in canonical (min, max) order by :meth:`make`.
    """

    start: float
    duration: float
    a: int
    b: int

    @staticmethod
    def make(start: float, duration: float, a: int, b: int) -> "Contact":
        """Create a contact with validation and canonical node order."""
        if duration <= 0:
            raise ValueError(f"contact duration must be > 0, got {duration}")
        if a == b:
            raise ValueError(f"contact endpoints must differ, got {a} == {b}")
        if a > b:
            a, b = b, a
        return Contact(float(start), float(duration), a, b)

    @property
    def end(self) -> float:
        """Contact end time."""
        return self.start + self.duration

    @property
    def pair(self) -> Tuple[int, int]:
        """The (min, max) node pair."""
        return (self.a, self.b)

    def involves(self, node: int) -> bool:
        return node == self.a or node == self.b

    def peer_of(self, node: int) -> int:
        """The other endpoint of the contact."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} is not part of this contact")


class ContactTrace:
    """A time-sorted sequence of contacts over a fixed node population.

    Parameters
    ----------
    contacts:
        Any iterable of :class:`Contact`; sorted by start time on
        construction (stable, so equal-start contacts keep their
        relative order).
    nodes:
        The node population.  Defaults to the union of contact
        endpoints, but can be wider (nodes that never meet anyone still
        exist and count against delivery ratios).
    name:
        Human-readable trace label (shows up in reports).
    """

    def __init__(
        self,
        contacts: Iterable[Contact],
        nodes: Optional[Iterable[int]] = None,
        name: str = "trace",
    ):
        store = ColumnarContactStore.from_contacts(
            sorted(contacts, key=lambda c: c.start)
        )
        self._init_from_store(store, nodes, name)

    def _init_from_store(
        self,
        store: ColumnarContactStore,
        nodes: Optional[Iterable[int]],
        name: str,
        check_nodes: bool = True,
    ) -> None:
        self._store = store
        if nodes is not None:
            node_set = set(nodes)
            if check_nodes:
                missing = store.node_ids() - node_set
                if missing:
                    raise ValueError(
                        f"contacts reference nodes outside the population: "
                        f"{sorted(missing)[:5]}…"
                    )
        else:
            node_set = store.node_ids()
        self._nodes: Tuple[int, ...] = tuple(sorted(node_set))
        self.name = name

    @classmethod
    def from_arrays(
        cls,
        start: Sequence[float],
        duration: Sequence[float],
        a: Sequence[int],
        b: Sequence[int],
        nodes: Optional[Iterable[int]] = None,
        name: str = "trace",
        validate: bool = True,
        assume_sorted: bool = False,
    ) -> "ContactTrace":
        """Build a trace straight from columns — the streaming path.

        Loaders and generators hand over four parallel sequences
        (start, duration, a, b) and never build a Python object per
        row.  ``validate`` applies :meth:`Contact.make`'s rules
        vectorised and checks the endpoints against *nodes*; passing
        ``validate=False`` declares the columns trusted by construction
        (the in-tree loaders and the synthetic generator qualify) and
        skips both.  ``assume_sorted`` skips the stable start-time
        sort.
        """
        store = store_from_arrays(
            start, duration, a, b,
            validate=validate, assume_sorted=assume_sorted,
        )
        self = cls.__new__(cls)
        self._init_from_store(store, nodes, name, check_nodes=validate)
        return self

    @classmethod
    def _wrap(
        cls, store: ColumnarContactStore, nodes: Tuple[int, ...], name: str
    ) -> "ContactTrace":
        """Internal: adopt a derived store without re-validating."""
        self = cls.__new__(cls)
        self._store = store
        self._nodes = nodes
        self.name = name
        return self

    # -- basic accessors ------------------------------------------------------

    @property
    def contacts(self) -> Sequence[Contact]:
        return self._store

    @property
    def store(self) -> ColumnarContactStore:
        """The raw contact store (columns for bulk consumers)."""
        return self._store

    @property
    def nodes(self) -> Tuple[int, ...]:
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_contacts(self) -> int:
        return len(self._store)

    @property
    def start_time(self) -> float:
        """Start of the first contact (0.0 for an empty trace)."""
        return self._store[0].start if len(self._store) else 0.0

    @property
    def end_time(self) -> float:
        """Latest contact end (0.0 for an empty trace)."""
        return self._store.end_time()

    @property
    def duration(self) -> float:
        """Trace time span in seconds."""
        return self.end_time - self.start_time if len(self._store) else 0.0

    @property
    def duration_days(self) -> float:
        return self.duration / 86_400.0

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._store)

    # -- transforms -------------------------------------------------------------

    def slice(self, start: float, end: float, name: Optional[str] = None) -> "ContactTrace":
        """The sub-trace of contacts *starting* within [start, end)."""
        if end < start:
            raise ValueError(f"slice end {end} precedes start {start}")
        return ContactTrace._wrap(
            self._store.time_slice(start, end),
            self._nodes,
            name or f"{self.name}[{start},{end})",
        )

    def first_days(self, days: float, name: Optional[str] = None) -> "ContactTrace":
        """The sub-trace covering the first *days* days."""
        horizon = self.start_time + days * 86_400.0
        return ContactTrace._wrap(
            self._store.upto(horizon),
            self._nodes,
            name or f"{self.name}[first {days:g}d]",
        )

    def shifted(self, offset: float) -> "ContactTrace":
        """The same trace with all times shifted by *offset*."""
        return ContactTrace._wrap(
            self._store.shifted(offset), self._nodes, self.name
        )

    def normalised(self) -> "ContactTrace":
        """Shift so the first contact starts at t = 0."""
        return self.shifted(-self.start_time)

    # -- per-node views ------------------------------------------------------------

    def contacts_of(self, node: int) -> List[Contact]:
        """All contacts involving *node*, in time order."""
        return self._store.contacts_of(node)

    def neighbours(self, node: int) -> Set[int]:
        """Distinct peers *node* ever meets."""
        return self._store.neighbour_ids(node)

    def pair_contact_counts(self) -> Dict[Tuple[int, int], int]:
        """Number of contacts per (min, max) node pair."""
        return self._store.pair_counts()

    def __repr__(self) -> str:
        return (
            f"ContactTrace({self.name!r}, nodes={self.num_nodes}, "
            f"contacts={self.num_contacts}, days={self.duration_days:.2f})"
        )
