"""Loading, quantile binning, and count statistics for scored observations."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

__all__ = [
    "ColumnSchema",
    "Dataset",
    "BinSpec",
    "BinStats",
    "OverlapReport",
    "SchemaError",
    "RowValidationError",
    "BinningError",
    "load_dataset",
    "quantile_bin",
    "compute_bin_stats",
    "validate_overlap",
]


class SchemaError(ValueError):
    """The input is missing a required column or is malformed."""


class RowValidationError(ValueError):
    """A row failed validation; carries the offending 0-based row index."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class BinningError(ValueError):
    """Requested binning cannot be achieved; carries the achievable count."""

    def __init__(self, message: str, achievable: int):
        super().__init__(message)
        self.achievable = achievable


@dataclass(frozen=True)
class ColumnSchema:
    score: str = "score"
    label: str = "label"
    group: str = "group"
    delimiter: str = ","


@dataclass(eq=False)
class Dataset:
    """Validated rows as column arrays in file order: float ``score``, 0/1
    ``label`` and dense ``group`` ids 1..G. ``header`` and ``records`` are
    the parsed CSV fields that ``apply`` writes back; a dataset built from
    arrays has neither."""

    score: np.ndarray
    label: np.ndarray
    group: np.ndarray
    header: list[str] = field(default_factory=list)
    records: list[tuple[str, ...]] = field(default_factory=list)

    def __post_init__(self):
        self.score = np.asarray(self.score, dtype=float)
        self.label = np.asarray(self.label, dtype=np.int64)
        self.group = np.asarray(self.group, dtype=np.int64)
        if not self.score.shape == self.label.shape == self.group.shape == (len(self),):
            raise ValueError("score, label and group must be 1-d and of one length")

    def __len__(self) -> int:
        return len(self.score)


def _group_sort_key(raw_labels: set[str]):
    try:
        return sorted(raw_labels, key=lambda s: (0, float(s), s))
    except ValueError:
        return sorted(raw_labels)


def _row_problem(score, label, group) -> str | None:
    """What is wrong with one row's raw fields, checked in this order, or None."""
    try:
        value = float(score)
    except (TypeError, ValueError):
        return f"score {score!r} is not a number"
    if not 0.0 <= value <= 1.0:
        return f"score {value} outside [0, 1]"
    if (label or "").strip() not in ("0", "1"):
        return f"label {label!r} is not binary"
    if not (group or "").strip():
        return "empty group"
    return None


def load_dataset(
    source: str | Path | io.TextIOBase,
    schema: ColumnSchema = ColumnSchema(),
) -> Dataset:
    """Parse delimiter-separated text into validated column arrays.

    Row order is preserved. Group labels may be arbitrary tokens; they are
    remapped to dense ids 1..G (numeric sort when all tokens parse as
    numbers, lexicographic otherwise). Lines starting with ``#`` are
    treated as comments and skipped, and so are blank rows. A short row
    reads its missing fields as None; the first bad row raises.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return load_dataset(fh, schema)

    filtered = (line for line in source if not line.startswith("#"))
    reader = csv.reader(filtered, delimiter=schema.delimiter)
    header = next(reader, None)
    if header is None:
        raise SchemaError("empty input: no header row")
    names = (schema.score, schema.label, schema.group)
    for col in names:
        if col not in header:
            raise SchemaError(f"missing column {col!r}; available: {header}")
    # tuples of strings drop out of the garbage collector's scans; lists would not
    records = list(map(tuple, filter(None, reader)))
    # a column name that repeats in the header reads its last copy
    columns = [len(header) - 1 - header[::-1].index(col) for col in names]
    score_tok, label_tok, group_tok = (
        [r[j].strip() if j < len(r) else "" for r in records] for j in columns)
    try:
        score = np.fromiter(map(float, score_tok), dtype=float, count=len(records))
    except ValueError:  # some score is no number: the row checks below find it
        score = np.full(len(records), np.nan)
    label = np.fromiter(map({"0": 0, "1": 1}.get, label_tok, repeat(-1)), np.int64, len(records))
    groups = _group_sort_key(set(group_tok) - {""})
    gid = {tok: k for k, tok in enumerate(groups, start=1)}
    group = np.fromiter(map(gid.get, group_tok, repeat(0)), np.int64, len(records))
    for i in np.flatnonzero(~((score >= 0.0) & (score <= 1.0)) | (label < 0) | (group == 0)):
        problem = _row_problem(*(records[i][j] if j < len(records[i]) else None for j in columns))
        if problem:
            raise RowValidationError(int(i), problem)
    if len(groups) < 2:
        raise SchemaError(f"need at least 2 groups, found {len(groups)}")
    return Dataset(score, label, group, header=header, records=records)


@dataclass(frozen=True)
class BinSpec:
    """Strictly increasing edges over [0, 1] plus bin midpoints.

    Membership rule: half-open [edges[b], edges[b+1]) with the last bin
    closed at 1.
    """

    edges: tuple[float, ...]
    requested_bins: int = 0

    def __post_init__(self):
        e = self.edges
        if len(e) < 3:
            raise ValueError("need at least 2 bins")
        # every comparison with NaN is False, so the order check would pass it
        if not np.isfinite(np.asarray(e, dtype=float)).all():
            raise ValueError("edges must be finite numbers")
        if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
            raise ValueError("edges must be strictly increasing")
        if e[0] != 0.0 or e[-1] != 1.0:
            raise ValueError("edges must span [0, 1]")

    @property
    def nbins(self) -> int:
        return len(self.edges) - 1

    @property
    def midpoints(self) -> np.ndarray:
        e = np.asarray(self.edges)
        return (e[:-1] + e[1:]) / 2.0

    def assign(self, scores) -> np.ndarray:
        """Map scores to 0-based bin indices."""
        idx = np.searchsorted(self.edges, np.asarray(scores, dtype=float), side="right") - 1
        return np.clip(idx, 0, self.nbins - 1)


def quantile_bin(data: Dataset, nbins: int) -> BinSpec:
    """Quantile-discretize scores into ``nbins`` bins over [0, 1].

    Interior edges are the empirical quantiles at k/nbins. Duplicate edges
    collapse; bins left empty by interpolation are merged rightward. The
    achieved bin count is available as ``spec.nbins`` (the requested count
    is kept on the spec); fewer than 2 achievable bins is an error.
    """
    if nbins < 2:
        raise BinningError(f"nbins must be >= 2, got {nbins}", achievable=nbins)
    scores = data.score
    if scores.size == 0:
        raise BinningError("no observations", achievable=0)
    distinct = np.unique(scores).size
    if distinct < nbins:
        raise BinningError(
            f"only {distinct} distinct score values; achievable bins = {distinct}, "
            f"requested {nbins}",
            achievable=distinct,
        )

    interior = np.quantile(scores, np.arange(1, nbins) / nbins)
    edges = np.concatenate(([0.0], interior, [1.0]))
    # collapse duplicates introduced by heavy ties
    edges = np.unique(edges)
    if len(edges) - 1 < 2:
        raise BinningError(
            f"quantile ties collapse the grid to {len(edges) - 1} bin(s)",
            achievable=len(edges) - 1,
        )

    # merge any bin the data never touches into its right neighbor
    while True:
        spec = BinSpec(tuple(edges), requested_bins=nbins)
        counts = np.bincount(spec.assign(scores), minlength=spec.nbins)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return spec
        if len(edges) - 2 < 2:
            raise BinningError(
                "cannot form 2 nonempty bins from these scores", achievable=1
            )
        drop = min(empty[0] + 1, len(edges) - 2)
        edges = np.delete(edges, drop)


@dataclass
class BinStats:
    """Per-group, per-bin totals and positives plus derived aggregates.

    Counts are float arrays so the same container carries both raw integer
    tallies and fractional expected-assignment results. Groups are dense
    ids 1..G; arrays are indexed [group-1, bin].
    """

    n: np.ndarray
    npos: np.ndarray
    midpoints: np.ndarray
    edges: tuple[float, ...] = field(default=())

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=float)
        self.npos = np.asarray(self.npos, dtype=float)
        self.midpoints = np.asarray(self.midpoints, dtype=float)
        if self.n.shape != self.npos.shape:
            raise ValueError("n and npos shapes differ")
        if self.n.shape[1] != self.midpoints.size:
            raise ValueError("midpoint count does not match bin count")
        if np.any(self.npos > self.n + 1e-9):
            raise ValueError("npos exceeds n")

    @property
    def ngroups(self) -> int:
        return self.n.shape[0]

    @property
    def nbins(self) -> int:
        return self.n.shape[1]

    @property
    def nneg(self) -> np.ndarray:
        return self.n - self.npos

    @property
    def group_totals(self) -> np.ndarray:
        return self.n.sum(axis=1)

    @property
    def group_pos(self) -> np.ndarray:
        return self.npos.sum(axis=1)

    @property
    def group_neg(self) -> np.ndarray:
        return self.nneg.sum(axis=1)

    @property
    def total(self) -> float:
        return float(self.n.sum())

    def to_json(self) -> str:
        def cell(x: float):
            return int(x) if float(x).is_integer() else float(x)

        doc = {
            "edges": list(self.edges) if self.edges else None,
            "midpoints": [float(m) for m in self.midpoints],
            "groups": [
                {
                    "group": g + 1,
                    "n": [cell(v) for v in self.n[g]],
                    "npos": [cell(v) for v in self.npos[g]],
                }
                for g in range(self.ngroups)
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BinStats":
        doc = json.loads(text)
        groups = sorted(doc["groups"], key=lambda d: d["group"])
        n = np.array([d["n"] for d in groups], dtype=float)
        npos = np.array([d["npos"] for d in groups], dtype=float)
        edges = tuple(doc["edges"]) if doc.get("edges") else ()
        return cls(n=n, npos=npos, midpoints=np.array(doc["midpoints"]), edges=edges)


def compute_bin_stats(data: Dataset, spec: BinSpec) -> BinStats:
    ngroups, nbins = int(data.group.max(initial=0)), spec.nbins
    cell = (data.group - 1) * nbins + spec.assign(data.score)
    n = np.bincount(cell, minlength=ngroups * nbins).reshape(ngroups, nbins)
    npos = np.bincount(cell, weights=data.label, minlength=ngroups * nbins)
    return BinStats(n=n, npos=npos.reshape(ngroups, nbins), midpoints=spec.midpoints,
                    edges=spec.edges)


@dataclass(frozen=True)
class OverlapReport:
    passed: bool
    missing: tuple[tuple[int, int], ...]  # (bin, group) pairs, bin-major, 1-based group

    def describe(self) -> str:
        if self.passed:
            return "overlap: pass"
        pairs = ", ".join(f"(bin {b}, group {g})" for b, g in self.missing)
        return f"overlap: fail [{pairs}]"


def validate_overlap(stats: BinStats) -> OverlapReport:
    """Check that every bin holds at least one member of every group."""
    missing = [
        (b, g + 1)
        for b in range(stats.nbins)
        for g in range(stats.ngroups)
        if stats.n[g, b] <= 0
    ]
    return OverlapReport(passed=not missing, missing=tuple(missing))
