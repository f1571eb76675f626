"""Loading, quantile binning, and count statistics for scored observations.

`ColumnSchema` and `OverlapReport` are named tuples; `Dataset`, `BinSpec`
and `BinStats` are plain classes."""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator
from itertools import chain, groupby, islice, repeat
from operator import add
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

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


class ColumnSchema(NamedTuple):
    score: str = "score"
    label: str = "label"
    group: str = "group"


class Dataset:
    """Validated rows as column arrays in file order: float ``score``, 0/1
    ``label`` and dense ``group`` ids 1..G. ``header`` holds the parsed
    header fields and ``records`` one string per row: its fields as
    ``apply`` writes them, comma-separated, before the two fields it
    appends (for plain input, the input line itself). A dataset built from
    arrays has neither. ``len()`` is the row count."""

    def __init__(self, score, label, group, header: list[str] | None = None,
                 records: Iterable[str] | None = None):
        self.score = np.asarray(score, dtype=float)
        self.label = np.asarray(label, dtype=np.int64)
        self.group = np.asarray(group, dtype=np.int64)
        self.header = [] if header is None else header
        self.records = [] if records is None else records
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


# rows parsed by csv.reader, or written, at a time: only one block's fields
# are alive at once
_BLOCK_LINES = 1 << 14
# characters read and split at a time; below csv.field_size_limit()'s
# default, so that a chunk's length alone mostly shows that no line passes it
_CHUNK_CHARS = 1 << 16


class _Memo(dict):
    """``fn`` of each distinct key, computed on first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


class _Written:
    """Record strings of rows that are plain lines or field tuples. A tuple,
    a row ``csv.reader`` parsed, is written by ``csv.writer`` only when the
    records are iterated: writing costs more than the parse, and only
    ``apply`` reads the records. The writer ends its lines with ``\r\n``,
    cut off again, so that it quotes a field holding a ``\r`` as it does
    one holding a ``\n``."""

    def __init__(self, rows: list[str | tuple[str, ...]]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(self._blocks())

    def _blocks(self) -> Iterator[Iterable[str]]:
        written: list[str] = []
        writer = csv.writer(SimpleNamespace(write=written.append), lineterminator="\r\n")
        for kind, rows in groupby(self.rows, type):
            if kind is str:
                yield rows
                continue
            while block := list(islice(rows, _BLOCK_LINES)):
                # the extra empty field keeps a row whose only field is empty
                # from being written as "", which the writer does only for a
                # row on its own
                writer.writerows(map(add, block, repeat(("",))))
                yield [text[:-3] for text in written]
                written.clear()


def csv_line(fields: Iterable[str]) -> str:
    """One CSV line of ``fields``, without its line end, quoted as ``apply``
    writes a record."""
    return next(iter(_Written([tuple(fields)])))


def _chunks(source: io.TextIOBase) -> Iterator[str]:
    """The source's text about ``_CHUNK_CHARS`` characters at a time, each
    piece read on to the end of its last line."""
    while text := source.read(_CHUNK_CHARS):
        text += source.readline()
        yield text


def _lines(text: str) -> io.StringIO:
    """The lines of ``text`` with their ends, split where ``open(newline="")``
    splits a file: at ``\n``, ``\r\n`` and a bare ``\r``."""
    return io.StringIO(text, newline="")


def _is_plain(text: str, lines: list[str]) -> bool:
    """Whether splitting ``lines``, the lines of ``text``, at commas gives
    exactly the fields ``csv.reader`` gives: no quote, no carriage return,
    and no line long enough for a field over the reader's size limit."""
    limit = csv.field_size_limit()
    return ('"' not in text and "\r" not in text
            and (len(text) <= limit or max(map(len, lines)) <= limit))


def _columns_of_rows(rows: list[tuple[str, ...]] | list[list[str]]):
    """Column getter over field lists: each row's field j, None where the
    row is too short."""
    return lambda j: [r[j] if j < len(r) else None for r in rows]


def _columns_of_lines(lines: list[str]):
    """Column getter over plain lines. Joined with ``",\n,"``, the lines
    split at commas into one flat list in which each line break is a field
    of its own. With ``n`` lines and the first line's width ``w``, every
    line has ``w`` fields exactly when the list holds ``n*(w+1) - 1`` fields
    and every ``(w+1)``-th is a line break; then column ``j`` is the slice
    ``flat[j::w+1]``, and no list is created per row."""
    n, width = len(lines), lines[0].count(",") + 1
    flat = ",\n,".join(lines).split(",")
    if len(flat) == n * (width + 1) - 1 and flat[width::width + 1].count("\n") == n - 1:
        return lambda j: flat[j::width + 1] if j < width else [None] * n
    return _columns_of_rows([line.split(",") for line in lines])


def _parse(source: io.TextIOBase):
    """Yield the header's fields, then one ``(rows, column)`` pair per block
    of non-blank body rows: each row as its line or its field tuple, and a
    getter of one column's raw fields. A block is a plain chunk, whose rows
    are its lines, or ``_BLOCK_LINES`` rows that ``csv.reader`` parsed from
    the first other chunk on, whose rows are field tuples. Comment lines
    are dropped. See ``load_dataset``."""
    chunks = _chunks(source)
    header = None
    for text in chunks:
        if "#" in text:
            # comment lines are lines as a file opened with newline="" reads them
            text = "".join(line for line in _lines(text) if not line.startswith("#"))
            if not text:
                continue
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        if not _is_plain(text, lines):
            break
        if header is None:
            header = lines[0].split(",") if lines[0] else []
            yield header
            del lines[0]
        lines = list(filter(None, lines))
        if lines:
            yield lines, _columns_of_lines(lines)
    else:  # every chunk was plain
        return

    rest = (line for text in chunks for line in _lines(text) if not line.startswith("#"))
    reader = csv.reader(chain(_lines(text), rest))
    if header is None:
        header = next(reader, None)
        if header is None:
            return
        yield header
    # tuples of strings drop out of the garbage collector's scans; lists would not
    body = map(tuple, filter(None, reader))
    while rows := list(islice(body, _BLOCK_LINES)):
        yield rows, _columns_of_rows(rows)


def load_dataset(
    source: str | Path | io.TextIOBase,
    schema: ColumnSchema = ColumnSchema(),
) -> Dataset:
    """Parse comma-separated text into validated column arrays.

    Row order is preserved. Group labels may be arbitrary tokens; they are
    remapped to dense ids 1..G (numeric sort when all tokens parse as
    numbers, lexicographic otherwise). Lines starting with ``#`` are
    treated as comments and skipped, and so are blank rows. A short row
    reads its missing fields as None; the first bad row raises.

    The text is read in chunks of about ``_CHUNK_CHARS`` characters, each
    read on to the end of its last line. Its lines end where a file opened
    with ``newline=""`` ends them: at ``\n``, ``\r\n`` or a bare ``\r``. A
    plain chunk (once comment lines are gone, the chunk holds no ``"``, no carriage return and no line longer than
    ``csv.field_size_limit()``) is split into lines once, and each row's
    record is its input line. Its fields come from one split of its lines
    joined by ``",\n,"``, which gives exactly the fields ``csv.reader``
    gives; when the line breaks in that split do not fall every ``w + 1``
    fields, for the first line's width ``w``, the lines are split one by
    one. From the first chunk that is not plain on, ``csv.reader`` parses
    the rest, fed the lines as ``open(newline="")`` reads them, and each of
    those rows' records is its fields written by ``csv.writer`` when the
    records are read.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return load_dataset(fh, schema)

    blocks = _parse(source)
    header = next(blocks, None)
    if header is None:
        raise SchemaError("empty input: no header row")
    names = (schema.score, schema.label, schema.group)
    for col in names:
        if col not in header:
            raise SchemaError(f"missing column {col!r}; available: {header}")
    # a column name that repeats in the header reads its last copy
    columns = [len(header) - 1 - header[::-1].index(col) for col in names]
    labels = _Memo(lambda tok: {"0": 0, "1": 1}.get((tok or "").strip(), -1))
    # each raw group token's stripped name, numbered in order of first
    # sight; 0 is the blank name of a missing or empty group
    group_names = {"": 0}
    groups = _Memo(lambda tok: group_names.setdefault((tok or "").strip(), len(group_names)))
    records: list[str | tuple[str, ...]] = []
    score, label, group = [np.empty(0)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    problem = None
    for rows, column in blocks:
        n = len(rows)
        score_tok, label_tok, group_tok = map(column, columns)
        try:
            s = np.fromiter(map(float, score_tok), dtype=float, count=n)
        except (TypeError, ValueError):  # some score is no number: the row checks find it
            s = np.full(n, np.nan)
        y = np.fromiter(map(labels.__getitem__, label_tok), np.int64, n)
        g = np.fromiter(map(groups.__getitem__, group_tok), np.int64, n)
        if problem is None:
            # the first bad row raises, but only once every row has parsed
            for i in np.flatnonzero(~((s >= 0.0) & (s <= 1.0)) | (y < 0) | (g == 0)):
                message = _row_problem(score_tok[i], label_tok[i], group_tok[i])
                if message:
                    problem = RowValidationError(len(records) + int(i), message)
                    break
        records += rows
        score.append(s)
        label.append(y)
        group.append(g)
    if problem:
        raise problem
    order = _group_sort_key(set(group_names) - {""})
    if len(order) < 2:
        raise SchemaError(f"need at least 2 groups, found {len(order)}")
    gid = {tok: k for k, tok in enumerate(order, start=1)}
    dense = np.array([gid.get(tok, 0) for tok in group_names], dtype=np.int64)
    if records and type(records[-1]) is tuple:
        records = _Written(records)
    return Dataset(np.concatenate(score), np.concatenate(label),
                   dense[np.concatenate(group)], header=header, records=records)


class BinSpec:
    """Strictly increasing edges over [0, 1] plus bin midpoints.

    Membership rule: half-open [edges[b], edges[b+1]) with the last bin
    closed at 1.
    """

    def __init__(self, edges: tuple[float, ...]):
        self.edges = e = edges
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


def _sorted_quantiles(ordered: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(ordered, q)`` of sorted scores, bit for bit: numpy's
    "linear" method, index ``(n - 1) * q`` and its ``_lerp``, without the
    ``numpy.ma`` import that numpy's first quantile call costs."""
    last = ordered.size - 1
    index = last * q
    below = np.floor(index)
    t = index - below
    i = below.astype(np.intp)
    a, b = ordered[i], ordered[np.minimum(i + 1, last)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, as ``np.unique`` gives them."""
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def quantile_bin(data: Dataset, nbins: int) -> BinSpec:
    """Quantile-discretize scores into ``nbins`` bins over [0, 1].

    Interior edges are the empirical quantiles at k/nbins. Duplicate edges
    collapse; bins left empty by interpolation are merged rightward, so
    ``spec.nbins`` may be less than ``nbins``; fewer than 2 achievable bins
    is an error.
    """
    if nbins < 2:
        raise BinningError(f"nbins must be >= 2, got {nbins}", achievable=nbins)
    scores = data.score
    if scores.size == 0:
        raise BinningError("no observations", achievable=0)
    ordered = np.sort(scores)
    distinct = _distinct(ordered).size
    if distinct < nbins:
        raise BinningError(
            f"only {distinct} distinct score values; achievable bins = {distinct}, "
            f"requested {nbins}",
            achievable=distinct,
        )

    interior = _sorted_quantiles(ordered, np.arange(1, nbins) / nbins)
    # collapse duplicates introduced by heavy ties
    edges = _distinct(np.sort(np.concatenate(([0.0], interior, [1.0]))))
    if len(edges) - 1 < 2:
        raise BinningError(
            f"quantile ties collapse the grid to {len(edges) - 1} bin(s)",
            achievable=len(edges) - 1,
        )

    # merge any bin the data never touches into its right neighbor
    while True:
        spec = BinSpec(tuple(edges))
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


class BinStats:
    """Per-group, per-bin totals and positives plus derived aggregates.

    Counts are float arrays so the same container carries both raw integer
    tallies and fractional expected-assignment results. Groups are dense
    ids 1..G; arrays are indexed [group-1, bin].
    """

    def __init__(self, n, npos, midpoints, edges: tuple[float, ...] = ()):
        self.n = np.asarray(n, dtype=float)
        self.npos = np.asarray(npos, dtype=float)
        self.midpoints = np.asarray(midpoints, dtype=float)
        self.edges = edges
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


class OverlapReport(NamedTuple):
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
