"""Every CSV artifact the library reads or writes.

Format rules shared by all files: files are opened with ``Path.open``,
a header row comes first, lines end in ``\\r\\n``, and every float cell
is written as ``repr(float(x))`` so it reads back bit for bit.
:func:`write_rows` and :func:`read_rows` are the generic writer and
reader; the quantile tensor has its own codec because it is a numeric
grid of known shape.  The codec works one (head, state) block of rows at
a time, and a block whose text repeats the block before it, bar each
row's ``head,state,`` prefix, is formatted once and parsed once.  Its
reader also takes lines that end in ``\\n``, and rejects a blank line, a
``\\r`` inside a line and a last line with no line break.  Readers raise
:class:`MissingArtifact` for an absent file and :class:`ShapeMismatch`
naming the file (and the physical line, where there is one) for a bad
header, a row of the wrong width, a cell that is not a number, or rows
that do not match the expected shape; :func:`parse_rows` converts the
cells of CSV rows with that line context.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .comparators import QuantileMatrix, midpoint_fractions
from .errors import ConfigError, MissingArtifact, ShapeMismatch
from .learner import EpisodeRecord, QuantileTensor

TENSOR_HEADER = "objective,state,action,k,value"
_PREFIX = b"%d,%d,"  # the head,state, text that opens each row of a tensor block
SCORE_HEADER = ["algorithm", "seed", "run", "score"]
_OUTCOMES = ["success", "collision", "offroad", "progress"]


def write_rows(path, header: Sequence[str], rows) -> Path:
    """Write ``header`` and ``rows`` to ``path``, making its directory;
    float cells are written as ``repr(float(x))``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([repr(float(cell)) if isinstance(cell, float) else cell
                          for cell in row] for row in rows)
    return path


def read_rows(path, what: str) -> tuple[list[str], list[list[str]], list[int]]:
    """The header, the body rows and the lines of the CSV at ``path``;
    every row must be as wide as the header.  ``lines[i]`` is the physical
    (``\\n``-counted) line on which body row ``i`` starts: ``csv`` also
    ends a record at a lone ``\\r`` and lets a quoted cell span lines, so
    record and line counts differ.  ``what`` names the file in the error
    raised when it is absent (a directory counts as absent)."""
    path = Path(path)
    if not path.is_file():
        raise MissingArtifact(f"no {what} at {path}")
    with path.open(newline="") as handle:
        chunks = list(handle)
    breaks = [0, *accumulate(chunk.endswith("\n") for chunk in chunks)]
    reader = csv.reader(chunks)
    # Each record, and the line on which the record after it starts.
    records = [(record, 1 + breaks[reader.line_num]) for record in reader] or [([], 1)]
    header, rows = records[0][0], [record for record, _ in records[1:]]
    lines = [line for _, line in records[:-1]]
    for row, line in zip(rows, lines):
        if len(row) != len(header):
            raise ShapeMismatch(f"{path}, line {line}: "
                                f"expected {len(header)} fields, got {len(row)}")
    return header, rows, lines


def parse_rows(path, rows: list[list[str]], lines: list[int], parse) -> list:
    """``parse(row)`` for every body row read from ``path``; a cell it
    cannot convert raises :class:`ShapeMismatch` naming the file and the
    row's line from ``lines``."""
    parsed = []
    for row, line in zip(rows, lines):
        try:
            parsed.append(parse(row))
        except ValueError as exc:
            raise ShapeMismatch(f"{path}, line {line}: {exc}") from None
    return parsed


def index_cell(cell: str, name: str) -> int:
    """``cell`` as an integer >= 0 written in ASCII digits alone, as
    :func:`write_rows` writes a seed or run index; anything else raises
    ``ValueError`` naming ``name``, which :func:`parse_rows` reports."""
    if not (cell.isascii() and cell.isdigit()):
        raise ValueError(f"{name} must be an integer >= 0, got {cell!r}")
    return int(cell)


def save_tensor(tensor: QuantileTensor, path) -> None:
    """Write the tensor as ``objective,state,action,k,value`` rows in C
    order.

    Each (head, state) block of (actions, quantiles) values is formatted
    as bytes by one ``%`` pass over a template of its rows, whose ``%a``
    is the ``repr`` of each float.  The result is the block's *sentinel
    form*: its rows with a ``b"\\0"``, which no index or float repr
    contains, where each row's ``head,state,`` prefix goes.  A block
    whose bytes equal the previous block's reuses its sentinel form, as
    the many states a run never reaches still hold ``initial_value``; the
    key is the exact bytes, so ``-0.0`` never reuses ``0.0``.  The blocks
    are written one at a time, so the text of the whole file is never
    held in memory at once.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    template = b"\0" + b"\0".join(b"%d,%d,%%a\r\n" % (a, k) for a in range(tensor.n_actions)
                                  for k in range(tensor.n_quantiles))
    last = text = None
    with path.open("wb") as handle:
        handle.write(TENSOR_HEADER.encode() + b"\r\n")
        for head, states in enumerate(tensor.values):
            for state, block in enumerate(states):
                raw = block.tobytes()
                if raw != last:
                    last, text = raw, template % tuple(block.ravel().tolist())
                handle.write(text.replace(b"\0", _PREFIX % (head, state)))


# One tensor.csv row: the four integer index cells, then the value.
_TENSOR_ROW = np.dtype([("index", np.intp, (4,)), ("value", np.float64)])


def _read_rows(lines) -> np.ndarray:
    """Parse tensor rows, each a line without its ``\\n``.  ``np.loadtxt``
    accepts a ``\\r`` only at the end of a line, and skips an empty line,
    so none may be passed."""
    return np.loadtxt(lines, dtype=_TENSOR_ROW, delimiter=",", comments=None, ndmin=1)


def _at(index: np.ndarray, blocks: Sequence[int], shape: tuple[int, ...]) -> bool:
    """Whether the ``index`` cells of parsed rows are, in order, the
    positions of every row of the (head, state) ``blocks``."""
    n = shape[2] * shape[3]
    if len(index) != len(blocks) * n:
        return False
    heads, states = np.divmod(np.asarray(blocks, dtype=np.intp)[:, None], shape[1])
    actions, quantiles = np.indices(shape[2:]).reshape(2, 1, n)
    return all((column.reshape(-1, n) == want).all()
               for column, want in zip(index.T, (heads, states, actions, quantiles)))


def _blocks(raw: bytes, pos: int, shape: tuple[int, ...]):
    """Cut the tensor body that starts at ``raw[pos]`` into (head, state)
    blocks of actions x quantiles physical lines, and yield ``(block,
    pos, lines)`` for each block that needs parsing: ``lines`` are its
    lines without their ``\\n``.

    A block is skipped when its text is the previous block's sentinel
    form (see :func:`save_tensor`) with each ``b"\\0"`` replaced by this
    block's prefix, which is how the writer repeats a block.  A sentinel
    form is kept only from a block whose every line opens with its own
    prefix and that holds no ``b"\\0"`` of its own, so each line of a
    skipped block reads as the same line of the previous block, bar the
    prefix.

    ``lines`` is None, and the cut stops, at a block that is cut short by
    the end of the file or holds a blank line, and at any text after the
    last block, whose ``block`` is then heads x states.
    """
    heads, states, actions, quantiles = shape
    n = actions * quantiles
    # A block's lines are split out of a window of ``width`` bytes from its
    # start, doubled whenever a block does not fit.
    key, width = None, 32 * n
    for block in range(heads * states):
        prefix = _PREFIX % divmod(block, states)
        if key is not None:
            text = key.replace(b"\0", prefix)
            if raw.startswith(text, pos):
                pos += len(text)
                continue
        while True:
            window = raw[pos:pos + width]
            lines = window.split(b"\n", n)
            if len(lines) > n or pos + width >= len(raw):
                break
            width *= 2
        rest = lines.pop()
        if len(lines) < n or b"" in lines or b"\r" in lines:
            yield block, pos, None
            return
        end = pos + len(window) - len(rest)
        # raw[pos - 1] is the \n that ends the line before the block.
        text = raw[pos - 1:end]
        key = text.replace(b"\n" + prefix, b"\n\0")
        if len(text) - len(key) == n * (len(prefix) - 1) and key.count(b"\0") == n:
            key = key[1:]
        else:
            key = None
        yield block, pos, lines
        pos = end
    if pos < len(raw):
        yield heads * states, pos, None


def _bad_line(raw: bytes, pos: int, row: int, shape: tuple[int, ...]) -> tuple[int, str]:
    """The number and fault of the first bad physical line at or after
    ``raw[pos]``, where row ``row`` of the tensor (from 0) should start."""
    total = math.prod(shape)
    while True:
        line, end = row + 2, raw.find(b"\n", pos)
        if end < 0:
            return line, (f"rows do not form a tensor of shape {shape}" if pos == len(raw)
                          else "the last line does not end in a line break")
        text = raw[pos:end].removesuffix(b"\r")
        if not text:
            return line, "blank line"
        if b"\r" in text:
            return line, "carriage return inside a row"
        if row >= total:
            return line, f"rows do not form a tensor of shape {shape}"
        try:
            index = _read_rows([text])["index"][0]
        except ValueError:
            return line, ("expected 4 integer indices and a number, got "
                          f"{text.decode(errors='replace')[:80]!r}")
        if tuple(index) != np.unravel_index(row, shape):
            return line, f"rows do not form a tensor of shape {shape}"
        pos, row = end + 1, row + 1


def _first_bad_line(raw: bytes, body: int, shape: tuple[int, ...]) -> tuple[int, str]:
    """The number and fault of the first bad physical line of a tensor
    body that :func:`load_tensor` rejected: each block :func:`_blocks`
    yields is parsed alone, and the first that fails is read line by
    line."""
    n = shape[2] * shape[3]
    for block, pos, lines in _blocks(raw, body, shape):
        try:
            if lines is not None and _at(_read_rows(lines)["index"], [block], shape):
                continue
        except ValueError:
            pass
        return _bad_line(raw, pos, block * n, shape)
    return _bad_line(raw, len(raw), math.prod(shape), shape)  # not reached


def load_tensor(path, shape: tuple[int, int, int, int]) -> QuantileTensor:
    """Read a tensor written by :func:`save_tensor` whose (heads, states,
    actions, quantiles) shape must be ``shape``.

    The file is read once, as bytes.  Every line ends in ``\\r\\n`` (as
    written) or ``\\n``; a blank line, a ``\\r`` inside a line and a last
    line without a line break are rejected.  Each row is four integer
    index cells and a float value, so an index written as ``1.0`` or
    ``1e0`` is rejected.

    The body is cut into (head, state) blocks of actions x quantiles
    lines, the writer's reuse rule run backwards: a block whose text is
    the previous block's, once each line's own ``head,state,`` prefix is
    taken off, takes the previous block's values without being parsed
    (see :func:`_blocks`).  The match is on exact bytes and every line
    must carry its own prefix, so ``-0.0`` never reuses ``0.0`` and a
    wrong index in any line is still caught.  The other blocks are parsed
    by one ``np.loadtxt`` call.  The values are returned as a C-contiguous
    float64 array.

    Raises:
        MissingArtifact: the file is absent, or a directory.
        ShapeMismatch: the header, a line's ending, a row's width or
            cells, or the index columns disagree with ``shape``; names the
            file and the first bad physical line.
        ValueError: a value is not finite; names the file and line.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingArtifact(f"no tensor at {path}")
    raw = path.read_bytes()
    cut = raw.find(b"\n")
    body = len(raw) if cut < 0 else cut + 1
    header = raw[:body].removesuffix(b"\n").removesuffix(b"\r")
    if header != TENSOR_HEADER.encode():
        raise ShapeMismatch(f"{path}: expected header {TENSOR_HEADER}, "
                            f"got {header.decode(errors='replace')!r}")
    found: list[int] = []  # the blocks parsed, in order

    def parsed():
        for block, _, lines in _blocks(raw, body, shape):
            if lines is None:  # _first_bad_line names the fault
                raise ValueError
            found.append(block)
            yield lines

    try:
        rows = _read_rows(chain.from_iterable(parsed()))
        ok = _at(rows["index"], found, shape)
    except ValueError:
        ok = False
    if not ok:
        line, fault = _first_bad_line(raw, body, shape)
        raise ShapeMismatch(f"{path}, line {line}: {fault}")
    # Each block takes the values of the last parsed block at or before it.
    source = np.searchsorted(found, np.arange(shape[0] * shape[1]), side="right") - 1
    values = rows["value"].reshape(-1, shape[2] * shape[3])[source].reshape(shape)
    # The filter takes unvalidated views of the tensor, so this is the
    # one place a non-finite value read from disk is caught.
    finite = np.isfinite(values).ravel()
    if not finite.all():
        row = int(finite.argmin())
        raise ValueError(f"{path}, line {row + 2}: quantile values must be finite, "
                         f"got {values.flat[row]}")
    return QuantileTensor(values)


def save_episode_log(records: Sequence[EpisodeRecord], path) -> None:
    """Write per-episode rows: index, per-objective returns, flags."""
    n = len(records[0].returns) if records else 0
    write_rows(path, ["episode"] + [f"return_{i}" for i in range(n)] + _OUTCOMES,
               ([r.episode, *map(float, r.returns), int(r.success), int(r.collision),
                 int(r.offroad), float(r.progress)] for r in records))


def load_episode_log(path) -> list[EpisodeRecord]:
    header, rows, lines = read_rows(path, "episode log")
    if not header or header[0] != "episode" or header[-4:] != _OUTCOMES:
        raise ShapeMismatch(f"{path}: unexpected header {header}")
    n = len(header) - 5
    return parse_rows(path, rows, lines, lambda row: EpisodeRecord(
        int(row[0]), tuple(float(v) for v in row[1:1 + n]), bool(int(row[1 + n])),
        bool(int(row[2 + n])), bool(int(row[3 + n])), float(row[4 + n])))


def save_quantile_csv(matrix: QuantileMatrix, path) -> None:
    """Write ``tau,a0,a1,...`` rows, one per quantile fraction."""
    write_rows(path, ["tau"] + [f"a{a}" for a in range(matrix.n_actions)],
               np.column_stack([matrix.fractions, matrix.values]).tolist())


def load_quantile_csv(path) -> QuantileMatrix:
    """Read a matrix written by :func:`save_quantile_csv`; the file's path
    heads every error, which keeps its type.  A ``tau`` column off the
    midpoint fractions raises :class:`ConfigError`."""
    header, rows, lines = read_rows(path, "quantile CSV")
    if not header or header[0] != "tau":
        raise ShapeMismatch(f"{path}: expected a header starting with 'tau'")
    if not rows:
        raise ShapeMismatch(f"{path}: no quantile rows")
    data = np.array(parse_rows(path, rows, lines, lambda row: [float(cell) for cell in row]))
    expected = midpoint_fractions(len(data))
    wrong = np.flatnonzero(data[:, 0] != expected)
    if wrong.size:
        row = int(wrong[0])
        raise ConfigError(f"{path}, line {lines[row]}: tau must be the midpoint "
                          f"fractions (2k-1)/2K, {expected.tolist()}, got {data[row, 0].item()!r}")
    try:
        return QuantileMatrix(data[:, 1:])
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_scores(path) -> dict[str, np.ndarray]:
    """Read an ``algorithm,seed,run,score`` CSV, grouped by algorithm.
    A ``seed`` or ``run`` cell that is not an integer >= 0, or a score
    that is not a number, raises ``ShapeMismatch`` naming the file and
    line; a non-finite score raises ``ValueError`` naming them."""
    header, rows, lines = read_rows(path, "score file")
    if header != SCORE_HEADER:
        raise ShapeMismatch(f"{path}: expected header {','.join(SCORE_HEADER)}")
    if not rows:
        raise ShapeMismatch(f"{path}: no score rows")
    grouped: dict[str, list[float]] = {}
    parsed = parse_rows(path, rows, lines, lambda row: (
        row[0], index_cell(row[1], "seed"), index_cell(row[2], "run"), float(row[3])))
    for (name, _, _, score), line in zip(parsed, lines):
        if not math.isfinite(score):
            raise ValueError(f"{path}, line {line}: "
                             f"scores must be finite, got {score}")
        grouped.setdefault(name, []).append(score)
    return {name: np.array(scores) for name, scores in grouped.items()}
