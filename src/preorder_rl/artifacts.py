"""Every CSV artifact the library reads or writes.

Format rules shared by all files: files are opened with ``Path.open``,
a header row comes first, lines end in ``\\r\\n``, and every float cell
is written as ``repr(float(x))`` so it reads back bit for bit.
:func:`write_rows` and :func:`read_rows` are the generic writer and
reader; the quantile tensor has its own codec because it is a numeric
grid of known shape.  Readers raise :class:`MissingArtifact` for an
absent file and :class:`ShapeMismatch` naming the file (and the line,
where there is one) for a bad header, a row of the wrong width, a cell
that is not a number, or rows that do not match the expected shape;
:func:`parse_rows` converts the cells of CSV rows with that line
context.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .comparators import QuantileMatrix, midpoint_fractions
from .errors import MissingArtifact, ShapeMismatch
from .learner import EpisodeRecord, QuantileTensor

TENSOR_HEADER = "objective,state,action,k,value"
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


def read_rows(path, what: str) -> tuple[list[str], list[list[str]]]:
    """The header and body rows of the CSV at ``path``; every row must be
    as wide as the header.  ``what`` names the file in the error raised
    when it is absent."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifact(f"no {what} at {path}")
    with path.open(newline="") as handle:
        header, *rows = list(csv.reader(handle)) or [[]]
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ShapeMismatch(f"{path}, line {line}: expected {len(header)} fields, "
                                f"got {len(row)}")
    return header, rows


def parse_rows(path, rows: list[list[str]], parse) -> list:
    """``parse(row)`` for every body row read from ``path``; a cell it
    cannot convert raises :class:`ShapeMismatch` naming the file and line."""
    parsed = []
    for line, row in enumerate(rows, start=2):
        try:
            parsed.append(parse(row))
        except ValueError as exc:
            raise ShapeMismatch(f"{path}, line {line}: {exc}") from None
    return parsed


def save_tensor(tensor: QuantileTensor, path) -> None:
    """Write the tensor as ``objective,state,action,k,value`` rows in C
    order, formatting one state's (actions, quantiles) block at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    prefixes = [f"{a},{k}," for a in range(tensor.n_actions) for k in range(tensor.n_quantiles)]
    with path.open("w", newline="") as handle:
        handle.write(TENSOR_HEADER + "\r\n")
        for head, states in enumerate(tensor.values):
            for state, block in enumerate(states):
                handle.write("".join(f"{head},{state},{c}{v!r}\r\n"
                                     for c, v in zip(prefixes, block.ravel().tolist())))


def load_tensor(path, shape: tuple[int, int, int, int]) -> QuantileTensor:
    """Read a tensor written by :func:`save_tensor` whose (heads, states,
    actions, quantiles) shape must be ``shape``.

    Raises:
        MissingArtifact: the file is absent.
        ShapeMismatch: the header, a row's width or the index columns
            disagree with ``shape``; names the file and first bad line.
        ValueError: a value is not finite.
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifact(f"no tensor at {path}")
    with path.open() as handle:
        header = handle.readline().rstrip("\n")
        if header != TENSOR_HEADER:
            raise ShapeMismatch(f"{path}: expected header {TENSOR_HEADER}, got {header!r}")
        try:
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ShapeMismatch(f"{path}: expected rows of 5 numbers ({exc})") from None
    if len(data) and data.shape[1] != 5:
        raise ShapeMismatch(f"{path}: expected 5 fields per row, got {data.shape[1]}")
    grid = np.indices(shape).reshape(4, -1).T
    wrong = (data[:len(grid), :4] != grid[:len(data)]).any(axis=1)
    if wrong.any() or len(data) != len(grid):
        line = 2 + (int(wrong.argmax()) if wrong.any() else len(wrong))
        raise ShapeMismatch(f"{path}, line {line}: rows do not form a tensor of shape {shape}")
    values = data[:, 4].copy().reshape(shape)
    # The filter takes unvalidated views of the tensor, so this is the
    # one place a non-finite value read from disk is caught.
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: quantile values must be finite")
    return QuantileTensor(values, midpoint_fractions(shape[3]))


def save_episode_log(records: Sequence[EpisodeRecord], path) -> None:
    """Write per-episode rows: index, per-objective returns, flags."""
    n = len(records[0].returns) if records else 0
    write_rows(path, ["episode"] + [f"return_{i}" for i in range(n)] + _OUTCOMES,
               ([r.episode, *map(float, r.returns), int(r.success), int(r.collision),
                 int(r.offroad), float(r.progress)] for r in records))


def load_episode_log(path) -> list[EpisodeRecord]:
    header, rows = read_rows(path, "episode log")
    if not header or header[0] != "episode" or header[-4:] != _OUTCOMES:
        raise ShapeMismatch(f"{path}: unexpected header {header}")
    n = len(header) - 5
    return parse_rows(path, rows, lambda row: EpisodeRecord(
        int(row[0]), tuple(float(v) for v in row[1:1 + n]), bool(int(row[1 + n])),
        bool(int(row[2 + n])), bool(int(row[3 + n])), float(row[4 + n])))


def save_quantile_csv(matrix: QuantileMatrix, path) -> None:
    """Write ``tau,a0,a1,...`` rows, one per quantile fraction."""
    write_rows(path, ["tau"] + [f"a{a}" for a in range(matrix.n_actions)],
               np.column_stack([matrix.fractions, matrix.values]).tolist())


def load_quantile_csv(path) -> QuantileMatrix:
    """Read a matrix written by :func:`save_quantile_csv`; the file's path
    heads every error, which keeps its type."""
    header, rows = read_rows(path, "quantile CSV")
    if not header or header[0] != "tau":
        raise ShapeMismatch(f"{path}: expected a header starting with 'tau'")
    if not rows:
        raise ShapeMismatch(f"{path}: no quantile rows")
    data = np.array(parse_rows(path, rows, lambda row: [float(cell) for cell in row]))
    try:
        return QuantileMatrix(data[:, 1:], data[:, 0])
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_scores(path) -> dict[str, np.ndarray]:
    """Read an ``algorithm,seed,run,score`` CSV, grouped by algorithm.
    A non-finite score raises ``ValueError`` naming the file and line."""
    header, rows = read_rows(path, "score file")
    if header != SCORE_HEADER:
        raise MissingArtifact(f"{path}: expected header {','.join(SCORE_HEADER)}")
    grouped: dict[str, list[float]] = {}
    parsed = parse_rows(path, rows, lambda row: (row[0], float(row[3])))
    for line, (name, score) in enumerate(parsed, start=2):
        if not math.isfinite(score):
            raise ValueError(f"{path}, line {line}: scores must be finite, got {score}")
        grouped.setdefault(name, []).append(score)
    return {name: np.array(scores) for name, scores in grouped.items()}
