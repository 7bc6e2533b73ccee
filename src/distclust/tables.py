"""Header-checked CSV tables: one writer for every CSV the package writes, one numpy reader
behind every CSV it reads, and the text decoding behind every file it reads, JSONL too."""

from __future__ import annotations

import csv
import io
import warnings
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InputError


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not a text file: {e}") from None


def read_table(path: str | Path, schema: Callable[[int], tuple[Sequence[str], np.dtype]]) -> np.ndarray:
    """The rows of the CSV at `path` as one array of a structured dtype, where `schema(width)`
    gives the header and dtype expected of a file whose first line has `width` fields. Blank
    lines are skipped; any other line that is not one decimal number per field (quoted or not)
    that the field's type holds raises InputError naming the file."""
    first, _, body = read_text(path).partition("\n")
    found = next(csv.reader([first]))
    header, dtype = schema(len(found))
    if found != list(header):
        raise InputError(f"{path}: bad header {found!r}, expected {','.join(header)}")
    if not body.strip("\n"):
        return np.empty(0, dtype)
    try:
        with warnings.catch_warnings():
            # Older numpy (the 1.24 floor too) reads a bad integer field as a truncated float, and only warns.
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(io.StringIO(body), dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
    except (ValueError, DeprecationWarning) as e:
        # numpy counts rows without the header and blank lines, so its row is no line of the file.
        raise InputError(f"{path}: {str(e).split(' at row ')[0]}") from None


def read_int_table(path: str | Path, header: Sequence[str], n_key: int = 1) -> dict:
    """Map each row's key (its first `n_key` fields; a tuple when more than one) to the
    integer in the field right after it. Every field is an int64; no key may repeat."""
    rows = read_table(path, lambda width: (header, np.dtype([("v", np.int64, (len(header),))])))["v"]
    keys = rows[:, 0].tolist() if n_key == 1 else list(zip(*rows[:, :n_key].T.tolist()))
    repeated = np.ones(len(rows), dtype=bool)
    repeated[np.unique(rows[:, :n_key], axis=0, return_index=True)[1]] = False
    if repeated.any():
        raise InputError(f"{path}: repeated key {keys[repeated.argmax()]}")
    return dict(zip(keys, rows[:, n_key].tolist()))
