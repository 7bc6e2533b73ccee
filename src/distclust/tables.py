"""Header-checked CSV tables: one writer for every CSV the package writes, and the
integer reader behind the label and ownership files."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InputError


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def read_int_table(path: str | Path, header: Sequence[str], n_key: int = 1) -> dict:
    """Map each row's key (its first `n_key` fields; a tuple when more than
    one) to the integer in the field right after it.

    The header must match exactly, every row must have one integer per
    header field, and no key may repeat.
    """
    table: dict = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        found = next(reader, None)
        if found != list(header):
            raise InputError(f"{path}: bad header {found!r}, expected {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                fields = [int(v) for v in row]
            except ValueError as e:
                raise InputError(f"{path}:{lineno}: {e}") from None
            key = fields[0] if n_key == 1 else tuple(fields[:n_key])
            if key in table:
                raise InputError(f"{path}:{lineno}: repeated key {key}")
            table[key] = fields[n_key]
    return table
