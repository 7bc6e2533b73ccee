"""Push global cluster ids back onto the local objects of each site.

An object is labeled through the representative that first covered it during
selection; objects the truncated stream never covered are labeled NOISE. No
geometric re-assignment happens here, so the labeling is an honest picture of
what the transmitted stream can reconstruct.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .clustering import NOISE, Labeling
from .errors import ConsistencyError
from .geometry import check_count
from .tables import read_int_table, write_table

LOCAL_LABELS_HEADER = ("id", "cluster_id", "owner_seq")
OWNERS_HEADER = ("id", "owner_seq")


@dataclass
class LocalLabeling:
    """Cluster id per local object id, with the covering representative
    (site, seq) recorded for every covered object."""

    labels: dict[int, int]
    provenance: dict[int, tuple[int, int]]


def owner_labels(owner: np.ndarray, seq_labels: np.ndarray) -> np.ndarray:
    """The relabel rule, on arrays: each object's cluster id is `seq_labels[seq]`, the global label
    of its owner seq; NOISE where the owner is -1 (uncovered) or at least len(seq_labels), a
    representative past the transmitted prefix."""
    return np.append(seq_labels, NOISE)[np.where(owner < len(seq_labels), owner, -1)]


def relabel_site(site_ids: Iterable[int], coverage_owner: Mapping[int, int],
                 global_labeling: Labeling, site: int) -> LocalLabeling:
    """Label every object of one site from the global clustering, by the rule of `owner_labels`.

    coverage_owner maps object id to the seq of the representative that first
    covered it; objects absent from it get NOISE. Raises ConsistencyError when
    an owner seq has no global label (the transmitted stream and the labeled
    stream disagree in length) or when coverage_owner names an object the
    site does not hold (ownership of another site); InputError unless site is an integer >= 0.
    """
    check_count(site, "site", 0)
    labels, provenance = {}, {}
    for oid in site_ids:
        seq = coverage_owner.get(oid)
        if seq is None:
            labels[oid] = NOISE
            continue
        key = provenance[oid] = (site, seq)
        label = global_labeling.labels.get(key)
        if label is None:
            raise ConsistencyError(
                f"object {oid} is owned by representative {key}, "
                "which has no global label (truncated stream?)"
            )
        labels[oid] = label
    if len(provenance) != len(coverage_owner):
        foreign = sorted(coverage_owner.keys() - provenance.keys())
        raise ConsistencyError(
            f"ownership names {len(foreign)} object(s) site {site} does not hold, "
            f"e.g. {foreign[:3]} (ownership of another site?)"
        )
    return LocalLabeling(labels, provenance)


def save_local_labels_csv(labeling: LocalLabeling, path: str | Path) -> None:
    """Write `id,cluster_id,owner_seq` rows; owner_seq is -1 for uncovered."""
    provenance = labeling.provenance
    write_table(path, LOCAL_LABELS_HEADER,
                ((oid, labeling.labels[oid], provenance[oid][1] if oid in provenance else -1)
                 for oid in sorted(labeling.labels)))


def load_local_labels_csv(path: str | Path) -> dict[int, int]:
    """Read back just the id -> cluster_id map of a per-site labels file."""
    return read_int_table(path, LOCAL_LABELS_HEADER)


def save_owners_csv(coverage_owner: Mapping[int, int], path: str | Path) -> None:
    """Write a site's coverage ownership as `id,owner_seq` rows.

    Ownership is never transmitted; a site stores it next to its data so the
    relabeling step can run when the global labels come back.
    """
    write_table(path, OWNERS_HEADER, sorted(coverage_owner.items()))


def load_owners_csv(path: str | Path) -> dict[int, int]:
    return read_int_table(path, OWNERS_HEADER)
