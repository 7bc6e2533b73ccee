"""The one CSV reader behind datasets, label tables and ownership tables."""

import re

import numpy as np
import pytest

from distclust.clustering import load_global_labels_csv, load_reference_labels_csv
from distclust.errors import InputError
from distclust.geometry import load_dataset_csv
from distclust.relabel import load_owners_csv
from distclust.representatives import read_records_jsonl


def test_coordinates_are_bit_equal_to_float(tmp_path):
    bits = np.random.default_rng(7).integers(0, 2**64, size=20_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = np.concatenate([values[np.isfinite(values)], [5e-324, -2.2250738585072e-308, -0.0]])
    texts = [form(v) for v in values.tolist()
             for form in (repr, lambda v: f"{v:.17g}", lambda v: f"{v:.6e}")]
    path = tmp_path / "d.csv"
    path.write_text("id,c0\n" + "".join(f"{i},{t}\n" for i, t in enumerate(texts)))
    ds = load_dataset_csv(path)
    expected = np.array([float(t) for t in texts])
    assert ds.coords.shape == (len(texts), 1)
    assert ds.coords[:, 0].tobytes() == expected.tobytes()


def test_loaded_arrays_are_contiguous_int64_and_float64(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,c0,c1,c2\n5,0.5,1,2\n2,3,4,5.25\n")
    ds = load_dataset_csv(path)
    assert ds.ids.dtype == np.int64 and ds.ids.flags.c_contiguous
    assert ds.coords.dtype == np.float64 and ds.coords.flags.c_contiguous
    assert ds.ids.tolist() == [5, 2]
    assert ds.coords.tolist() == [[0.5, 1.0, 2.0], [3.0, 4.0, 5.25]]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_blank_lines_and_quoted_fields_load(tmp_path, newline):
    path = tmp_path / "t.csv"
    path.write_text(newline.join(["id,c0,c1", "", '0,"1.5",2', "", "", '"3",4,5e-1', ""]),
                    newline="")
    ds = load_dataset_csv(path)
    assert ds.ids.tolist() == [0, 3] and ds.coords.tolist() == [[1.5, 2.0], [4.0, 0.5]]
    path.write_text(newline.join(["id,owner_seq", '"7",0', "", "2,-1", ""]), newline="")
    assert load_owners_csv(path) == {7: 0, 2: -1}


@pytest.mark.parametrize("body", ["", "\n", "\n\n\n"], ids=["no-newline", "newline", "blank-lines"])
def test_header_only_files_load_empty(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text("id,c0,c1" + body)
    ds = load_dataset_csv(path)
    assert len(ds) == 0 and ds.coords.shape == (0, 2)
    path.write_text("site,seq,cluster_id" + body)
    assert load_global_labels_csv(path).labels == {}


def _named_lines(message: str, path) -> list[str]:
    # The file lines a message names; numpy's own row numbers count no file lines.
    assert " row " not in message
    return re.findall(rf"{re.escape(str(path))}:(\d+)", message)


@pytest.mark.parametrize("row", ["0,1.0,2.0,", "0,,2.0", "#3,1.0,2.0", "3,0x1p3,2.0", "   ",
                                 f"{2**70},1.0,2.0", "3,1.0", "1.5,1.0,2.0"],
                         ids=["trailing-comma", "empty-field", "hash", "hex-float", "whitespace-only",
                              "id-2**70", "short-row", "float-id"])
def test_dataset_rows_the_reader_rejects(tmp_path, row):
    path = tmp_path / "d.csv"
    path.write_text(f"id,c0,c1\n0,1.0,2.0\n\n{row}\n")
    with pytest.raises(InputError, match=re.escape(str(path))) as info:
        load_dataset_csv(path)
    assert _named_lines(str(info.value), path) in ([], ["4"])


@pytest.mark.parametrize("row", ["3,0,", "3,", "#3,0", "0x1p3,0", "   ", "3", "3,1.5"],
                         ids=["trailing-comma", "empty-field", "hash", "hex", "whitespace-only",
                              "short-row", "float-value"])
def test_int_table_rows_the_reader_rejects(tmp_path, row):
    path = tmp_path / "o.csv"
    path.write_text(f"id,owner_seq\n0,1\n\n{row}\n")
    with pytest.raises(InputError, match=re.escape(str(path))) as info:
        load_owners_csv(path)
    assert _named_lines(str(info.value), path) in ([], ["4"])


def test_repeated_key_after_a_blank_line_names_its_line_or_none(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("id,cluster_id\n4,1\n\n4,1\n")
    with pytest.raises(InputError, match="repeated key 4") as info:
        load_reference_labels_csv(path)
    assert _named_lines(str(info.value), path) in ([], ["4"])
    path.write_text("site,seq,cluster_id\n0,0,1\n\n0,1,1\n1,0,1\n0,1,2\n")
    with pytest.raises(InputError, match=re.escape("repeated key (0, 1)")):
        load_global_labels_csv(path)


@pytest.mark.parametrize("header,row", [
    ("id,c0,c1", "1_0,1.0,2.0"), ("id,c0,c1", "1,1_0,2.0"), ("id,owner_seq", "1_0,0"),
    ("id,owner_seq", f"{2**63},0"), ("id,owner_seq", f"0,{-2**63 - 1}"),
    ("id,cluster_id", f"0,{2**63}"), ("id,owner_seq", "\u0663,0"),
], ids=["underscore-id", "underscore-coord", "underscore-owner-id", "owner-id-past-int64",
        "owner-seq-below-int64", "label-past-int64", "arabic-indic-digit"])
def test_inputs_the_reader_is_stricter_on(tmp_path, header, row):
    # int() and float() take digit underscores, non-ASCII digits and integers
    # of any size; the reader takes none of them.
    path = tmp_path / "t.csv"
    path.write_text(f"{header}\n{row}\n")
    load = {"id,c0,c1": load_dataset_csv, "id,owner_seq": load_owners_csv,
            "id,cluster_id": load_reference_labels_csv}[header]
    with pytest.raises(InputError, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize("load,text", [
    (load_dataset_csv, b"id,c0\n0,1.0\n1,\xe9\n"),
    (load_owners_csv, b"id,owner_seq\n0,0\n\xe9,1\n"),
    (read_records_jsonl, b'{"site": 0, "seq": 0, "coords": [0.0], "cov_rad": 0.5, "cov_cnt": 1}\n\xe9\n'),
], ids=["dataset", "owners", "jsonl"])
def test_undecodable_files_raise_input_error_naming_them(tmp_path, load, text):
    path = tmp_path / "t.bin"
    path.write_bytes(text)
    with pytest.raises(InputError, match=re.escape(str(path)) + ".*0xe9"):
        load(path)
