"""Fault injection for loaded files: damaged ROM1 and SNP1 files are rejected.

Every damage is drawn by hypothesis from the bytes of one valid file: a
truncation to any length, a NaN or an infinity in any payload float slot,
or a changed byte in the magic tag, the version or an integer dimension
field. The float header fields (extents, t_final, parameter value) and the
parameter kind are not dimension fields, so they are left alone. A ROM that
loads but whose search cost overflows stops a search as a numerical failure.
"""

from __future__ import annotations

import dataclasses
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from romga import (
    Grid,
    ParamKind,
    PlumeParams,
    SnapshotMatrix,
    TimeAxis,
    analytic_plume,
    cli,
    compress_ensemble,
    dataset,
    read_rom,
    read_snapshots,
    write_rom,
    write_snapshots,
)

ROM_FORMAT = "<4sIIIIIIIQdddB"
ROM_HEADER = struct.calcsize(ROM_FORMAT)
# the leading integer fields: magic, version, q, r, s, n_params, nx, ny, n_steps
ROM_INT_FIELDS = struct.calcsize("<4sIIIIIIIQ")
SNP_HEADER = struct.calcsize("<4sIIIQdddBd")
# magic, version, nx, ny, n_steps
SNP_INT_FIELDS = struct.calcsize("<4sIIIQ")
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# what a reader's message says after the path, when the header and payload disagree
# in content and when the file size disagrees with the header
INCONSISTENT = r"inconsistent header or payload \("
WRONG_SIZE = r"payload holds \d+ bytes, header implies \d+$"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid ROM and a valid snapshot file, in a directory that also takes the damaged copies."""
    root = tmp_path_factory.mktemp("faults")
    rng = np.random.default_rng(5)
    grid, times = Grid(4, 3, 1.0, 1.0), TimeAxis(6, 2.0)
    matrices = [
        SnapshotMatrix(grid, times, ParamKind.SYNTHETIC, v, rng.normal(size=(12, 6)))
        for v in (0.2, 0.5, 0.8)
    ]
    write_rom(compress_ensemble(matrices, q=3), root / "db.rom1")
    write_snapshots(matrices[1], root / "m.snp1")
    return root


def _rejected_rom(root, blob: bytes, detail: str = "") -> None:
    """read_rom rejects ``blob`` with a message of its path and then ``detail``, a pattern,
    and predict on it exits 2 without writing."""
    rom, out = root / "damaged.rom1", root / "p.snp1"
    rom.write_bytes(blob)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(rom))}: {detail}"):
        read_rom(rom)
    assert cli.main(["predict", "--rom", str(rom), "--delta", "0.4", "--out", str(out)]) == 2
    assert not out.exists()


def _rejected_snapshots(root, blob: bytes, detail: str = "") -> None:
    """read_snapshots rejects ``blob`` with a message of its path and then ``detail``, a pattern."""
    path = root / "damaged.snp1"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {detail}"):
        read_snapshots(path)


def _poke(blob: bytes, offset: int, value: float) -> bytes:
    return blob[:offset] + struct.pack("<d", value) + blob[offset + 8 :]


def test_the_undamaged_files_load(files):
    assert read_rom(files / "db.rom1").n_params == 3
    assert read_snapshots(files / "m.snp1").param_value == 0.5
    out = files / "ok.snp1"
    predict = ["predict", "--rom", str(files / "db.rom1"), "--delta", "0.4", "--out", str(out)]
    assert cli.main(predict) == 0
    out.unlink()


@given(data=st.data())
def test_truncated_rom_is_rejected(files, data):
    blob = (files / "db.rom1").read_bytes()
    _rejected_rom(files, blob[: data.draw(st.integers(0, len(blob) - 1))])


@given(data=st.data(), value=NON_FINITE)
def test_non_finite_rom_payload_is_rejected(files, data, value):
    blob = (files / "db.rom1").read_bytes()
    slot = data.draw(st.integers(0, (len(blob) - ROM_HEADER) // 8 - 1))
    _rejected_rom(files, _poke(blob, ROM_HEADER + 8 * slot, value), INCONSISTENT)


@given(position=st.integers(0, ROM_INT_FIELDS - 1), flip=st.integers(1, 255))
def test_changed_rom_header_field_is_rejected(files, position, flip):
    blob = bytearray((files / "db.rom1").read_bytes())
    blob[position] ^= flip
    _rejected_rom(files, bytes(blob))


@pytest.mark.parametrize("rank", ["q", "r", "s"])
def test_rom_header_of_rank_zero_is_rejected(files, rank):
    # the header sets one rank to 0 over a payload of exactly the size it then implies,
    # with the original parameters, so the rank is the only defect
    blob = (files / "db.rom1").read_bytes()
    header = list(struct.unpack_from(ROM_FORMAT, blob))
    header[2 + "qrs".index(rank)] = 0
    q, r, s, n, nx, ny, n_steps = header[2:9]
    params = blob[ROM_HEADER : ROM_HEADER + 8 * n]
    rest = nx * ny * r + n_steps * s + n * q * (r + s)
    damaged = struct.pack(ROM_FORMAT, *header) + params + bytes(8 * rest)
    _rejected_rom(files, damaged, f"{INCONSISTENT}.*must be at least 1")


def test_rom_of_version_one_is_rejected(files):
    # a version-1 file of the same shape has exactly the same payload size, but
    # stores the bases and blocks column-major: only the version field tells them apart
    blob = (files / "db.rom1").read_bytes()
    old = blob[:4] + struct.pack("<I", 1) + blob[8:]
    _rejected_rom(files, old, "unsupported ROM1 version 1$")


@given(data=st.data())
def test_truncated_snapshot_file_is_rejected(files, data):
    blob = (files / "m.snp1").read_bytes()
    _rejected_snapshots(files, blob[: data.draw(st.integers(0, len(blob) - 1))])


@given(data=st.data(), value=NON_FINITE)
def test_non_finite_snapshot_payload_is_rejected(files, data, value):
    blob = (files / "m.snp1").read_bytes()
    slot = data.draw(st.integers(0, (len(blob) - SNP_HEADER) // 8 - 1))
    _rejected_snapshots(files, _poke(blob, SNP_HEADER + 8 * slot, value), INCONSISTENT)


@given(position=st.integers(0, SNP_INT_FIELDS - 1), flip=st.integers(1, 255))
def test_changed_snapshot_header_field_is_rejected(files, position, flip):
    blob = bytearray((files / "m.snp1").read_bytes())
    blob[position] ^= flip
    _rejected_snapshots(files, bytes(blob))


# each format's file in the fixture and its reader
FORMATS = pytest.mark.parametrize(
    "name, reader", [("m.snp1", read_snapshots), ("db.rom1", read_rom)], ids=["SNP1", "ROM1"]
)


@FORMATS
def test_header_claiming_a_huge_grid_is_rejected_before_allocating(files, name, reader):
    # 2**31 x 2**31 cells would need exabytes; the size check runs first
    blob = (files / name).read_bytes()
    nx_at = struct.calcsize("<4sI" if reader is read_snapshots else "<4sIIIII")
    huge = blob[:nx_at] + struct.pack("<II", 2**31, 2**31) + blob[nx_at + 8 :]
    if reader is read_rom:
        _rejected_rom(files, huge, WRONG_SIZE)
        return
    _rejected_snapshots(files, huge, WRONG_SIZE)
    path, out = files / "damaged.snp1", files / "report"
    out.mkdir(exist_ok=True)
    report = ["report", "--predicted", str(path), "--target", str(path), "--out", str(out)]
    assert cli.main(report) == 2
    assert not any(out.iterdir())


@FORMATS
def test_file_shorter_than_its_size_at_open_is_rejected(files, monkeypatch, name, reader):
    # the file loses its last float between fstat and the read
    blob = (files / name).read_bytes()
    path = files / f"shrunk_{name}"
    path.write_bytes(blob[:-8])
    fstat = os.fstat

    def size_at_open(fd):
        st = fstat(fd)
        return os.stat_result((*st[:6], len(blob), *st[7:10]))

    monkeypatch.setattr(dataset.os, "fstat", size_at_open)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: read \d+ payload bytes"):
        reader(path)


@FORMATS
@pytest.mark.parametrize("damage", ["foreign", "padded"])
def test_a_16_mb_file_of_the_wrong_size_is_rejected_before_allocating(
    files, tmp_path, name, reader, damage
):
    # a 16 MB file of zeros is not of the format; a valid file padded to
    # 16 MB has the wrong size for its header. Neither payload is allocated.
    path = tmp_path / name
    path.write_bytes(b"" if damage == "foreign" else (files / name).read_bytes())
    os.truncate(path, 16 << 20)
    tracemalloc.start()
    try:
        detail = f"not an? {name[-4:].upper()} file$" if damage == "foreign" else WRONG_SIZE
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {detail}"):
            reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.fixture(scope="module")
def overflowing_rom(tmp_path_factory):
    """A 20x20 plume ROM at q 6 with both block stacks scaled by 1e100, and a target.

    The file is finite, so read_rom accepts it, and each Procrustes cross
    product (about 1e200) stays finite; the cost of every prediction overflows.
    """
    root = tmp_path_factory.mktemp("overflow")
    grid, times = Grid(20, 20, 1.04, 1.04), TimeAxis(30, 10.0)
    matrices = [
        analytic_plume(PlumeParams(d, sigma=0.3), grid, times) for d in (0.3, 0.35, 0.4, 0.45, 0.5)
    ]
    db = compress_ensemble(matrices, q=6)
    huge = dataclasses.replace(
        db, spatial_blocks=1e100 * db.spatial_blocks, temporal_blocks=1e100 * db.temporal_blocks
    )
    write_rom(huge, root / "huge.rom1")
    target = analytic_plume(PlumeParams(0.375, sigma=0.3), grid, times)
    write_snapshots(target, root / "target.snp1")
    return root


@pytest.mark.parametrize("gens", ["1", "3"])
def test_a_search_cost_that_overflows_exits_three(overflowing_rom, capsys, gens):
    # one generation only scores; three also breed, where the costs weigh the roulette
    out = overflowing_rom / f"history_{gens}.csv"
    argv = [
        "optimize", "--rom", str(overflowing_rom / "huge.rom1"),
        "--target", str(overflowing_rom / "target.snp1"),
        "--pop", "6", "--gens", gens, "--out", str(out),
    ]
    assert cli.main(argv) == 3
    assert "numerical failure: search cost is not finite" in capsys.readouterr().err
    assert not out.exists()
