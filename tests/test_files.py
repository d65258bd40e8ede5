"""Writes through the file boundary are whole."""

import pytest

from hrbench.files import write_json, writing


def test_a_write_whose_body_raises_leaves_the_previous_file(tmp_path):
    target = tmp_path / "out.json"
    write_json(target, {"a": 1})
    before = target.read_bytes()
    with pytest.raises(RuntimeError, match="killed"):
        with writing(target) as fh:
            fh.write("partial")
            raise RuntimeError("killed")
    assert target.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == ["out.json"]

