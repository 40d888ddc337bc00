"""Plot outputs: the communication-mask CSV round trip."""

import numpy as np
import pytest

from catl.plots import emit_plots, load_comm_mask_csv
from catl.scenario import builtin


def test_comm_mask_csv_roundtrip(tmp_path):
    scenario = builtin("triple-toy")[0]
    mask = np.random.default_rng(3).integers(0, 2, size=(3, 7)).astype(float)
    ids = [2, 5, 11]
    written = emit_plots(tmp_path, scenario, comm_mask=mask, agent_ids=ids)
    assert tmp_path / "comm.csv" in written
    loaded, loaded_ids = load_comm_mask_csv(tmp_path / "comm.csv")
    assert loaded_ids == ids
    assert np.array_equal(loaded, mask)


BAD_ROW = "want integers t >= 0, agent and comm 0 or 1"


@pytest.mark.parametrize("text, why", [
    ("t,agent,comm\n", "no rows after the header"),
    ("", "header is '', want 't,agent,comm'"),
    ("time,agent,comm\n0,1,1\n", "header is 'time,agent,comm', want 't,agent,comm'"),
    ("t,agent,comm\n0,1,1\n1,1\n", f"line 3 is '1,1', {BAD_ROW}"),
    ("t,agent,comm\n0,1,yes\n", f"line 2 is '0,1,yes', {BAD_ROW}"),
    ("t,agent,comm\n0,1,1\n-1,1,0\n", f"line 3 is '-1,1,0', {BAD_ROW}"),
    ("t,agent,comm\n0,1,7\n", f"line 2 is '0,1,7', {BAD_ROW}"),
], ids=["header_only", "empty", "wrong_header", "two_fields", "not_an_integer", "negative_time",
        "comm_not_0_or_1"])
def test_comm_mask_csv_rejects_bad_input(text, why, tmp_path):
    path = tmp_path / "comm.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_comm_mask_csv(path)
    assert str(info.value) == f"{path}: {why}"
