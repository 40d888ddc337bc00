"""Plot outputs: the communication-mask CSV round trip."""

import numpy as np

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
