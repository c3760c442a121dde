"""`core.write_csv` against the csv-module row loops it replaced, byte for byte."""

import csv

import numpy as np
import pytest

from decoherence.core import CSV_CHUNK_ROWS, SIGMA_X, SIGMA_Z, Grid1D, bloch_state, write_csv
from decoherence.lindblad import LindbladGenerator
from decoherence.measures import wigner
from decoherence.trajectories import TrajectoryConfig, export_ensemble_csv, unravel


def reference_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def reference_wigner(field, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "p", "w"])
        for i, xv in enumerate(field.x):
            for j, pv in enumerate(field.p):
                writer.writerow([repr(float(xv)), repr(float(pv)),
                                 repr(float(field.values[i, j]))])


def reference_ensemble(ens, obs, path):
    vals = np.real(np.einsum("ntij,ji->nt", ens.conditioned_states, obs.matrix))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory_id", "t", "value"])
        for j in range(vals.shape[0]):
            for k, t in enumerate(ens.times):
                writer.writerow([j, repr(float(t)), repr(float(vals[j, k]))])


def assert_same_table(tmp_path, header, columns):
    write_csv(tmp_path / "new.csv", header, columns)
    reference_table(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestWriteCsv:
    def test_special_floats(self, tmp_path):
        values = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16,
                  0.1 + 0.2]
        assert_same_table(tmp_path, ["v", "w"], [values, np.array(values[::-1])])

    def test_repeated_values_keep_their_bit_patterns(self, tmp_path):
        # 0.0 and -0.0 compare equal and so do no two nans; each distinct
        # bit pattern must keep its own text
        nan2 = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), dtype=np.float64)[0]
        values = np.array([0.0, -0.0, 0.0, float("nan"), nan2, 1.5, -0.0, 1.5] * 700)
        assert_same_table(tmp_path, ["v", "id"], [values, np.arange(values.size) % 3])

    def test_int_column(self, tmp_path):
        assert_same_table(tmp_path, ["id", "v"], [np.arange(5), np.linspace(0.0, 1.0, 5)])

    @pytest.mark.parametrize("n_rows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                        CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 1])
    def test_rows_across_chunk_boundaries(self, tmp_path, n_rows):
        assert CSV_CHUNK_ROWS == 4096
        rng = np.random.default_rng(n_rows)
        assert_same_table(tmp_path, ["t", "x", "y"],
                          [np.arange(n_rows) * 0.1, rng.normal(size=n_rows),
                           rng.normal(size=n_rows).tolist()])

    def test_rows_end_in_crlf(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [0.5, 1.0]])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n1,0.5\r\n2,1.0\r\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0]])

    def test_wigner_field(self, tmp_path):
        grid = Grid1D(48, -8.0, 8.0)
        field = wigner(grid.two_packet_cat(2.5, 0.8).density(), grid)
        field.to_csv(tmp_path / "new.csv")
        reference_wigner(field, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_ensemble_export(self, tmp_path):
        gen = LindbladGenerator(None, [(0.5, SIGMA_Z)])
        ens = unravel(gen, bloch_state(np.pi / 2, 0.0).density(),
                      TrajectoryConfig(n_trajectories=3, dt=0.01, t_final=0.5, seed=7,
                                       record_stride=5))
        export_ensemble_csv(ens, SIGMA_X, tmp_path / "new.csv")
        reference_ensemble(ens, SIGMA_X, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
