"""Golden CSVs: the program's output, byte for byte, on fixed inputs.

The files under ``tests/golden/`` were written by the CLI before the
permutation searches were vectorized; regenerate one only for a change that
is meant to alter the numbers, by running the listed arguments with
``--out tests/golden/<file>``.  The two chain sweeps were written before
the CSV writer formatted runs of repeated values once.
``chain_pure_d5_wyd.csv`` was regenerated when the Gram factor came to be
computed from F instead of Γ, which moved values of two of its rows in the
12th significant digit; the d = 4 sweep kept every byte.
"""

from pathlib import Path

import pytest

from skewbounds.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "reproduce1.csv": ["reproduce", "1"],
    "reproduce2.csv": ["reproduce", "2"],
    "reproduce3.csv": ["reproduce", "3"],
    "reproduce3_sampled_seed42.csv": ["--strategy", "sampled", "--seed", "42", "reproduce", "3"],
    # exhaustive N = 2 qutrit sum: 9! permutation tuples
    "qutrit_sum_n2.csv": ["compute", str(GOLDEN / "qutrit_sum_n2.yaml")],
    # chain sweeps whose blocks of 1640 and 1251 values take the CSV
    # writer's run-by-run path: a d = 5 pure state (long runs of one value)
    # and a full-rank d = 4 density matrix (short runs)
    "chain_pure_d5_wyd.csv": ["sweep", str(GOLDEN / "chain_pure_d5_wyd.yaml")],
    "chain_density_d4_sld.csv": ["sweep", str(GOLDEN / "chain_density_d4_sld.yaml")],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["--out", str(out)] + CASES[name]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
