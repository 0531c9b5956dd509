"""The scripts under demos/ run to the end and print their verdicts."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name,verdicts", [
    ("demo_search.py", ["  n=2: found=False (definitive)",
                        "  n=3: found=True (definitive)",
                        "  n=5: found=False, examined 729 systematic generators",
                        "  n=6: found=True, examined 362 systematic generators",
                        "  random witness at n=10 found at trial 29:"]),
    ("demo_embedding.py", ["  d=1 D=7 L=7  QM=True  MWS=True",
                           "  d=7 D=14 L=4  QM=True  MWS=True"]),
    ("demo_bounds.py", ["  2   2      3      3      2           21",
                        "  fraction of sampled codes that are MWS: 0.670"]),
])
def test_demo_prints_its_verdicts(capsys, name, verdicts):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    for line in verdicts:
        assert line in out
