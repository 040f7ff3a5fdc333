#!/usr/bin/env python3
"""Regenerate the golden stats tables under tests/golden/.

The goldens are the six table files produced by the canonical mini-batch
defined in tests/util.py (exp1 preset, 4 simulations, 60-step cap, seed
1234). The table-emission test regenerates the batch and compares bytes,
so these files only change when the simulator's observable output does —
rerun this script deliberately when that happens and review the diff.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))
sys.path.insert(0, str(REPO / "src"))

from util import GOLDEN_DIR, run_mini  # noqa: E402

from bondflow.harness import TABLE_FILES  # noqa: E402


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="goldens_"))
    try:
        run_mini(tmp)
        for csv_name, txt_name in TABLE_FILES.values():
            for name in (csv_name, txt_name):
                shutil.copyfile(tmp / name, GOLDEN_DIR / name)
                print(f"wrote {GOLDEN_DIR / name}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
