"""Regenerate the committed hand model file from the canonical generator.

Run from the repo root:

    python3 tools/gen_hand_model.py [OUT_PATH]

OUT_PATH defaults to src/handsmooth/data/hand_model_v1.json. The committed
JSON is the source of truth at runtime; this script exists so the file can be
rebuilt from scratch when the generator changes.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from handsmooth.formats import dump_json  # noqa: E402
from handsmooth.hand_model import DEFAULT_MODEL, default_model_dict  # noqa: E402

MODEL_FILE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "src"
    / "handsmooth"
    / "data"
    / f"{DEFAULT_MODEL}.json"
)


def main(out_path=MODEL_FILE):
    out = pathlib.Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_json(default_model_dict(), out)
    print(f"wrote {out.resolve()}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
