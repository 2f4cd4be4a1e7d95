"""Regenerate every golden file from the CLI manifest.

Run from the repository root:  python tests/golden/regen.py
The test suite compares bytes against these files; regenerate only when an
output schema changes on purpose, and review the diff.
"""

import io
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(HERE.parent.parent / "src"))


def capture(argv):
    from weaksep.cli import run

    buf = io.BytesIO()

    class Out:
        buffer = buf

        @staticmethod
        def write(text):
            buf.write(text.encode())

        @staticmethod
        def flush():
            pass

    old = sys.stdout
    sys.stdout = Out()
    try:
        code = run(argv)
    finally:
        sys.stdout = old
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return buf.getvalue()


def main():
    manifest = json.loads((HERE / "manifest.json").read_text())
    for name, argv in sorted(manifest.items()):
        payload = capture(argv)
        (HERE / name).write_bytes(payload)
        print(f"wrote {name} ({len(payload)} bytes)")


if __name__ == "__main__":
    main()
