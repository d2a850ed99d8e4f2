"""Rewrite golden.json from the code as it is, and print what moved.

golden.json holds every SHA-256 pin of a seeded output, the README
quick run's included, so this is the one command that re-pins them.
Each entry is rerun through the digest that test_golden.py checks it
with; the file is rewritten in place, and every changed entry is printed
as `kind` entry `id`: old -> new, in the form the change log names
re-pinned outputs. Run it from the repository root after a change that
moves a seeded output on purpose:

    PYTHONPATH=src python tests/regen_golden.py
"""

import json
from pathlib import Path

from test_golden import DIGESTS

PATH = Path(__file__).parent / "golden.json"


def short(digest):
    return f"{digest[:8]}…{digest[-4:]}"


def main():
    golden = json.loads(PATH.read_text())
    total = changed = 0
    for kind, cases in golden.items():
        digest, name = DIGESTS[kind]
        for case in cases:
            total += 1
            new = digest(case)
            if new != case["sha256"]:
                changed += 1
                print(f"`{kind}` entry `{name(case)}`: `{short(case['sha256'])}` → `{short(new)}`")
                case["sha256"] = new
    PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"{changed} of {total} entries changed")


if __name__ == "__main__":
    main()
