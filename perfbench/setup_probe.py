"""One cold set-up of the certified verifier, timed by ``run.py``.

Runs in a fresh interpreter, as a ``repro verify --certify`` call would:
imports the verification and proof stack, loads the networks given on
standard input (a JSON list in the ``repro`` network format) and builds a
certified and an uncertified :class:`Verifier` for each.  Prints the
number of verifiers built.

    python3 perfbench/setup_probe.py < networks.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.encoder import EncoderOptions  # noqa: E402
from repro.core.verifier import Verifier  # noqa: E402
from repro.analysis import split, symbolic  # noqa: E402,F401
from repro.milp import MILPOptions  # noqa: E402
from repro.nn.serialization import network_from_dict  # noqa: E402
from repro.proof import check, emit  # noqa: E402,F401


def main() -> int:
    payloads = json.load(sys.stdin)
    verifiers = []
    for payload in payloads:
        network = network_from_dict(payload["network"])
        for certify in (False, True):
            verifiers.append(Verifier(
                network,
                EncoderOptions(
                    bound_mode="lp", certify=certify,
                    split=payload["split"],
                ),
                MILPOptions(time_limit=payload["time_limit"]),
            ))
    print(len(verifiers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
