"""One point of the mesh-size scaling curve, timed in a fresh interpreter.

Usage: python3 bench/scale_point.py {link_activity|generate_traffic} K

Prints {"seconds": ...}: the time of one ``link_activity`` call under uniform
traffic, or of one exponential-locality ``generate_traffic`` call, on a KxK
electronic mesh. The parent kills this process when the point's time cap
runs out, which records the point as skipped.
"""

import json
import sys
import time

from clearfom.network import TrafficParams, build_mesh, generate_traffic, link_activity


def main(kind: str, k: int) -> float:
    mesh = build_mesh(k, k, 1e-3, "electronic")
    if kind == "link_activity":
        traffic = generate_traffic("uniform", TrafficParams(1e9), mesh, 0)
        start = time.perf_counter()
        link_activity(mesh, traffic)
    elif kind == "generate_traffic":
        params = TrafficParams(1e9, locality_scale_hops=2.0)
        start = time.perf_counter()
        generate_traffic("exponential_locality", params, mesh, 0)
    else:
        raise SystemExit(f"unknown scaling kind '{kind}'")
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"seconds": main(sys.argv[1], int(sys.argv[2]))}))
