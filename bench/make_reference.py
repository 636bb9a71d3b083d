"""Write bench/reference_paths.json: sha256 of ``log_prices`` for the probe
path of every simulate-paths cell.

The digests pin the simulator's output bit for bit. Regenerate them only
when a change to the simulator's paths is intended, and say why in
CHANGES.md:

    python3 bench/make_reference.py
"""

import json

import numpy as np

import run


def main() -> None:
    workload = run.SimulatePaths()
    digests = {}
    for variant, n_traders in workload.cells:
        params = run.market.DEFAULT_PARAMETERS.with_values(n_traders=n_traders)
        (out,) = workload.simulate_cell(params, variant, [workload.probe_seed])
        digests[workload.cell_name((variant, n_traders))] = run.sha256(out.log_prices.tobytes())
    doc = {"days": run.T, "p0": 0.0, "seed": workload.probe_seed,
           "theta": "market.DEFAULT_PARAMETERS with n_traders per cell",
           "numpy": np.__version__, "sha256": digests}
    workload.reference_file.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=1))


if __name__ == "__main__":
    main()
