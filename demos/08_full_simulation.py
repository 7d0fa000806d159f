# End-to-end Monte-Carlo runs through the engine: scenario dicts, trial
# orchestration, aggregation, CSV export, and a paired parameter sweep.
#
# Run: python demos/08_full_simulation.py

from uccfsim.engine import (results_to_csv, results_to_table, run_scenario,
                            run_trial, sweep, sweep_to_plot_data)

scenario = {
    "name": "demo",
    "seed": 42,
    "trials": 20,
    "topology": {"num_aps": 6, "num_ues": 3, "area_size": 300.0},
    "ofdm": {"num_subcarriers": 8},
    "association": {"method": "large_scale", "max_aps": 2},
    "allocation": {"demands": 2, "objective": "sum_rate"},
    "uplink": {"detector": "gmmse", "symbol_draws": 2000},
    "downlink": {"enabled": True, "p_max": 1.0},
}

print("=== single scenario ===")
result = run_scenario(scenario)
print(results_to_table(result))

print("\nfirst CSV rows (fixed schema, 9 significant digits):")
for line in results_to_csv(result).splitlines()[:3]:
    print(" ", line)

print("\n=== determinism ===")
again = run_scenario(scenario)
print("bit-identical CSV on a second run:",
      results_to_csv(result) == results_to_csv(again))
# a trial's draws depend only on (seed, trial): trial 7 alone is trial 7
alone = results_to_csv({"records": run_trial(result["scenario"], 7)})
batch = results_to_csv({"records": [r for r in result["records"]
                                    if r["trial"] == 7]})
print("trial 7 run alone matches trial 7 in the batch:", alone == batch)

print("\n=== noise sweep with common random numbers ===")
points = sweep(scenario, "topology.noise_variance",
               [1e-11, 1e-12, 1e-13])
print(f"{'noise var':>12} {'sum-rate':>10} {'95% CI':>24}")
for x, mean, lo, hi in sweep_to_plot_data(points, "sum_rate"):
    print(f"{x:12.0e} {mean:10.3f}     [{lo:9.3f}, {hi:9.3f}]")
print("lower noise floor, higher rate; paired seeds keep the comparison tight")

print("\n=== estimated CSI vs genie CSI ===")
genie = run_scenario({**scenario, "trials": 10})
trained = run_scenario({**scenario, "trials": 10,
                        "association": {"method": "distance", "radius": 1e6},
                        "training": {"enabled": True, "num_symbols": 2,
                                     "pilot_power": 1e6,
                                     "coherence_symbols": 20}})
print(f"genie sum-rate      : {genie['aggregate']['sum_rate']['mean']:.3f}")
print(f"estimated sum-rate  : {trained['aggregate']['sum_rate']['mean']:.3f}")
print(f"channel NMSE        : {trained['aggregate']['nmse']['mean']:.3e}")
print(f"effective rate carries the pilot overhead discount "
      f"(tau_p/tau_c = {2 / 20:.2f})")
