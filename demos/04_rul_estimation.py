#!/usr/bin/env python3
"""Estimate remaining useful life from run-to-failure trajectories.

Builds four simulated valves that wear out over 1500 cycles (sampled every
5th actuation), trains the 2-64-16-4-1 ReLU regressor on remaining-cycle
targets, then follows a fifth, unseen valve through its whole life and
prints actual vs predicted remaining life along the way.
"""

import numpy as np

from valvehealth import gen_rul_dataset, train_rul
from valvehealth.tinynn import TrainConfig, infer


def main():
    print("generating 4 run-to-failure trajectories (300 rows each)...")
    dataset = gen_rul_dataset(n_valves=4, seed=0)

    print("training: epochs=50, batch=10, RMSProp, MAE loss")
    model, history, report = train_rul(dataset, TrainConfig(seed=0))
    print(f"loss: {history.train_loss[0]:.4f} -> {history.train_loss[-1]:.4f} "
          "(scaled units)")
    print(f"test MAE: {report.mae_cycles:.1f} cycles "
          f"({report.mae_cycles / 1500:.1%} of one service life)\n")

    print("held-out valve, full life:")
    held_out = gen_rul_dataset(n_valves=1, seed=4242)
    predictions = infer(model, held_out.x)[:, 0]
    print(f"  {'cycle':>6} {'actual RUL':>11} {'predicted':>10} {'error':>7}")
    for i in range(0, len(held_out), 30):
        actual = held_out.y[i]
        predicted = predictions[i]
        cycle = int(1500 - actual)
        print(f"  {cycle:>6} {actual:>11.0f} {predicted:>10.0f} "
              f"{predicted - actual:>+7.0f}")
    mae = np.abs(predictions - held_out.y).mean()
    slope = np.polyfit(np.arange(predictions.size), predictions, 1)[0]
    print(f"\nheld-out MAE: {mae:.1f} cycles; prediction trend slope "
          f"{slope:.2f} cycles/sample (negative = monotone wear)")


if __name__ == "__main__":
    main()
