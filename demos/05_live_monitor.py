#!/usr/bin/env python3
"""The full loop, end to end: a valve wears out under live monitoring.

Trains both models, then streams a degradation scenario (40 actuations
sweeping severity 0 to 1) through the acquisition buffer, the feature
extractor, and both networks. One line prints per actuation; the alarm
column flips well before the valve reaches its failure cycle, and the final
timing report confirms the consumer kept ahead of the fill rate.

Equivalent CLI session:

    valvehealth gen-dataset --task fault --out fault.csv
    valvehealth gen-dataset --task rul   --out rul.csv
    valvehealth train --task fault --data fault.csv --out fault.pmnn
    valvehealth train --task rul   --data rul.csv   --out rul.pmnn
    valvehealth monitor --fault-model fault.pmnn --rul-model rul.pmnn \\
        --scenario degradation --cycles 40 --failure-cycle 200
"""

from valvehealth import (DegradationState, FaultCondition, MonitorConfig,
                         MonitorEvent, ValveParams, buffer_fill_duration,
                         gen_fault_dataset, gen_rul_dataset, max_cycles, run_monitor,
                         scenario_source, train_fault, train_rul)
from valvehealth.tinynn import TrainConfig

FAILURE_CYCLE = 200
N_CYCLES = 40


def main():
    print("training the two models on synthetic data...")
    fault_model, _, fault_report = train_fault(gen_fault_dataset(seed=0),
                                               TrainConfig(seed=0))
    rul_model, _, rul_report = train_rul(gen_rul_dataset(n_valves=4, seed=0),
                                         TrainConfig(seed=0))
    print(f"  fault accuracy {fault_report.accuracy:.3f}, "
          f"RUL MAE {rul_report.mae_cycles:.1f} cycles\n")

    # actuation i runs at wear cycle 5 * i, so severity reaches 1 at i = 40
    schedule = [(FaultCondition.good(),
                 DegradationState(cycle=5 * i, failure_cycle=FAILURE_CYCLE))
                for i in range(N_CYCLES)]
    cfg = MonitorConfig(k=10000, fs=1000.0, f_op=0.5)
    codes, triggers = scenario_source(schedule, fs=cfg.fs, f_op=cfg.f_op,
                                      params=ValveParams(), noise_std=1.0, seed=3)

    print(f"monitoring {N_CYCLES} actuations (failure at cycle {FAILURE_CYCLE}, "
          f"K={cfg.k}, fs={cfg.fs:.0f} Hz):")
    print(f"  {'cycle':>5} {'class':<15} {'p(fault)':>9} {'RUL':>7}  alarm")

    def on_event(event):
        if not isinstance(event, MonitorEvent):
            return
        cycle = (event.zero_index // 2000) * 5
        p_fault = float(event.fault_probs[1:].max())
        flag = "ALARM" if event.alarm else ""
        print(f"  {cycle:>5} {event.predicted_class.value:<15} "
              f"{p_fault:>9.3f} {event.rul:>7.0f}  {flag}")

    events, report = run_monitor(codes, fault_model, rul_model, cfg,
                                 on_event=on_event)

    mons = [e for e in events if isinstance(e, MonitorEvent)]
    first = next(e for e in mons if e.alarm)
    print(f"\nevents: {len(mons)} for {len(triggers)} injected actuations")
    print(f"first alarm at sample {first.zero_index} "
          f"(cycle {(first.zero_index // 2000) * 5} of {FAILURE_CYCLE})")
    it_pc = sum(e.it_pc for e in mons) / len(mons)
    print(f"timing: B_fd {buffer_fill_duration(cfg.k, cfg.fs):.1f} s, "
          f"C_max {max_cycles(cfg.k, cfg.f_op, cfg.fs):.0f}, "
          f"IT_pb {report.inference_time_per_buffer * 1e3:.2f} ms, "
          f"IT_pc {it_pc * 1e3:.3f} ms, overruns={report.overrun_count}")


if __name__ == "__main__":
    main()
