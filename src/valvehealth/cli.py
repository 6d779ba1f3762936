"""Command-line front end.

Exit codes: 0 success, 1 runtime/IO/format error, 2 usage error. Every
randomized behavior funnels through the single --seed flag, and --clock
virtual makes monitor output byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys

import numpy as np

from . import models, pipeline, tinynn
from .acquisition import buffer_fill_duration, max_cycles
from .errors import (CsvFormatError, ModelFormatError, ParameterError,
                     ShapeError, TrainingDivergedError)
from .features import ExtractionConfig, extract_all, write_features_csv
from .models import FAULT_CLASSES
from .pipeline import MonitorConfig
from .tinynn import ModelKind, TrainConfig
from .waveform import (REFERENCE_PRESSURE_BAR, REFERENCE_TEMP_C, DegradationState,
                       FaultCondition, FaultKind, TransientTrace, ValveParams,
                       codes_to_current, current_to_codes, read_trace_csv,
                       synth_transient, write_trace_csv)

_FAULT_CHOICES = [k.value for k in FAULT_CLASSES]
_SCENARIO_CHOICES = _FAULT_CHOICES + ["degradation"]


def _fault_condition(name: str, voltage: float | None) -> FaultCondition:
    kind = FaultKind(name)
    if kind is FaultKind.UNDER_VOLTAGE and voltage is None:
        voltage = 12.0
    return FaultCondition(kind, voltage)


def _cmd_simulate(args) -> int:
    if not 0.0 <= args.severity <= 1.0:
        raise ParameterError(f"--severity must be in [0, 1], got {args.severity}")
    fault = _fault_condition(args.fault, args.voltage)
    params = ValveParams(temperature=args.temperature, pressure=args.pressure)
    deg = DegradationState(cycle=round(args.severity * 1_000_000), failure_cycle=1_000_000)
    if args.cycles == 1:
        trace = synth_transient(params, fault, deg, noise_std=args.noise, seed=args.seed,
                                fs=args.fs)
    else:
        codes, _ = pipeline.scenario_source(
            [(fault, deg)] * args.cycles, f_op=args.fop, fs=args.fs, params=params,
            noise_std=args.noise, seed=args.seed)
        trace = TransientTrace(codes_to_current(codes), args.fs)
    write_trace_csv(trace, args.out)
    print(f"wrote {len(trace.samples)} samples to {args.out}")
    return 0


def _cmd_extract(args) -> int:
    trace = read_trace_csv(args.infile)
    features, skipped = extract_all(trace)
    for z, err in skipped:
        print(f"skipped edge at zero_index {z}: {type(err).__name__}", file=sys.stderr)
    write_features_csv(features, args.out, full=args.full)
    print(f"extracted {len(features)} actuation(s) to {args.out}")
    return 0


def _cmd_gen_dataset(args) -> int:
    noise = {} if args.noise is None else {"noise_std": args.noise}  # else the task's own
    if args.task == "fault":
        ds = models.gen_fault_dataset(counts=tuple(args.counts), seed=args.seed, **noise)
    else:
        ds = models.gen_rul_dataset(n_valves=args.valves, seed=args.seed,
                                    failure_cycle=args.failure_cycle, **noise)
    models.write_dataset_csv(ds, args.out)
    print(f"wrote {len(ds)} rows to {args.out}")
    return 0


def _cmd_train(args) -> int:
    ds = models.read_dataset_csv(args.data)
    if ds.kind != args.task:
        print(f"error: --task {args.task} but {args.data} holds a {ds.kind} dataset",
              file=sys.stderr)
        return 2
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch,
                      learning_rate=args.learning_rate, seed=args.seed)
    trainer = models.train_fault if args.task == "fault" else models.train_rul
    model, history, report = trainer(ds, cfg)
    tinynn.save(model, args.out)

    history_path = args.history or str(args.out) + ".history.csv"
    with open(history_path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["epoch", "train_loss", "val_loss", "epoch_s"])
        rows = zip(history.train_loss, history.val_loss, history.epoch_s)
        for epoch, (tr, va, secs) in enumerate(rows, start=1):
            w.writerow([epoch, repr(tr), repr(va), repr(secs)])

    if args.task == "fault":
        print(f"test accuracy: {report.accuracy:.4f}")
    else:
        print(f"test MAE: {report.mae_cycles:.3f} cycles")
    print(f"model: {args.out}\nhistory: {history_path}")
    return 0


def _cmd_eval(args) -> int:
    model = tinynn.restore(args.model)
    ds = models.read_dataset_csv(args.data)
    expected = "fault" if model.kind is ModelKind.CLASSIFIER else "rul"
    if ds.kind != expected:
        print(f"error: model expects a {expected} dataset, got {ds.kind}", file=sys.stderr)
        return 2
    report = models.evaluate(model, ds)
    if expected == "fault":
        payload = {"accuracy": report.accuracy,
                   "confusion": [[float(v) for v in row] for row in report.confusion],
                   "classes": _FAULT_CHOICES}
    else:
        payload = {"mae_cycles": report.mae_cycles}
    print(json.dumps(payload))
    return 0


def _cmd_infer(args) -> int:
    model = tinynn.restore(args.model)
    out = tinynn.infer(model, np.array([args.di_dt, args.auc]))
    if model.kind is ModelKind.CLASSIFIER:
        payload = {"fault_probs": [float(p) for p in out],
                   "predicted_class": FAULT_CLASSES[int(out.argmax())].value}
    else:
        payload = {"rul": max(float(out[0]), 0.0)}
    print(json.dumps(payload))
    return 0


def _cmd_monitor(args) -> int:
    if args.voltage is not None and args.scenario not in _FAULT_CHOICES:
        raise ParameterError(f"--voltage applies to under_voltage, not {args.scenario}")
    fault_model = tinynn.restore(args.fault_model)
    rul_model = tinynn.restore(args.rul_model)
    cfg = MonitorConfig(k=args.k, fs=args.fs, f_op=args.fop,
                        rul_alarm_threshold=args.rul_threshold,
                        fault_alarm_threshold=args.fault_threshold,
                        clock=args.clock)
    if args.scenario in _SCENARIO_CHOICES:
        if args.scenario == "degradation":  # actuation i runs at wear cycle 5 * i
            schedule = [(FaultCondition.good(),
                         DegradationState(cycle=i * 5, failure_cycle=args.failure_cycle))
                        for i in range(args.cycles)]
        else:
            schedule = [(_fault_condition(args.scenario, args.voltage),
                         DegradationState(cycle=0, failure_cycle=1_000_000))] * args.cycles
        codes, _ = pipeline.scenario_source(schedule, fs=cfg.fs, f_op=cfg.f_op,
                                            params=ValveParams(), noise_std=args.noise,
                                            seed=args.seed)
    else:
        trace = read_trace_csv(args.scenario)
        if not math.isclose(trace.sample_rate, cfg.fs, rel_tol=1e-3):
            raise ParameterError(f"{args.scenario} is sampled at {trace.sample_rate:g} Hz "
                                 f"but --fs is {cfg.fs:g} Hz")
        codes = current_to_codes(trace.samples)

    excfg = ExtractionConfig.for_sample_rate(cfg.fs)

    def stream(event):
        print(pipeline.event_to_json(event, cfg, excfg))

    events, report = pipeline.run_monitor(codes, fault_model, rul_model, cfg,
                                          on_event=stream)
    print(pipeline.report_to_json(report, cfg, events))
    return 0


def _cmd_timing(args) -> int:
    print(json.dumps({
        "k": args.k,
        "fs": args.fs,
        "f_op": args.fop,
        "b_fd_us": round(buffer_fill_duration(args.k, args.fs) * 1e6),
        "c_max": max_cycles(args.k, args.fop, args.fs),
    }))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valvehealth",
        description="Solenoid-valve condition monitoring from drive-current transients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a drive-current trace CSV")
    p.add_argument("--fault", choices=_FAULT_CHOICES, default="good")
    p.add_argument("--voltage", type=float, help="applied volts for under_voltage")
    p.add_argument("--cycles", type=int, default=1)
    p.add_argument("--severity", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0, help="noise sigma in mA")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fs", type=float, default=1000.0)
    p.add_argument("--fop", type=float, default=0.5)
    p.add_argument("--temperature", type=float, default=REFERENCE_TEMP_C)
    p.add_argument("--pressure", type=float, default=REFERENCE_PRESSURE_BAR)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("extract", help="extract transient features from a trace CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--full", action="store_true", help="write every intermediate column")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("gen-dataset", help="synthesize a labeled dataset CSV")
    p.add_argument("--task", choices=["fault", "rul"], required=True)
    p.add_argument("--counts", type=int, nargs=4, default=list(models.DEFAULT_FAULT_COUNTS),
                   metavar=("GOOD", "SPOOL", "SPRING", "UNDERV"))
    p.add_argument("--valves", type=int, default=4)
    p.add_argument("--failure-cycle", type=int, default=1500)
    p.add_argument("--noise", type=float, help="noise sigma in mA (default: per task)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_dataset)

    p = sub.add_parser("train", help="train a model on a dataset CSV")
    p.add_argument("--task", choices=["fault", "rul"], required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="history CSV path (default: <out>.history.csv)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a model on a dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("infer", help="run one feature pair through a model")
    p.add_argument("--model", required=True)
    p.add_argument("--di-dt", type=float, required=True)
    p.add_argument("--auc", type=float, required=True)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("monitor", help="stream a scenario through the live loop")
    p.add_argument("--fault-model", required=True)
    p.add_argument("--rul-model", required=True)
    p.add_argument("--k", type=int, default=10000)
    p.add_argument("--fs", type=float, default=1000.0)
    p.add_argument("--fop", type=float, default=0.5)
    p.add_argument("--scenario", default="degradation",
                   help=f"one of {_SCENARIO_CHOICES} or a trace CSV path")
    p.add_argument("--cycles", type=int, default=40)
    p.add_argument("--failure-cycle", type=int, default=200)
    p.add_argument("--voltage", type=float)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rul-threshold", type=float, default=MonitorConfig.rul_alarm_threshold)
    p.add_argument("--fault-threshold", type=float,
                   default=MonitorConfig.fault_alarm_threshold)
    p.add_argument("--clock", choices=["virtual", "realtime"], default=MonitorConfig.clock)
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("timing", help="buffer timing algebra for one configuration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--fs", type=float, default=1000.0)
    p.add_argument("--fop", type=float, required=True)
    p.set_defaults(func=_cmd_timing)

    return parser


# What argparse itself takes for a negative number rather than a flag.
_PLAIN_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--flag -inf`` as ``--flag=-inf``: argparse reads a value such as
    ``-inf``, ``-nan`` or ``-1e3`` after a flag as an unknown flag."""
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and len(flag) > 2 and "=" not in flag
                and arg.startswith("-") and not _PLAIN_NEGATIVE.fullmatch(arg)
                and _is_float(arg)):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ParameterError, ShapeError, CsvFormatError, ModelFormatError,
            TrainingDivergedError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
