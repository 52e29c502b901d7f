"""Command-line entry points.

  homevitals simulate stress --subjects N --seed S --out DIR
  homevitals simulate bp --records N --mode short|long --seed S --out DIR
  homevitals simulate locate --script FILE [--seed S] [--out FILE]
  homevitals ingest --store PATH --data DIR
  homevitals train stress|bp --store PATH [--config FILE] [--seed S]
  homevitals evaluate stress [--subjects N] [--seeds K] [--out FILE]
  homevitals evaluate bp [--records N] [--mode short|long|both] [--out FILE]
  homevitals serve --config FILE
  homevitals locate IDENTITY --server URL [--tolerance S]
  homevitals report roc --out FILE [--subjects N] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from . import experiments
from .datasets import FOREST_PARAMS
from .errors import HomevitalsError, NotFound
from .labeling import save_cortisol_csv
from .location import EventLog, format_message, register, resolve_location
from .service import JsonlStore, ServiceConfig, VitalsHttpServer, VitalsService, load_config
from .signals import save_ibi_csv, save_series_csv
from .simulate import cohort_sessions, simulate_bp_records


def _cmd_simulate_stress(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for profile, bundle, samples in cohort_sessions(args.subjects, seed=args.seed):
        sid = profile.subject_id
        save_series_csv(bundle.eda, out / f"{sid}_eda.csv")
        save_series_csv(bundle.bvp, out / f"{sid}_bvp.csv")
        save_series_csv(bundle.st, out / f"{sid}_st.csv")
        save_ibi_csv(bundle.ibi, out / f"{sid}_ibi.csv")
        save_cortisol_csv(samples, out / f"{sid}_cortisol.csv")
    print(f"wrote {args.subjects} subject sessions to {out}")
    return 0


def _cmd_simulate_bp(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mode = "short_term" if args.mode == "short" else "long_term"
    records = simulate_bp_records(args.records, mode, seed=args.seed)
    for record in records:
        for u, unit in enumerate(record.units):
            stem = f"{record.record_id}_u{u}"
            save_series_csv(unit.ppg, out / f"{stem}_ppg.csv")
            save_series_csv(unit.sbp, out / f"{stem}_sbp.csv")
            save_series_csv(unit.dbp, out / f"{stem}_dbp.csv")
    print(f"wrote {len(records)} {args.mode}-term records to {out}")
    return 0


def _cmd_simulate_locate(args) -> int:
    script = json.loads(Path(args.script).read_text())
    users = [(int(index), identity) for index, identity in script.get("users", {}).items()]
    locations = [(int(index), room) for index, room in script.get("locations", {}).items()]
    table = register(users, locations)
    rooms = {room: index for index, room in locations}
    identity_index = {identity: index for index, identity in users}

    clock_ms = [0]
    log = EventLog(table, clock=lambda: clock_ms[0])
    rng = np.random.default_rng(args.seed)
    lines = []
    for step in script.get("steps", []):
        clock_ms[0] = int(step["t_s"] * 1000)
        room = step.get("room")
        identity = step["user"]
        if room is not None:
            log.ingest_event("user", identity_index[identity])
            clock_ms[0] += int(rng.uniform(0, 4500))
            log.ingest_event("location", rooms[room])
        result = resolve_location(identity, log)
        lines.append(format_message(result))
    output = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(output)
    else:
        sys.stdout.write(output)
    return 0


def _cmd_ingest(args) -> int:
    """Load simulate-format CSV sets from a directory into a store."""
    from .labeling import load_cortisol_csv
    from .service import sync_body
    from .signals import Channel, load_ibi_csv, load_series_csv

    data = Path(args.data)

    def subject_bodies():
        wrist = {"eda": Channel.EDA, "bvp": Channel.BVP, "st": Channel.ST}
        for sid in sorted({p.name.rsplit("_", 1)[0] for p in data.glob("*_eda.csv")}):
            ibi, cortisol = data / f"{sid}_ibi.csv", data / f"{sid}_cortisol.csv"
            yield sync_body(
                sid,
                [load_series_csv(data / f"{sid}_{stem}.csv", ch) for stem, ch in wrist.items()],
                ibi=load_ibi_csv(ibi) if ibi.exists() else None,
                cortisol=load_cortisol_csv(cortisol) if cortisol.exists() else (),
            )
        for stem in sorted({p.name[: -len("_ppg.csv")] for p in data.glob("*_ppg.csv")}):
            yield sync_body(
                stem.rsplit("_u", 1)[0],
                [
                    load_series_csv(data / f"{stem}_ppg.csv", Channel.PPG),
                    ("sbp_mmhg", load_series_csv(data / f"{stem}_sbp.csv", Channel.DERIVED, 1.0)),
                    ("dbp_mmhg", load_series_csv(data / f"{stem}_dbp.csv", Channel.DERIVED, 1.0)),
                ],
            )

    store = JsonlStore(args.store)
    try:
        service = VitalsService(ServiceConfig().with_storage(args.store), store)
        stored = duplicates = 0
        for body in subject_bodies():  # one subject loaded, then synced
            ack = service.sync_signals(body)
            stored += ack["stored"]
            duplicates += ack["duplicates"]
        print(json.dumps({"stored": stored, "duplicates": duplicates}))
        return 0
    finally:
        store.close()


def _cmd_train(args) -> int:
    config = load_config(args.config) if args.config else ServiceConfig()
    config = config.with_storage(args.store)
    store = JsonlStore(config.storage_path)
    try:
        service = VitalsService(config, store)
        if args.target == "stress":
            result = service.train_stress(args.seed)
        else:
            result = service.train_bp(args.seed)
        print(json.dumps(result))
        return 0
    finally:
        store.close()


def _cmd_evaluate_stress(args) -> int:
    results = experiments.stress_fusion_experiment(
        n_subjects=args.subjects,
        cohort_seed=args.seed,
        split_seeds=range(args.seeds),
        forest_params={**FOREST_PARAMS, "n_trees": args.trees},
    )
    rows = [result.as_row() for result in results.values()]
    report = {"experiment": "stress_sensor_fusion", "subjects": args.subjects, "rows": rows}
    _emit_report(report, args.out)
    for row in rows:
        auc = "n/a" if row["auc"] is None else f"{row['auc']:.3f}"
        print(
            f"{row['signals']:<18} features {row['total_features']:>2} "
            f"selected {row['selected_features']:>2} f1+ {row['f1_stressed']:.3f} "
            f"f1- {row['f1_not_stressed']:.3f} macro {row['macro_f1']:.3f} "
            f"acc {row['accuracy_pct']:.1f}% auc {auc}"
        )
    return 0


def _cmd_evaluate_bp(args) -> int:
    modes = ("short_term", "long_term") if args.mode == "both" else (
        "short_term" if args.mode == "short" else "long_term",
    )
    report = {"experiment": "bp_regressors", "records": args.records, "modes": {}}
    for mode in modes:
        results = experiments.bp_regressor_experiment(
            n_records=args.records,
            mode=mode,
            seed=args.seed,
            split_seeds=range(args.seeds),
            quick=not args.full,
        )
        report["modes"][mode] = results
        for target, per_regressor in results.items():
            for name, metrics in per_regressor.items():
                print(
                    f"{mode:<10} {target.upper():<4} {name:<12} "
                    f"MAE {metrics['mae']:>6.2f}  SD {metrics['sd']:>6.2f}  "
                    f"<5mmHg {metrics['pct_within_5mmhg']:>5.1f}%"
                )
    _emit_report(report, args.out)
    return 0


def _cmd_report_roc(args) -> int:
    curves = experiments.stress_roc_curves(
        n_subjects=args.subjects,
        cohort_seed=args.seed,
        forest_params={**FOREST_PARAMS, "n_trees": args.trees},
    )
    report = {
        "experiment": "stress_roc",
        "curves": {name: [[fpr, tpr] for fpr, tpr in pts] for name, pts in curves.items()},
    }
    _emit_report(report, args.out)
    print(f"wrote ROC curves for {len(curves)} signal combinations")
    return 0


def _emit_report(report: dict, out: str | None) -> None:
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")


def _cmd_serve(args) -> int:
    config = load_config(args.config) if args.config else ServiceConfig()
    if args.port is not None:
        from dataclasses import replace

        config = replace(config, listen_port=args.port)
    server = VitalsHttpServer(config)
    print(f"listening on {config.listen_host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _cmd_locate(args) -> int:
    url = f"{args.server.rstrip('/')}/location/{args.identity}"
    if args.tolerance is not None:
        url += f"?tolerance_s={args.tolerance}"
    try:
        with urllib.request.urlopen(url) as response:
            body = response.read().decode()
    except urllib.error.HTTPError as exc:
        print(exc.read().decode() or f"error {exc.code}", file=sys.stderr)
        return 1
    print(body)
    return 0 if '"status":"ok"' in body else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homevitals", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate synthetic datasets")
    sim_sub = simulate.add_subparsers(dest="what", required=True)
    s_stress = sim_sub.add_parser("stress", help="wristband stress cohort")
    s_stress.add_argument("--subjects", type=int, default=40)
    s_stress.add_argument("--seed", type=int, default=0)
    s_stress.add_argument("--out", required=True)
    s_stress.set_defaults(func=_cmd_simulate_stress)
    s_bp = sim_sub.add_parser("bp", help="PPG records with pressure targets")
    s_bp.add_argument("--records", type=int, default=20)
    s_bp.add_argument("--mode", choices=("short", "long"), default="short")
    s_bp.add_argument("--seed", type=int, default=0)
    s_bp.add_argument("--out", required=True)
    s_bp.set_defaults(func=_cmd_simulate_bp)
    s_loc = sim_sub.add_parser("locate", help="co-location event script replay")
    s_loc.add_argument("--script", required=True)
    s_loc.add_argument("--seed", type=int, default=0)
    s_loc.add_argument("--out")
    s_loc.set_defaults(func=_cmd_simulate_locate)

    ingest = sub.add_parser("ingest", help="load simulate CSV output into a store")
    ingest.add_argument("--store", required=True)
    ingest.add_argument("--data", required=True)
    ingest.set_defaults(func=_cmd_ingest)

    train = sub.add_parser("train", help="train models from a store")
    train.add_argument("target", choices=("stress", "bp"))
    train.add_argument("--store", required=True)
    train.add_argument("--config")
    train.add_argument("--seed", type=int, default=None)
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("evaluate", help="run calibrated synthetic evaluations")
    eval_sub = evaluate.add_subparsers(dest="what", required=True)
    e_stress = eval_sub.add_parser("stress")
    e_stress.add_argument("--subjects", type=int, default=40)
    e_stress.add_argument("--seeds", type=int, default=10)
    e_stress.add_argument("--seed", type=int, default=0)
    e_stress.add_argument("--trees", type=int, default=FOREST_PARAMS["n_trees"])
    e_stress.add_argument("--out")
    e_stress.set_defaults(func=_cmd_evaluate_stress)
    e_bp = eval_sub.add_parser("bp")
    e_bp.add_argument("--records", type=int, default=20)
    e_bp.add_argument("--mode", choices=("short", "long", "both"), default="both")
    e_bp.add_argument("--seeds", type=int, default=3)
    e_bp.add_argument("--seed", type=int, default=0)
    e_bp.add_argument("--full", action="store_true", help="full-size regressors")
    e_bp.add_argument("--out")
    e_bp.set_defaults(func=_cmd_evaluate_bp)

    serve = sub.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--config")
    serve.add_argument("--port", type=int, default=None)
    serve.set_defaults(func=_cmd_serve)

    locate = sub.add_parser("locate", help="query a running server for a user location")
    locate.add_argument("identity")
    locate.add_argument("--server", default="http://127.0.0.1:8700")
    locate.add_argument("--tolerance", type=float, default=None)
    locate.set_defaults(func=_cmd_locate)

    report = sub.add_parser("report", help="export analysis artifacts")
    rep_sub = report.add_subparsers(dest="what", required=True)
    r_roc = rep_sub.add_parser("roc", help="ROC points per signal combination")
    r_roc.add_argument("--out", required=True)
    r_roc.add_argument("--subjects", type=int, default=40)
    r_roc.add_argument("--seed", type=int, default=0)
    r_roc.add_argument("--trees", type=int, default=FOREST_PARAMS["n_trees"])
    r_roc.set_defaults(func=_cmd_report_roc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotFound as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 1
    except HomevitalsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
