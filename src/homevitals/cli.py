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
import math
import signal
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from . import experiments
from .datasets import FOREST_PARAMS
from .errors import FormatError, HomevitalsError, NotFound
from .labeling import load_cortisol_csv, save_cortisol_csv
from .location import EventLog, format_message, register, resolve_location
from .service import JsonlStore, ServiceConfig, VitalsHttpServer, VitalsService, load_config
from .signals import MS_PER_S, Channel, load_ibi_csv, load_series_csv, save_ibi_csv, save_series_csv
from .simulate import cohort_sessions, simulate_bp_records
from .simulate.bp_records import TARGET_RATE_HZ


#: The files of a simulate set are {stem}_{part}.csv, found by the first part:
#: a session set's stem is the subject id, with optional ibi and cortisol parts
#: beside these series; a BP unit's stem is {record_id}_u{u}. A series part is
#: the bundle's or unit's attribute of that name, read with this channel, rate
#: (None: the channel's own) and sync-body chunk name (None: the channel's).
SESSION_FILES = {part: (Channel[part.upper()], None, None) for part in ("eda", "bvp", "st")}
UNIT_FILES = {
    "ppg": (Channel.PPG, None, None),
    "sbp": (Channel.DERIVED, TARGET_RATE_HZ, "sbp_mmhg"),
    "dbp": (Channel.DERIVED, TARGET_RATE_HZ, "dbp_mmhg"),
}


def _set_file(folder: Path, stem: str, part: str) -> Path:
    return folder / f"{stem}_{part}.csv"


def _cmd_simulate_stress(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for profile, bundle, samples in cohort_sessions(args.subjects, seed=args.seed):
        sid = profile.subject_id
        for part in SESSION_FILES:
            save_series_csv(getattr(bundle, part), _set_file(out, sid, part))
        save_ibi_csv(bundle.ibi, _set_file(out, sid, "ibi"))
        save_cortisol_csv(samples, _set_file(out, sid, "cortisol"))
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
            for part in UNIT_FILES:
                save_series_csv(getattr(unit, part), _set_file(out, stem, part))
    print(f"wrote {len(records)} {args.mode}-term records to {out}")
    return 0


def _cmd_simulate_locate(args) -> int:
    try:
        lines = _replay_locate_script(json.loads(Path(args.script).read_text()), args.seed)
    except (AttributeError, HomevitalsError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{args.script}: {exc}") from exc
    output = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(output)
    else:
        sys.stdout.write(output)
    return 0


def _replay_locate_script(script: dict, seed: int) -> list[str]:
    """One location message per step of a co-location script. A malformed
    script raises one of the errors _cmd_simulate_locate reports."""
    users = [(int(index), identity) for index, identity in script.get("users", {}).items()]
    locations = [(int(index), room) for index, room in script.get("locations", {}).items()]
    table = register(users, locations)
    rooms = {room: index for index, room in locations}
    identity_index = {identity: index for index, identity in users}

    clock_ms = [0]
    log = EventLog(table, clock=lambda: clock_ms[0])
    rng = np.random.default_rng(seed)
    lines = []
    for n, step in enumerate(script.get("steps", []), start=1):
        if not {"t_s", "user"} <= step.keys():
            raise ValueError(f"step {n} needs t_s and user")
        t_s, identity, room = step["t_s"], step["user"], step.get("room")
        if not isinstance(t_s, (int, float)) or not math.isfinite(t_s):
            raise ValueError(f"step {n}: t_s {t_s!r} is not a finite number")
        if identity not in identity_index:
            raise ValueError(f"step {n}: user {identity!r} is not registered")
        if room is not None and room not in rooms:
            raise ValueError(f"step {n}: room {room!r} is not registered")
        clock_ms[0] = int(t_s * MS_PER_S)
        if room is not None:
            log.ingest_event("user", identity_index[identity])
            clock_ms[0] += int(rng.uniform(0, 4500))
            log.ingest_event("location", rooms[room])
        lines.append(format_message(resolve_location(identity, log)))
    return lines


def _cmd_ingest(args) -> int:
    """Load simulate-format CSV sets from a directory into a store."""
    from .service import sync_body

    data = Path(args.data)

    def stems(files: dict) -> list[str]:
        suffix = _set_file(data, "", next(iter(files))).name
        return sorted(p.name[: -len(suffix)] for p in data.glob(f"*{suffix}"))

    def series(stem: str, files: dict) -> list:
        return [
            (name, load_series_csv(_set_file(data, stem, part), channel, rate_hz))
            for part, (channel, rate_hz, name) in files.items()
        ]

    def subject_bodies():
        for sid in stems(SESSION_FILES):
            ibi, cortisol = _set_file(data, sid, "ibi"), _set_file(data, sid, "cortisol")
            yield sync_body(
                sid,
                series(sid, SESSION_FILES),
                ibi=load_ibi_csv(ibi) if ibi.exists() else None,
                cortisol=load_cortisol_csv(cortisol) if cortisol.exists() else (),
            )
        for stem in stems(UNIT_FILES):
            yield sync_body(stem.rsplit("_u", 1)[0], series(stem, UNIT_FILES))

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
    try:
        # SIGTERM, and SIGINT even where it was inherited as ignored (a
        # background job of a non-interactive shell), stop the server as
        # Ctrl-C does: by KeyboardInterrupt. Whether that ends serve_forever
        # or comes before it starts, close() closes the socket and the store.
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.default_int_handler)
        print(f"listening on {config.listen_host}:{server.port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
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
    except (HomevitalsError, OSError) as exc:  # OSError: a missing file, a port in use, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
