"""Command-line front end: scans, cloud export, barcodes, spectra, distances.

Exit codes: 0 success, 2 usage/config error, 3 degenerate ground state.
Output files are written atomically (write to a temp file, then rename), so
an error exit never leaves a truncated artifact behind; they get the mode a
plain ``open()`` would give them, 0666 less the umask.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import dirac as _dirac
from . import persistence as _persistence
from . import phase as _phase
from .simplicial import _check_probe, vr_filtration
from .statecloud import DegenerateGroundStateError, cloud_csv_text, cloud_from_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".topophase-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() gives; mkstemp makes the file 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_probe(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"probe must be k:eps1:eps2, got {text!r}")
    try:
        k = int(parts[0])
        e1 = float(parts[1])
        e2 = float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"probe must be numeric k:eps1:eps2, got {text!r}") from None
    return (k, e1, e2)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topophase",
        description="Topological scans of parameterized ground-state expectation clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # scan and cloud flags other than --config and --out set the ScanConfig
    # field named by their dest; the defaults live in ScanConfig alone, so an
    # absent flag sets nothing
    grid = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    grid.add_argument("--model")
    grid.add_argument("--n", type=int, dest="n_sites")
    grid.add_argument("--v", type=float)
    grid.add_argument("--w", type=float)
    grid.add_argument("--lmin", type=float, dest="lambda_min")
    grid.add_argument("--lmax", type=float, dest="lambda_max")
    grid.add_argument("--step", type=float)
    grid.add_argument("--gap-tol", type=float, dest="gap_tol")

    scan = sub.add_parser("scan", parents=[grid], argument_default=argparse.SUPPRESS,
                          help="sweep a model and report probe values and transitions")
    scan.add_argument("--config", help="JSON file with scan configuration fields; flags override them")
    scan.add_argument("--mode", choices=(_phase.WINDOW, _phase.GLOBAL), dest="cloud_mode")
    scan.add_argument("--window", type=int, dest="window_halfwidth")
    scan.add_argument("--probe", action="append", type=_parse_probe, dest="intervals",
                      help="probe interval k:eps1:eps2 (repeatable)")
    scan.add_argument("--max-dim", type=int)
    scan.add_argument("--xi", type=float)
    scan.add_argument("--out", required=True)

    cloud = sub.add_parser("cloud", parents=[grid], help="export an expectation cloud as CSV")
    cloud.add_argument("--out", required=True)

    barcode = sub.add_parser("barcode", help="persistence diagram of a cloud CSV")
    barcode.add_argument("--cloud", required=True)
    barcode.add_argument("--max-dim", type=int, default=2)
    barcode.add_argument("--eps-max", type=float, default=None)
    barcode.add_argument("--out", required=True)
    barcode.add_argument("--svg", default=None)
    barcode.add_argument("--text", action="store_true", help="print the barcode to stdout")

    dirac = sub.add_parser("dirac", help="persistent Dirac spectrum of a cloud CSV")
    dirac.add_argument("--cloud", required=True)
    dirac.add_argument("--k", type=int, required=True)
    dirac.add_argument("--eps", type=float, required=True)
    dirac.add_argument("--eps2", type=float, required=True)
    dirac.add_argument("--xi", type=float, default=0.0)
    dirac.add_argument("--out", required=True)

    bottle = sub.add_parser("bottleneck", help="bottleneck distance between two diagram files")
    bottle.add_argument("d1")
    bottle.add_argument("d2")
    bottle.add_argument("--dim", type=int, required=True)

    return parser


def _scan_config(args) -> _phase.ScanConfig:
    """The ``--config`` file's fields (or none), overridden by the flags given."""
    payload = {}
    if "config" in args:
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
        except OSError as err:
            raise ValueError(f"cannot read config: {err}") from None
        except json.JSONDecodeError as err:
            raise ValueError(f"config is not valid JSON: {err}") from None
    if isinstance(payload, dict):
        payload.update((name, value) for name, value in vars(args).items()
                       if name not in ("command", "config", "out"))
    return _phase.config_from_dict(payload)


def cmd_scan(args) -> int:
    report = _phase.sweep(_scan_config(args))
    _atomic_write(args.out, _phase.report_to_json(report))
    if report.transitions:
        for left, right, probes in report.transitions:
            print(f"transition: lambda in ({left:.4g}, {right:.4g}) probes: {', '.join(probes)}")
    else:
        print("no transitions detected")
    return EXIT_OK


def cmd_cloud(args) -> int:
    cloud = _phase._sweep_cloud(_scan_config(args))
    _atomic_write(args.out, cloud_csv_text(cloud))
    print(f"wrote {cloud.n_points} points in R^{cloud.ambient_dim} to {args.out}")
    return EXIT_OK


def cmd_barcode(args) -> int:
    cloud = cloud_from_csv(args.cloud)
    filtration = vr_filtration(cloud, eps_max=args.eps_max, max_dim=args.max_dim)
    diagram = _persistence.reduce(filtration)
    _atomic_write(args.out, _persistence.diagram_to_json(diagram))
    if args.svg:
        _atomic_write(args.svg, _persistence.render_svg(diagram))
    if args.text:
        sys.stdout.write(_persistence.render_text(diagram))
    return EXIT_OK


def cmd_dirac(args) -> int:
    _check_probe(args.k + 1, args.k, args.eps, args.eps2)
    cloud = cloud_from_csv(args.cloud)
    # the spectrum reads only dimensions k - 1, k and k + 1, born by eps2
    filtration = vr_filtration(cloud, eps_max=args.eps2, max_dim=args.k + 1)
    eigenvalues, kernel = _dirac.dirac_spectrum(filtration, args.k, args.eps, args.eps2, xi=args.xi)
    _atomic_write(args.out, _dirac.spectrum_to_json(args.k, args.eps, args.eps2, args.xi, eigenvalues))
    print(f"kernel dimension: {kernel}")
    return EXIT_OK


def cmd_bottleneck(args) -> int:
    with open(args.d1) as fh:
        d1 = _persistence.diagram_from_json(fh.read())
    with open(args.d2) as fh:
        d2 = _persistence.diagram_from_json(fh.read())
    print(f"{_persistence.bottleneck(d1, d2, args.dim):.12g}")
    return EXIT_OK


_HANDLERS = {
    "scan": cmd_scan,
    "cloud": cmd_cloud,
    "barcode": cmd_barcode,
    "dirac": cmd_dirac,
    "bottleneck": cmd_bottleneck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except DegenerateGroundStateError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
