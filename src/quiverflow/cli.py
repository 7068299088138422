"""Command line interface: file formats and batch commands tying the library
together.

Formats
-------
Quiver file (JSON): {"vertices": [...], "edges": [{"from": v, "to": w}, ...],
"dim": {vertex: int}, "alpha": {vertex: "p/q"}}. Rationals are serialized as
strings to keep the combinatorics exact.

Representation file (JSON): {"matrices": [[[ [re, im], ... ] per row] per
edge]} in the quiver's edge order.

Stats file (JSON, `flow --stats PATH`): the integrator's FlowStats counters,
plus "critical_path" (the state classified: "dip" or "endpoint"; null when
the flow did not converge and left no usable dip), "fallback_reason", and the
classification margins "level_margin" and "offdiag_residue" (null when the
classification failed), and the wall times "integrate_s" and "classify_s" of
the flow and of its classification, in seconds. It is written only on
request, so the other outputs stay byte-deterministic.

All randomness flows from a single --seed through numpy.random.default_rng.
Exit codes: 0 ok, 1 runtime failure (non-convergence, ambiguity, a failed
internal invariant), 2 input validation. Errors are emitted as one JSON object
on stderr. File writes are atomic (write to a temp file in the target
directory, then rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from .catalog import BUILTINS
from .flow import FlowConfig, FlowError, integrate_flow, paired_flow_sigma
from .hyperkahler import DoubledRep, LevelError, double, flow_on_level
from .quiver import (
    Quiver,
    QuiverError,
    StabilityParam,
    codimension,
    rank,
    slope,
)
from .repspace import (
    GaugeElement,
    Representation,
    f_value,
    finite_difference_check,
    grad_norm,
)
from .series import SeriesInvariantError, nonempty_hn_types, poincare_semistable
from .strata import ClassificationError, RankAmbiguityError, critical_of_flow


class InputError(ValueError):
    pass


def _fail(code: int, name: str, detail: str) -> "NoReturn":  # noqa: F821
    sys.stderr.write(json.dumps({"error": name, "detail": detail}) + "\n")
    raise SystemExit(code)


def _atomic_write(path: str, text: str) -> None:
    # rename-over only makes sense for regular files; write through to
    # devices like /dev/null instead of clobbering them
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def load_quiver_file(path: str) -> tuple[Quiver, tuple[int, ...], StabilityParam]:
    """Parse a quiver file, or resolve a builtin name (a2, jordan2, star21)."""
    if path in BUILTINS:
        return BUILTINS[path]()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read quiver file: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"quiver file is not valid JSON: {e}")
    try:
        vertices = tuple(str(v) for v in doc["vertices"])
        edges = tuple((str(e["from"]), str(e["to"])) for e in doc["edges"])
        q = Quiver(vertices, edges)
        dims = tuple(doc["dim"][v] for v in vertices)
        # bool is a subclass of int, and int() would truncate 1.7 to 1
        if any(type(d) is not int for d in dims):
            raise ValueError(f"dimensions must be integers, got {list(dims)}")
        alpha = [Fraction(str(doc["alpha"][v])) for v in vertices]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"malformed quiver file: {e}")
    a = StabilityParam.trace_free(q, dims, alpha)
    if rank(dims) == 0:
        raise InputError("dimension vector has rank 0: the representation space is empty")
    return q, dims, a


def quiver_file_doc(q: Quiver, dims, a: StabilityParam) -> dict:
    return {
        "vertices": list(q.vertices),
        "edges": [{"from": s, "to": t} for s, t in q.edges],
        "dim": {v: d for v, d in zip(q.vertices, dims)},
        "alpha": {v: str(x) for v, x in zip(q.vertices, a)},
    }


def _mat_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _mat_from_json(rows, shape) -> np.ndarray:
    """The matrix of `shape` written as shape[0] rows of shape[1] pairs
    [re, im]; any other nesting, or an entry that is not a pair of numbers,
    raises ValueError."""
    if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
        raise ValueError(f"matrix is not {shape[0]}x{shape[1]}")
    pairs = [x for row in rows for x in row]
    if not all(
        type(x) is list and len(x) == 2 and all(type(c) in (int, float) for c in x) for x in pairs
    ):
        raise ValueError("every matrix entry must be a pair [re, im] of numbers")
    return np.array([complex(*x) for x in pairs], dtype=complex).reshape(shape)


def rep_to_doc(A: Representation) -> dict:
    return {"matrices": [_mat_to_json(m) for m in A.mats]}


def rep_from_doc(q: Quiver, dims, doc: dict) -> Representation:
    try:
        entries = doc["matrices"]
        if len(entries) != len(q.edges):
            raise ValueError(f"{len(entries)} matrices for {len(q.edges)} edges")
        mats = [
            _mat_from_json(rows, (dims[in_i], dims[out_i]))
            for (out_i, in_i), rows in zip(q.edge_indices(), entries)
        ]
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise InputError(f"malformed representation file: {e}")
    return Representation(q, dims, mats)


def load_rep_file(q: Quiver, dims, path: str) -> Representation:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read representation file: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"representation file is not valid JSON: {e}")
    return rep_from_doc(q, dims, doc)


def _traj_csv(samples, columns) -> str:
    lines = [",".join(columns)]
    for s in samples:
        row = []
        for c in columns:
            row.append(repr(float(getattr(s, c))))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _flow_config(args) -> FlowConfig:
    try:
        return FlowConfig(grad_tol=args.tol, max_time=args.max_t)
    except ValueError as e:
        raise InputError(str(e))


def cmd_flow(args) -> int:
    q, dims, a = load_quiver_file(args.quiver)
    if args.init is not None:
        A0 = load_rep_file(q, dims, args.init)
    else:
        A0 = Representation.random(q, dims, np.random.default_rng(args.seed))
    cfg = _flow_config(args)
    hn_type = crit = None
    note = None
    start = time.perf_counter()
    res = integrate_flow(q, A0, a, cfg)
    integrated = time.perf_counter()
    try:
        A_inf, crit = critical_of_flow(q, res, a, cfg)
        hn_type = [list(p) for p in crit.hn_type]
    except (FlowError, ClassificationError) as e:
        note = str(e)
        A_inf = res.final
    classified = time.perf_counter()
    if args.out_traj:
        _emit(args.out_traj, _traj_csv(res.trajectory, ["t", "f", "grad_norm"]))
    final = {
        "converged": res.converged,
        "elapsed": res.elapsed,
        "f": f_value(q, A_inf, a),
        "grad_norm": grad_norm(q, A_inf, a),
        "n_steps": res.n_steps,
        "hn_type": hn_type,
        "matrices": rep_to_doc(A_inf)["matrices"],
    }
    if note:
        final["note"] = note
    _emit(args.out_final, json.dumps(final, indent=2) + "\n")
    if args.stats:
        # h_min is infinite, written as null, when no step was accepted
        stats = {k: v if math.isfinite(v) else None for k, v in asdict(res.stats).items()}
        stats["critical_path"] = res.critical_path
        stats["fallback_reason"] = res.fallback_reason
        stats["level_margin"] = None if crit is None else crit.level_margin
        stats["offdiag_residue"] = None if crit is None else crit.offdiag_residue
        stats["integrate_s"] = integrated - start
        stats["classify_s"] = classified - integrated
        _emit(args.stats, json.dumps(stats, indent=2) + "\n")
    if not res.converged:
        _fail(1, "non_convergence", f"flow stopped at t={res.elapsed} with grad_norm={res.final_grad_norm}")
    return 0


def cmd_strata(args) -> int:
    q, dims, a = load_quiver_file(args.quiver)
    if args.max_length is not None and args.max_length < 1:
        raise InputError("--max-length must be >= 1")
    out = []
    for t in nonempty_hn_types(q, dims, a):
        if args.max_length is not None and len(t) > args.max_length:
            continue
        out.append(
            {
                "type": [list(p) for p in t],
                "slope_vector": [str(slope(q, p, a)) for p in t],
                "codimension": codimension(q, t),
            }
        )
    _emit(args.out, json.dumps(out, indent=2) + "\n")
    return 0


def cmd_poincare(args) -> int:
    q, dims, a = load_quiver_file(args.quiver)
    if args.max_deg < 0:
        raise InputError("--max-deg must be >= 0")
    s = poincare_semistable(q, dims, a, args.max_deg)
    doc = {"max_degree": s.max_degree, "coefficients": list(s.coeffs)}
    _emit(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_sigma(args) -> int:
    q, dims, a = load_quiver_file(args.quiver)
    rng = np.random.default_rng(args.seed)
    A0 = Representation.random(q, dims, rng)
    if args.g0 == "identity":
        g0 = GaugeElement.identity(dims)
    elif args.g0 is None:
        g0 = GaugeElement(
            [
                np.eye(d, dtype=complex)
                + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                for d in dims
            ]
        )
    else:
        try:
            with open(args.g0) as fh:
                blocks = json.load(fh)["blocks"]
            if len(blocks) != len(dims):
                raise ValueError(f"{len(blocks)} blocks for {len(dims)} vertices")
            g0 = GaugeElement([_mat_from_json(rows, (d, d)) for rows, d in zip(blocks, dims)])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise InputError(f"malformed gauge file: {e}")
    cfg = _flow_config(args)
    trace = paired_flow_sigma(q, A0, g0, a, cfg)
    lines = ["t,sigma"]
    for t, s in trace.samples:
        lines.append(f"{float(t)!r},{float(s)!r}")
    _emit(args.out, "\n".join(lines) + "\n")
    if not trace.converged:
        _fail(1, "non_convergence", "paired flow did not converge")
    return 0


def cmd_hkflow(args) -> int:
    q, dims, a = load_quiver_file(args.quiver)
    if not args.level_tol > 0:
        raise InputError("--level-tol must be positive")
    qd = double(q)
    rng = np.random.default_rng(args.seed)
    if args.init is not None:
        rep0 = load_rep_file(qd, dims, args.init)
        dr = DoubledRep(q, rep0)
    else:
        # random A-part with zero B-part starts exactly on the zero level
        A_part = Representation.random(q, dims, rng)
        b_mats = [
            np.zeros((dims[out_i], dims[in_i]), dtype=complex)
            for out_i, in_i in q.edge_indices()
        ]
        dr = DoubledRep.from_parts(q, dims, A_part.mats, b_mats)
    cfg = _flow_config(args)
    res = flow_on_level(dr, a, cfg, level_tol=args.level_tol)
    if args.out_traj:
        _emit(
            args.out_traj,
            _traj_csv(res.trajectory, ["t", "f", "grad_norm", "phi_c_norm"]),
        )
    final = {
        "converged": res.converged,
        "f": res.final_f,
        "grad_norm": res.final_grad_norm,
        "max_phi_c_norm": max(s.phi_c_norm for s in res.trajectory),
        "matrices": rep_to_doc(res.final)["matrices"],
    }
    _emit(args.out_final, json.dumps(final, indent=2) + "\n")
    if not res.converged:
        _fail(1, "non_convergence", "flow did not converge")
    return 0


def cmd_checkgrad(args) -> int:
    if args.trials < 1:
        raise InputError("--trials must be >= 1")
    names = [args.quiver] if args.quiver else list(BUILTINS)
    rng = np.random.default_rng(args.seed)
    report = {}
    worst = 0.0
    for name in names:
        q, dims, a = load_quiver_file(name)
        err = finite_difference_check(q, dims, a, rng, n_points=args.trials, n_dirs=args.trials)
        report[name] = err
        worst = max(worst, err)
    doc = {"per_quiver": report, "max_relative_error": worst}
    _emit(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _add_flow_opts(p):
    p.add_argument("--quiver", required=True, help="quiver file path or builtin name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8, help="gradient norm tolerance")
    p.add_argument("--max-t", type=float, default=1e4, help="flow time horizon")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quiverflow",
        description="Gradient flow, stratification, and series computations for quiver representations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="integrate the gradient flow and classify the limit")
    _add_flow_opts(p)
    p.add_argument("--init", help="initial representation file (default: random from --seed)")
    p.add_argument("--out-traj", help="trajectory CSV output path")
    p.add_argument("--out-final", default="-", help="final state JSON path (default stdout)")
    p.add_argument(
        "--stats",
        help="integration counters, critical_path, fallback_reason and margins as JSON",
    )
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser(
        "strata", help="enumerate the nonempty HN strata with slopes and codimensions"
    )
    p.add_argument("--quiver", required=True)
    p.add_argument("--max-length", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("poincare", help="equivariant Poincare series of the semistable locus")
    p.add_argument("--quiver", required=True)
    p.add_argument("--max-deg", type=int, default=20)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("sigma", help="paired-flow sigma monotonicity trace")
    _add_flow_opts(p)
    p.add_argument("--g0", help='gauge file, or "identity" (default: random from --seed)')
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("hkflow", help="flow on the zero level of the complex moment map")
    _add_flow_opts(p)
    p.add_argument("--init", help="doubled-quiver representation file")
    p.add_argument("--level-tol", type=float, default=1e-9)
    p.add_argument("--out-traj")
    p.add_argument("--out-final", default="-")
    p.set_defaults(func=cmd_hkflow)

    p = sub.add_parser("checkgrad", help="finite-difference gradient validation")
    p.add_argument("--quiver", help="quiver file or builtin; default: all builtins")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_checkgrad)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every command with a --seed hands it to numpy.random.default_rng
        if getattr(args, "seed", 0) < 0:
            raise InputError("--seed must be >= 0")
        return args.func(args)
    except (InputError, QuiverError) as e:
        name = "trace_free_violation" if "trace_free_violation" in str(e) else "input_error"
        _fail(2, name, str(e))
    except (
        FlowError, ClassificationError, RankAmbiguityError, LevelError, SeriesInvariantError
    ) as e:
        _fail(1, type(e).__name__, str(e))


if __name__ == "__main__":
    raise SystemExit(main())
