"""Command-line front end.

Subcommands: gen, erase, test-conn, estimate, exact, bench. Runs are fully
determined by their arguments: per-trial seeds are split from the master
seed by trial index, so identical invocations produce byte-identical
output files (wall-time recording is opt-in via --timings because it is
the one nondeterministic field).

Exit codes: 0 ok, 1 self-check violation, 2 usage or infeasible input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import shutil
import sys
import time
from fractions import Fraction

from . import avg_degree, connectedness, exact, instances
from .graph import load_peg, save_peg, validate
from .oracle import split_seed

TRIAL_COLUMNS = [
    "trial",
    "seed",
    "result",
    "value",
    "witness_kind",
    "degree_queries",
    "neighbor_queries",
    "wall_ms",
]


def _ratio(text):
    """Parse a rational given as 'p/q' or a decimal string; ValueError if malformed."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


def _real(text):
    """`_ratio` as a float; ValueError if it lies past the float range."""
    try:
        return float(_ratio(text))
    except OverflowError:
        raise ValueError(f"out of the float range: {text!r}") from None


def _write_rows(path, rows, fmt, summary=None, plan=None, columns=TRIAL_COLUMNS):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in columns})
        text = buf.getvalue()
    else:
        payload = {"plan": plan, "trials": rows}
        if summary is not None:
            payload["summary"] = summary
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _quantiles(values):
    if not values:
        return {}
    vs = sorted(values)

    def q(p):
        return vs[min(len(vs) - 1, int(p * len(vs)))]

    return {"min": vs[0], "p50": q(0.5), "p90": q(0.9), "max": vs[-1]}


def _load_graph(args):
    try:
        return load_peg(args.graph)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read graph: {exc}") from exc


def _resolve_davg(args, g):
    if args.davg in (None, "auto"):
        return g.avg_degree
    davg = _real(args.davg)
    if not davg > 0:
        raise ValueError(f"--davg must be positive, got {args.davg}")
    # unknown-davg never reads davg, so a mismatch there is not worth a warning.
    if args.algo != "unknown-davg" and abs(davg - g.avg_degree) > 1e-9:
        print(
            f"warning: supplied davg {davg} differs from the graph's {g.avg_degree}; "
            "proceeding with the supplied value",
            file=sys.stderr,
        )
    return davg


def _claim_paths(paths):
    """Open every path for writing, truncating none, before any output is written.

    So a command with several outputs writes none unless all can be written.
    On an OSError the files this call created are removed again.
    """
    created = []
    try:
        for path in paths:
            existed = os.path.exists(path)
            with open(path, "a"):
                pass
            if not existed:
                created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise


def cmd_gen(args):
    params = {}
    for key in ("eps", "alpha", "davg"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = _real(val) if key == "davg" else _ratio(val)
    for key in ("k", "n", "host_size", "cycle_len"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if args.strategy:
        params["strategy"] = args.strategy
    try:
        g, manifest = instances.generate(args.family, params, args.seed)
    except instances.InfeasibleParameters as exc:
        print(f"error: infeasible parameters: {exc}", file=sys.stderr)
        return 2
    if args.manifest:
        _claim_paths([args.out, args.manifest])
    save_peg(g, args.out)
    if args.manifest:
        with open(args.manifest, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {args.out}: n={g.num_vertices} m={g.num_edges} erased={g.erased_total}")
    return 0


def cmd_erase(args):
    g = _load_graph(args)
    h = instances.erase(g, _real(args.alpha), args.strategy, args.seed)
    save_peg(h, args.out)
    print(f"wrote {args.out}: erased={h.erased_total} of {h.num_entries} entries")
    return 0


# The tester behind each --algo, looked up on `connectedness` when a command
# runs, so a tester patched on the module is the one that runs.
_ALGOS = {
    "small-alpha": "tester_small_alpha",
    "mid-alpha": "tester_mid_alpha",
    "no-erasure": "tester_no_erasures",
    "unknown-davg": "tester_unknown_davg",
}


def _run_trials(master_seed, trials, timings, run):
    """One TRIAL_COLUMNS row per trial of run(seed), a tester verdict or a degree estimate.

    Each trial's seed is split from the master seed by trial index; with
    timings, wall_ms times the run(seed) call alone.
    """
    if trials < 0:
        raise ValueError(f"--trials must be a non-negative count, got {trials}")
    rows = []
    for trial in range(trials):
        seed = split_seed(master_seed, trial)
        t0 = time.perf_counter()
        out = run(seed)
        wall = (time.perf_counter() - t0) * 1000
        estimate = isinstance(out, avg_degree.DegreeEstimate)
        witness = None if estimate else out.witness
        rows.append(
            {
                "trial": trial,
                "seed": seed,
                "result": "estimate" if estimate else "reject" if out.rejected else "accept",
                "value": out.value if estimate else "",
                "witness_kind": witness.kind if witness else "",
                "degree_queries": out.degree_queries,
                "neighbor_queries": out.neighbor_queries,
                "wall_ms": round(wall, 3) if timings else None,
            }
        )
    return rows


def _run_conn_trials(args, g, eps, alpha, davg):
    tester = getattr(connectedness, _ALGOS[args.algo])

    def run(seed):
        if args.algo == "unknown-davg":
            return tester(g, eps, seed, alpha)
        return tester(g, connectedness.ConnTesterConfig(eps, alpha, davg, seed))

    return _run_trials(args.seed, args.trials, args.timings, run)


def cmd_test_conn(args):
    g = _load_graph(args)
    davg = _resolve_davg(args, g)
    eps = _real(args.eps)
    alpha = _real(args.alpha)
    rows = _run_conn_trials(args, g, eps, alpha, davg)
    rejections = sum(r["result"] == "reject" for r in rows)
    totals = [r["degree_queries"] + r["neighbor_queries"] for r in rows]
    summary = {
        "trials": args.trials,
        "rejection_frequency": rejections / args.trials if args.trials else 0.0,
        "total_queries": _quantiles(totals),
    }
    plan = {
        "command": "test-conn",
        "graph": args.graph,
        "algo": args.algo,
        "eps": eps,
        "alpha": alpha,
        "davg": davg,
        "trials": args.trials,
        "seed": args.seed,
    }
    _write_rows(args.out, rows, args.format, summary, plan)
    return 0


def cmd_estimate(args):
    g = _load_graph(args)
    eps = _real(args.eps)
    avg_degree.check_parameters(
        g.num_vertices, eps, sample_coeff=args.sample_coeff, rep_coeff=args.rep_coeff
    )
    rows = _run_trials(
        args.seed,
        args.trials,
        args.timings,
        lambda seed: avg_degree.estimate_avg_degree(
            g, eps, seed=seed, sample_coeff=args.sample_coeff, rep_coeff=args.rep_coeff
        ),
    )
    values = [r["value"] for r in rows]
    conforming = avg_degree.is_conforming(args.sample_coeff, args.rep_coeff)
    if not conforming:
        print(
            "note: coefficient overrides in effect; results are non-conforming",
            file=sys.stderr,
        )
    summary = {
        "trials": args.trials,
        "true_avg_degree": g.avg_degree,
        "estimates": _quantiles(values),
        "conforming": conforming,
    }
    plan = {
        "command": "estimate",
        "graph": args.graph,
        "eps": eps,
        "trials": args.trials,
        "seed": args.seed,
        "sample_coeff": args.sample_coeff,
        "rep_coeff": args.rep_coeff,
    }
    _write_rows(args.out, rows, args.format, summary, plan)
    return 0


def cmd_exact(args):
    g = _load_graph(args)
    violations = [f"{v.code} at {v.subject}: {v.detail}" for v in validate(g)]
    if args.what == "validate":
        for line in violations:
            print(line)
        print("ok" if not violations else f"{len(violations)} violations")
        return 0 if not violations else 1
    if violations:
        raise ValueError(f"graph fails validate: {violations[0]}")
    if args.what == "distance-conn":
        d = exact.distance_to_connectedness(g, slot_bound=args.slot_bound)
        print(f"{d.numerator}/{d.denominator}")
        return 0
    if args.what == "witnesses":
        print(json.dumps(exact.witnesses_dict(exact.inventory_witnesses(g)), indent=2))
        return 0
    if args.what == "exp-chi":
        if args.dhat is None or args.eps is None:
            raise ValueError("exp-chi needs --dhat and --eps")
        value = exact.exact_exp_chi(g, _ratio(args.dhat), _ratio(args.eps))
        print(f"{value.numerator}/{value.denominator}")
        return 0
    if (args.dhat is None) != (args.eps is None):
        raise ValueError("report needs both --dhat and --eps, or neither")
    dhat = eps = None
    if args.dhat is not None:
        dhat, eps = _ratio(args.dhat), _ratio(args.eps)
    print(json.dumps(exact.exact_report(g, dhat, eps, slot_bound=args.slot_bound), indent=2))
    return 0


def cmd_bench(args):
    param, _, values = args.sweep.partition("=")
    if param not in ("eps", "alpha", "n") or not values:
        raise ValueError("--sweep must look like eps=0.1,0.2")
    # An n sweep runs on fresh far forests and never reads --graph.
    g = None
    if param != "n":
        if args.graph is None:
            raise ValueError(f"--sweep {param}=... needs --graph")
        g = _load_graph(args)
    rows = []
    for value in values.split(","):
        sweep_g = g
        eps = _real(args.eps)
        alpha = _real(args.alpha)
        if param == "eps":
            eps = _real(value)
        elif param == "alpha":
            alpha = _real(value)
        elif not value.isascii() or not value.isdigit():
            raise ValueError(f"not a vertex count: {value!r}")
        else:
            sweep_g = instances.gen_far_forest(eps, alpha, int(value), seed=args.seed)
        for r in _run_conn_trials(args, sweep_g, eps, alpha, _resolve_davg(args, sweep_g)):
            r_out = {"sweep_param": param, "sweep_value": value}
            r_out.update(r)
            rows.append(r_out)
    _write_rows(args.out, rows, "csv", columns=["sweep_param", "sweep_value"] + TRIAL_COLUMNS)
    return 0


def build_parser():
    # argparse makes a help formatter per argument, and each one asks the
    # terminal for its width unless given one. Ask once, with argparse's own
    # rule (columns - 2), so the help text does not change.
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="pegkit",
        description="Sublinear connectedness testers and degree estimators "
        "for partially erased adjacency-list graphs.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=formatter),
    )

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--family", required=True)
    p.add_argument("--eps")
    p.add_argument("--alpha")
    p.add_argument("--davg")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--host-size", dest="host_size", type=int)
    p.add_argument("--cycle-len", dest="cycle_len", type=int)
    p.add_argument("--strategy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("erase", help="erase entries of an instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--strategy", default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_erase)

    p = sub.add_parser("test-conn", help="run a connectedness tester over trials")
    p.add_argument("--graph", required=True)
    p.add_argument("--algo", required=True, choices=sorted(_ALGOS))
    p.add_argument("--eps", required=True)
    p.add_argument("--alpha", default="0")
    p.add_argument("--davg", default="auto")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timings", action="store_true", help="record wall times (breaks byte-reproducibility)")
    p.set_defaults(func=cmd_test_conn)

    p = sub.add_parser("estimate", help="estimate the average degree over trials")
    p.add_argument("--graph", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-coeff", type=float, default=avg_degree.SAMPLE_COEFF)
    p.add_argument("--rep-coeff", type=float, default=avg_degree.REP_COEFF)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timings", action="store_true", help="record wall times (breaks byte-reproducibility)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("exact", help="run brute-force oracles")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--what",
        required=True,
        choices=("validate", "distance-conn", "witnesses", "exp-chi", "report"),
    )
    p.add_argument("--dhat")
    p.add_argument("--eps")
    p.add_argument("--slot-bound", dest="slot_bound", type=int, default=20)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("bench", help="sweep one parameter, emit tidy CSV")
    p.add_argument("--graph", help="the graph an eps or alpha sweep runs on")
    p.add_argument("--algo", required=True, choices=sorted(_ALGOS))
    p.add_argument("--sweep", required=True, help="eps=...|alpha=...|n=... comma separated")
    p.add_argument("--eps", default="0.2")
    p.add_argument("--alpha", default="0")
    p.add_argument("--davg", default="auto")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--timings", action="store_true", help="record wall times (breaks byte-reproducibility)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    """Run one command; a ValueError, OSError or ArithmeticError becomes one `error:` line, exit 2."""
    args = build_parser().parse_args(argv)
    notes = io.StringIO()  # warnings wait for the command's end, and an error drops them
    try:
        with contextlib.redirect_stderr(notes):
            code = args.func(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stderr.write(notes.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
