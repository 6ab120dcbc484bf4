"""Command-line front end.

Subcommands: ``contour`` (dense factor grid as CSV), ``verify`` (randomized
two-region campaign), ``audit`` (derivative-chain sign patterns), ``sharpness``
(coupling-power probe), ``schatten`` (trace-bound trials), and ``means``
(mean-chain and power-mean form checks).  Exit code 0 means every check
passed, 1 means a mathematical check failed, 2 means a usage error.

This module only parses, dispatches and serializes.  The parameter rules
live in the library: the exponent rule in ``measure.check_p_value``, applied
by every campaign, and the c rule of ``audit``; their SharpLpError is exit
code 2.  Output is JSON, except ``contour``, whose ``--format`` picks CSV
(the default) or JSON.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence, TextIO

import numpy as np

from . import campaigns
from .errors import SharpLpError
from .measure import forward_region
from .precision import active_mode

if TYPE_CHECKING:
    from .audit import ChainReport

# c values swept by default in `audit`; they cover every claim range of the
# derivative chain on both sides of the special points 0, 1/2, 1.
DEFAULT_C_GRID = (
    -3.0, -1.0, -0.2, 0.05, 0.2, 0.35, 0.45, 0.55, 0.7, 0.9, 1.3, 2.0, 3.5, 8.0,
)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class CommandConfig:
    command: str
    format: str
    out_path: str | None
    options: dict[str, Any]


def _parse_float_list(raw: str) -> list[float]:
    """Comma-separated finite numbers; at least one."""
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {raw!r}") from exc
    if not values or not all(map(math.isfinite, values)):
        raise UsageError(f"expected one or more finite numbers, got {raw!r}")
    return values


def _check_finite_options(options: dict[str, Any]) -> None:
    for key, value in options.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{key.replace('_', '-')} must be finite, got {value!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every command line reuses it."""
    parser = argparse.ArgumentParser(
        prog="sharplp",
        description="Verification toolkit for the sharpened p-th power triangle bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    contour = sub.add_parser("contour", help="dense grid of the constant-ratio factor")
    contour.add_argument("--alpha-min", type=float, default=0.5)
    contour.add_argument("--alpha-max", type=float, default=1.0)
    contour.add_argument("--p-min", type=float, default=2.0)
    contour.add_argument("--p-max", type=float, default=4.0)
    contour.add_argument("--na", type=int, default=400, dest="n_alpha")
    contour.add_argument("--np", type=int, default=400, dest="n_p")
    contour.add_argument("--format", type=str, choices=("csv", "json"), default="csv")

    verify = sub.add_parser("verify", help="randomized two-region campaign")
    verify.add_argument("--p-list", type=str, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=campaigns.DEFAULT_TRIALS)
    verify.add_argument("--points", type=int, default=campaigns.MAX_POINTS)

    audit = sub.add_parser("audit", help="derivative-chain sign-pattern audit")
    audit.add_argument("--c-grid", type=str, default=None)
    audit.add_argument("--points", type=int, default=10_000)

    sharp = sub.add_parser("sharpness", help="coupling-power sharpness probe")
    sharp.add_argument("--p-list", type=str, default="3.0")
    sharp.add_argument("--r", type=float, default=1.1)

    schatten = sub.add_parser("schatten", help="trace-bound trial campaign")
    schatten.add_argument("--p-list", type=str, default=None)
    schatten.add_argument("--dim", type=int, default=None)
    schatten.add_argument("--trials", type=int, default=campaigns.SCHATTEN_TRIALS)
    schatten.add_argument("--seed", type=int, default=0)

    means = sub.add_parser("means", help="mean-chain ordering and power-mean form")
    means.add_argument("--p-list", type=str, default="3.0")
    means.add_argument("--trials", type=int, default=campaigns.MEANS_TRIALS)
    means.add_argument("--seed", type=int, default=0)

    for p in (contour, verify, audit, sharp, schatten, means):
        p.add_argument("--out", type=str, default=None)
    return parser


def parse_config(argv: Sequence[str] | None = None) -> CommandConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    options = {
        k: v for k, v in vars(ns).items() if k not in ("command", "out", "format")
    }
    fmt = getattr(ns, "format", "json")  # only contour has --format
    return CommandConfig(command=ns.command, format=fmt, out_path=ns.out, options=options)


@contextmanager
def _output(out_path: str | None) -> Iterator[TextIO]:
    """stdout, or the --out file (no newline translation); a file that cannot
    be opened, written or closed is a usage error."""
    if out_path is None:
        yield sys.stdout
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc


def _write_output(text: str, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write(text)


def _json_text(obj: Any) -> str:
    # high-precision mode can leave mpmath scalars in summaries
    return json.dumps(obj, indent=2, default=float) + "\n"


def _pattern_to_dict(entry) -> dict[str, Any]:
    return {
        "observed": {
            "overall": entry.observed.overall.value,
            "crossings": [asdict(c) for c in entry.observed.crossings],
        },
        "expected": entry.expected.value,
        "match": entry.match,
    }


def _chain_report_to_dict(report: ChainReport) -> dict[str, Any]:
    return {
        "c": report.c,
        "patterns": {k: _pattern_to_dict(v) for k, v in report.patterns.items()},
        "extras": {k: _pattern_to_dict(v) for k, v in report.extras.items()},
        "fraction_min": report.fraction_min,
        "fraction_ok": report.fraction_ok,
        "all_match": report.all_match,
    }


# cells per CSV or JSON block (16 p-rows of the default 400-alpha grid): the
# buffers of a block stay a few hundred kB, so peak memory does not grow
# with n_p
_BLOCK_CELLS = 6_400
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
# the ASCII tens and units digits of 0..99
_TENS = np.repeat(np.arange(48, 58, dtype=np.uint8), 10)
_UNITS = np.tile(np.arange(48, 58, dtype=np.uint8), 10)


def _ascii_rows(texts: list[str]) -> np.ndarray:
    """ASCII strings as the rows of a uint8 array, padded with zero bytes."""
    fixed = np.array([s.encode("ascii") for s in texts])  # dtype S<n> pads with b"\0"
    return fixed.view(np.uint8).reshape(len(texts), -1)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _VELTKAMP * a
    hi = t - (t - a)
    return hi, a - hi


def _g17(x: np.ndarray) -> np.ndarray:
    """``f"{v:.17g}"`` of each double of the 1-d array x, as the rows of a
    uint8 array padded with zero bytes.

    On [0.1, 10) the digits come from numpy.  With s = 1e16 for x >= 1 and
    1e17 below (both exact doubles), Dekker's two-product gives x*s = hi + lo
    exactly; hi is an integer of at least 1e16 > 2^53, hence even, so
    hi + rint(lo) is x*s rounded half-even to the 17-digit integer N that
    ``%.17g`` prints.  Written as the 18 digits of N*10 (x >= 1) or N
    (x < 1), the field is ``e0.e1...e17`` less its trailing zeros and then
    a bare ".".  Other values, non-finite ones included, are formatted one
    by one.
    """
    fast = (x >= 0.1) & (x < 10.0)
    v = np.where(fast, x, 1.0)
    big = v >= 1.0
    s = np.where(big, 1e16, 1e17)
    hi = v * s
    vh, vl = _split(v)
    sh, sl = _split(s)
    lo = ((vh * sh - hi) + vh * sl + vl * sh) + vl * sl
    n = (hi.astype(np.int64) + np.rint(lo).astype(np.int64)) * np.where(big, 10, 1)
    digits = np.empty((19, x.size), np.uint8)
    # two digits per step, into rows k - 1 and k; r is in 0..99, and a
    # clipping take writes into its out row unbuffered
    for k in range(18, 3, -2):
        q = n // 100
        r = n - 100 * q
        _TENS.take(r, out=digits[k - 1], mode="clip")
        _UNITS.take(r, out=digits[k], mode="clip")
        n = q
    _TENS.take(n, out=digits[0], mode="clip")
    _UNITS.take(n, out=digits[2], mode="clip")
    fraction = digits[2:]
    # a zero digit with only zeros to its right is dropped, and so is the
    # "." of a field whose fraction digits are all zero
    trailing = np.logical_and.accumulate(fraction[::-1] == 48, axis=0)[::-1]
    fraction[trailing] = 0
    digits[1] = np.where(trailing[0], 0, ord("."))
    out = digits.T
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = _ascii_rows([f"{a:.17g}" for a in x[slow].tolist()])
        out = np.pad(out, ((0, 0), (0, max(0, text.shape[1] - 19))))
        out[slow] = 0
        out[slow, : text.shape[1]] = text
    return out


def _csv_lines(alpha_cells: np.ndarray, p_cells: np.ndarray, values: np.ndarray) -> str:
    """The CSV lines ``alpha,p,value`` of a block of p-rows, alpha fastest,
    from the zero-padded label rows (each ending in ",")."""
    rows, n_alpha = values.shape
    fields = _g17(values.reshape(-1)).reshape(rows, n_alpha, -1)
    la, lp, lv = alpha_cells.shape[1], p_cells.shape[1], fields.shape[2]
    lines = np.zeros((rows, n_alpha, la + lp + lv + 1), np.uint8)
    lines[:, :, :la] = alpha_cells
    lines[:, :, la : la + lp] = p_cells[:, None]
    lines[:, :, la + lp : -1] = fields
    lines[:, :, -1] = ord("\n")
    flat = lines.reshape(-1)
    return flat[flat != 0].tobytes().decode("ascii")


def _run_contour(config: CommandConfig) -> int:
    o = config.options
    if o["n_alpha"] < 2 or o["n_p"] < 2:
        raise UsageError("grid counts must be at least 2")
    if not o["alpha_min"] < o["alpha_max"] or not o["p_min"] < o["p_max"]:
        raise UsageError("ranges must be ordered (min < max)")
    if not (0.0 <= o["alpha_min"] and o["alpha_max"] <= 1.0):
        raise UsageError("alpha range must lie within [0, 1]")
    alphas, ps, values = campaigns.factor_grid(
        o["alpha_min"], o["alpha_max"], o["p_min"], o["p_max"],
        o["n_alpha"], o["n_p"],
    )
    if config.format == "csv":
        # one block of p-rows at a time; the labels are formatted once
        alpha_cells = _ascii_rows([f"{a:.17g}," for a in alphas.tolist()])
        p_cells = _ascii_rows([f"{p:.17g}," for p in ps.tolist()])
        block = max(1, _BLOCK_CELLS // alphas.size)
        with _output(config.out_path) as fh:
            fh.write("alpha,p,value\n")
            for i in range(0, ps.size, block):
                fh.write(_csv_lines(alpha_cells, p_cells[i : i + block], values[i : i + block]))
    else:
        # the text of _json_text({"header": [...], "rows": [[alpha, p, value],
        # ...]}), one block of p-rows at a time: json writes a finite float as
        # its repr, and factor_grid returns finite values only
        alpha_texts = [repr(a) for a in alphas.tolist()]
        p_texts = [repr(p) for p in ps.tolist()]
        block = max(1, _BLOCK_CELLS // alphas.size)
        with _output(config.out_path) as fh:
            fh.write('{\n  "header": [\n    "alpha",\n    "p",\n    "value"\n  ],\n')
            fh.write('  "rows": [\n')
            for i in range(0, ps.size, block):
                rows = zip(p_texts[i : i + block], values[i : i + block].tolist())
                fh.write(",\n" if i else "")
                fh.write(",\n".join(
                    f"    [\n      {a},\n      {p},\n      {v!r}\n    ]"
                    for p, row in rows
                    for a, v in zip(alpha_texts, row)
                ))
            fh.write("\n  ]\n}\n")
    return 0


def _run_verify(config: CommandConfig) -> int:
    o = config.options
    if o["p_list"] is None:
        forward, reverse = campaigns.FORWARD_PS, campaigns.REVERSE_PS
    else:
        ps = _parse_float_list(o["p_list"])
        forward = [p for p in ps if forward_region(p)]
        reverse = [p for p in ps if not forward_region(p)]
    summary = campaigns.verify_campaign(
        o["seed"], o["trials"], tuple(forward), tuple(reverse), o["points"]
    )
    summary["precision_mode"] = active_mode()
    _write_output(_json_text(summary), config.out_path)
    return 0 if summary["passed"] else 1


def _run_audit(config: CommandConfig) -> int:
    from .audit import audit_chain  # the only command that loads the audit

    o = config.options
    cs = DEFAULT_C_GRID if o["c_grid"] is None else _parse_float_list(o["c_grid"])
    reports = [audit_chain(c, o["points"]) for c in cs]
    payload = [_chain_report_to_dict(r) for r in reports]
    _write_output(_json_text(payload), config.out_path)
    return 0 if all(r.all_match and r.fraction_ok for r in reports) else 1


def _run_sharpness(config: CommandConfig) -> int:
    o = config.options
    results = campaigns.sharpness_campaign(_parse_float_list(o["p_list"]), o["r"])
    _write_output(_json_text(results), config.out_path)
    return 0 if all(r["passed"] for r in results) else 1


def _run_schatten(config: CommandConfig) -> int:
    o = config.options
    ps = campaigns.SCHATTEN_PS if o["p_list"] is None else _parse_float_list(o["p_list"])
    dims = campaigns.SCHATTEN_DIMS if o["dim"] is None else (o["dim"],)
    summary = campaigns.schatten_campaign(
        seed=o["seed"], trials=o["trials"], ps=ps, dims=dims
    )
    _write_output(_json_text(summary), config.out_path)
    return 0 if summary["passed"] else 1


def _run_means(config: CommandConfig) -> int:
    o = config.options
    ps = _parse_float_list(o["p_list"])
    summary = campaigns.means_campaign(seed=o["seed"], trials=o["trials"], ps=ps)
    _write_output(_json_text(summary), config.out_path)
    return 0 if summary["passed"] else 1


_RUNNERS = {
    "contour": _run_contour,
    "verify": _run_verify,
    "audit": _run_audit,
    "sharpness": _run_sharpness,
    "schatten": _run_schatten,
    "means": _run_means,
}


# numpy's refusals of an array size beyond its index range, made before it
# allocates anything
_NUMPY_SIZE_ERRORS = ("array is too big", "Maximum allowed size exceeded")


def run(config: CommandConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        active_mode()  # validate the precision switch before any work
        _check_finite_options(config.options)
        return _RUNNERS[config.command](config)
    except (UsageError, SharpLpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ValueError) as exc:  # an array numpy cannot allocate
        if not isinstance(exc, MemoryError) and not str(exc).startswith(_NUMPY_SIZE_ERRORS):
            raise
        print(f"error: the sizes do not fit in memory. {exc}".rstrip(), file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> None:
    config = parse_config(argv)
    raise SystemExit(run(config))


if __name__ == "__main__":
    main()
