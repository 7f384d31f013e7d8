"""Command-line front end: build models from JSON configs, emit CSV/JSON.

Every artifact starts with metadata (library version, config hash, seed) so
that re-running a config reproduces the data rows exactly.  Exit codes:
0 success, 1 configuration error, 2 numeric failure (with a diagnostic
payload on stderr).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .diagnostics import (convergence_sweep, independence_condition_check,
                          joint_exceedance_decay, oracle_quantiles)
from .errors import CevError, ConfigError, DomainError, NumericError
from .geometry import curve_from_dict
from .limits import (ConditionalFrame, LimitLaw, second_order_conditional,
                     survival_x_asymptotic)
from .model import (MixtureModel, conditional_cdf_oracle, decompose_density,
                    model_from_dict, quartic_ridge_weight, sample_conditional, sample_joint,
                    standard_normal_profile, survival_x_oracle)
from .numerics import _is_number, _read_keys, _read_numbers

#: largest number of points a lo:hi:step grid may ask for
_MAX_GRID_POINTS = 1_000_000

#: largest --n and --points: exact as a float, and small enough that numpy tries to
#: allocate its array of floats (64 PiB) instead of refusing the size
_MAX_COUNT = 2 ** 53

#: flags whose values may start with '-' (grids, lists); glued before parsing
_VALUE_FLAGS = ("--grid", "--x-grid", "--z-grid", "--t-grid", "--levels")


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _finite_float(text):
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(least):
    """argparse type of --n and --points: a decimal integer from ``least`` to ``_MAX_COUNT``."""
    def count(text):
        value = int(text) if text.strip().isdecimal() else -1
        if not least <= value <= _MAX_COUNT:
            raise argparse.ArgumentTypeError(
                f"expected a count from {least} to {_MAX_COUNT}, got {text!r}")
        return value
    return count


def parse_grid(spec):
    """Float grid from 'lo:hi:step', generated by integer index."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid '{spec}' must have the form lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid '{spec}' has non-numeric parts")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ConfigError(f"grid '{spec}' has non-finite parts")
    if step <= 0.0:
        raise ConfigError("grid step must be positive")
    if hi < lo:
        raise ConfigError("grid upper end below lower end")
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_GRID_POINTS:
        raise ConfigError(f"grid '{spec}' has more than {_MAX_GRID_POINTS} points")
    return [lo + k * step for k in range(int(math.floor(span)) + 1)]


#: parsed arguments outside the config hash: the dispatch entries, the seed
#: (a metadata line of its own), and the output path and format
_UNHASHED = frozenset({"fn", "schema", "seed", "output", "format"})


def _metadata(args, config):
    """Metadata of a command's artifact.  The config hash covers the command,
    its config when it has one, and its flags outside ``_UNHASHED``."""
    payload = {key: value for key, value in vars(args).items() if key not in _UNHASHED}
    if "config" in payload:
        payload["config"] = config
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "cevpolar_version": __version__,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest()[:16],
        "seed": "none" if args.seed is None else args.seed,
    }


def _open_output(path):
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}")


#: rows per task of the CSV writer
_CSV_TASK = 1 << 13
#: fewest tasks per worker at which the parallel writer is used: from 6 tasks
#: on two CPUs it takes the time of the serial writer and keeps the formatter's
#: buffers out of the main process (measured on a 2-vCPU Xeon after a
#: 1e6-proposal `simulate`, medians of 9 in two runs: pool/serial 1.00-1.06 at
#: 6 and 8 tasks, 0.82-1.04 at 12, 0.86-0.89 at 16, 0.78-0.82 at 24; the 62
#: tasks of that `simulate` take 0.28 s against 0.36 s serial).  Formatting the
#: 7 tasks of the benchmark's `vm` table in the main process instead raised the
#: peak RSS of 12-15 benchmark passes from 80.5-80.7 to 82.7-86.5 MB.
_CSV_TASKS_PER_WORKER = 3


_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_LOW63 = _U64((1 << 63) - 1)
#: exponents k of the table of 10^-k: those of the shortest digits of a normal double
_K_MIN, _K_MAX = -324, 292


@functools.cache
def _schubfach_table():
    """For k = _K_MIN.._K_MAX, g = floor(10^-k 2^r) + 1 with r such that
    2^125 <= g < 2^126, as rows (g1, g1's 32-bit halves, g0's 32-bit halves)
    of g = g1 2^63 + g0 (Giulietti, "The Schubfach way to render doubles",
    2020, section 9).  Built from Python ints on the first call, never at
    import."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = 125 - ((-k * 913124641741) >> 38)  # 125 - floor(log2 10^-k)
        g = (10 ** -k << r if r >= 0 else 10 ** -k >> -r) if k <= 0 else (1 << r) // 10 ** k
        g1, g0 = (g + 1) >> 63, (g + 1) & ((1 << 63) - 1)
        rows.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    return np.array(rows, dtype=np.uint64).T.copy()


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of a b, for a = a_hi 2^32 + a_lo < 2^63 and
    b = b_hi 2^32 + b_lo < 2^59 given by their 32-bit halves (uint64 arrays):
    no partial sum overflows."""
    mid = a_lo * b_hi
    mid += (a_lo * b_lo) >> 32
    high = a_hi * b_lo
    high += mid
    high >>= 32
    high += a_hi * b_hi
    return high


def _rop(g, cp):
    """Schubfach's rop(g cp 2^-127): the product rounded down, its last bit set
    when inexact, computed as Java's ``DoubleToDecimal.rop`` does."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & _LOW32
    z = g1 * cp  # the low 64 bits
    z >>= 1
    z += _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    vb = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    vb += z >> 63
    vb |= (z & _LOW63) != 0
    return vb


def _shortest_digits(bits):
    """(f, k) of the doubles whose bits (uint64) are given: the shortest
    decimal f 10^k that reads back as the double, the closest to it among the
    shortest, and of two equally close the one with even f, as
    ``float.__repr__`` chooses.  Exact for normal doubles; any value for the
    others.

    Schubfach on whole arrays: with v = c 2^q, its three scaled bounds
    4 v 10^-k (and the rounding interval's ends) come from ``_rop``, and a
    decimal one digit shorter is taken when exactly one of its two neighbours
    lies in the interval.  A tie between two neighbours needs 2 v 10^-k to be
    an odd integer, i.e. q + 1 + tz(c) = k, which holds only for k in
    [-24, -1]; there 10^-k 2^r is an integer, so g0 = 1, the +1 falls below
    ``_mulhi``'s truncation and the tie is seen exactly and broken to even."""
    biased = (bits >> 52) & _U64(0x7FF)
    fraction = bits & _U64((1 << 52) - 1)
    c = fraction | _U64(1 << 52)
    q = biased.view(np.int64) - 1075
    irregular = (fraction == 0) & (biased > 1)  # c = 2^52: the gap below v is half
    k = q * 661971961083  # floor(log10 2^q), or floor(log10 (3/4) 2^q)
    k -= irregular * 274743187321
    k >>= 41
    h = (-k * 913124641741) >> 38
    h += q + 2
    h = h.view(np.uint64)
    g = _schubfach_table().take(k - _K_MIN, axis=1)
    cb = c << _U64(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U64(2) + irregular) << h)
    vbr = _rop(g, (cb + _U64(2)) << h)
    odd = c & _U64(1)  # an odd c excludes the interval's ends
    vbl += odd
    vbr -= odd
    s = vb >> _U64(2)
    s4 = s << _U64(2)
    # one digit shorter: 10 s' and 10 s' + 10, at 4 times their scale
    u4 = s // _U64(10)
    u4 *= _U64(40)
    up_in = vbl <= u4
    u4 += _U64(40)
    shorter = up_in != (u4 <= vbr)
    u_in, w_in = vbl <= s4, s4 + _U64(4) <= vbr
    mid = s4 + _U64(2)
    f = s + np.where(u_in != w_in, w_in, (vb > mid) | ((vb == mid) & (s & _U64(1) == 1)))
    return np.where(shorter, (u4 >> _U64(2)) - np.where(up_in, _U64(10), _U64(0)), f), k


#: a cell's slot in the float kernel's byte matrix; every part sits at a fixed
#: column, and a cell's text is the parts its shape's mask keeps
#:   0 '-' | 1-2 '0.' | 3-5 '000' | 6-21 digits (16) | 22 '.' | 23-39 digits (17)
#:   | 40-44 exponent 'e+dd'/'e-ddd' | 45 ',' or '\n'
_SLOT = np.frombuffer(b"-0.000" + b"0" * 16 + b"." + b"0" * 17 + b"e+000,", np.uint8)
#: shapes of a cell without its sign: fixed form by (decpt, digits), decpt in
#: [-3, 16] and 1 to 17 digits, then exponent form by (digits, exponent width)
_FIXED_SHAPES = 20 * 17
_SHAPES = _FIXED_SHAPES + 17 * 2


@functools.cache
def _float_layout():
    """Tables of the float kernel: the ASCII of each 4-digit group (uint32),
    the trailing zeros of each group (4 for 0), the exponent suffix of each
    exponent from -400 to 400 (uint64) with its length, and the mask of each
    signed shape (see ``_SLOT``)."""
    group = np.arange(10_000)
    ascii4 = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    ascii4 = (ascii4 + 48).astype(np.uint8).view(np.uint32).ravel()
    zeros4 = sum(group % 10 ** i == 0 for i in range(1, 5))
    suffixes = [f"e{x:+03d}".encode() for x in range(-400, 401)]
    suffix = np.frombuffer(b"".join(s.ljust(8, b"0") for s in suffixes), np.uint64)
    suffix_len = np.array([len(s) for s in suffixes])
    shape = np.arange(2 * _SHAPES) % _SHAPES
    fixed = shape < _FIXED_SHAPES
    decpt = np.where(fixed, shape // 17 - 3, 0)
    n = np.where(fixed, shape % 17, (shape - _FIXED_SHAPES) // 2) + 1
    small = fixed & (decpt <= 0)  # 0.000ddd
    lead = np.where(fixed, np.maximum(decpt, 0), 1)  # digits before the point
    end = np.where(fixed & (decpt >= 1), np.maximum(n, decpt + 1), n)  # 1000.0
    column = lambda width: np.arange(width)[None, :]
    mask = np.concatenate([
        (np.arange(2 * _SHAPES) >= _SHAPES)[:, None], small[:, None], small[:, None],
        column(3) < np.where(small, -decpt, 0)[:, None],
        column(16) < lead[:, None],
        np.where(fixed, decpt >= 1, n > 1)[:, None],
        (column(17) >= lead[:, None]) & (column(17) < end[:, None]),
        column(5) < np.where(fixed, 0, 4 + (shape - _FIXED_SHAPES) % 2)[:, None],
        np.ones((2 * _SHAPES, 1), bool)], axis=1)
    return ascii4, zeros4, suffix, suffix_len, mask


def _digit_groups(f):
    """The 17 digits of each f < 10^17 (uint64) as five intp groups,
    d | dddd | dddd | dddd | dddd, split in uint32 below 10^9."""
    high = (f // _U64(10 ** 8)).astype(np.uint32)
    low = (f - high * _U64(10 ** 8)).astype(np.uint32)
    top, third = np.divmod(high, np.uint32(10 ** 4))
    first, second = np.divmod(top, np.uint32(10 ** 4))
    fourth, fifth = np.divmod(low, np.uint32(10 ** 4))
    return [group.astype(np.intp) for group in (first, second, third, fourth, fifth)]


def _float_text(columns):
    """The rows of the equal-length float ``columns`` (arrays) as text, each
    cell with the bytes of ``float.__repr__`` (Python's ``repr`` style 'r').

    The digits are ``_shortest_digits`` (Giulietti's Schubfach, 2020; Adams'
    Ryu, PLDI 2018, finds the same shortest digits), with a tie between two
    shortest decimals broken to the even one as repr does.  The layout is
    repr's: exponent form iff the decimal point position decpt <= -4 or
    decpt > 16, with an exponent of at least two digits and no point after a
    single digit (``1e+16``); fixed form adds '.0' to an integral value, and
    zeros print as 0.0 and -0.0.
    Each cell fills a slot of ``_SLOT``'s fixed columns, one mask per shape
    keeps its text and the separator, and one compaction gives the text.
    NaN, ±inf and subnormals go to ``repr`` one by one: Schubfach can give a
    subnormal a digit more than the shortest (5.9e-323 for 6e-323).
    """
    ascii4, zeros4, suffix, suffix_len, masks = _float_layout()
    n_rows = len(columns[0])
    slots = np.empty((n_rows, len(columns), len(_SLOT)), np.uint8)
    slots[:] = _SLOT
    slots[:, :-1, -1] = ord(",")
    slots[:, -1, -1] = ord("\n")
    shapes = np.empty((n_rows, len(columns)), np.intp)
    by_repr = []
    for j, column in enumerate(columns):
        x = np.ascontiguousarray(column, dtype=np.float64)
        bits = x.view(np.uint64)
        f, k = _shortest_digits(bits)
        zero = (bits << _U64(1)) == 0
        biased = (bits >> _U64(52)) & _U64(0x7FF)
        other = (biased == 0) | (biased == 0x7FF)  # zeros, subnormals, NaN, ±inf
        f[other] = 10 ** 16
        length = 15 + (f >= _U64(10 ** 15)) + (f >= _U64(10 ** 16))  # a normal's f >= 4.5e14
        f *= _U64(10) ** (17 - length).astype(np.uint64)  # 17 digits, left-aligned
        f[zero] = 0
        groups = _digit_groups(f)
        text = np.empty((len(x), 5), np.uint32)
        for i, group in enumerate(groups):
            text[:, i] = ascii4.take(group)
        digits = text.view(np.uint8)[:, 3:]
        slots[:, j, 6:22] = digits[:, :16]
        slots[:, j, 23:40] = digits
        trailing = zeros4.take(groups[2]) + (groups[2] == 0) * zeros4.take(groups[1])
        for group in groups[3:]:
            trailing = zeros4.take(group) + (group == 0) * trailing
        n = 17 - trailing
        decpt = k + length
        n[zero] = decpt[zero] = 1
        exponent = (decpt <= -4) | (decpt > 16)
        index = np.where(exponent, decpt + 399, 400)  # of decpt - 1 in the suffix tables
        slots[:, j, 40:45] = suffix.take(index).view(np.uint8).reshape(-1, 8)[:, :5]
        shape = np.where(exponent, _FIXED_SHAPES + 2 * (n - 1) + (suffix_len.take(index) - 4),
                         17 * (decpt + 3) + n - 1)
        shapes[:, j] = shape + (bits >> _U64(63)).astype(np.intp) * _SHAPES
        by_repr.extend((i, j, x[i]) for i in np.flatnonzero(other & ~zero).tolist())
    mask = masks.take(shapes, axis=0)
    for i, j, value in by_repr:
        text = np.frombuffer(repr(float(value)).encode(), np.uint8)
        mask[i, j, :-1] = False
        mask[i, j, 6:6 + len(text)] = True
        slots[i, j, 6:6 + len(text)] = text
    return np.compress(mask.ravel(), slots.ravel()).tobytes().decode("ascii")


def _csv_block(block):
    """The cells of a column (an array): a float column as the repr of each
    float, which reads back bit for bit, made by ``_float_text``, any other
    column as the str of each entry."""
    if block.dtype.kind == "f":
        return _float_text([block]).split("\n")[:-1]
    return list(map(str, block.tolist()))


def _csv_text(columns):
    """One task of the writer: the rows of the equal-length, nonempty
    ``columns`` (lists or arrays) as text, the one formatter of every CSV row.
    Rows of float columns only come from ``_float_text`` whole; a table with
    other columns joins the cells of ``_csv_block``."""
    blocks = [np.asarray(column) for column in columns]
    if all(block.dtype.kind == "f" for block in blocks):
        return _float_text(blocks)
    cells = [_csv_block(block) for block in blocks]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _csv_pool(n_rows):
    """A pool of forked processes to format ``n_rows`` rows: one per usable
    CPU, and at most one per ``_CSV_TASKS_PER_WORKER`` tasks.  None where the
    serial writer is as fast or the pool cannot start: fewer than two such
    workers, or no ``fork`` start method."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, -(-n_rows // _CSV_TASK) // _CSV_TASKS_PER_WORKER)
    if workers < 2:
        return None
    import multiprocessing  # here, not at the top: the import would slow every start-up
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _write_csv(path, metadata, header, columns):
    """Write '# key=value' metadata lines, the header, then one row per entry
    of the equal-length ``columns`` (lists or arrays).

    The rows are formatted in tasks of ``_CSV_TASK`` rows, by a process per
    usable CPU for a large table (see ``_csv_pool``), and written in row
    order; every task is one ``_csv_text`` call, so the bytes do not depend
    on the path.
    """
    with _open_output(path) as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        n_rows = len(columns[0])
        tasks = ([column[start:start + _CSV_TASK] for column in columns]
                 for start in range(0, n_rows, _CSV_TASK))
        pool = _csv_pool(n_rows)
        if pool is None:
            fh.writelines(map(_csv_text, tasks))
            return
        fh.flush()  # a forked worker must not hold a copy of unwritten text
        with pool:  # joins every worker, also when a task raises
            fh.writelines(pool.map(_csv_text, tasks))


def _emit(args, meta, header, columns, body=None):
    """Write a command's artifact in its ``--format``.

    JSON holds ``body`` next to the metadata; by default the body is the
    columns (lists or arrays) keyed by the header.  CSV holds the columns as
    rows, and the body's scalar entries (pass flags) as extra metadata lines.
    """
    if args.format == "json":
        if body is None:
            body = {key: column.tolist() if isinstance(column, np.ndarray) else column
                    for key, column in zip(header, columns)}
        with _open_output(args.output) as fh:
            json.dump({"meta": meta, **body}, fh, indent=2)
            fh.write("\n")
    else:
        flags = {key: value for key, value in (body or {}).items()
                 if not isinstance(value, list)}
        _write_csv(args.output, {**meta, **flags}, header, columns)


def _load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _split_config(data):
    """(polar or mixture model, config seed or None) of a model config."""
    seed = data.pop("seed", None)
    if seed is not None:
        _checked_seed(seed, "config seed")
    if "mixture" not in data:
        return model_from_dict(data), seed
    mix = _read_keys(data, "mixture config", ("mixture",))["mixture"]
    _read_keys(mix, "mixture", ("p", "rho", "tau_mix"), ("cone",))
    _read_numbers((mix["p"], mix["rho"], mix["tau_mix"]), "mixture p, rho and tau_mix")
    cone = mix.get("cone")
    if cone is not None and not (isinstance(cone, list) and len(cone) == 2
                                 and all(map(_is_number, cone))):
        raise ConfigError("mixture cone must be a list [c1, c2] of finite numbers")
    return MixtureModel(p=mix["p"], rho=mix["rho"], tau_mix=mix["tau_mix"],
                        cone=None if cone is None else tuple(cone)), seed


def _decompose_model(config):
    """The polar model of a decompose config: a curve, the gaussian radial
    profile and an optional quartic ridge weight along the curve."""
    _read_keys(config, "decompose config", ("curve",), ("profile", "ridge_weight"))
    curve = curve_from_dict(config["curve"])
    profile_name = config.get("profile", "gaussian")
    if profile_name != "gaussian":
        raise ConfigError(f"unknown radial profile '{profile_name}'")
    ridge = config.get("ridge_weight", False)
    if not isinstance(ridge, bool):
        raise ConfigError("decompose ridge_weight must be true or false")
    weight = None
    if ridge:
        weight = lambda t: quartic_ridge_weight(2.0 * math.pi * (t - curve.t0))
    return decompose_density(standard_normal_profile, curve, angular_weight=weight)


def _load_model(args):
    """(config, model, config seed) of a command, read by the schema its
    parser declares: None (no config), "polar", "polar or mixture" or
    "decompose"."""
    if args.schema is None:
        return None, None, None
    config = _load_config(args.config)
    if args.schema == "decompose":
        return config, _decompose_model(config), None
    model, seed = _split_config(dict(config))
    if isinstance(model, MixtureModel) and args.schema == "polar":
        raise ConfigError(f"{args.command} requires a polar model config")
    return config, model, seed


def _checked_seed(seed, source):
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed!r}")
    return seed


def _require_seed(args, config_seed):
    """The seed of a command that samples (one with a --seed flag): --seed,
    else the checked config seed.  None for the other commands."""
    if "seed" not in args:
        return None
    if args.seed is not None:
        return _checked_seed(args.seed, "--seed")
    if config_seed is None:
        raise ConfigError("--seed is required for sampling commands")
    return config_seed


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed args (seed resolved), its model and the
# artifact metadata, and returns (header, columns[, body]) for _emit
# ---------------------------------------------------------------------------

def _cmd_limit(args, model, meta):
    law = LimitLaw(args.eta, args.zeta, weight_minus=args.weight_minus)
    grid = parse_grid(args.grid)
    return (("y", "cdf", "pdf"),
            [grid, [float(law.cdf(y)) for y in grid], [float(law.pdf(y)) for y in grid]])


def _sample_mixture(mix, n, rng):
    picks = rng.random(n) < mix.p
    x = rng.standard_normal(n)
    z = rng.standard_normal(n)
    slope = np.where(picks, mix.rho, mix.tau_mix)
    noise = np.sqrt(1.0 - slope ** 2)
    return np.column_stack([x, slope * x + noise * z])


def _cmd_simulate(args, model, meta):
    rng = np.random.default_rng(args.seed)
    if isinstance(model, MixtureModel):
        if args.threshold is not None:
            raise ConfigError("conditional simulation is not defined for mixture configs")
        return ("x", "y"), _sample_mixture(model, args.n, rng).T
    if args.threshold is None:
        return ("x", "y"), sample_joint(model, args.n, rng).T
    ws = sample_conditional(model, args.threshold, args.n, rng)
    meta["effective_size"] = repr(ws.effective_size)
    return ("x", "y", "weight"), [ws.x, ws.y, ws.weights]


def _cmd_verify(args, model, meta):
    report = convergence_sweep(model, args.levels, args.n, np.random.default_rng(args.seed))
    columns = [report.thresholds, report.ks_distances, report.effective_sizes,
               report.oracle_distances]
    body = dict(zip(("thresholds", "ks", "eff_size", "oracle_dist"), columns))
    return ("threshold", "ks", "eff_size", "oracle_dist"), columns, {**body, "pass": report.passed}


def _cmd_tail(args, model, meta):
    grid = parse_grid(args.x_grid)
    asym, exact = [], []
    for x in grid:
        asym.append(survival_x_asymptotic(model, x))
        exact.append(survival_x_oracle(model, x))
        if exact[-1] == 0.0:  # the ratio would be 0/0
            raise DomainError(f"P(X > x) underflows to 0 at x = {x!r}")
    return (("x", "asymptotic", "oracle", "ratio"),
            [grid, asym, exact, [a / e for a, e in zip(asym, exact)]])


def _cmd_independence(args, model, meta):
    try:
        t_grid = [10.0 ** e for e in parse_grid(args.t_grid)]
    except OverflowError:
        raise ConfigError(f"--t-grid '{args.t_grid}' has levels 10**e beyond the float range")
    levels = oracle_quantiles(model, t_grid)
    cond = independence_condition_check(model, args.y, levels)
    decay = joint_exceedance_decay(model, args.x_std, args.y_std, levels)
    return (("t", "ratio", "t_times_joint"), [t_grid, cond.ratios, decay.products],
            {"thresholds": t_grid, "ratios": cond.ratios, "ratio_pass": cond.passed,
             "products": decay.products, "decay_pass": decay.passed})


def _cmd_second_order(args, model, meta):
    xs = parse_grid(args.x_grid)
    zs = parse_grid(args.z_grid)
    rows = []
    for x in xs:
        psi_x = float(model.radial.aux_psi(x))
        frame = ConditionalFrame(t=x, m_t=0.0, psi_t=psi_x, a_t=1.0)
        orders = [second_order_conditional(model, x, z) for z in zs]
        oracle = conditional_cdf_oracle(model, frame, math.inf,
                                        [so.y_threshold for so in orders])
        rows.extend((x, z, so.first_order, so.corrected, float(p))
                    for z, so, p in zip(zs, orders, oracle))
    return (("x", "z", "first_order", "corrected", "oracle"),
            [list(column) for column in zip(*rows)])


def _cmd_decompose(args, model, meta):
    ts = np.linspace(0.0, 1.0, args.points)
    xs = np.linspace(0.0, float(model.radial.quantile_b(1e6)), args.points)
    ang, surv = model.angular.density(ts).tolist(), model.radial.survival(xs).tolist()
    ts, xs = ts.tolist(), xs.tolist()
    return (("component", "grid", "value"),
            [["angular"] * len(ts) + ["radial_survival"] * len(xs), ts + xs, ang + surv],
            {"angular_grid": ts, "angular_density": ang,
             "radial_grid": xs, "radial_survival": surv})


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _float_list(text):
    """argparse type of --levels: a comma-separated list of numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}")


@functools.cache
def _build_parser():
    """The parser of every command, built on the first call and reused.  It
    holds no public function, so a wrapper put on one (perfbench's tracer)
    still sees every call."""
    parser = _Parser(prog="cevpolar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fn, schema):
        """Flags every command shares, and the command's function and config
        schema (None: the command reads no config)."""
        if schema is not None:
            p.add_argument("-c", "--config", required=True, help="model config JSON")
        p.add_argument("-o", "--output", required=True, help="output artifact path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(fn=fn, schema=schema)

    p = sub.add_parser("limit", help="tabulate a limit law cdf/pdf")
    p.add_argument("--eta", type=_finite_float, required=True)
    p.add_argument("--zeta", type=_finite_float, required=True)
    p.add_argument("--weight-minus", type=_finite_float, default=0.5)
    p.add_argument("--grid", required=True, help="lo:hi:step")
    common(p, _cmd_limit, None)

    p = sub.add_parser("simulate", help="draw joint or conditional samples")
    p.add_argument("--n", type=_count(0), required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threshold", type=_finite_float, default=None)
    common(p, _cmd_simulate, "polar or mixture")

    p = sub.add_parser("verify", help="convergence sweep toward the limit law")
    p.add_argument("--levels", type=_float_list, required=True,
                   help="comma list of quantile levels")
    p.add_argument("--n", type=_count(1), default=100_000)
    p.add_argument("--seed", type=int, default=None)
    common(p, _cmd_verify, "polar")

    p = sub.add_parser("tail", help="asymptotic vs oracle first-coordinate tail")
    p.add_argument("--x-grid", required=True, help="lo:hi:step")
    common(p, _cmd_tail, "polar")

    p = sub.add_parser("independence", help="asymptotic-independence diagnostics")
    p.add_argument("--t-grid", required=True, help="lo:hi:step in log10 units")
    p.add_argument("--y", type=_finite_float, default=1.0)
    p.add_argument("--x-std", type=_finite_float, default=1.0)
    p.add_argument("--y-std", type=_finite_float, default=1.0)
    common(p, _cmd_independence, "polar")

    p = sub.add_parser("second-order", help="first-order vs corrected conditional values")
    p.add_argument("--x-grid", required=True, help="lo:hi:step")
    p.add_argument("--z-grid", required=True, help="lo:hi:step")
    common(p, _cmd_second_order, "polar")

    p = sub.add_parser("decompose", help="split a profile density into radius and angle")
    p.add_argument("--points", type=_count(1), default=201)
    common(p, _cmd_decompose, "decompose")

    return parser


def _glue_value_flags(argv):
    """Join value flags with their argument so negative grids parse."""
    out = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{arg}={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


def run(argv=None):
    """Entry point returning an exit code; never raises on bad input.

    Every command runs the same way: parse the arguments, load the config as
    the command declares, resolve the seed, compute, and emit the artifact
    with its metadata.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_glue_value_flags(list(argv)))
        config, model, config_seed = _load_model(args)
        args.seed = _require_seed(args, config_seed)
        meta = _metadata(args, config)
        _emit(args, meta, *args.fn(args, model, meta))
        return 0
    except NumericError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return 2
    except CevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
