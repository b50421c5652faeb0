"""Command-line front end: problem specs in, certified constructions out.

Subcommands
-----------
classify   report which families structurally accept the given equation
build      construct the requested family and report the Lagrangian
verify     sweep the Euler-Lagrange residual field over the domain box
integrate  integrate the equation and emit a trajectory CSV
compare    build several members and emit a pairwise-gap matrix CSV
demo       run a bundled preset end to end

Artifacts land in --out: ``report*.json`` (deterministic for a fixed spec
and seed), ``run_meta.json`` (timings and versions, kept separate so
reports stay bit-reproducible), and per-command CSVs.  Reports embed the
normalized spec, so ``--spec report.json`` re-runs the same problem.  Exit
codes: 0 success, 2 verification failure, 3 family inapplicable, 4 invalid
input.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import sys
import tempfile
import time
from contextlib import ExitStack
from functools import cache, cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .constructors import (
    BuilderOptions,
    StandardCoeffs,
    affine_rhs,
    build_composed_invariant,
    build_exponential_family,
    build_generalized_kinetic,
    build_monomial,
    build_power_damping,
    build_radical,
    build_radical_equal,
    build_radical_linear,
    build_reciprocal,
    build_reciprocal_autonomous,
    build_reciprocal_linear,
    build_reciprocal_nu2,
    build_standard,
    c_from_ab,
    closure_defect,
    constraint_defect,
    generalized_kinetic_rhs,
    log_velocity_lagrangian,
    monomial_rhs,
    multi_lagrangian_suite,
    n_parameter_lagrangian,
    power_damping_rhs,
    radical_equal_rhs,
    radical_forward_rhs,
    reciprocal_forward_rhs,
    reciprocal_linear_rhs,
    standard_hamiltonian,
)
from .dynamics import integrate_ode
from .errors import (
    BadExponentError,
    ConstructionVerificationError,
    EmptyDomainError,
    EvalDomainError,
    ExpressionError,
    InadmissibleCoefficientsError,
    InapplicableFamilyError,
    IntegrationError,
    NotInvariantError,
    SpecValidationError,
    ZeroCrossingError,
)
from .evaluation import evaluate_field, jet_field
from .expressions import (
    Const,
    Neg,
    Var,
    differentiate,
    free_vars,
    parse_expression,
    simplify,
    substitute,
)
from .lagrangian import (
    DomainBox,
    Lagrangian,
    OdeSpec,
    grid_points,
    largest,
    verify_lagrangian,
    _acceleration_gap,
    _energy,
    _usable_accelerations,
)
from .presets import PRESETS, preset_names

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_INAPPLICABLE = 3
EXIT_INPUT_ERROR = 4

_V = Var("v")

_INPUT_ERRORS = (SpecValidationError, ExpressionError)
_INAPPLICABLE_ERRORS = (
    InapplicableFamilyError,
    InadmissibleCoefficientsError,
    BadExponentError,
    ZeroCrossingError,
    NotInvariantError,
    EmptyDomainError,
    IntegrationError,  # a trajectory that cannot be integrated over the span
)

def _commit(out_dir: Path, files: dict) -> None:
    """Write each ``name -> text`` of ``files`` into ``out_dir`` as UTF-8,
    durably, each file whole or not at all.

    Every text goes to a hidden temporary file (mode 0600) beside its
    target.  Where the platform has ``posix_fadvise``, each file's writeback
    is then started, so the device writes and journal commits of all the
    files overlap instead of queuing behind one fsync at a time.  Each file
    is fsynced, then renamed over its target in the order of ``files``, and
    the directory is fsynced once, last, so the renames survive a power
    failure too.  If anything fails before a file's rename, its temporary
    file is removed, its target keeps its old content, and the error is
    raised again.  The directory is made only when it is missing.
    """
    if not files:
        return
    temps = []
    renamed = 0
    try:
        with ExitStack() as stack:
            handles = []
            for name in files:
                try:
                    fd, temp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
                except FileNotFoundError:
                    out_dir.mkdir(parents=True, exist_ok=True)
                    fd, temp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
                temps.append(temp)
                handle = stack.enter_context(open(fd, "wb"))
                handle.write(files[name].encode("utf-8"))
                handle.flush()
                handles.append(handle)
            # on a dirty range, POSIX_FADV_DONTNEED starts its writeback and
            # returns; pages still dirty or under writeback stay cached
            start_writeback = getattr(os, "posix_fadvise", None)
            if start_writeback is not None:
                for handle in handles:
                    start_writeback(handle.fileno(), 0, 0,
                                    os.POSIX_FADV_DONTNEED)
            for handle in handles:
                os.fsync(handle.fileno())
        for name, temp in zip(files, temps):
            os.replace(temp, out_dir / name)
            renamed += 1
    except BaseException:
        for temp in temps[renamed:]:
            try:
                os.unlink(temp)
            except OSError:
                pass
        raise
    _sync_directory(out_dir)


def _sync_directory(path: Path) -> None:
    """Fsync the directory ``path``, so the renames into it survive a power
    failure.  Windows cannot open a directory for fsync, so there it does
    nothing."""
    if os.name == "nt":
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


_JSON_STRING = json.encoder.encode_basestring_ascii


def _json_text(value, newline: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it, except that each NaN or infinity is written as the string
    ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``, which RFC 8259 allows.

    JSON has no non-finite numbers, and strict parsers reject Python's bare
    ``NaN`` and ``Infinity`` tokens.  Tuples are written as lists, and a
    value ``json.dumps`` cannot write raises ``TypeError``, as does a key
    that is not a string (a report's never is).  ``newline`` starts each
    line inside ``value``: a line break and the enclosing indentation.
    """
    if isinstance(value, str):
        return _JSON_STRING(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        if math.isnan(value):
            return '"NaN"'
        return '"Infinity"' if value > 0.0 else '"-Infinity"'
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_JSON_STRING(key)}: {_json_text(value[key], inner)}"
                 for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def _json_file(payload: dict) -> str:
    """The text of a JSON file holding ``payload``."""
    return _json_text(payload) + "\n"


def _csv_text(header: list, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cells(values) -> list:
    """CSV cells of a column of floats: each value's repr."""
    return list(map(repr, values.tolist()))


# --- spec loading -------------------------------------------------------------

def _schema() -> dict:
    """The problem-spec JSON schema, read afresh from the package data."""
    from importlib import resources

    text = (
        resources.files("lagrangeforge.schema") / "problem_spec.schema.json"
    ).read_text()
    return json.loads(text)


@cache
def _validator():
    """The spec validator, built on first use and kept for the process.

    ``jsonschema`` is imported here, not at module level: ``demo`` runs the
    bundled presets without validating them, so a process that never reads
    a spec never pays for loading it.
    """
    import jsonschema

    return jsonschema.Draft7Validator(_schema())


def validate_spec(doc: dict) -> None:
    """Check ``doc`` against the problem-spec schema.

    Raises ``SpecValidationError`` naming the first failing location, in
    path order (``<root>`` for the document itself).  The schema and its
    validator load on the first call in a process and are reused after.
    """
    errors = sorted(_validator().iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "/".join(str(part) for part in err.absolute_path) or "<root>"
        raise SpecValidationError(f"spec invalid at {where}: {err.message}")


def load_spec(path: str) -> dict:
    """Read, unwrap and validate a spec file (or a previous report).

    A file that cannot be opened or read, or is not UTF-8 JSON, raises
    ``SpecValidationError`` like any other invalid input.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError as exc:
        raise SpecValidationError(f"spec file not found: {path}") from exc
    except OSError as exc:
        raise SpecValidationError(
            f"cannot read spec {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecValidationError(f"spec is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"spec is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "normalized_spec" in doc:
        doc = doc["normalized_spec"]
    if not isinstance(doc, dict):
        raise SpecValidationError("spec must be a JSON object")
    validate_spec(doc)
    return doc


_DOMAIN_DEFAULTS = {
    "x": [-1.0, 1.0],
    "v": [0.2, 2.0],
    "t": [0.0, 1.5],
    "grid": [4, 4, 4],
    "n_random": 32,
    "seed": 101,
}

_OPTION_DEFAULTS = {"x0": 0.0, "t0": 0.0, "verify": True, "verify_tol": 1e-8}

_INTEGRATE_DEFAULTS = {
    "x0": 0.0, "v0": 1.0, "t0": 0.0, "t1": 2.0,
    "columns": ["t", "x", "v"],
}


def normalize_spec(spec: dict) -> dict:
    """Fill defaults; the result validates and reproduces the same run."""
    out = json.loads(json.dumps(spec))  # deep copy, JSON-clean
    out["domain"] = {**_DOMAIN_DEFAULTS, **out.get("domain", {})}
    out["options"] = {**_OPTION_DEFAULTS, **out.get("options", {})}
    out["integrate"] = {**_INTEGRATE_DEFAULTS, **out.get("integrate", {})}
    return out


def _box(spec: dict) -> DomainBox:
    dom = spec["domain"]
    try:
        return DomainBox(
            x=tuple(dom["x"]), v=tuple(dom["v"]), t=tuple(dom["t"]),
            grid=tuple(dom["grid"]), n_random=dom["n_random"], seed=dom["seed"],
        )
    except ValueError as exc:
        raise SpecValidationError(f"spec invalid at domain: {exc}") from exc


def _options(spec: dict) -> BuilderOptions:
    opt = spec["options"]
    return BuilderOptions(
        x0=opt["x0"], t0=opt["t0"], verify=opt["verify"],
        verify_tol=opt["verify_tol"],
    )


# --- equation interpretation ---------------------------------------------------

def _expr(block: dict, key: str):
    params = block.get("params", {})
    expr = parse_expression(block[key], params=sorted(params))
    for name in sorted(params):
        expr = substitute(expr, name, Const(float(params[name])))
    return simplify(expr)


class BuiltProblem:
    """Outcome of interpreting an equation block: members + target dynamics."""

    def __init__(self, ode, members, control=None, extras=None):
        self.ode = ode
        self.members = members          # dict name -> Lagrangian
        self.control = control
        self.notes = []
        self.extras = extras or {}

    @property
    def primary(self) -> Lagrangian:
        return next(iter(self.members.values()))


# --- family table --------------------------------------------------------------

def _parse(block: dict) -> dict:
    """A family block's fields as builders take them: expressions, floats."""
    out = {}
    for key, value in block.items():
        if key in ("family", "name", "params"):
            out[key] = value
        elif isinstance(value, str):
            out[key] = _expr(block, key)
        elif isinstance(value, list):
            out[key] = tuple(float(z) for z in value)
        else:
            out[key] = float(value)
    return out


class Family(NamedTuple):
    """How the CLI reads, targets and builds one kind of family block.

    ``ode(blk)`` gives the target dynamics through the same rhs function the
    builder verifies against, so a report's ``rhs`` is what was certified.
    ``build(blk, ode, options)`` returns a :class:`BuiltProblem` and calls
    builders by their module-global name, so wrappers on those names see
    each call.  ``notes`` mark recipes that differ from a naive
    transcription; their keys are stable for downstream audits.
    ``classify(probe)`` tests any rhs, read through a :class:`_Probe`, for
    the family's structure and returns ``(applicable, residual, reason)``;
    ``classify`` reports the families that have one, in table order.
    """

    fields: tuple
    ode: Callable
    build: Callable
    notes: tuple = ()
    classify: Callable | None = None


_ZERO = Const(0.0)


def _quadratic(blk: dict) -> StandardCoeffs:
    """(a, b, c) of x'' = -(a v^2 + b v + c); an absent c becomes the
    cubic-restoring completion of (a, b)."""
    # stored in the block so the target ODE and the build share one completion
    if "c" not in blk:
        blk["c"] = c_from_ab(blk["a"], blk["b"], lam=blk.get("lam", 0.0))
    return StandardCoeffs(blk["a"], blk["b"], blk["c"])


def _build_standard(blk, ode, options):
    coeffs = _quadratic(blk)
    L = build_standard(coeffs, options)
    hamiltonian = simplify(standard_hamiltonian(coeffs, options))
    return BuiltProblem(ode, {"standard": L},
                        extras={"hamiltonian": str(hamiltonian)})


def _build_autonomous(blk, ode, options):
    q = _quadratic(blk)
    L = build_reciprocal_autonomous(q.a, q.b, q.c, options)
    return BuiltProblem(ode, {"reciprocal-autonomous": L}, extras={
        "constraint_residual": constraint_defect(q.a, q.b, q.c)})


def _build_exponential(blk, ode, options):
    extra = {"outer": blk["outer"]} if "outer" in blk else {}
    L = build_exponential_family(blk["a"], blk["b"], c0=blk.get("c0", 0.0),
                                 options=options, **extra)
    return BuiltProblem(ode, {"exponential": L})


def _build_log_velocity(blk, ode, options):
    member = log_velocity_lagrangian(blk["k"], options)
    quad = build_monomial(Const(blk["k"]), _ZERO, _ZERO, 2.0, options)
    return BuiltProblem(ode, {"log-velocity": member, "quadratic-kinetic": quad})


def _build_multi(blk, ode, options):
    suite = multi_lagrangian_suite(blk["k"], options)
    return BuiltProblem(ode, dict(suite.members), control=suite.control)


# Structural probes: numeric tests of an arbitrary rhs f(x, v, t) on a small
# grid over the domain.  Every test evaluates through evaluate_field and
# skips the points its mask marks, where evaluate would raise.

_STRUCT_TOL = 1e-9
_PROBE_VS = (0.3, 0.9, 1.7)


class _Points:
    """Probe points, x by v by t, and the field of ``f`` on them."""

    def __init__(self, f, dom: dict, vs: tuple):
        cells = [(x, v, t) for x in grid_points(dom["x"][0], dom["x"][1], 5)
                 for v in vs for t in grid_points(dom["t"][0], dom["t"][1], 5)]
        self.columns = {name: np.array(column, dtype=float)
                        for name, column in zip("xvt", zip(*cells))}
        self.f_values, self.f_bad = evaluate_field(f, self.columns)

    def max_rel(self, expr):
        """max |expr| / (1 + |f|) over usable points; None if none usable."""
        values, bad = evaluate_field(expr, self.columns)
        with np.errstate(all="ignore"):
            rel = np.abs(values) / (1.0 + np.abs(self.f_values))
        worst = largest(rel, ~(bad | self.f_bad))
        return None if worst is None else worst[0]

    def values(self, *exprs) -> list:
        """Each expression's values at the points where all are defined."""
        fields = [evaluate_field(expr, self.columns) for expr in exprs]
        keep = ~np.logical_or.reduce([bad for _, bad in fields])
        return [values[keep].tolist() for values, _ in fields]


class _Probe:
    """What the family tests read about f, each part computed once.

    The v = 1 grid and the x and t dependence are computed on first use,
    so only the family tests that read them pay for their evaluations.
    """

    def __init__(self, f, dom: dict):
        self.f = f
        self.dom = dom
        self.f_v = differentiate(f, "v")
        self.f_vv = differentiate(self.f_v, "v")
        self.f_vvv = differentiate(self.f_vv, "v")
        self.points = _Points(f, dom, _PROBE_VS)
        self.cubic_term = self.points.max_rel(self.f_vvv)
        self.linear_term = self.points.max_rel(self.f_vv)
        self.is_linear = (self.linear_term is not None
                          and self.linear_term <= _STRUCT_TOL)
        # (a, b, c) with f = -(a v^2 + b v + c), when f is quadratic
        self.quad = None
        if self.cubic_term is not None and self.cubic_term <= _STRUCT_TOL:
            try:
                self.quad = (
                    simplify(Const(-0.5) * substitute(self.f_vv, "v", Const(0.0))),
                    simplify(Neg(substitute(self.f_v, "v", Const(0.0)))),
                    simplify(Neg(substitute(f, "v", Const(0.0)))))
            except ExpressionError:
                pass

    @cached_property
    def xt(self) -> _Points:
        """The (x, t) grid at v = 1, for coefficients free of v."""
        return _Points(self.f, self.dom, (1.0,))

    @cached_property
    def x_dep(self):
        return self.points.max_rel(differentiate(self.f, "x"))

    @cached_property
    def t_dep(self):
        return self.points.max_rel(differentiate(self.f, "t"))


def _spread(values: list):
    return float(np.max(values) - np.min(values)) if values else None


def _verdict(defects: list, tol: float, holds: str, fails: str,
             failed: str = "structure probe failed") -> tuple:
    """Applicable when every defect was measured and the largest is small."""
    if any(d is None for d in defects):
        return False, None, failed
    res = largest(defects)[0]
    ok = res <= tol
    return ok, res, holds if ok else fails


def _if_quadratic(test: Callable) -> Callable:
    """A family test for f = -(a v^2 + b v + c); it is given (a, b, c)."""
    def classify(p: _Probe) -> tuple:
        if p.quad is None:
            return False, p.cubic_term, "rhs is not quadratic in v"
        return test(p, *p.quad)
    return classify


def _if_linear(test: Callable) -> Callable:
    """A family test for f linear in v."""
    def classify(p: _Probe) -> tuple:
        if not p.is_linear:
            return False, p.linear_term, "rhs is not linear in v"
        return test(p)
    return classify


@_if_quadratic
def _classify_standard(p, a, b, c):
    """Quadratic kinetic profile: b_x = 2 a_t."""
    res = p.xt.max_rel(closure_defect(a, b, 2.0))
    ok = res is not None and res <= _STRUCT_TOL
    return ok, res, ("admissible" if ok else
                     "cross-derivative condition b_x = 2 a_t fails")


@_if_quadratic
def _classify_autonomous(p, a, b, c):
    """Autonomous reciprocal: x-only coefficients, cubic-restoring constraint."""
    t_checks = [p.xt.max_rel(differentiate(z, "t")) for z in (a, b, c)]
    t_dep = float(np.max([d for d in t_checks if d is not None], initial=0.0))
    [b_vals] = p.xt.values(b)
    b_min = float(np.min(np.abs(b_vals))) if b_vals else 0.0
    if not t_dep <= _STRUCT_TOL:
        return False, t_dep, "coefficients depend on t"
    if not b_min > 1e-6:
        return False, b_min, "linear damping coefficient vanishes on the domain"
    try:
        res = constraint_defect(a, b, c, x_interval=tuple(p.dom["x"]))
    except EvalDomainError as exc:
        # the constraint's grid spans the whole x-interval, where c may
        # be undefined
        return False, None, str(exc)
    ok = res <= 1e-8
    return ok, res, ("constraint holds" if ok else
                     "cubic-restoring constraint violated")


@_if_linear
def _classify_time_linear(p):
    """Time-dependent linear: f = -(b(t) v + c(t) x)."""
    b = simplify(Neg(substitute(p.f_v, "v", Const(0.0))))
    rest = simplify(Neg(substitute(p.f, "v", Const(0.0))))
    return _verdict([
        p.xt.max_rel(differentiate(b, "x")),
        p.xt.max_rel(differentiate(differentiate(rest, "x"), "x")),
        p.xt.max_rel(differentiate(substitute(rest, "x", Const(0.0)), "t")),
        p.xt.max_rel(substitute(rest, "x", Const(0.0))),
    ], _STRUCT_TOL, "matches b(t) v + c(t) x",
        "rhs is not of the form -(b(t) v + c(t) x)")


@_if_quadratic
def _classify_nu2(p, a, b, c):
    """Separated quadratic drag: f = -(a(x) v^2 + b(t) v)."""
    return _verdict([p.xt.max_rel(c), p.xt.max_rel(differentiate(a, "t")),
                     p.xt.max_rel(differentiate(b, "x"))], _STRUCT_TOL,
                    "matches a(x) v^2 + b(t) v",
                    "needs a(x) v^2 + b(t) v with no velocity-free term")


@_if_quadratic
def _classify_monomial(p, a, b, c):
    """Velocity power, pure quadratic-drag sub-shape: (mu-1) b_x = mu a_t."""
    c_norm = p.xt.max_rel(c)
    # one mask for both, so each b_x is paired with a_t at the same point
    bx, at = p.xt.values(differentiate(b, "x"), differentiate(a, "t"))
    if c_norm is None or not c_norm <= _STRUCT_TOL:
        return False, c_norm, ("velocity-free term present; supply the "
                               "exponent and build directly")
    if np.max(np.abs(bx), initial=0.0) <= _STRUCT_TOL \
            and np.max(np.abs(at), initial=0.0) <= _STRUCT_TOL:
        return True, 0.0, "condition holds for every exponent"
    mus = [bxi / (bxi - ati) for bxi, ati in zip(bx, at)
           if abs(bxi - ati) > 1e-12]
    spread = _spread(mus)
    if spread is None or len(mus) < len(bx):
        return False, None, "no consistent exponent"
    mu = sum(mus) / len(mus)
    ok = spread <= 1e-6 and min(abs(mu), abs(mu - 1.0)) > 1e-9
    return ok, spread, (f"consistent exponent mu = {mu:.6g}" if ok else
                        "exponent inconsistent or degenerate")


def _classify_power(p):
    """Power drag: f = -c(x) v^nu, free of t."""
    t_dep = p.t_dep
    [nu_hats] = p.points.values(simplify(_V * p.f_v / p.f)) \
        if t_dep is not None else [[]]
    if t_dep is None or not t_dep <= _STRUCT_TOL:
        return False, t_dep, "rhs depends on t"
    if not nu_hats:
        return False, None, "structure probe failed (rhs vanishes?)"
    spread = _spread(nu_hats)
    nu = sum(nu_hats) / len(nu_hats)
    if not spread <= 1e-6:
        return False, spread, "not a pure velocity power"
    if min(abs(nu - 1.0), abs(nu - 2.0)) <= 1e-9:
        return False, spread, f"measured exponent {nu:.3g} is excluded"
    return True, spread, f"pure power drag, nu = {nu:.6g}"


def _classify_split(p):
    """Multiplicative split: f = phi(x, t) R(v)."""
    ratio = simplify(p.f_v / p.f)
    return _verdict([p.points.max_rel(differentiate(ratio, "x")),
                     p.points.max_rel(differentiate(ratio, "t"))], 1e-7,
                    "rhs splits as f(x,t) R(v)",
                    "rhs does not split as f(x,t) R(v)",
                    failed="structure probe failed (rhs vanishes?)")


def _classify_drag_ladder(p):
    """Drag ladder: f = -(a(t) v + b(t) v^{nu+1})."""
    if p.x_dep is None or not p.x_dep <= _STRUCT_TOL:
        return False, p.x_dep, "rhs depends on x"
    try:
        a_lin = simplify(Neg(substitute(p.f_v, "v", Const(0.0))))
    except ExpressionError:
        return False, None, "structure probe failed"
    rest = simplify(p.f + a_lin * _V)
    rest_size = p.points.max_rel(rest)
    if rest_size is not None and rest_size <= _STRUCT_TOL:
        return True, 0.0, "pure linear drag; exponent free"
    [ratios] = p.points.values(simplify(_V * differentiate(rest, "v") / rest))
    hats = [z - 1.0 for z in ratios]
    spread = _spread(hats)
    if spread is None:
        return False, None, "structure probe failed"
    nu = sum(hats) / len(hats)
    ok = spread <= 1e-6 and min(abs(nu), abs(nu - 1.0)) > 1e-9
    return ok, spread, (f"drag powers (1, {nu + 1.0:.6g})" if ok else
                        "super-linear drag exponent inconsistent or degenerate")


@_if_linear
def _classify_affine(p):
    """Affine in v with time-only coefficients: f = a(t) v + b(t)."""
    return _verdict([p.x_dep, p.linear_term], _STRUCT_TOL,
                    "matches a(t) v + b(t)",
                    "rhs must be a(t) v + b(t) with no position term")


FAMILIES = {
    "standard": Family(
        ("a", "b", "c"), lambda blk: _quadratic(blk).ode(), _build_standard,
        ("time-gauge-factor: the kinetic profile carries exp(int b(x0, t) dt) "
         "so x-independent damping components stay representable",),
        _classify_standard),
    "reciprocal": Family(
        ("F", "G"),
        lambda blk: OdeSpec(reciprocal_forward_rhs(blk["F"], blk["G"],
                                                   blk.get("nu", 1.0))),
        lambda blk, ode, options: BuiltProblem(ode, {"reciprocal": build_reciprocal(
            blk["F"], blk["G"], blk.get("nu", 1.0), options=options)})),
    "reciprocal-autonomous": Family(
        ("a", "b"), lambda blk: _quadratic(blk).ode(), _build_autonomous,
        classify=_classify_autonomous),
    "reciprocal-linear": Family(
        ("b", "c", "t_span"),
        lambda blk: OdeSpec(reciprocal_linear_rhs(blk["b"], blk["c"])),
        lambda blk, ode, options: BuiltProblem(ode, {
            "reciprocal-linear": build_reciprocal_linear(
                blk["b"], blk["c"], blk["t_span"], options)}),
        ("time-linear-recipe: auxiliary profile solved as w'' = (b/3) w' + "
         "((2/3) b' + (2/9) b^2 - c) w with f = w^3 and g = (2 f b - f')/3; "
         "the rejected simpler recipe is kept as "
         "build_reciprocal_linear_variant and fails verification",),
        _classify_time_linear),
    "reciprocal-nu2": Family(
        ("a", "b"),
        lambda blk: StandardCoeffs(blk["a"], blk["b"], _ZERO).ode(),
        lambda blk, ode, options: BuiltProblem(ode, {
            "reciprocal-nu2": build_reciprocal_nu2(blk["a"], blk["b"], options)}),
        ("separated-drag-exponents: F = exp(2 int a + 3 int b) and "
         "G = exp(+int b); the sign-flipped variant mirrors the damping "
         "term and fails verification",),
        _classify_nu2),
    "monomial": Family(
        ("a", "b", "c", "mu"),
        lambda blk: OdeSpec(monomial_rhs(blk["a"], blk["b"], blk["c"], blk["mu"])),
        lambda blk, ode, options: BuiltProblem(ode, {"monomial": build_monomial(
            blk["a"], blk["b"], blk["c"], blk["mu"], options)}),
        ("time-gauge-factor: F carries exp((mu - 1) int b(x0, t) dt)",),
        _classify_monomial),
    "power-damping": Family(
        ("a", "c", "nu"),
        lambda blk: OdeSpec(power_damping_rhs(blk["a"], blk["c"], blk["nu"])),
        lambda blk, ode, options: BuiltProblem(ode, {
            "power-damping": build_power_damping(
                blk["a"], blk["c"], blk["nu"], options)}),
        ("exponent-identification: power drag nu maps to the monomial "
         "exponent mu = 2 - nu, excluding nu in {1, 2}",),
        _classify_power),
    "n-parameter": Family(
        ("n", "k"),
        lambda blk: OdeSpec(monomial_rhs(Const(blk["k"]), _ZERO, _ZERO, blk["n"])),
        lambda blk, ode, options: BuiltProblem(ode, {
            "n-parameter": n_parameter_lagrangian(blk["n"], blk["k"], options)})),
    "generalized-kinetic": Family(
        ("f", "R"),
        lambda blk: OdeSpec(generalized_kinetic_rhs(blk["f"], blk["R"])),
        lambda blk, ode, options: BuiltProblem(ode, {
            "generalized-kinetic": build_generalized_kinetic(
                blk["f"], blk["R"], psi=blk.get("psi"), options=options)}),
        classify=_classify_split),
    "radical": Family(
        ("A", "B", "mu", "nu"),
        lambda blk: OdeSpec(radical_forward_rhs(blk["A"], blk["B"], blk["mu"],
                                                blk["nu"])),
        lambda blk, ode, options: BuiltProblem(ode, {"radical": build_radical(
            blk["A"], blk["B"], blk["mu"], blk["nu"], options=options)})),
    "radical-equal": Family(
        ("a", "b", "nu"),
        lambda blk: OdeSpec(radical_equal_rhs(blk["a"], blk["b"], blk["nu"])),
        lambda blk, ode, options: BuiltProblem(ode, {
            "radical-equal": build_radical_equal(
                blk["a"], blk["b"], blk["nu"], S0=blk.get("S0", 1.0),
                options=options)}),
        ("scale-quadrature-sign: S = S0 - nu int b exp(-nu int a) dt; the "
         "opposite sign flips the super-linear drag coefficient",),
        _classify_drag_ladder),
    "radical-linear": Family(
        ("a", "b", "mu"),
        lambda blk: OdeSpec(affine_rhs(blk["a"], blk["b"])),
        lambda blk, ode, options: BuiltProblem(ode, {
            "radical-linear": build_radical_linear(
                blk["a"], blk["b"], blk["mu"], B0=blk.get("B0", 1.0),
                options=options)}),
        classify=_classify_affine),
    "exponential": Family(
        ("a", "b"), lambda blk: OdeSpec(affine_rhs(blk["a"], blk["b"])),
        _build_exponential, classify=_classify_affine),
    "composed": Family(
        ("invariant", "outer", "rhs"),
        lambda blk: OdeSpec(blk["rhs"]),
        lambda blk, ode, options: BuiltProblem(ode, {
            "composed": build_composed_invariant(
                blk["invariant"], blk["outer"], ode, options)}),
        ("position-form-invariant: for quadratic drag the conserved quantity "
         "is v e^{k x}; compositions use the position form",)),
    "log-velocity": Family(
        ("k",),
        lambda blk: OdeSpec(monomial_rhs(Const(blk["k"]), _ZERO, _ZERO, 2.0)),
        _build_log_velocity,
        ("position-form-invariant: the boundary member uses v e^{k x}",)),
    "multiL": Family(
        ("k",), lambda blk: StandardCoeffs(_ZERO, Const(blk["k"]), _ZERO).ode(),
        _build_multi),
}


def _family(block: dict) -> tuple:
    """The table entry for a family block and the block's parsed fields."""
    name = block["family"]
    if name not in FAMILIES:
        raise SpecValidationError(f"unknown family {name!r}")
    family = FAMILIES[name]
    missing = [key for key in family.fields if key not in block]
    if missing:
        raise SpecValidationError(
            f"family {name!r} needs field(s): {', '.join(missing)}")
    return family, _parse(block)


def classify_equation(f, dom: dict) -> list:
    """Structural applicability of each family for x'' = f(x, v, t).

    Families needing an exponent are matched only in their directly
    detectable sub-shapes; a False verdict means "not detected", with the
    reason naming the missing structure.
    """
    probe = _Probe(f, dom)
    entries = []
    for name, family in FAMILIES.items():
        if family.classify is not None:
            applicable, residual, reason = family.classify(probe)
            entries.append({"family": name, "applicable": applicable,
                            "residual": residual, "reason": reason})
    return entries


def _build_block(block: dict, options: BuilderOptions,
                 builds: dict) -> BuiltProblem:
    """The problem a family block builds, built once per run.

    ``builds`` maps the block (as canonical JSON) and the options to the
    problem or to the error its build raised; a cached error is raised
    again, so every task that needs the block reports the same outcome.
    Callers read the problem and never change it.
    """
    key = (json.dumps(block, sort_keys=True), options)
    if key not in builds:
        try:
            family, blk = _family(block)
            problem = family.build(blk, family.ode(blk), options)
            problem.notes = list(family.notes)
            builds[key] = problem
        except Exception as exc:  # noqa: BLE001 - raised again below
            builds[key] = exc
    outcome = builds[key]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _target(spec: dict):
    """Target rhs of the spec's equation, without running a construction."""
    eq = spec["equation"]
    if "family" not in eq:
        return _expr(eq, "rhs")
    family, blk = _family(eq)
    return family.ode(blk).rhs


def _problem(spec: dict, builds: dict) -> BuiltProblem:
    eq = spec["equation"]
    if "family" in eq:
        return _build_block(eq, _options(spec), builds)
    ode = OdeSpec(_expr(eq, "rhs"))
    members = {}
    if "lagrangian" in eq:
        members["user"] = Lagrangian(_expr(eq, "lagrangian"), family="user")
    return BuiltProblem(ode, members)


# --- command implementations ----------------------------------------------------

def _member_payload(name: str, L: Lagrangian) -> dict:
    return {
        "name": name,
        "family": L.family,
        "lagrangian": str(L.expr),
        "gauge": L.gauge,
        "domain_note": L.domain_note,
    }


def _verification_payload(report) -> dict:
    return {
        "passed": report.passed,
        "max_residual": report.max_residual,
        "argmax": list(report.argmax),
        "samples_used": report.samples_used,
        "samples_skipped": report.samples_skipped,
        "regularity_min": report.regularity_min,
        "tolerance": report.tolerance,
        "notes": list(report.notes),
    }


# Each command returns its report payload, its CSV files (name -> text) and
# its exit code; the run writes every file of every task in one commit.

def cmd_classify(spec: dict, builds: dict):
    f = _target(spec)
    entries = classify_equation(f, spec["domain"])
    rows = [[e["family"], "yes" if e["applicable"] else "no",
             "" if e["residual"] is None else repr(e["residual"]),
             e["reason"]] for e in entries]
    csv_text = _csv_text(["family", "applicable", "residual", "reason"], rows)
    payload = {"rhs": str(f), "classification": entries}
    return payload, {"families.csv": csv_text}, EXIT_OK


def cmd_build(spec: dict, builds: dict):
    if "family" not in spec["equation"]:
        raise InapplicableFamilyError(
            "build needs a family block; run classify to see candidates")
    problem = _problem(spec, builds)
    payload = {
        "family": spec["equation"]["family"],
        "rhs": str(problem.ode.rhs),
        "members": [_member_payload(n, L) for n, L in problem.members.items()],
        "discrepancy_notes": problem.notes,
    }
    payload.update(problem.extras)
    if len(problem.members) == 1:
        payload["lagrangian"] = str(problem.primary.expr)
        payload["gauge"] = problem.primary.gauge
    return payload, {}, EXIT_OK


def cmd_verify(spec: dict, builds: dict):
    problem = _problem(spec, builds)
    if not problem.members:
        raise InapplicableFamilyError(
            "verify needs a family block or an explicit lagrangian")
    box = _box(spec)
    tol = spec["options"]["verify_tol"]
    code = EXIT_OK
    reports = {}
    rows = []
    for name, L in problem.members.items():
        report = verify_lagrangian(L, problem.ode, box, tol=tol)
        reports[name] = _verification_payload(report)
        if not report.passed:
            code = EXIT_VERIFY_FAIL
        rows.extend(zip(*(_cells(report.columns[c]) for c in "xvt"),
                        repeat(name),
                        _field_cells(report.residual_field, ~report.scored)))
    csv_text = _csv_text(["x", "v", "t", "member", "residual"], rows)
    payload = {
        "family": spec["equation"].get("family", "user"),
        "rhs": str(problem.ode.rhs),
        "members": [_member_payload(n, L) for n, L in problem.members.items()],
        "verification": reports,
        "discrepancy_notes": problem.notes,
    }
    return payload, {"residuals.csv": csv_text}, code


def _field_cells(values, bad) -> list:
    """CSV cells of a field: each value's repr, blank where the point is bad."""
    cells = _cells(values)
    for i in np.flatnonzero(bad).tolist():
        cells[i] = ""
    return cells


def cmd_integrate(spec: dict, builds: dict):
    problem = _problem(spec, builds)
    ode = problem.ode
    L = problem.primary if problem.members else None
    unbound = free_vars(ode.rhs) - {"x", "v", "t"}
    if unbound:
        raise SpecValidationError(
            f"the rhs depends on {sorted(unbound)}; "
            "a trajectory's rhs may depend only on x, v and t")
    cfg = spec["integrate"]
    traj = integrate_ode(ode, cfg["x0"], cfg["v0"], cfg["t0"], cfg["t1"])
    columns = [c for c in ("t", "x", "v", "L", "E", "p") if c in cfg["columns"]]
    if L is None:
        columns = [c for c in columns if c in ("t", "x", "v")]
    t, x, v = traj.table[:3]
    state = {"x": x, "v": v, "t": t}
    cells = {name: _cells(column) for name, column in state.items()}
    if "L" in columns:
        cells["L"] = _field_cells(*evaluate_field(L.expr, state))
    if "E" in columns or "p" in columns:
        jet, bad = jet_field(L.expr, state)
        with np.errstate(all="ignore"):
            energy = _energy(jet, state["v"])
        cells["E"] = _field_cells(energy, bad)
        cells["p"] = _field_cells(jet.gv, bad)
    csv_text = _csv_text(columns, zip(*(cells[c] for c in columns)))
    payload = {
        "rhs": str(ode.rhs),
        "integration": {
            "nodes": len(t),
            "steps": traj.n_steps,
            "rejected": traj.n_rejected,
            "final_time": traj.final_time,
            "final_state": list(traj.final_state),
            "columns": columns,
        },
    }
    return payload, {"trajectory.csv": csv_text}, EXIT_OK


def cmd_compare(spec: dict, builds: dict):
    options = _options(spec)
    control = None
    if "members" in spec:
        built = [_build_block(blk, options, builds) for blk in spec["members"]]
        points = _Points(built[0].ode.rhs, spec["domain"], _PROBE_VS)
        for other in built[1:]:
            gap = points.max_rel(simplify(other.ode.rhs - built[0].ode.rhs))
            if gap is None or not gap <= 1e-8:
                raise InapplicableFamilyError(
                    "compare members target different dynamics: "
                    f"{built[0].ode.rhs} vs {other.ode.rhs}")
        members = {}
        for idx, (block, b) in enumerate(zip(spec["members"], built)):
            label = block.get("name")   # one member's name, several's prefix
            for name, L in b.members.items():
                key = label if label and len(b.members) < 2 else f"{label or idx}:{name}"
                if key in members:
                    raise SpecValidationError(f"compare members repeat the name {key!r}")
                members[key] = L
        ode = built[0].ode
        notes = sorted({note for b in built for note in b.notes})
    elif "family" in spec["equation"]:
        problem = _problem(spec, builds)
        members, ode, notes = problem.members, problem.ode, problem.notes
        control = problem.control
    else:
        raise SpecValidationError(
            "compare needs a 'members' list or a multi-member family block")
    if len(members) < 2:
        raise InapplicableFamilyError("compare needs at least two members")
    box = _box(spec)
    tol = spec["options"]["verify_tol"]
    names = list(members)
    columns = box.sample_columns()
    # each member's (accelerations, usable mask) over the samples
    fields = [_usable_accelerations(members[name], columns) for name in names]
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    gaps = [_acceleration_gap(*zip(fields[i], fields[j])) for i, j in pairs]
    matrix = [[0.0] * len(names) for _ in names]
    for (i, j), gap in zip(pairs, gaps):
        matrix[i][j] = matrix[j][i] = gap
    rows = [[names[i]] + [repr(matrix[i][j]) for j in range(len(names))]
            for i in range(len(names))]
    csv_text = _csv_text(["member"] + names, rows)
    worst = largest(gaps)
    max_gap = 0.0 if worst is None else worst[0]
    payload = {
        "rhs": str(ode.rhs),
        "members": [_member_payload(n, L) for n, L in members.items()],
        "max_pairwise_gap": max_gap,
        "tolerance": tol,
        "equivalent": max_gap <= tol,
        "discrepancy_notes": list(notes),
    }
    if control is not None:
        control_gap = _acceleration_gap(
            *zip(_usable_accelerations(control, columns), fields[0]))
        payload["control"] = {
            "lagrangian": str(control.expr),
            "gap_vs_first_member": control_gap,
            "separates": control_gap > tol,
        }
    return payload, {"matrix.csv": csv_text}, \
        EXIT_OK if max_gap <= tol else EXIT_VERIFY_FAIL


_COMMANDS = {
    "classify": cmd_classify,
    "build": cmd_build,
    "verify": cmd_verify,
    "integrate": cmd_integrate,
    "compare": cmd_compare,
}


# --- driver ---------------------------------------------------------------------

def _classified_error(exc: Exception):
    if isinstance(exc, ConstructionVerificationError):
        detail = {"code": "verification-failure", "message": str(exc)}
        if exc.report is not None:
            detail["verification"] = _verification_payload(exc.report)
        return EXIT_VERIFY_FAIL, detail
    if isinstance(exc, _INAPPLICABLE_ERRORS):
        return EXIT_INAPPLICABLE, {"code": "inapplicable", "message": str(exc)}
    if isinstance(exc, _INPUT_ERRORS):
        return EXIT_INPUT_ERROR, {"code": "input-error", "message": str(exc)}
    raise exc


def _check_overrides(tol: float | None, seed: int | None) -> None:
    """Hold the ``tol`` and ``seed`` overrides to the schema's bounds, which
    they skip: ``verify_tol`` positive and finite, ``seed`` non-negative
    (``random.Random`` seeds by a seed's absolute value)."""
    if tol is not None and not 0.0 < tol < math.inf:
        raise SpecValidationError(f"--tol must be positive and finite: {tol!r}")
    if seed is not None and seed < 0:
        raise SpecValidationError(f"--seed must be non-negative: {seed!r}")


def run_command(command: str, spec: dict, out_dir: Path, builds: dict,
                tol: float | None = None, seed: int | None = None,
                report_name: str = "report.json") -> tuple:
    """Run one task and render its report, writing nothing.

    Returns the exit code, the task's files (name -> text: the report named
    ``report_name`` after the command's CSV files) and the status line to
    print once the files are in ``out_dir``.  ``builds`` is the run's memo
    of built problems (see :func:`_build_block`).  An override out of the
    schema's bounds is an input error.
    """
    normalized = normalize_spec(spec)
    report = {
        "version": 1,
        "command": command,
        "normalized_spec": normalized,
        "error": None,
    }
    code = EXIT_OK
    try:
        _check_overrides(tol, seed)
        if seed is not None:
            normalized["domain"]["seed"] = seed
        if tol is not None:
            normalized["options"]["verify_tol"] = tol
        allowed = normalized.get("tasks")
        if allowed and command not in allowed:
            raise SpecValidationError(
                f"spec allows tasks {allowed}, not {command!r}")
        _box(normalized)  # a bad domain is an input error for every command
        payload, files, code = _COMMANDS[command](normalized, builds)
        report.update(payload)
        report["artifacts"] = {name.replace(".", "_"): name for name in files}
    except Exception as exc:  # noqa: BLE001 - re-raised unless classified
        code, detail = _classified_error(exc)
        report["error"] = detail
        files = {}
    report["exit_code"] = code
    files[report_name] = _json_file(report)
    status = {EXIT_OK: "ok", EXIT_VERIFY_FAIL: "verification-failure",
              EXIT_INAPPLICABLE: "inapplicable",
              EXIT_INPUT_ERROR: "input-error"}[code]
    message = report["error"]["message"] if report["error"] else \
        f"artifacts in {out_dir}"
    return code, files, f"{command}: {status} ({message})"


def run_tasks(spec: dict, out_dir: Path, tasks: list,
              tol: float | None = None, seed: int | None = None) -> int:
    """Run each ``(command, report name)`` in order; the worst exit code.

    The tasks share one memo of built problems, so the run builds each
    problem once: the first task that needs it builds it (or meets its
    error), and later tasks reuse the outcome.  The memo is dropped on
    return.  One ``run_meta.json`` records the package, Python and numpy
    versions once, and every task's command, report and elapsed seconds;
    a build's time counts in the first task that needs it.  Writing is not
    timed: every file of the run (``run_meta.json`` last) is written in one
    :func:`_commit` after the last task, and only then are the tasks'
    status lines printed.  A task that raises an unclassified error still
    has what earlier tasks rendered written and their lines printed before
    the error propagates; no ``run_meta.json`` is written then.
    """
    worst, records, builds, files, lines = EXIT_OK, [], {}, {}, []
    try:
        for command, report_name in tasks:
            started = time.perf_counter()
            code, task_files, line = run_command(
                command, spec, out_dir, builds, tol=tol, seed=seed,
                report_name=report_name)
            records.append({"command": command, "report": report_name,
                            "elapsed_seconds": time.perf_counter() - started})
            files.update(task_files)
            lines.append(line)
            worst = max(worst, code)
        environment = {"package_version": __version__,
                       "python_version": platform.python_version(),
                       "numpy_version": np.__version__}
        files["run_meta.json"] = _json_file(
            {"environment": environment, "tasks": records})
    finally:
        _commit(out_dir, files)
        for line in lines:
            print(line)
    return worst


def cmd_demo(name: str, out_dir: Path, tol: float | None,
             seed: int | None) -> int:
    if name not in PRESETS:
        print(f"unknown preset {name!r}; available: {', '.join(preset_names())}",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    spec = PRESETS[name]
    tasks = [(task, f"report_{task}.json")
             for task in spec.get("tasks", ["build"])]
    return run_tasks(spec, out_dir, tasks, tol=tol, seed=seed)


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="lagrangeforge",
        description="Construct and certify Lagrangians for one-dimensional "
                    "second-order dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--spec", required=True,
                         help="problem spec JSON (or a previous report.json)")
        cmd.add_argument("--out", default="lagrangeforge-out")
        cmd.add_argument("--tol", type=float, default=None)
        cmd.add_argument("--seed", type=int, default=None)
    demo = sub.add_parser("demo")
    demo.add_argument("name", nargs="?", default="")
    demo.add_argument("--out", default="lagrangeforge-out")
    demo.add_argument("--tol", type=float, default=None)
    demo.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # an existing file or an unwritable place: nowhere to put a report
        print(f"{args.command}: input-error (cannot use --out {args.out}: "
              f"{exc.strerror or exc})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        _check_overrides(args.tol, args.seed)
        spec = None if args.command == "demo" else load_spec(args.spec)
    except SpecValidationError as exc:
        if args.command != "demo":
            _commit(out_dir, {"report.json": _json_file({
                "version": 1,
                "command": args.command,
                "error": {"code": "input-error", "message": str(exc)},
                "exit_code": EXIT_INPUT_ERROR,
            })})
        print(f"{args.command}: input-error ({exc})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.command == "demo":
        return cmd_demo(args.name, out_dir, args.tol, args.seed)
    return run_tasks(spec, out_dir, [(args.command, "report.json")],
                     tol=args.tol, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
