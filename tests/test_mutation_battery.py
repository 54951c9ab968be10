"""Mutation battery for the validation table.

Each mutant is one textual edit ``(name, file, old, new)`` of a module of the
package.  It is applied to a copy of the package under ``tmp_path``, never
to the source tree, and `diagnostics.validation_suite` runs on the copy in a
subprocess, order 2, on the six suites of `SUITES`: seed 0 at (d_S, d_B) =
(2, 3) and seed 1 at (3, 2), each at hbar = 1 and again at hbar = 1.3
(``diagnostics.random_model`` bound to ``hbar``), at the default t = 1.1;
and seed 0 at (2, 3), hbar = 1, and seed 1 at (3, 2), hbar = 1.3, at
t = 4.0.  At t = 1.1 every Van Loan step meets a Pade bound unscaled, so
only the t = 4.0 suites square in `dyson.toeplitz_expm`.  A mutant is
killed when it fails a row that the unmutated copy passes, or makes the
suite raise.  The test prints the kill matrix: for each mutant, the rows it
fails and in how many of the suites.
"""

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "heisenbath")

MUTANTS = (
    (
        "weights_drop_hbar",
        "superop.py",
        "(np.asarray(lams, dtype=float) / ks.frame.constants.hbar)[:, None, None]",
        "np.asarray(lams, dtype=float)[:, None, None]",
    ),
    ("alpha_drop_hbar", "superop.py", "[:, None] / hbar) ** np.arange", "[:, None]) ** np.arange"),
    ("inversion_index", "superop.py", "_dressed(left, right, inv[:m], m", "_dressed(left, right, inv[m - 1 :: -1], m"),
    (
        "affine_inversion",
        "superop.py",
        "_dressed(left, right, inv[:m], m, x)",
        "_dressed(*(_factors(stack, ks.dim_system, np.eye(len(rho_b)) / len(rho_b)) if m > 1 else (left, right)),"
        " inv[:m], m, x)",
    ),
    ("frame_deriv_phase", "dyson.py", "= self._bath_phase * stack[1:]", "= -self._bath_phase * stack[1:]"),
    ("rhs_h0_sign", "superop.py", "(h0 @ values - values @ h0)", "(values @ h0 - h0 @ values)"),
    (
        "padded_powers",
        "superop.py",
        "(1j ** np.arange(order + 1)[:, None, None] * ks.frame_stack(rows[:, : order + 1]))",
        "((-1j) ** np.arange(order + 1)[:, None, None] * ks.frame_stack(rows[:, : order + 1]))",
    ),
    ("partition_sign", "npoint.py", "cores = -weights[pairs", "cores = weights[pairs"),
    ("frame_identity_order0", "dyson.py", "0, :, :] = np.eye(d)", "0, :, :] = row[..., 0, :, :]"),
    ("partition_weight_power", "npoint.py", "self.x ** (n_i + m_i)", "self.x**n_i"),
    ("bath_state_transpose", "superop.py", "(rho_b @ rows[:, p])", "(rho_b.T @ rows[:, p])"),
    ("pade13_b1_sign", "dyson.py", "0.0, 32382376266240000.0", "0.0, -32382376266240000.0"),
    ("pade7_b1", "dyson.py", "17297280.0, 8648640.0,", "17297280.0, 8648000.0,"),
    ("squaring_count", "dyson.py", "for _ in range(s):", "for _ in range(s - 1):"),
    ("star_chain_order", "superop.py", "reduce(np.matmul, mats)", "reduce(np.matmul, mats[::-1])"),
    ("toeplitz_mul_reversal", "dyson.py", "a[1 : n - m], b[m]", "a[n - m - 1 : 0 : -1], b[m]"),
    ("toeplitz_mul_scale_axis", "dyson.py", "a0[:, None] * b", "a0[None, :] * b"),
    ("toeplitz_solve_sign", "dyson.py", "x = p - q * x0", "x = p + q * x0"),
    ("leave_open_conj", "dyson.py", "x.reshape(-1, ds) @ self.v0.conj().T", "x.reshape(-1, ds) @ self.v0.T"),
    ("frame_stack_scale_axis", "dyson.py", "axis2=-1)[..., None, None, :]", "axis2=-1)[..., None, :, None]"),
    ("sandwich_right_conj", "npoint.py", "lifted @ self.kstack[m].conj()", "lifted @ self.kstack[m]"),
    ("system_lift_transpose", "npoint.py", "-1, ds) @ cores)", "-1, ds) @ cores.swapaxes(-1, -2))"),
    ("one_point_lift_transpose", "superop.py", "ds), o_eig, out=", "ds), o_eig.swapaxes(-1, -2), out="),
    ("bath_trace_transpose", "_blockops.py", "rho.T.reshape(-1, 1)", "rho.reshape(-1, 1)"),
    ("cumulant_leg_order", "npoint.py", "- values[0] @ values[1]", "- values[1] @ values[0]"),
    ("dressing_bath_fold", "superop.py", "rho_b.conj().T @ stack", "rho_b.T @ stack"),
    (
        "open_word_weights",
        "npoint.py",
        "self._sandwiches(firsts, weights[firsts[:, 0], firsts[:, 1], None, None] * cores)",
        "self._sandwiches(firsts, cores)",
    ),
)

# (seed, d_S, d_B, hbar, t) of each suite
SUITES = (
    (0, 2, 3, 1.0, 1.1),
    (1, 3, 2, 1.0, 1.1),
    (0, 2, 3, 1.3, 1.1),
    (1, 3, 2, 1.3, 1.1),
    (0, 2, 3, 1.0, 4.0),
    (1, 3, 2, 1.3, 4.0),
)

SUITE_SCRIPT = """
import functools, json, sys
sys.path.insert(0, sys.argv[1])
from heisenbath import diagnostics
assert diagnostics.__file__.startswith(sys.argv[1])
random_model = diagnostics.random_model
out = {}
for seed, d_s, d_b, hbar, t in json.loads(sys.argv[2]):
    diagnostics.random_model = functools.partial(random_model, hbar=hbar)
    try:
        rows = diagnostics.validation_suite(seed, d_s, d_b, order=2, t=t)
        failed = [r["check"] for r in rows if r["status"] != "pass"]
    except Exception as exc:
        failed = ["raised " + type(exc).__name__]
    out[f"seed {seed} ({d_s}, {d_b}) hbar {hbar} t {t}"] = failed
print(json.dumps(out))
"""


def _failures(tmp_path, mutant) -> dict:
    """Failing rows per suite of a package copy with ``mutant`` applied (None: unmutated)."""
    name = "control" if mutant is None else mutant[0]
    root = tmp_path / name
    shutil.copytree(PACKAGE, root / "heisenbath", ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        _, file, old, new = mutant
        path = root / "heisenbath" / file
        text = path.read_text()
        assert text.count(old) == 1, f"mutant {name}: {old!r} must occur exactly once in {file}"
        path.write_text(text.replace(old, new))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SUITE_SCRIPT, str(root), json.dumps(SUITES)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, f"{name}: {proc.stderr[-2000:]}"
    return json.loads(proc.stdout.splitlines()[-1])


def _killed_rows(failures: dict, control: dict) -> dict:
    """Each row failed where the control passes it, with the number of suites that fail it."""
    counts: dict = {}
    for suite, rows in failures.items():
        for row in set(rows) - set(control[suite]):
            counts[row] = counts.get(row, 0) + 1
    return dict(sorted(counts.items()))


def test_every_mutant_fails_a_validation_row(tmp_path):
    battery = (None, *MUTANTS)
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(battery, pool.map(lambda mutant: _failures(tmp_path, mutant), battery)))
    control = results.pop(None)
    n_suites = len(control)
    print(f"\nkill matrix: rows each mutant fails (number of the {n_suites} suites)")
    for mutant, failures in results.items():
        killed = _killed_rows(failures, control)
        cells = ", ".join(f"{row} {n}/{n_suites}" for row, n in killed.items()) or "none"
        print(f"  {mutant[0]:24s} {cells}")
    assert not any(control.values()), f"the unmutated package fails rows: {control}"
    survivors = [m[0] for m in MUTANTS if not _killed_rows(results[m], control)]
    assert not survivors, f"mutants no validation row kills: {survivors}"


def test_mutant_names_are_distinct():
    """The kill matrix is printed by name and collected by `dict(zip(...))`: a
    repeated mutant would be merged silently."""
    assert len({m[0] for m in MUTANTS}) == len(MUTANTS)
