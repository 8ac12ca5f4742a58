"""Property test of the whole command line, driven by ``cli._OPTIONS``.

Every subcommand runs with a random subset of its options, each given as a
flag or as a ``--config`` line, drawn from hostile values (NaN, infinities,
zero, negatives, a subnormal, huge numbers) and small in-range ones.  The
size options draw only small in-range values or values above their cap, so
no large array is ever built.  Whatever the input, the run must end with
exit 0, 1 or 2, print no traceback or warning, and leave outputs that read
back (CSV) or validate against their schema (JSON).
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbwsim import cli, config, experiment
from cbwsim.trace_io import read_trace_csv

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "cbwsim" / "schemas"

HOSTILE = ["nan", "inf", "-inf", "0", "-1", "-2.5", "5e-324", "1e308", str(10**30)]
SMALL_NUMBERS = ["1e-6", "0.01", "0.2", "0.5", "1", "2", "10", "100"]
# Size options: small in-range values, or values above the cap.
SIZES = {
    "points": ["0", "1", "2", "3", "17", "64", str(config.MAX_POINTS + 1), str(10**30)],
    "modules": ["0", "-1", "1", "2", "3", "7", str(config.MAX_MODULES + 1), str(10**30)],
    "grid": ["0", "-1", "10000", "20000", str(experiment.MAX_GRID_POINTS + 1), str(10**30)],
    # No grid up to the cap resolves order 101, so it always fails.
    "max_m": ["0", "-1", "1", "2", "101", str(10**30)],
}
TEXT = {
    "phi": ["pi", "pi/2", "-3pi/4", "pi/0", "deg:90", "deg:x", "2 pi"],
    "column": ["coinc", "d1", "d2", "i_gamma", "i_delta", "bogus"],
    "noise": ["none", "lab", "bogus"],
    "mode": ["photon", "classical", "bogus"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "single.mzi").write_text("mzi C arm=lower phase=psi\ndetect a b\n")
    (root / "unbound.mzi").write_text("mzi C arm=lower phase=theta\ndetect a b\n")
    for mode in ("photon", "classical"):
        assert cli.dispatch(["scan", "--mode", mode, "--points", "400", "--seed", "3",
                             "--out", str(root / mode)]) == 0
    return root


def values_for(key: str, root: Path):
    if key in SIZES:
        return SIZES[key]
    if key == "circuit":
        return [str(root / "single.mzi"), str(root / "unbound.mzi"), str(root / "missing.mzi")]
    if key == "input":
        return [str(root / "photon" / "trace.csv"), str(root / "classical" / "trace.csv"),
                str(root / "single.mzi")]
    return TEXT.get(key, HOSTILE + SMALL_NUMBERS)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_subcommand_survives_random_options(workdir, command, data):
    keys = cli._COMMANDS[command][2]
    chosen = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=4), label="options")
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        argv, lines = [command], []
        for key in chosen:
            value = data.draw(st.sampled_from(values_for(key, workdir)), label=key)
            if data.draw(st.booleans(), label=f"{key} in config"):
                lines.append(f"{key}={value}")
            else:
                argv.append(f"--{key.replace('_', '-')}={value}")
        if lines:
            (tmp / "run.cfg").write_text("\n".join(lines) + "\n")
            argv += ["--config", str(tmp / "run.cfg")]
        if command == "analyze":
            argv += ["--in", data.draw(st.sampled_from(values_for("input", workdir)), label="in")]
        out = tmp / {"analytic": "o.csv", "simulate": "o.csv", "scan": "run"}.get(command, "o.json")
        to_stdout = command in ("analyze", "sensitivity") and data.draw(st.booleans(), label="stdout")
        if not to_stdout:
            argv += ["--out", str(out)]

        code, stdout, stderr, caught = run(argv)

        assert code in (0, 1, 2), (argv, stderr)
        assert "Traceback" not in stderr and "Warning" not in stderr, (argv, stderr)
        assert not caught, (argv, [str(w.message) for w in caught])
        if code != 0:
            assert stderr.startswith(("cbwsim: error: ", "cbwsim: analysis error: ", "usage: "))
            return
        assert stderr == ""
        if command in ("analytic", "simulate"):
            read_trace_csv(out)
        elif command == "scan":
            read_trace_csv(out / "trace.csv")
            assert (out / "trace.svg").read_text().startswith("<svg")
        else:
            payload = json.loads(stdout if to_stdout else out.read_text())
            name = "fringe_stats" if command == "analyze" else "sensitivity_report"
            schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
            jsonschema.validate(payload, schema)
