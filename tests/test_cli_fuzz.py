"""Property test of the whole command line, driven by ``cli._OPTIONS``.

Every subcommand runs with a random subset of its options, each given as a
flag (``--key=value`` or ``--key value``) or as a ``--config`` line, drawn
from hostile values (NaN, infinities, zero, negatives, a subnormal, huge
numbers) and small in-range ones.  The size options draw only small in-range values or values above their cap, so
no large array is ever built.  Whatever the input, the run must end with
exit 0, 1 or 2, print no traceback or warning, and leave outputs that read
back (CSV) or validate against their schema (JSON).

A second property draws hostile ``.mzi`` files -- statements in random
order, duplicated, with stray tokens, huge, subnormal and signed-zero
numbers, chains up to one element past ``circuit.MAX_ELEMENTS`` -- and
runs each through the parser and every subcommand that takes a circuit,
under the same requirements.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cbwsim import circuit, cli, config, experiment
from cbwsim.trace_io import read_trace_csv

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "cbwsim" / "schemas"

HOSTILE = ["nan", "inf", "-inf", "0", "-1", "-2.5", "5e-324", "1e308", "1.7976931348623157e308",
           "-1.7976931348623157e308", str(10**30)]
SMALL_NUMBERS = ["1e-6", "0.01", "0.2", "0.5", "1", "2", "10", "100"]
# Size options: small in-range values, or values above the cap.
SIZES = {
    "points": ["0", "1", "2", "3", "17", "64", str(config.MAX_POINTS + 1), str(10**30)],
    "modules": ["0", "-1", "1", "2", "3", "7", str(circuit.MAX_MODULES + 1), str(10**30)],
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
                flag = "--" + key.replace("_", "-")
                argv += data.draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]),
                                  label=f"{key} form")
        if lines:
            (tmp / "run.cfg").write_text("\n".join(lines) + "\n")
            argv += ["--config", str(tmp / "run.cfg")]
        if command == "analyze":
            argv += ["--in", data.draw(st.sampled_from(values_for("input", workdir)), label="in")]
        out = tmp / {"analytic": "o.csv", "simulate": "o.csv", "scan": "run"}.get(command, "o.json")
        to_stdout = command in ("analyze", "sensitivity") and data.draw(st.booleans(), label="stdout")
        if not to_stdout:
            argv += ["--out", str(out)]

        check_run(argv, out, to_stdout)


def check_run(argv, out: Path, to_stdout: bool = False) -> None:
    """Run ``argv`` and require exit 0, 1 or 2 with no traceback or warning:
    an error is one prefixed message, a success writes outputs that read
    back (CSV) or validate against their schema (JSON) to ``out``."""
    code, stdout, stderr, caught = run(argv)
    command = argv[0]

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


# Numbers at the edges of a double, and a few ordinary ones.
MZI_NUMBERS = ["1e400", "1.7976931348623157e308", "1e308", "5e-324", "-0", "0", "1", "2.5",
               "-1", "nan"]
MZI_PHASES = MZI_NUMBERS + ["psi", "phi", "theta"]
# Chain lengths around the element cap, and short ones.
CHAIN_LENGTHS = [0, 1, 2, circuit.MAX_ELEMENTS - 1, circuit.MAX_ELEMENTS,
                 circuit.MAX_ELEMENTS + 1]
# Whole lines and trailing tokens that break a statement.
STRAY_LINES = ["bogus", "mzi", "source", "source intensity", "= 1", "detect a b", "detect a a",
               "detect a", "mzi S arm=middle phase=psi", "# comment", ""]
STRAY_TOKENS = [" extra", " =", " 1e400", " arm=upper", " detect"]


@st.composite
def mzi_files(draw):
    """Text of a hostile ``.mzi`` file.

    Source statements (possibly duplicated) and elements come in random
    order with a run of identical elements at a random place, most often
    followed by one ``detect``; then up to two stray lines or trailing tokens land at
    random places.  So a good share of the files parse, and the rest fail
    in many different ways.
    """
    number, phase = st.sampled_from(MZI_NUMBERS), st.sampled_from(MZI_PHASES)
    arm = st.sampled_from(["upper", "lower"])
    element = st.one_of(st.builds("mzi S arm={} phase={}".format, arm, phase),
                        st.builds("phase arm={} value={}".format, arm, phase))
    lines = [f"source intensity={draw(number)}"
             for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2])))]
    lines += draw(st.lists(element, max_size=3))
    detect = draw(st.sampled_from(["last", "last", "last", "anywhere", "missing"]))
    if detect == "anywhere":
        lines.append("detect a b")
    lines = list(draw(st.permutations(lines)))
    at = draw(st.integers(0, len(lines)))
    lines[at:at] = draw(st.sampled_from(CHAIN_LENGTHS)) * [draw(element)]
    if detect == "last":
        lines.append("detect a b")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        stray = draw(st.sampled_from(STRAY_LINES + STRAY_TOKENS))
        if stray in STRAY_TOKENS and at < len(lines):
            lines[at] += stray
        else:
            lines.insert(at, stray)
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mzi_files(), points=st.sampled_from(["0", "1", "2", "17", "64"]),
       seed=st.integers(0, 3))
# The largest double as source intensity: the lab drift walk overflowed
# the photon routing and the classical powers.
@example(text="source intensity=1.7976931348623157e308\nmzi C arm=lower phase=psi\ndetect a b\n",
         points="64", seed=0)
def test_every_circuit_command_survives_hostile_circuit_files(workdir, text, points, seed):
    try:
        assert isinstance(circuit.parse_circuit(text), circuit.CircuitAst)
    except circuit.CircuitParseError:
        pass
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        (tmp / "hostile.mzi").write_text(text)
        for command in (["scan", "--mode", "photon"], ["scan", "--mode", "classical"],
                        ["simulate"], ["analytic"]):
            out = tmp / ("run" if command[0] == "scan" else "o.csv")
            check_run([*command, "--circuit", str(tmp / "hostile.mzi"), "--points", points,
                       "--seed", str(seed), "--out", str(out)], out)
