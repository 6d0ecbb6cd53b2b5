"""CLI fuzz: mutated input files end in exit 0, 1 or 2, never in a crash.

Small valid .tri, .bip and .ops files are mutated byte-wise from a fixed
seed (cuts, inserts, overwrites, truncations, non-UTF-8 bytes, huge or
negative numbers, swapped numbers) and fed to the commands that read them,
in-process through cli.main.  Every run must exit 0, 1 or 2 without a
traceback or an internal-error line.
"""

import random
import re

from baltri import format_tri
from baltri.cli import main
from baltri.explorer import build_cube_subdivision, build_octahedron

CASES = 300
SEED = 20170501

K33 = "p bip 6 9\nn 0 0 0 1 1 1\n" + "".join(
    f"e {i + 1} {j + 4}\n" for i in range(3) for j in range(3)
)
SCRIPT = "add-leaf 1 7\nsplit-edge 2 5 8 9\ndel-leaf 7\n"

TRI_COMMANDS = (
    ("validate",),
    ("canon",),
    ("sites",),
    ("classify",),
    ("sample", "--steps", "3", "--seed", "1"),
    ("apply", "bts:1,3,5"),
)
NUMBERS = ("0", "-1", "-7", "1", "2", "3", "9", "65536", "99999999999999999999", str(2**70))
JUNK = b" \n#-:,pfknew0123456789"


def _mutate(rng: random.Random, data: bytes) -> bytes:
    i = rng.randrange(len(data) + 1)
    how = rng.randrange(7)
    if how == 0:  # cut a short stretch
        return data[:i] + data[i + rng.randint(1, 8):]
    if how == 1:  # insert format-like bytes
        return data[:i] + bytes(rng.choice(JUNK) for _ in range(rng.randint(1, 4))) + data[i:]
    if how == 2:  # overwrite one byte
        return data[:i] + bytes([rng.choice(JUNK)]) + data[i + 1:]
    if how == 3:  # truncate
        return data[:rng.randrange(len(data) // 2, len(data) + 1)]
    if how == 4:  # a byte sequence that is not UTF-8
        return data[:i] + rng.choice((b"\xff", b"\xc3", b"\x80", b"\xfe\xfe")) + data[i:]
    numbers = list(re.finditer(rb"\d+", data))
    if len(numbers) < 2:
        return data
    if how == 5:  # replace one number
        m = rng.choice(numbers)
        return data[:m.start()] + rng.choice(NUMBERS).encode() + data[m.end():]
    m, n = sorted(rng.sample(numbers, 2), key=lambda m: m.start())  # swap two numbers
    return (
        data[:m.start()] + n.group() + data[m.end():n.start()] + m.group() + data[n.end():]
    )


def _cases(tmp_path):
    """(argv, the mutated bytes) for each fuzz case, from the fixed seed."""
    rng = random.Random(SEED)
    tris = [format_tri(*build()).encode() for build in (build_octahedron, build_cube_subdivision)]
    files = {"bip": tmp_path / "clean.bip", "ops": tmp_path / "clean.ops"}
    files["bip"].write_text(K33)
    files["ops"].write_text(SCRIPT)
    for n in range(CASES):
        kind = rng.choice(("tri", "tri", "bip", "ops"))
        data = rng.choice(tris) if kind == "tri" else files[kind].read_bytes()
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            data = _mutate(rng, data)
        mutated = tmp_path / f"case{n}.{kind}"
        mutated.write_bytes(data)
        if kind == "tri":
            command, *rest = rng.choice(TRI_COMMANDS)
            argv = [command, str(mutated), *rest]
        else:
            paths = {**files, kind: mutated}
            argv = ["bip", rng.choice(("apply", "normalize")), str(paths["bip"]), str(paths["ops"])]
        yield argv, data


def test_mutated_inputs_never_crash_the_cli(tmp_path, capsys):
    faults = []
    for argv, data in _cases(tmp_path):
        code = main(argv)
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or "Traceback" in err or "error: internal" in err:
            faults.append((argv[:2], code, err.strip(), data[:80]))
    assert not faults, f"{len(faults)} of {CASES} cases crashed, first: {faults[0]}"
