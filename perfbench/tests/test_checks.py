"""The benchmark's output checks accept right answers and reject planted wrong ones.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import io
import os
import random
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402

import standalone as S  # noqa: E402
import workloads as W  # noqa: E402
from baltri.cli import main  # noqa: E402


def cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def octa_cube(tmp_path):
    return (
        write(tmp_path, "octa.tri", S.format_tri(*S.octahedron())),
        write(tmp_path, "cube.tri", S.format_tri(*S.cube_subdivision())),
    )


def test_connect_check_rejects_a_path_with_one_site_dropped(octa_cube):
    octa, cube = octa_cube
    rc, out = cli("connect", octa, cube, "--max-vertices", "14", "--max-states", "3000")
    check = W.check_connect(octa, cube)
    assert rc == 0 and check(rc, out) is None
    sites = out.split()
    for drop in range(len(sites)):
        planted = "".join(s + "\n" for i, s in enumerate(sites) if i != drop)
        assert check(0, planted) is not None


def test_connect_check_rejects_sites_outside_the_allowed_kinds(octa_cube):
    octa, cube = octa_cube
    _, out = cli("connect", octa, cube, "--max-vertices", "14", "--max-states", "3000")
    assert W.check_connect(octa, cube, ("ps", "pc"))(0, out) is not None


def test_expand_check_rejects_a_sequence_with_one_step_dropped(tmp_path):
    path = write(tmp_path, "octa.tri", S.format_tri(*S.octahedron()))
    rc, out = cli("expand", path, "bes:1,3,5,6", "--via", "bts-pc")
    check = W.check_expand(path, "bes:1,3,5,6")
    assert rc == 0 and check(rc, out) is None
    assert check(0, out.split()[0] + "\n") is not None


def test_sample_check_rejects_a_walk_output_with_one_face_removed(tmp_path):
    start = write(tmp_path, "start.tri", S.format_tri(*S.grid_torus(6)))
    end = str(tmp_path / "end.tri")
    rc, out = cli("sample", start, "--steps", "5", "--seed", "3", "-o", end)
    check = W.check_sample(start, end, 5)
    assert rc == 0 and check(rc, out) is None
    lines = open(end).read().splitlines()
    header, body = lines[0].split(), lines[1:]
    faces = [line for line in body if line.startswith("f ")]
    kept = [line for line in body if line != faces[len(faces) // 2]]
    header[3] = str(len(faces) - 1)
    write(tmp_path, "end.tri", "\n".join([" ".join(header)] + kept) + "\n")
    assert check(rc, out) is not None


def test_sample_check_rejects_a_miscounted_walk(tmp_path):
    start = write(tmp_path, "start.tri", S.format_tri(*S.octahedron()))
    end = str(tmp_path / "end.tri")
    rc, out = cli("sample", start, "--steps", "4", "--seed", "1", "-o", end)
    assert W.check_sample(start, end, 4)(rc, out) is None
    assert W.check_sample(start, end, 4)(rc, "bts:1,2,3\n" + out) is not None


def test_canon_check_rejects_a_code_from_a_different_input(tmp_path):
    grid = write(tmp_path, "grid.tri", S.format_tri(*S.grid_torus(6)))
    moved = write(tmp_path, "moved.tri", S.relabel_tri(open(grid).read(), random.Random(5)))
    other = write(tmp_path, "other.tri", S.format_tri(*S.grown(*S.grid_torus(3), 36, random.Random(1))))
    _, code = cli("canon", grid)
    check = W.check_same_code(lambda: code)
    rc, same = cli("canon", moved)
    assert check(rc, same) is None
    rc, different = cli("canon", other)
    assert check(rc, different) is not None


def test_normalize_check_rejects_a_script_with_an_inverse_op_left_in():
    base = ({v: int(v >= 3) for v in range(6)}, {(i, 3 + j) for i in range(3) for j in range(3)})
    ops = [("add-leaf", (0, 6)), ("split-edge", (1, 4, 7, 8)), ("del-leaf", (6,))]
    check = W.check_normalize(base, ops)
    assert check(0, "split-edge 2 5 8 9\n") is None
    assert check(0, S.format_ops(ops)) is not None


def test_normalize_check_rejects_a_result_that_is_not_isomorphic():
    base = ({v: int(v >= 3) for v in range(6)}, {(i, 3 + j) for i in range(3) for j in range(3)})
    ops = [("add-leaf", (0, 6)), ("split-edge", (1, 4, 7, 8)), ("del-leaf", (6,))]
    assert W.check_normalize(base, ops)(0, "add-leaf 1 7\n") is not None


def test_bip_apply_check_matches_the_cli(tmp_path):
    base = ({v: int(v >= 3) for v in range(6)}, {(i, 3 + j) for i in range(3) for j in range(3)})
    ops = [("add-leaf", (0, 6)), ("split-edge", (1, 4, 7, 8))]
    graph = write(tmp_path, "g.bip", S.format_bip(*base))
    script = write(tmp_path, "s.ops", S.format_ops(ops))
    rc, out = cli("bip", "apply", graph, script)
    check = W.check_bip_apply(base, ops)
    assert rc == 0 and check(rc, out) is None
    assert check(rc, out.replace("e 1 4\n", "")) is not None


def test_standalone_canonical_form_is_invariant_under_relabeling():
    faces, colors = S.grown(*S.octahedron(), 15, random.Random(2))
    rng = random.Random(7)
    perm = list(range(max(colors) + 1))
    rng.shuffle(perm)
    moved = [tuple(perm[v] for v in f) for f in faces]
    moved_colors = {perm[v]: (c + 1) % 3 for v, c in colors.items()}
    assert S.canonical_form(faces, colors) == S.canonical_form(moved, moved_colors)


def test_host_speed_scales_by_the_mean_loop_time_nearby():
    import hostspeed as H

    host = H.HostSpeed()
    # loops twice as slow as nominal around t=10, nominal far away at t=100
    host.samples = [(9.5, 2 * H.NOMINAL_S), (10.2, 2 * H.NOMINAL_S), (10.9, 2 * H.NOMINAL_S),
                    (100.0, H.NOMINAL_S)]
    assert host.scale(10.0, 10.5) == pytest.approx(0.5)
    # alone in its window, a loop time is joined by the two nearest others
    assert host.scale(99.8, 100.1) == pytest.approx(3 / 5)
