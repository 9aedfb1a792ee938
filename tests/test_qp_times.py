from hmmar.simplex_qp import MAX_STATES, solve_kkt

from qp_times import families, main


def test_qp_times_prints_every_state_count(capsys):
    # two problems per family, one pass: a header, then one line per M with two positive
    # times and no fallback
    assert main(["2", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split()[:4] == ["M", "interior_us", "vertex_us", "fallbacks"]
    assert [int(line.split()[0]) for line in lines] == list(range(1, MAX_STATES + 1))
    for line in lines:
        _, interior, vertex, fallbacks = line.split()
        assert float(interior) > 0.0 and float(vertex) > 0.0 and fallbacks == "0"


def test_families_have_interior_and_vertex_optima():
    for M in (3, 7):
        drawn = families(M, 5)
        assert all((solve_kkt(C, c).u > 0.0).all() for C, c in drawn["interior"])
        assert all((solve_kkt(C, c).u > 0.0).sum() == 1 for C, c in drawn["vertex"])
