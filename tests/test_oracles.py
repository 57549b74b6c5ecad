import numpy as np
import pytest

from oracles import linear_latent_logpdf_oracle
from reclaim import graphs, scm

# The stable 2-cycle X1 <- 0.7 X2, X2 <- -0.8 X1 as a weight matrix (edge i -> j at [i, j]).
TWO_NODE_WEIGHTS = np.array([[0.0, -0.8], [0.7, 0.0]])


class TestLinearLogpdfOracle:
    def test_standard_normal_case(self):
        d = 3
        ll = linear_latent_logpdf_oracle(np.zeros((d, d)), 1.0,
                                         scm.InterventionRegime(), np.zeros(d))
        assert ll == pytest.approx(-(d / 2) * np.log(2 * np.pi))

    def test_two_node_example_logdet_term(self, monkeypatch):
        monkeypatch.setattr(scm, "FIXED_POINT_TOL", 1e-12)
        adj = TWO_NODE_WEIGHTS != 0
        model = scm.GroundTruthScm(graphs.DirectedGraph(adj), TWO_NODE_WEIGHTS, beta=0.0)
        z = np.array([1.0, 3.0])
        x = scm.solve_fixed_point(model, z[None])[0]
        ll = linear_latent_logpdf_oracle(model.weights, 1.0, scm.InterventionRegime(), x)
        gauss = -np.log(2 * np.pi) - 0.5 * float(z @ z)
        assert ll == pytest.approx(gauss + np.log(1.56), abs=1e-9)

    def test_full_intervention_drops_logdet(self):
        regime = scm.InterventionRegime((0, 1), 2.0, mean=0.5)
        x = np.array([0.3, -0.2])
        expected = np.sum(-0.5 * (np.log(2 * np.pi * 2.0) + (x - 0.5) ** 2 / 2.0))
        ll = linear_latent_logpdf_oracle(TWO_NODE_WEIGHTS, 1.0, regime, x)
        assert ll == pytest.approx(expected)
