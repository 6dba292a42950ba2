import freetoeplitz

# the paper's objects plus what the CLI, the check suites and the
# benchmark harness use; a removed name must not come back unnoticed
PUBLIC = {
    "AlgebraElement",
    "KERNEL_IMPL",
    "LeftRightRightmost",
    "OperatorMatrix",
    "ScanOutcome",
    "Scalar",
    "Stochastic",
    "ToeplitzOperator",
    "TruncatedSpace",
    "WeightSystem",
    "adjoint_defect",
    "annihilation",
    "check_adjoint",
    "check_compatibility",
    "commutator_matrix",
    "creation",
    "matrix_of",
    "monte_carlo_mean",
    "parse_weight_config",
    "project",
    "project_oracle",
    "project_word",
    "random_toeplitz_apply",
    "reproduce_counterexamples",
    "scan_project",
    "swap_alphabet",
    "theta_word",
    "word_star",
}


def test_public_surface_is_the_audited_set():
    assert len(freetoeplitz.__all__) == len(PUBLIC)
    assert set(freetoeplitz.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(freetoeplitz, name) is not None
