"""From a statistical model to a POVM, and from a Kraus update back to
Bayes' rule.

A likelihood table over a variable's eigenprojectors defines one effect
per observable sample point; the effects sum to the identity.  When the
Kraus operators are diagonal in the variable's eigenbasis, the quantum
state update reproduces the classical Bayesian posterior exactly.
"""

import numpy as np

from avq import measurement, variables


def main():
    v = variables.AccessibleVariable(
        "theta", [0.0, 1.0],
        (np.diag([1.0, 0.0]).astype(complex),
         np.diag([0.0, 1.0]).astype(complex)))
    model = measurement.StatisticalModel(
        [0.0, 1.0], ("x=0", "x=1"), [[0.8, 0.2], [0.2, 0.8]])

    povm = measurement.povm_of_model(model, v)
    print("POVM effects of the 0.8/0.2 binary model:")
    for label, f in zip(model.sample_points, povm.effects):
        print(f"  {label}: diag {np.real(np.diag(f))}")
    total = sum(povm.effects)
    print(f"  completeness residual: "
          f"{np.max(np.abs(total - np.eye(2))):.1e}")

    prior = [0.5, 0.5]
    sigma = measurement.density_of(prior, v)
    q = measurement.Evidence(sigma)
    print()
    print(f"evidence of each effect under the uniform prior state: "
          f"{[round(q(f), 3) for f in povm.effects]}")

    inst = measurement.KrausInstrument(
        tuple(np.diag(np.sqrt(model.likelihood[k])).astype(complex)
              for k in range(2)))
    kraus_post, bayes_post = measurement.diagonal_kraus_vs_bayes(inst, prior, 0)
    print()
    print(f"after observing x=0:")
    print(f"  Kraus-updated state diagonal : {np.round(kraus_post, 6)}")
    print(f"  Bayes posterior              : {np.round(bayes_post, 6)}")
    print(f"  max difference               : "
          f"{np.max(np.abs(kraus_post - bayes_post)):.1e}")


if __name__ == "__main__":
    main()
