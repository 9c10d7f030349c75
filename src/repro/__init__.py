"""Q-CapsNets reproduction: quantizing Capsule Networks (DAC 2020).

Reproduction of *"Q-CapsNets: A Specialized Framework for Quantizing
Capsule Networks"* (Marchisio et al., DAC 2020) — including the full
substrate it needs (NumPy autograd engine, CapsNet models, fixed-point
quantization, 65nm hardware cost models and synthetic datasets).

Quickstart (the declarative session API is the public entrypoint)::

    from repro.api import QuantSpec, Session

    spec = QuantSpec(model="shallow-small", dataset="digits",
                     tolerance=0.015, budget_divisor=5.0)
    session = Session(spec)
    session.train(epochs=6, out="model.npz")

    result = session.quantize()                       # Algorithm 1
    print(result.summary())
    session.export(result, path="model.qcn.npz")      # versioned artifact

    served = session.serve("model.qcn.npz")           # no search re-run
    labels = served.predict(images)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results of every table and figure.
"""

__version__ = "1.3.0"

from repro import api, autograd, capsnet, engine, nn, quant

__all__ = [
    "api", "autograd", "capsnet", "engine", "nn", "quant", "__version__",
]
