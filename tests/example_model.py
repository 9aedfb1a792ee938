"""The three-state AR(2) example model that the unit tests share.

It has the bundled example config's parameters (``src/hmmar/example.json``).
"""

from hmmar.model import ArStateParams, SwitchingArModel, TransitionMatrix

EXAMPLE_P = [[0.8, 0.1, 0.1], [0.05, 0.9, 0.05], [0.1, 0.05, 0.85]]


def example_model():
    return SwitchingArModel(
        transition=TransitionMatrix(EXAMPLE_P),
        states=[ArStateParams(0.0, [0.3, 0.2], 0.1),
                ArStateParams(0.5, [0.2, 0.3], 0.2),
                ArStateParams(1.0, [0.1, 0.4], 0.1)],
    )
