"""Simulation toolkit for Leggett-type inequality tests on two-qubit states.

Submodules:
    qstate       -- Bell/Werner states, correlation tensors, joint probabilities
    geometry     -- measurement-setting construction on the Poincare sphere
    inequalities -- six- and eight-setting inequality values, thresholds
    oracle       -- grid search for the hidden-variable maximum (a lower bound)
    expsim       -- finite-shot Monte Carlo with readout error and correction
    cli          -- command-line front end
"""

__version__ = "0.1.0"
