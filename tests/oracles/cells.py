"""Reference GRU/LSTM steps: the oracle for the fused cell kernels.

:class:`repro.nn.rnn.GRUCell` and :class:`~repro.nn.rnn.LSTMCell` run
each step as one autograd node (:func:`repro.autograd.functional.gru_cell`
/ ``lstm_cell``) with a hand-derived backward.  The functions here build
the same step from ~12 ordinary tape nodes — GEMMs, bias adds, gate
slices, sigmoid/tanh and the blend — which is what the fused kernels must
reproduce to the ulp, values and gradients (DESIGN.md §11).
"""

from repro.nn.rnn import GRUCell, LSTMCell


def gru_forward(cell, x, h):
    """One GRU step (Eq. 3, 6): ``h' = (1 - z) * n + z * h``."""
    gates_x = x @ cell.weight_ih.T + cell.bias_ih
    gates_h = h @ cell.weight_hh.T + cell.bias_hh
    hs = cell.hidden_size
    r = (gates_x[:, :hs] + gates_h[:, :hs]).sigmoid()
    z = (gates_x[:, hs : 2 * hs] + gates_h[:, hs : 2 * hs]).sigmoid()
    n = (gates_x[:, 2 * hs :] + r * gates_h[:, 2 * hs :]).tanh()
    return (1.0 - z) * n + z * h


def lstm_forward(cell, x, state=None):
    """One LSTM step (Eq. 8, 10): returns ``(h_next, c_next)``.

    Records gate saturation exactly when the cell is armed for it, the
    same ``(i, f, o)`` arrays the fused kernel hands its ``gate_hook``.
    """
    if state is None:
        state = cell.init_state(x.shape[0])
    h, c = state
    gates = x @ cell.weight_ih.T + cell.bias_ih + h @ cell.weight_hh.T + cell.bias_hh
    hs = cell.hidden_size
    i = gates[:, :hs].sigmoid()
    f = gates[:, hs : 2 * hs].sigmoid()
    g = gates[:, 2 * hs : 3 * hs].tanh()
    o = gates[:, 3 * hs :].sigmoid()
    if cell.collect_gate_stats:
        cell._record_gate_stats(i.data, f.data, o.data)
    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    return h_next, c_next


def install(monkeypatch):
    """Route every ``GRUCell``/``LSTMCell`` step — and so every RETIA
    encoder step — through the reference compositions."""
    monkeypatch.setattr(GRUCell, "forward", gru_forward)
    monkeypatch.setattr(LSTMCell, "forward", lstm_forward)
