"""The row-major tableau compiler, kept as the reference for `dsl._compile`.

`dsl._compile` keeps its tableau by column, one bitmask over rows per qubit.
This is the row-major form it replaced, kept verbatim: one bitmask over
qubits per row, and a loop over all 2n rows for every gate. Tests compare
the two maps on circuits of up to 24 qubits, far past the dense oracle's
reach. It imports nothing from `dsl` but `Circuit`, so a defect in a helper
of the column-major code cannot hide on both sides.
"""

from qsignal.dsl import Circuit

_MAX_SOURCES = 1 << 20  # sources `_compile` holds in all; k measures can name k(k+1)/2
# A compiled ``measure``: ``(constant, sources)``, a fair coin k being ``(0, (k,))``.
_Outcome = tuple[int, tuple[int, ...]]


def _compile(circuit: Circuit) -> tuple[_Outcome, ...]:
    """Each ``measure`` of ``circuit`` as an affine function of earlier outcomes.

    H, X, CNOT and Z-basis measurement are Clifford, so whether an outcome
    is random, and how a determined one depends on earlier ones, is fixed
    by the circuit. One pass of a stabilizer tableau (Aaronson & Gottesman,
    PRA 70, 052328, 2004) finds it. Rows 0..n-1 are destabilizers and
    n..2n-1 stabilizers. A row of bitmasks x, z over qubits and a sign s
    stands for (-1)^s i^(|x & z| mod 2) X^x Z^z: CNOT flips no sign, and a
    product of commuting rows picks up (-1)^|z1 & x2| and no i·i term, since H,
    X and CNOT are real and so every row holds an even number of Y's. Signs are
    symbolic: bit 0 a constant, bit k + 1 the outcome of the k-th measurement.
    Entry k is ``(constant, sources)``: the k-th outcome is ``constant`` XOR the
    outcomes of the random measurements in ``sources``. A fair coin k is its own
    one source, ``(0, (k,))``; a determined outcome's sources are all earlier
    coins. Sources are counted as entries are made, and the first measurement
    past `_MAX_SOURCES` raises ValueError.
    """
    n = circuit.num_qubits
    xs = [1 << q for q in range(n)] + [0] * n
    zs = [0] * n + [1 << q for q in range(n)]
    signs = [0] * (2 * n)  # destabilizer signs are carried, never read
    outcomes: list[_Outcome] = []
    held = 0
    for ins in circuit.instructions:
        a = 1 << ins.args[0]
        if ins.op != "measure":
            for i in range(2 * n):
                x, z = xs[i], zs[i]
                if ins.op == "h":
                    signs[i] ^= bool(x & z & a)
                    xs[i], zs[i] = x ^ (x ^ z) & a, z ^ (x ^ z) & a
                elif ins.op == "x":
                    signs[i] ^= bool(z & a)
                else:  # cnot: a Circuit holds no other gate
                    c, t = ins.args
                    xs[i], zs[i] = x ^ (x >> c & 1) << t, z ^ (z >> t & 1) << c
            continue
        p = next((i for i in range(n, 2 * n) if xs[i] & a), None)
        if p is None:
            # determined: Z_a is the product of the stabilizers paired with
            # the destabilizers that anticommute with it
            x = sign = 0  # the product's X part; its Z part is never read
            for i in range(n):
                if xs[i] & a:
                    sign ^= signs[n + i] ^ (zs[n + i] & x).bit_count() & 1
                    x ^= xs[n + i]
        else:  # random: the new stabilizer's sign is this outcome's own coin
            for i in range(2 * n):
                if i != p and xs[i] & a:
                    signs[i] ^= signs[p] ^ (zs[p] & xs[i]).bit_count() & 1
                    xs[i], zs[i] = xs[i] ^ xs[p], zs[i] ^ zs[p]
            xs[p - n], zs[p - n] = xs[p], zs[p]
            sign = 1 << len(outcomes) + 1
            xs[p], zs[p], signs[p] = 0, a, sign
        sources, rest = [], sign >> 1
        held += rest.bit_count()
        if held > _MAX_SOURCES:
            raise ValueError(f"a compiled circuit holds at most {_MAX_SOURCES} outcome sources")
        while rest:
            sources.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        outcomes.append((sign & 1, tuple(sources)))
    return tuple(outcomes)
