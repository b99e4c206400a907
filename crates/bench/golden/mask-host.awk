# Masks the host-dependent fields of the `experiments --smoke` report so
# the rest can be diffed byte for byte: the E16 wall time, events/s and
# speedup columns, and the host core count printed under that table.
# Every other number in the report is simulated and deterministic.
/^### / { e16 = ($2 == "E16") }
e16 && /^\| [0-9]/ {
    n = split($0, f, "|")
    f[8] = " - "; f[9] = " - "; f[10] = " - "
    s = f[1]
    for (i = 2; i <= n; i++) s = s "|" f[i]
    $0 = s
}
/^\(host cores: [0-9]+/ { sub(/host cores: [0-9]+/, "host cores: -") }
{ print }
