module dbtoaster/bench

go 1.22

require dbtoaster v0.0.0

replace dbtoaster => ../
