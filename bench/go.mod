module loki/bench

go 1.24

require loki v0.0.0

replace loki => ../
