module facile/benchmark

go 1.22

require facile v0.0.0

replace facile => ../
