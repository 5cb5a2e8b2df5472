module nstore/benchmark

go 1.22

require nstore v0.0.0

replace nstore => ../
