module scads/benchmark

go 1.24

require scads v0.0.0

replace scads => ../
