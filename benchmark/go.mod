module pgxsort/benchmark

go 1.23

require pgxsort v0.0.0

replace pgxsort => ../
