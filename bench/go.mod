module pmcast/bench

go 1.24

require pmcast v0.0.0

replace pmcast => ../
