module sensorsafe/bench

go 1.22

require sensorsafe v0.0.0

replace sensorsafe => ../
